use pecan_tensor::{ShapeError, Tensor};
use rand::Rng;

/// Result of one CAM search: the winning row and its matching score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// Index of the best-matching stored row.
    pub row: usize,
    /// The winning score (negative L1 distance for [`AnalogCam`], dot
    /// product for [`DotProductCam`]).
    pub score: f32,
}

/// An analog CAM array holding `p` prototype rows of width `d` that answers
/// nearest-match queries under the L1 metric — the winner-take-all
/// behaviour of a memristive CAM / RRAM crossbar (§1).
///
/// Optionally perturbs its stored cells with Gaussian noise to model device
/// variation ([`AnalogCam::with_noise`]).
#[derive(Debug, Clone)]
pub struct AnalogCam {
    rows: Tensor, // [p, d]
    /// The same cells column-major (`[d, p]`), the layout few-query
    /// searches scan; rebuilt whenever `rows` changes.
    cols: Vec<f32>,
}

impl AnalogCam {
    /// Programs the array with `rows` (`[p, d]`, one prototype per row).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` is not a non-empty rank-2 tensor.
    pub fn new(rows: Tensor) -> Result<Self, ShapeError> {
        rows.shape().expect_rank(2)?;
        if rows.dims()[0] == 0 || rows.dims()[1] == 0 {
            return Err(ShapeError::new("CAM array must be non-empty"));
        }
        let cols = pecan_index::transpose_rows(rows.data(), rows.dims()[1]);
        Ok(Self { rows, cols })
    }

    /// Programs the array and perturbs every cell with `N(0, sigma²)` noise,
    /// modelling RRAM conductance variation.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` is not a non-empty rank-2 tensor.
    pub fn with_noise<R: Rng>(
        rows: Tensor,
        sigma: f32,
        rng: &mut R,
    ) -> Result<Self, ShapeError> {
        let mut cam = Self::new(rows)?;
        if sigma > 0.0 {
            for v in cam.rows.data_mut() {
                *v += gaussian(rng) * sigma;
            }
            cam.cols = pecan_index::transpose_rows(cam.rows.data(), cam.width());
        }
        Ok(cam)
    }

    /// Number of stored prototypes `p`.
    pub fn entries(&self) -> usize {
        self.rows.dims()[0]
    }

    /// Width of each prototype `d`.
    pub fn width(&self) -> usize {
        self.rows.dims()[1]
    }

    /// The stored (possibly noisy) array.
    pub fn rows(&self) -> &Tensor {
        &self.rows
    }

    /// Finds the stored row with the smallest L1 distance to `query`
    /// (first index on ties). Runs on the shared `pecan-index` scan, so it
    /// agrees bit-for-bit with [`AnalogCam::search_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `query.len() != d`.
    pub fn search(&self, query: &[f32]) -> Result<SearchResult, ShapeError> {
        if query.len() != self.width() {
            return Err(ShapeError::new(format!(
                "query width {} does not match CAM width {}",
                query.len(),
                self.width()
            )));
        }
        let (row, dist) = pecan_index::l1_argmin(self.rows.data(), self.width(), query);
        Ok(SearchResult { row, score: -dist })
    }

    /// Searches a batch of queries laid out query-major (`[q·d]`, query `i`
    /// occupying `queries[i*d..(i+1)*d]`) and returns the winning row per
    /// query.
    ///
    /// The query count picks the `pecan-index` kernel: at most
    /// [`pecan_index::FEW_QUERIES`] queries run the [prototype-lane
    /// scan](pecan_index::l1_argmin_lanes) once per query, which fills
    /// every vector lane even at batch 1; more run the [Quick-ADC-style
    /// lane-blocked scan](pecan_index::l1_argmin_batch), which amortizes
    /// each stored-cell load over [`pecan_index::LANES`] queries. Either
    /// way the winners and scores are identical to calling
    /// [`AnalogCam::search`] per query.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `queries.len()` is not a multiple of `d`.
    pub fn search_batch(&self, queries: &[f32]) -> Result<Vec<SearchResult>, ShapeError> {
        let d = self.width();
        if queries.len() % d != 0 {
            return Err(ShapeError::new(format!(
                "query buffer of {} is not a multiple of CAM width {d}",
                queries.len()
            )));
        }
        Ok(self.search_queries(queries, d, 0, queries.len() / d, &mut Vec::new()))
    }

    /// Searches `count` queries embedded in a larger column-major buffer:
    /// query `i` is the `d` values at `data[i·stride + offset ..]`. This is
    /// the batch-first serving entry point — a pipeline carrying one
    /// contiguous `[features, batch]` activation matrix hands each codebook
    /// group's sub-rows straight to the CAM without materializing a
    /// per-group matrix first. It picks its kernel as
    /// [`AnalogCam::search_batch`] does: the prototype-lane scan reads each
    /// query in place, and the lane-blocked scan gathers the queries into
    /// its query-major buffer here, once.
    ///
    /// Winners and scores are bit-identical to [`AnalogCam::search`] per
    /// query.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when a query would read outside `data`
    /// (`offset + d > stride` or the last query overruns the buffer).
    pub fn search_strided(
        &self,
        data: &[f32],
        stride: usize,
        offset: usize,
        count: usize,
    ) -> Result<Vec<SearchResult>, ShapeError> {
        self.search_strided_into(data, stride, offset, count, &mut Vec::new())
    }

    /// [`AnalogCam::search_strided`] with a caller-owned scratch buffer
    /// (cleared and resized as needed) for the prototype-lane scan's
    /// distances or the lane-blocked scan's gathered queries — repeated
    /// per-group calls on a serving hot path reuse one allocation across
    /// all groups.
    ///
    /// # Errors
    ///
    /// As for [`AnalogCam::search_strided`].
    pub fn search_strided_into(
        &self,
        data: &[f32],
        stride: usize,
        offset: usize,
        count: usize,
        scratch: &mut Vec<f32>,
    ) -> Result<Vec<SearchResult>, ShapeError> {
        let _span = pecan_obs::span("cam.search_strided");
        let d = self.width();
        if offset + d > stride || count * stride > data.len() {
            return Err(ShapeError::new(format!(
                "strided search (offset {offset}, width {d}, stride {stride}, count {count}) \
                 overruns a buffer of {}",
                data.len()
            )));
        }
        Ok(self.search_queries(data, stride, offset, count, scratch))
    }

    /// The one kernel choice behind every multi-query search, on queries
    /// the caller has bounds-checked: query `i` is
    /// `data[i·stride + offset ..][..d]`.
    fn search_queries(
        &self,
        data: &[f32],
        stride: usize,
        offset: usize,
        count: usize,
        scratch: &mut Vec<f32>,
    ) -> Vec<SearchResult> {
        let d = self.width();
        let hit = |(row, dist): (usize, f32)| SearchResult { row, score: -dist };
        if count <= pecan_index::FEW_QUERIES {
            return (0..count)
                .map(|i| {
                    let query = &data[i * stride + offset..i * stride + offset + d];
                    hit(pecan_index::l1_argmin_lanes(&self.cols, d, query, scratch))
                })
                .collect();
        }
        let queries = if stride == d && offset == 0 {
            &data[..count * d]
        } else {
            scratch.clear();
            scratch.resize(count * d, 0.0);
            for i in 0..count {
                let from = i * stride + offset;
                scratch[i * d..(i + 1) * d].copy_from_slice(&data[from..from + d]);
            }
            &scratch[..]
        };
        pecan_index::l1_argmin_batch(self.rows.data(), d, queries).into_iter().map(hit).collect()
    }
}

/// A dot-product CAM: returns the stored row with the largest inner product
/// with the query. This is the in-memory primitive PECAN-A's attention
/// scores map onto (a crossbar multiply-accumulate).
#[derive(Debug, Clone)]
pub struct DotProductCam {
    rows: Tensor, // [p, d]
}

impl DotProductCam {
    /// Programs the array with `rows` (`[p, d]`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `rows` is not a non-empty rank-2 tensor.
    pub fn new(rows: Tensor) -> Result<Self, ShapeError> {
        rows.shape().expect_rank(2)?;
        if rows.dims()[0] == 0 || rows.dims()[1] == 0 {
            return Err(ShapeError::new("CAM array must be non-empty"));
        }
        Ok(Self { rows })
    }

    /// Number of stored rows.
    pub fn entries(&self) -> usize {
        self.rows.dims()[0]
    }

    /// Row width.
    pub fn width(&self) -> usize {
        self.rows.dims()[1]
    }

    /// The programmed rows (`[p, d]`), e.g. for serializing the array.
    pub fn rows(&self) -> &Tensor {
        &self.rows
    }

    /// All raw scores `rows · query` (the attention logits of Eq. 2).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `query.len() != d`.
    pub fn scores(&self, query: &[f32]) -> Result<Vec<f32>, ShapeError> {
        let mut out = vec![0.0f32; self.entries()];
        self.scores_into(query, &mut out)?;
        Ok(out)
    }

    /// [`DotProductCam::scores`] into a caller-owned buffer — the
    /// batch-first serving path calls this once per column per group, so
    /// reusing one scratch buffer keeps the hot loop allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `query.len() != d` or
    /// `out.len() != p`.
    pub fn scores_into(&self, query: &[f32], out: &mut [f32]) -> Result<(), ShapeError> {
        if query.len() != self.width() {
            return Err(ShapeError::new(format!(
                "query width {} does not match CAM width {}",
                query.len(),
                self.width()
            )));
        }
        if out.len() != self.entries() {
            return Err(ShapeError::new(format!(
                "score buffer of {} for {} stored rows",
                out.len(),
                self.entries()
            )));
        }
        // One `data()` borrow for every row: shared-storage tensors
        // (mmap-backed snapshots) pay a dynamic dispatch per borrow, and
        // this runs once per column per group on the serving hot path.
        let rows = self.rows.data();
        let d = self.width();
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = rows[r * d..(r + 1) * d]
                .iter()
                .zip(query)
                .map(|(&a, &b)| a * b)
                .sum();
        }
        Ok(())
    }

    /// Best-matching row by inner product: the first of tied maxima, and a
    /// NaN score never beats a number (an all-NaN array answers row 0).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `query.len() != d`.
    pub fn search(&self, query: &[f32]) -> Result<SearchResult, ShapeError> {
        let scores = self.scores(query)?;
        let mut best = SearchResult { row: 0, score: f32::NAN };
        for (row, &score) in scores.iter().enumerate() {
            if score > best.score || (best.score.is_nan() && !score.is_nan()) {
                best = SearchResult { row, score };
            }
        }
        Ok(best)
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cam_3x2() -> AnalogCam {
        AnalogCam::new(
            Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0, -2.0, 2.0], &[3, 2]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn analog_search_finds_nearest_l1() {
        let cam = cam_3x2();
        assert_eq!(cam.search(&[0.1, -0.1]).unwrap().row, 0);
        assert_eq!(cam.search(&[0.9, 0.8]).unwrap().row, 1);
        assert_eq!(cam.search(&[-1.5, 1.9]).unwrap().row, 2);
        assert_eq!(cam.entries(), 3);
        assert_eq!(cam.width(), 2);
    }

    #[test]
    fn exact_match_has_zero_distance_score() {
        let cam = cam_3x2();
        let r = cam.search(&[1.0, 1.0]).unwrap();
        assert_eq!(r.row, 1);
        assert_eq!(r.score, 0.0);
    }

    #[test]
    fn batch_search_matches_single_search() {
        let cam = cam_3x2();
        let queries = [0.1, -0.1, 0.9, 0.8, -1.5, 1.9, 1.0, 1.0];
        let hits = cam.search_batch(&queries).unwrap();
        assert_eq!(hits.len(), 4);
        for (i, hit) in hits.iter().enumerate() {
            let single = cam.search(&queries[i * 2..(i + 1) * 2]).unwrap();
            assert_eq!(*hit, single);
        }
        assert!(cam.search_batch(&[0.0; 3]).is_err());
    }

    #[test]
    fn strided_search_matches_single_search() {
        // Counts 1..=9 cross from the prototype-lane kernel to the blocked
        // one. The noisy CAM's column copy must follow its noisy rows, or
        // the few-query counts would score the clean ones.
        let (p, d, stride, offset) = (37, 5, 8, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let rows = pecan_tensor::uniform(&mut rng, &[p, d], -1.0, 1.0);
        let data = pecan_tensor::uniform(&mut rng, &[9 * stride], -1.0, 1.0).into_vec();
        let clean = AnalogCam::new(rows.clone()).unwrap();
        let noisy = AnalogCam::with_noise(rows, 0.5, &mut rng).unwrap();
        let mut scratch = Vec::new();
        for cam in [&clean, &noisy] {
            for count in 1..=9 {
                let queries: Vec<&[f32]> =
                    (0..count).map(|i| &data[i * stride + offset..][..d]).collect();
                let want: Vec<SearchResult> =
                    queries.iter().map(|q| cam.search(q).unwrap()).collect();
                let strided = cam.search_strided(&data, stride, offset, count).unwrap();
                assert_eq!(strided, want, "count {count}");
                let reused = cam.search_strided_into(&data, stride, offset, count, &mut scratch);
                assert_eq!(reused.unwrap(), want, "count {count}");
                assert_eq!(cam.search_batch(&queries.concat()).unwrap(), want, "count {count}");
            }
        }
        // overruns are typed errors, not panics
        assert!(clean.search_strided(&data, stride, 4, 9).is_err());
        assert!(clean.search_strided(&data, stride, offset, 10).is_err());
    }

    #[test]
    fn zero_noise_is_identical_and_noise_perturbs() {
        let base = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[2, 2]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let clean = AnalogCam::with_noise(base.clone(), 0.0, &mut rng).unwrap();
        assert_eq!(clean.rows().data(), base.data());
        let noisy = AnalogCam::with_noise(base.clone(), 0.5, &mut rng).unwrap();
        assert!(noisy.rows().max_abs_diff(&base) > 0.0);
    }

    #[test]
    fn dot_cam_prefers_aligned_rows() {
        let cam = DotProductCam::new(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap(),
        )
        .unwrap();
        assert_eq!(cam.search(&[5.0, 0.1]).unwrap().row, 0);
        assert_eq!(cam.search(&[0.1, 5.0]).unwrap().row, 1);
        let s = cam.scores(&[2.0, 3.0]).unwrap();
        assert_eq!(s, vec![2.0, 3.0]);
        let mut buf = vec![0.0; 2];
        cam.scores_into(&[2.0, 3.0], &mut buf).unwrap();
        assert_eq!(buf, s);
        assert!(cam.scores_into(&[2.0, 3.0], &mut [0.0; 3]).is_err());
        // A NaN score loses to a number: row 0 scores 1 + 0·∞ = NaN.
        let hit = cam.search(&[1.0, f32::INFINITY]).unwrap();
        assert_eq!((hit.row, hit.score), (1, f32::INFINITY));

        // Ties go to the first row, as in `AnalogCam` and the kernels.
        let tied = DotProductCam::new(
            Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0], &[3, 2]).unwrap(),
        )
        .unwrap();
        assert_eq!(tied.search(&[2.0, 0.5]).unwrap(), SearchResult { row: 0, score: 2.0 });
        let hit = tied.search(&[f32::INFINITY, 1.0]).unwrap();
        assert_eq!((hit.row, hit.score), (0, f32::INFINITY));
        // All scores NaN: no panic, row 0.
        let hit = tied.search(&[f32::NAN, 0.0]).unwrap();
        assert_eq!(hit.row, 0);
        assert!(hit.score.is_nan());
    }

    #[test]
    fn shape_validation() {
        assert!(AnalogCam::new(Tensor::zeros(&[0, 3])).is_err());
        assert!(AnalogCam::new(Tensor::zeros(&[3])).is_err());
        let cam = cam_3x2();
        assert!(cam.search(&[1.0]).is_err());
        assert!(DotProductCam::new(Tensor::zeros(&[2, 0])).is_err());
    }
}
