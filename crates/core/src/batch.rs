//! Batch-first activation carrier for the Algorithm-1 inference path.
//!
//! [`InferBatch`] is the unit of work that flows through a compiled
//! inference pipeline: **one contiguous column-major `[features, batch]`
//! buffer** plus the per-sample shape it encodes. Keeping the whole batch
//! in a single matrix is what lets consecutive table-lookup layers feed
//! the lane-blocked `pecan-index` scan kernel wide column matrices instead of
//! per-sample slivers — the PQ-DNN throughput recipe of PQA (Abouelhamayed
//! et al., 2023) and PQTable (Matsui et al., 2017).
//!
//! # Layout contract
//!
//! The buffer is **column-major**: column `i` (one sample, or one im2col
//! patch) occupies the contiguous range `data[i * features .. (i + 1) *
//! features]`. Within a column, the sample is flattened in the usual
//! row-major order of its `sample_shape` — a `[c, h, w]` feature map
//! stores channel-major, exactly like a rank-3 [`Tensor`]. Two
//! consequences the pipeline relies on:
//!
//! * every per-column operation (CAM query gathers, bias seeding, LUT
//!   accumulation, pooling windows) reads and writes contiguous memory;
//! * reinterpreting the per-sample shape ([`InferBatch::reshaped`], e.g.
//!   flatten `[c, h, w] → [c·h·w]`) is metadata-only — zero copies.
//!
//! This is the transpose of the row-major `[rows, cols]` matrices the
//! training-path tools pass around; [`InferBatch::from_matrix`] /
//! [`InferBatch::to_matrix`] convert (with a copy) at the boundary.

use pecan_tensor::{Conv2dGeometry, ShapeError, Tensor};

/// A batch of activations as one contiguous column-major matrix.
///
/// **Layout contract**: column `i` (one sample, or one im2col patch)
/// occupies the contiguous range `data[i · features .. (i + 1) ·
/// features]`; within a column the sample is flattened row-major over
/// `sample_shape` (a `[c, h, w]` feature map stores channel-major,
/// exactly like a rank-3 [`Tensor`]). Per-column work therefore touches
/// contiguous memory, and reshapes ([`InferBatch::reshaped`], e.g.
/// flatten) are metadata-only. This is the *transpose* of the row-major
/// `[rows, cols]` matrices the training-path tools pass around;
/// [`InferBatch::from_matrix`] / [`InferBatch::to_matrix`] convert (with
/// a copy) at the boundary.
///
/// Constructed at the edge of a serving pipeline (one column per
/// request), transformed in place by each stage, and split back into
/// per-sample vectors only when the responses leave the process.
///
/// # Example
///
/// ```
/// use pecan_core::InferBatch;
///
/// let batch = InferBatch::from_samples(
///     &[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]],
///     &[2, 2],
/// )?;
/// assert_eq!((batch.features(), batch.cols()), (4, 2));
/// assert_eq!(batch.col(1), &[5.0, 6.0, 7.0, 8.0]);
/// // flatten is metadata-only
/// let flat = batch.reshaped(&[4])?;
/// assert_eq!(flat.sample_shape(), &[4]);
/// # Ok::<(), pecan_tensor::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct InferBatch {
    data: Vec<f32>,
    sample_shape: Vec<usize>,
    features: usize,
    cols: usize,
}

fn checked_features(sample_shape: &[usize]) -> Result<usize, ShapeError> {
    if sample_shape.is_empty() || sample_shape.contains(&0) {
        return Err(ShapeError::new(format!(
            "sample shape {sample_shape:?} must be non-empty with non-zero dims"
        )));
    }
    Ok(sample_shape.iter().product())
}

impl InferBatch {
    /// An all-zero batch of `cols` samples of shape `sample_shape`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `sample_shape` is empty or has a zero
    /// dimension. `cols == 0` (an empty batch) is valid.
    pub fn zeros(sample_shape: &[usize], cols: usize) -> Result<Self, ShapeError> {
        let features = checked_features(sample_shape)?;
        Ok(Self {
            data: vec![0.0; features * cols],
            sample_shape: sample_shape.to_vec(),
            features,
            cols,
        })
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `data.len()` is not `features · cols`
    /// for the given shape.
    pub fn from_data(
        data: Vec<f32>,
        sample_shape: &[usize],
        cols: usize,
    ) -> Result<Self, ShapeError> {
        let features = checked_features(sample_shape)?;
        if data.len() != features * cols {
            return Err(ShapeError::new(format!(
                "buffer of {} for {cols} columns of {features} features",
                data.len()
            )));
        }
        Ok(Self { data, sample_shape: sample_shape.to_vec(), features, cols })
    }

    /// Packs per-sample vectors into one contiguous batch (the serving
    /// entry point: one column per request).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when any sample's length does not match
    /// `sample_shape`.
    pub fn from_samples(samples: &[Vec<f32>], sample_shape: &[usize]) -> Result<Self, ShapeError> {
        let features = checked_features(sample_shape)?;
        let mut data = Vec::with_capacity(features * samples.len());
        for (i, s) in samples.iter().enumerate() {
            if s.len() != features {
                return Err(ShapeError::new(format!(
                    "sample {i} has {} values, batch carries {features} features",
                    s.len()
                )));
            }
            data.extend_from_slice(s);
        }
        Ok(Self { data, sample_shape: sample_shape.to_vec(), features, cols: samples.len() })
    }

    /// Converts a row-major `[rows, cols]` column matrix (the layout the
    /// training-path tools use) into a batch — a transpose copy.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x` is not rank 2.
    pub fn from_matrix(x: &Tensor) -> Result<Self, ShapeError> {
        x.shape().expect_rank(2)?;
        let (rows, cols) = (x.dims()[0], x.dims()[1]);
        if rows == 0 {
            return Err(ShapeError::new("column matrix must have at least one row"));
        }
        let mut data = vec![0.0f32; rows * cols];
        let src = x.data();
        for r in 0..rows {
            let srow = &src[r * cols..(r + 1) * cols];
            for (i, &v) in srow.iter().enumerate() {
                data[i * rows + r] = v;
            }
        }
        Ok(Self { data, sample_shape: vec![rows], features: rows, cols })
    }

    /// Converts back into a row-major `[features, cols]` matrix — the
    /// transpose of [`InferBatch::from_matrix`].
    pub fn to_matrix(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.features, self.cols]);
        let dst = out.data_mut();
        for i in 0..self.cols {
            let col = &self.data[i * self.features..(i + 1) * self.features];
            for (r, &v) in col.iter().enumerate() {
                dst[r * self.cols + i] = v;
            }
        }
        out
    }

    /// Splits the batch back into one flat vector per sample (the serving
    /// exit point).
    pub fn into_samples(self) -> Vec<Vec<f32>> {
        let features = self.features;
        let mut data = self.data;
        let mut out = Vec::with_capacity(self.cols);
        for i in (0..self.cols).rev() {
            out.push(data.split_off(i * features));
        }
        out.reverse();
        out
    }

    /// Values per column (`∏ sample_shape`).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of columns (samples, or patches for an im2col view).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shape each column encodes.
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// The whole column-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the whole buffer (elementwise stages work here).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the batch, returning the raw buffer.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Column `i` as a contiguous slice.
    pub fn col(&self, i: usize) -> &[f32] {
        &self.data[i * self.features..(i + 1) * self.features]
    }

    /// Column `i` as a contiguous mutable slice.
    pub fn col_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.features..(i + 1) * self.features]
    }

    /// Reinterprets the per-sample shape without touching the buffer
    /// (flatten and friends — metadata-only, zero copy).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the new shape's element count differs.
    pub fn reshaped(mut self, sample_shape: &[usize]) -> Result<Self, ShapeError> {
        let features = checked_features(sample_shape)?;
        if features != self.features {
            return Err(ShapeError::new(format!(
                "cannot reshape {} features into {sample_shape:?}",
                self.features
            )));
        }
        self.sample_shape = sample_shape.to_vec();
        Ok(self)
    }

    /// Batched im2col: unfolds every `[cin, h, w]` column of the batch
    /// into its `[cin·k², Hout·Wout]` patch columns, producing **one**
    /// `[patch_len, batch · n_patches]` matrix — sample `i`'s patches
    /// occupy columns `i·n .. (i+1)·n`. This is the batch-carrying form of
    /// [`pecan_tensor::im2col`]: the taps are identical (pure gather, zero
    /// padding outside the image), so downstream results are bit-identical
    /// to unfolding each sample alone.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the per-sample shape is not the
    /// geometry's `[cin, h, w]`.
    pub fn im2col(&self, geom: &Conv2dGeometry) -> Result<InferBatch, ShapeError> {
        let _span = pecan_obs::span("core.im2col");
        let expect = [geom.c_in(), geom.h_in(), geom.w_in()];
        if self.sample_shape != expect {
            return Err(ShapeError::new(format!(
                "batched im2col expects samples {expect:?}, batch carries {:?}",
                self.sample_shape
            )));
        }
        let k = geom.kernel();
        let n = geom.n_patches();
        let patch_len = geom.patch_len();
        let (h_in, w_in) = (geom.h_in() as isize, geom.w_in() as isize);
        let mut out = InferBatch::zeros(&[patch_len], self.cols * n)?;
        for i in 0..self.cols {
            let src = self.col(i);
            for oy in 0..geom.h_out() {
                for ox in 0..geom.w_out() {
                    let col = out.col_mut((i * n) + oy * geom.w_out() + ox);
                    let mut r = 0;
                    for c in 0..geom.c_in() {
                        for ky in 0..k {
                            let iy = (oy * geom.stride() + ky) as isize - geom.padding() as isize;
                            for kx in 0..k {
                                let ix =
                                    (ox * geom.stride() + kx) as isize - geom.padding() as isize;
                                col[r] = if iy >= 0 && iy < h_in && ix >= 0 && ix < w_in {
                                    src[(c * geom.h_in() + iy as usize) * geom.w_in()
                                        + ix as usize]
                                } else {
                                    0.0
                                };
                                r += 1;
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pecan_tensor::im2col;

    #[test]
    fn shape_validation() {
        assert!(InferBatch::zeros(&[], 2).is_err());
        assert!(InferBatch::zeros(&[2, 0], 2).is_err());
        assert!(InferBatch::from_data(vec![0.0; 5], &[2], 2).is_err());
        assert!(InferBatch::from_samples(&[vec![0.0; 3]], &[2, 2]).is_err());
        assert!(InferBatch::zeros(&[3], 0).unwrap().data().is_empty());
    }

    #[test]
    fn matrix_round_trip_is_exact() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32 * 0.3 - 1.0).collect(), &[3, 4])
            .unwrap();
        let b = InferBatch::from_matrix(&x).unwrap();
        assert_eq!((b.features(), b.cols()), (3, 4));
        // column 2 of the matrix = sample 2 of the batch
        assert_eq!(b.col(2), &[x.get2(0, 2), x.get2(1, 2), x.get2(2, 2)]);
        assert_eq!(b.to_matrix().data(), x.data());
    }

    #[test]
    fn samples_round_trip_and_reshape() {
        let samples = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let b = InferBatch::from_samples(&samples, &[1, 2, 2]).unwrap();
        let flat = b.clone().reshaped(&[4]).unwrap();
        assert_eq!(flat.data(), b.data(), "reshape copies nothing");
        assert!(b.clone().reshaped(&[5]).is_err());
        assert_eq!(b.into_samples(), samples);
    }

    #[test]
    fn batched_im2col_matches_per_sample_im2col() {
        let geom = Conv2dGeometry::new(2, 5, 4, 3, 2, 1).unwrap();
        let mut samples = Vec::new();
        for s in 0..3 {
            samples.push(
                (0..2 * 5 * 4)
                    .map(|i| ((i * 7 + s * 13) % 11) as f32 - 5.0)
                    .collect::<Vec<f32>>(),
            );
        }
        let batch = InferBatch::from_samples(&samples, &[2, 5, 4]).unwrap();
        let cols = batch.im2col(&geom).unwrap();
        let n = geom.n_patches();
        assert_eq!(cols.cols(), 3 * n);
        for (s, sample) in samples.iter().enumerate() {
            let img = Tensor::from_vec(sample.clone(), &[2, 5, 4]).unwrap();
            let single = im2col(&img, &geom).unwrap();
            for p in 0..n {
                for r in 0..geom.patch_len() {
                    assert_eq!(
                        cols.col(s * n + p)[r].to_bits(),
                        single.get2(r, p).to_bits(),
                        "sample {s} patch {p} row {r}"
                    );
                }
            }
        }
        // shape mismatch is typed
        assert!(InferBatch::zeros(&[2, 4, 4], 1).unwrap().im2col(&geom).is_err());
    }
}
