/// Number of queries processed together by the blocked kernel, and of
/// argmin strands in the prototype-lane kernel.
///
/// Eight `f32` lanes fill a 256-bit vector register; the accumulator array
/// of a block fits comfortably in registers, which is what lets the scalar
/// loop auto-vectorize.
pub const LANES: usize = 8;

/// The most queries per call that `AnalogCam` answers with
/// [`l1_argmin_lanes`], once per query, rather than with
/// [`l1_argmin_batch`].
///
/// The `cam_search` bench sets it: at both demo shapes the prototype-lane
/// kernel is faster up to four queries and the blocked kernel from eight.
pub const FEW_QUERIES: usize = LANES / 2;

/// Element types the L1 kernels can scan: `f32` (the analog CAM) and `i16`
/// accumulated in `i32` (the fixed-point CAM).
///
/// Distances accumulate in ascending element order regardless of type and
/// kernel, so winners are bit-identical to the one-query reference scan.
pub trait L1Element: Copy {
    /// Accumulator type for summed distances.
    type Acc: Copy + PartialOrd;
    /// Padding value for the blocked kernel's tail block (its results are
    /// discarded).
    const ZERO: Self;
    /// Additive identity of the accumulator.
    const ZERO_ACC: Self::Acc;
    /// Upper bound no real distance reaches.
    const MAX_ACC: Self::Acc;
    /// `|self - other|` widened into the accumulator type.
    fn abs_diff(self, other: Self) -> Self::Acc;
    /// Accumulator addition.
    fn add(a: Self::Acc, b: Self::Acc) -> Self::Acc;
}

impl L1Element for f32 {
    type Acc = f32;
    const ZERO: Self = 0.0;
    const ZERO_ACC: f32 = 0.0;
    const MAX_ACC: f32 = f32::INFINITY;
    #[inline]
    fn abs_diff(self, other: Self) -> f32 {
        (self - other).abs()
    }
    #[inline]
    fn add(a: f32, b: f32) -> f32 {
        a + b
    }
}

impl L1Element for i16 {
    type Acc = i32;
    const ZERO: Self = 0;
    const ZERO_ACC: i32 = 0;
    const MAX_ACC: i32 = i32::MAX;
    #[inline]
    fn abs_diff(self, other: Self) -> i32 {
        (self as i32 - other as i32).abs()
    }
    #[inline]
    fn add(a: i32, b: i32) -> i32 {
        a + b
    }
}

/// Exhaustive single-query L1 argmin over a flattened `[p, width]`
/// prototype buffer: `(winning row, distance)`, first row winning ties,
/// distances accumulated in ascending element order. `pecan-cam`'s
/// one-query searches run it, and it is the oracle [`l1_argmin_lanes`] and
/// [`l1_argmin_batch`] are tested against — one copy is what makes their
/// bit-identical agreement a local property rather than a cross-crate
/// convention.
///
/// # Panics
///
/// Panics when `width` is zero, `rows` is empty or not whole rows, or the
/// query length is not `width`.
pub fn l1_argmin<E: L1Element>(rows: &[E], width: usize, query: &[E]) -> (usize, E::Acc) {
    // analyze: allow(hot-path-panic) -- caller bug: `AnalogCam` and
    // `FixedCam` check these shapes and return a typed error first.
    assert!(width > 0, "width must be non-zero");
    assert!(
        !rows.is_empty() && rows.len() % width == 0,
        "prototype buffer must hold whole rows"
    );
    // analyze: allow(hot-path-panic) -- caller bug, as above.
    assert!(query.len() == width, "query length must equal width");
    let mut best_row = 0usize;
    let mut best_dist = E::MAX_ACC;
    for (r, row) in rows.chunks_exact(width).enumerate() {
        let mut dist = E::ZERO_ACC;
        for (&cell, &q) in row.iter().zip(query) {
            dist = E::add(dist, q.abs_diff(cell));
        }
        if dist < best_dist {
            best_dist = dist;
            best_row = r;
        }
    }
    (best_row, best_dist)
}

/// Copies a flattened `[p, width]` prototype buffer into the column-major
/// `[width, p]` layout [`l1_argmin_lanes`] scans: element `k` of every
/// prototype, in row order, then element `k + 1`.
///
/// # Panics
///
/// Panics when `width` is zero or `rows` is not whole rows.
pub fn transpose_rows<E: Copy>(rows: &[E], width: usize) -> Vec<E> {
    // analyze: allow(hot-path-panic) -- caller bug: `AnalogCam::new`
    // checks the shape and returns a typed error first.
    assert!(width > 0 && rows.len() % width == 0, "prototype buffer must hold whole rows");
    let mut cols = Vec::with_capacity(rows.len());
    for k in 0..width {
        cols.extend(rows.chunks_exact(width).map(|row| row[k]));
    }
    cols
}

/// Prototype-lane L1 argmin of one query over a column-major `[width, p]`
/// prototype buffer (see [`transpose_rows`]): `(winning row, distance)`,
/// first row winning ties.
///
/// This is Quick ADC's one-query layout: lanes run across prototypes, so
/// the inner loop broadcasts one query element against `p` contiguous
/// cells and every vector lane does useful work even for a single query,
/// where [`l1_argmin_batch`] fills one of its [`LANES`]. The `p` distances
/// land in `dist`, a caller-owned buffer (cleared and resized), and one
/// pass then picks the winner. Distances accumulate in ascending element
/// order and the pass keeps the first row on ties (strict `<`), so the
/// result is bit-identical to [`l1_argmin`] on the `[p, width]` rows: a
/// NaN distance never wins, and an all-NaN scan answers `(0, MAX_ACC)`.
/// It opens no span; its callers' spans cover it.
///
/// # Panics
///
/// Panics when `width` is zero, `cols` is empty or not whole columns, or
/// the query length is not `width`.
pub fn l1_argmin_lanes<E: L1Element>(
    cols: &[E],
    width: usize,
    query: &[E],
    dist: &mut Vec<E::Acc>,
) -> (usize, E::Acc) {
    // analyze: allow(hot-path-panic) -- caller bug: `AnalogCam` checks
    // these shapes and returns a typed error first.
    assert!(width > 0, "width must be non-zero");
    assert!(
        !cols.is_empty() && cols.len() % width == 0,
        "prototype buffer must hold whole rows"
    );
    // analyze: allow(hot-path-panic) -- caller bug, as above.
    assert!(query.len() == width, "query length must equal width");
    let p = cols.len() / width;
    dist.clear();
    dist.resize(p, E::ZERO_ACC);
    for (column, &q) in cols.chunks_exact(p).zip(query) {
        for (acc, &cell) in dist.iter_mut().zip(column) {
            *acc = E::add(*acc, q.abs_diff(cell));
        }
    }
    // The argmin runs as LANES interleaved strands (row r in strand
    // r % LANES), each keeping its first strict minimum so the compares
    // vectorize; merging the strands by (distance, row) restores the
    // first-row rule. A NaN never compares less, so it never wins.
    let mut strand_dist = [E::MAX_ACC; LANES];
    let mut strand_row = [0usize; LANES];
    let mut blocks = dist.chunks_exact(LANES);
    for (b, block) in (&mut blocks).enumerate() {
        for l in 0..LANES {
            if block[l] < strand_dist[l] {
                strand_dist[l] = block[l];
                strand_row[l] = b * LANES + l;
            }
        }
    }
    let mut best_row = 0usize;
    let mut best_dist = E::MAX_ACC;
    for (&d, &r) in strand_dist.iter().zip(&strand_row) {
        if d < best_dist || (d == best_dist && r < best_row) {
            best_dist = d;
            best_row = r;
        }
    }
    let tail = p - blocks.remainder().len();
    for (r, &d) in blocks.remainder().iter().enumerate() {
        if d < best_dist {
            best_dist = d;
            best_row = tail + r;
        }
    }
    (best_row, best_dist)
}

/// Blocked L1 argmin over a flattened `[p, width]` prototype buffer for a
/// query-major `[q, width]` query buffer. Returns `(winning row, distance)`
/// per query, first row winning ties.
///
/// This is the Quick-ADC-style layout: each block of [`LANES`] queries is
/// transposed so the inner loop reads one prototype element and updates
/// [`LANES`] contiguous accumulators — a small distance table that stays in
/// registers and auto-vectorizes. The final tail block is zero-padded and
/// the padding lanes discarded.
///
/// # Panics
///
/// Panics when `width` is zero, `rows` is empty or not whole rows, or
/// `queries` is not whole queries. (`AnalogCam` and `FixedCam` validate
/// first and return a typed `ShapeError` instead.)
pub fn l1_argmin_batch<E: L1Element>(
    rows: &[E],
    width: usize,
    queries: &[E],
) -> Vec<(usize, E::Acc)> {
    let _span = pecan_obs::span("index.scan");
    // analyze: allow(hot-path-panic) -- caller bug: `AnalogCam` and
    // `FixedCam` check these shapes and return a typed error first.
    assert!(width > 0, "width must be non-zero");
    assert!(
        !rows.is_empty() && rows.len() % width == 0,
        "prototype buffer must hold whole rows"
    );
    // analyze: allow(hot-path-panic) -- caller bug, as above.
    assert!(queries.len() % width == 0, "query buffer must hold whole queries");
    let q = queries.len() / width;
    let mut out = Vec::with_capacity(q);
    let mut transposed = vec![E::ZERO; width * LANES];

    for block_start in (0..q).step_by(LANES) {
        let lanes = LANES.min(q - block_start);
        for (k, chunk) in transposed.chunks_exact_mut(LANES).enumerate() {
            for (l, slot) in chunk.iter_mut().enumerate() {
                *slot = if l < lanes {
                    queries[(block_start + l) * width + k]
                } else {
                    E::ZERO
                };
            }
        }

        let mut best_dist = [E::MAX_ACC; LANES];
        let mut best_row = [0usize; LANES];
        for (r, row) in rows.chunks_exact(width).enumerate() {
            let mut acc = [E::ZERO_ACC; LANES];
            for (k, &cell) in row.iter().enumerate() {
                let lane = &transposed[k * LANES..(k + 1) * LANES];
                for l in 0..LANES {
                    acc[l] = E::add(acc[l], lane[l].abs_diff(cell));
                }
            }
            for l in 0..LANES {
                if acc[l] < best_dist[l] {
                    best_dist[l] = acc[l];
                    best_row[l] = r;
                }
            }
        }
        for l in 0..lanes {
            out.push((best_row[l], best_dist[l]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: &mut u64) -> f32 {
        // xorshift — keeps the test free of the rand dev-dependency cycle
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed >> 11) as f32 / (1u64 << 53) as f32) * 8.0 - 4.0
    }

    /// The oracle: [`l1_argmin`] once per query.
    fn singles<E: L1Element>(rows: &[E], width: usize, queries: &[E]) -> Vec<(usize, E::Acc)> {
        queries.chunks_exact(width).map(|q| l1_argmin(rows, width, q)).collect()
    }

    #[test]
    fn kernel_matches_linear_scan_across_block_sizes() {
        let mut seed = 7u64;
        let (p, d) = (13, 5);
        let rows: Vec<f32> = (0..p * d).map(|_| pseudo(&mut seed)).collect();
        // cover empty, sub-block, exact-block and ragged-tail batches
        for q in [0usize, 1, 7, 8, 9, 16, 27] {
            let queries: Vec<f32> = (0..q * d).map(|_| pseudo(&mut seed)).collect();
            let got = l1_argmin_batch(&rows, d, &queries);
            assert_eq!(got.len(), q);
            assert_eq!(got, singles(&rows, d, &queries), "q={q}");
        }
    }

    #[test]
    fn integer_kernel_matches_scalar_search() {
        let rows: Vec<i16> = vec![0, 0, 10, 10, -5, 5, 10, 10];
        let queries: Vec<i16> = vec![1, -1, 9, 12, -6, 4];
        let got = l1_argmin_batch(&rows, 2, &queries);
        assert_eq!(got, vec![(0, 2), (1, 3), (2, 2)]);
        assert_eq!(got, singles(&rows, 2, &queries));
    }

    #[test]
    fn finds_nearest_and_breaks_ties_first() {
        // rows 1 and 2 are identical: the first must win.
        let rows = [5.0, 5.0, 1.0, 1.0, 1.0, 1.0];
        let (row, dist) = l1_argmin(&rows, 2, &[1.2, 0.9]);
        assert_eq!(row, 1);
        assert!((dist - 0.3).abs() < 1e-6);
    }

    #[test]
    fn ties_break_to_first_row() {
        // rows 1 and 3 identical — row 1 must win in every lane
        let rows = [9.0, 9.0, 1.0, 1.0, 5.0, 5.0, 1.0, 1.0];
        let queries = [1.0, 1.0, 1.2, 0.9];
        let hits = l1_argmin_batch(&rows, 2, &queries);
        assert_eq!(hits, singles(&rows, 2, &queries));
        assert_eq!(hits[0], (1, 0.0));
        assert_eq!(hits[1].0, 1);
    }

    fn panics<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> bool {
        std::panic::catch_unwind(f).is_err()
    }

    #[test]
    fn rejects_bad_prototype_buffers() {
        // width 0, no rows, a ragged last row: both kernels refuse each.
        for (rows, width) in [(&[0.0f32; 6][..], 0), (&[][..], 3), (&[0.0; 4][..], 3)] {
            assert!(panics(|| l1_argmin(rows, width, &vec![0.0; width])), "{rows:?}/{width}");
            assert!(panics(|| l1_argmin_batch(rows, width, &[])), "{rows:?}/{width}");
            let lanes = || l1_argmin_lanes(rows, width, &vec![0.0; width], &mut Vec::new());
            assert!(panics(lanes), "{rows:?}/{width}");
        }
        assert!(panics(|| transpose_rows(&[0.0f32; 6], 0)));
        assert!(panics(|| transpose_rows(&[0.0f32; 4], 3)));
        // six values of width 3 are two rows; the second is an exact match
        let rows = [0.0f32, 0.0, 0.0, 1.0, 1.0, 1.0];
        assert_eq!(l1_argmin(&rows, 3, &[1.0; 3]), (1, 0.0));
        assert_eq!(l1_argmin_batch(&rows, 3, &[1.0; 3]), vec![(1, 0.0)]);
    }

    #[test]
    fn validation() {
        // The documented query-shape panics of both kernels.
        assert!(panics(|| l1_argmin(&[0.0f32; 4], 2, &[0.0])));
        assert!(panics(|| l1_argmin(&[0.0f32; 4], 2, &[0.0; 3])));
        assert!(panics(|| l1_argmin_batch(&[0.0f32; 4], 2, &[0.0; 5])));
        assert!(!panics(|| l1_argmin_batch(&[0.0f32; 4], 2, &[0.0; 4])));
        assert!(l1_argmin_batch(&[0.0f32; 4], 2, &[]).is_empty());
        assert!(panics(|| l1_argmin_lanes(&[0.0f32; 4], 2, &[0.0; 3], &mut Vec::new())));
    }

    #[test]
    fn transpose_rows_lays_prototypes_out_column_major() {
        // two prototypes of width 3 → element 0 of both, then 1, then 2
        assert_eq!(transpose_rows(&[1, 2, 3, 4, 5, 6], 3), vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn lanes_kernel_matches_linear_scan_across_strand_tails() {
        // p from one prototype to past two whole strand blocks, so every
        // tail length and a winner in every strand occur
        let mut seed = 11u64;
        let d = 3;
        let mut dist = Vec::new();
        for p in 1..=2 * LANES + 3 {
            let rows: Vec<f32> = (0..p * d).map(|_| pseudo(&mut seed)).collect();
            let cols = transpose_rows(&rows, d);
            for _ in 0..8 {
                let query: Vec<f32> = (0..d).map(|_| pseudo(&mut seed)).collect();
                let got = l1_argmin_lanes(&cols, d, &query, &mut dist);
                assert_eq!(got, l1_argmin(&rows, d, &query), "p={p}");
                assert_eq!(dist.len(), p);
            }
        }
    }
}
