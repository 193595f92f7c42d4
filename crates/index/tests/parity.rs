//! Property tests pinning both fast kernels to their oracle:
//! [`l1_argmin_batch`] and [`l1_argmin_lanes`] must return **exactly** the
//! winners (rows and distances, bit-for-bit) that [`l1_argmin`] finds one
//! query at a time, across random prototypes and queries, exact ties, NaN
//! and ±∞ cells or queries, and both element types the CAMs use (`f32`,
//! and `i16` accumulated in `i32`).

use pecan_index::{l1_argmin, l1_argmin_batch, l1_argmin_lanes, transpose_rows, L1Element};
use proptest::prelude::*;

/// Flattened `[p, d]` prototypes plus a query-major `[q, d]` batch.
fn workload(
    p: usize,
    d: usize,
    q: usize,
) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (
        proptest::collection::vec(-4.0f32..4.0, p * d),
        proptest::collection::vec(-4.0f32..4.0, q * d),
    )
}

/// Values of which about one in eight is NaN, +∞ or −∞.
fn specials(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        (0u8..24, -4.0f32..4.0).prop_map(|(k, v)| match k {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => v,
        }),
        len,
    )
}

/// The oracle: [`l1_argmin`] once per query.
fn singles<E: L1Element>(rows: &[E], width: usize, queries: &[E]) -> Vec<(usize, E::Acc)> {
    queries.chunks_exact(width).map(|q| l1_argmin(rows, width, q)).collect()
}

/// [`l1_argmin_lanes`] once per query, on the column-major copy of `rows`.
fn lanes<E: L1Element>(rows: &[E], width: usize, queries: &[E]) -> Vec<(usize, E::Acc)> {
    let cols = transpose_rows(rows, width);
    let mut dist = Vec::new();
    queries.chunks_exact(width).map(|q| l1_argmin_lanes(&cols, width, q, &mut dist)).collect()
}

/// `f32` results with each distance as its bit pattern, so equality is
/// bit-identity.
fn bits(hits: Vec<(usize, f32)>) -> Vec<(usize, u32)> {
    hits.into_iter().map(|(row, dist)| (row, dist.to_bits())).collect()
}

/// The prototype counts and widths of the lane-kernel properties: one
/// prototype, a ragged strand tail, and the MLP's `p = 256`, at the
/// MLP's `d = 8` and LeNet's `d = 9`.
const SHAPES: [(usize, usize); 6] = [(1, 8), (37, 8), (256, 8), (1, 9), (37, 9), (256, 9)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batch_scanner_matches_linear_scan(
        (rows, queries) in workload(37, 6, 19),
        // The fixed-point CAM's instantiation. A narrow range makes
        // integer distances tie often, exercising the first-row rule.
        int_rows in proptest::collection::vec(-8i16..8, 37 * 6),
        int_queries in proptest::collection::vec(-8i16..8, 19 * 6),
    ) {
        prop_assert_eq!(l1_argmin_batch(&rows, 6, &queries), singles(&rows, 6, &queries));
        prop_assert_eq!(
            l1_argmin_batch(&int_rows, 6, &int_queries),
            singles(&int_rows, 6, &int_queries)
        );
    }

    #[test]
    fn duplicated_rows_still_agree_on_ties(
        (half, queries) in workload(128, 9, 10),
        int_half in proptest::collection::vec(-8i16..8, 128 * 9),
        int_queries in proptest::collection::vec(-8i16..8, 10 * 9),
    ) {
        // Every prototype twice, h rows apart, so exact distance ties are
        // guaranteed and the copy must lose. In the prototype-lane
        // kernel's argmin, 37 rows apart puts the copy in another strand
        // and 128 in the same one.
        for (h, d) in [(16, 4), (37, 8), (128, 8), (37, 9), (128, 9)] {
            let mut rows = half[..h * d].to_vec();
            rows.extend_from_slice(&half[..h * d]);
            let queries = &queries[..10 * d];
            let expect = singles(&rows, d, queries);
            prop_assert_eq!(l1_argmin_batch(&rows, d, queries), expect.clone());
            prop_assert_eq!(bits(lanes(&rows, d, queries)), bits(expect.clone()));
            // every winner is in the first half (first-index tie-break)
            prop_assert!(expect.iter().all(|&(row, _)| row < h));

            let mut rows = int_half[..h * d].to_vec();
            rows.extend_from_slice(&int_half[..h * d]);
            let queries = &int_queries[..10 * d];
            let expect = singles(&rows, d, queries);
            prop_assert_eq!(l1_argmin_batch(&rows, d, queries), expect.clone());
            prop_assert_eq!(lanes(&rows, d, queries), expect.clone());
            prop_assert!(expect.iter().all(|&(row, _)| row < h));
        }
    }

    #[test]
    fn stored_prototype_is_its_own_winner(
        (rows, _) in workload(24, 5, 1),
        pick in 0usize..24,
    ) {
        let query = &rows[pick * 5..(pick + 1) * 5];
        prop_assert_eq!(l1_argmin(&rows, 5, query).1, 0.0);
        prop_assert_eq!(l1_argmin_batch(&rows, 5, query)[0].1, 0.0);
        prop_assert_eq!(lanes(&rows, 5, query)[0].1, 0.0);
    }

    #[test]
    fn lanes_kernel_matches_linear_scan(
        (cells, queries) in workload(256, 9, 3),
        int_cells in proptest::collection::vec(-8i16..8, 256 * 9),
        int_queries in proptest::collection::vec(-8i16..8, 3 * 9),
    ) {
        for (p, d) in SHAPES {
            let (rows, queries) = (&cells[..p * d], &queries[..3 * d]);
            prop_assert_eq!(bits(lanes(rows, d, queries)), bits(singles(rows, d, queries)));
            let (rows, queries) = (&int_cells[..p * d], &int_queries[..3 * d]);
            prop_assert_eq!(lanes(rows, d, queries), singles(rows, d, queries));
        }
    }

    #[test]
    fn lanes_kernel_matches_linear_scan_on_nan_and_infinity(
        cells in specials(256 * 9),
        queries in specials(3 * 9),
    ) {
        for (p, d) in SHAPES {
            let (rows, queries) = (&cells[..p * d], &queries[..3 * d]);
            let expect = singles(rows, d, queries);
            prop_assert_eq!(bits(lanes(rows, d, queries)), bits(expect.clone()));
            // NaN never wins: the answer is a number, or the no-winner (0, ∞)
            for &(row, dist) in &expect {
                prop_assert!(!dist.is_nan());
                prop_assert!(dist < f32::INFINITY || row == 0);
            }
        }
    }
}

#[test]
fn all_nan_scans_answer_the_first_row_at_max_distance() {
    for (p, d) in SHAPES {
        let nan_rows = vec![f32::NAN; p * d];
        let rows: Vec<f32> = (0..p * d).map(|i| i as f32).collect();
        let nan_query = vec![f32::NAN; d];
        let query = vec![0.5; d];
        for (rows, query) in [(&nan_rows, &query), (&rows, &nan_query), (&nan_rows, &nan_query)] {
            let expect = (0, f32::MAX_ACC);
            assert_eq!(l1_argmin(rows, d, query), expect, "p={p} d={d}");
            assert_eq!(lanes(rows, d, query), vec![expect], "p={p} d={d}");
        }
    }
}
