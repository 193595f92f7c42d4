//! Property tests pinning the blocked kernel to its oracle:
//! [`l1_argmin_batch`] must return **exactly** the winners (rows and
//! distances, bit-for-bit) that [`l1_argmin`] finds one query at a time,
//! across random prototypes and queries, exact ties, and both element
//! types the CAMs use (`f32`, and `i16` accumulated in `i32`).

use pecan_index::{l1_argmin, l1_argmin_batch, L1Element};
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

/// The oracle: [`l1_argmin`] once per query.
fn singles<E: L1Element>(rows: &[E], width: usize, queries: &[E]) -> Vec<(usize, E::Acc)> {
    queries.chunks_exact(width).map(|q| l1_argmin(rows, width, q)).collect()
}

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
        (half, queries) in workload(16, 4, 10),
    ) {
        // duplicate every prototype so exact distance ties are guaranteed
        let mut rows = half.clone();
        rows.extend_from_slice(&half);
        let expect = singles(&rows, 4, &queries);
        prop_assert_eq!(l1_argmin_batch(&rows, 4, &queries), expect.clone());
        // every winner is in the first half (first-index tie-break)
        for &(row, _) in &expect {
            prop_assert!(row < 16);
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
    }
}
