//! Property-based tests for the CAM simulator.

use pecan_cam::fixed::{FixedCam, Quantizer};
use pecan_cam::{AnalogCam, CostModel, LookupTable, OpCounts};
use pecan_tensor::Tensor;
use proptest::prelude::*;

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]).expect("sized by construction"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analog_search_winner_dominates_all_rows(
        rows in matrix(6, 4),
        query in proptest::collection::vec(-4.0f32..4.0, 4),
    ) {
        let cam = AnalogCam::new(rows.clone()).unwrap();
        let hit = cam.search(&query).unwrap();
        let dist = |r: usize| -> f32 {
            rows.row(r).iter().zip(&query).map(|(&a, &b)| (a - b).abs()).sum()
        };
        for r in 0..6 {
            prop_assert!(dist(hit.row) <= dist(r) + 1e-4);
        }
        prop_assert!((hit.score + dist(hit.row)).abs() < 1e-4);
    }

    #[test]
    fn storing_query_as_row_makes_it_the_winner(
        rows in matrix(5, 3),
        row_idx in 0usize..5,
    ) {
        let cam = AnalogCam::new(rows.clone()).unwrap();
        let query: Vec<f32> = rows.row(row_idx).to_vec();
        let hit = cam.search(&query).unwrap();
        // the stored copy has distance 0; any winner must also be at 0
        prop_assert!(hit.score.abs() < 1e-5);
    }

    #[test]
    fn fixed_cam_agrees_with_float_cam_given_margin(
        rows in matrix(4, 5),
        query in proptest::collection::vec(-4.0f32..4.0, 5),
    ) {
        let float_cam = AnalogCam::new(rows.clone()).unwrap();
        let q = Quantizer::new(10);
        let fixed_cam = FixedCam::from_tensor(&rows, q).unwrap();
        let fq: Vec<i16> = query.iter().map(|&v| q.quantize(v)).collect();
        let float_hit = float_cam.search(&query).unwrap();
        let (fixed_row, _) = fixed_cam.search(&fq).unwrap();
        if fixed_row != float_hit.row {
            // disagreement is only legitimate within quantization slack
            let dist = |r: usize| -> f32 {
                rows.row(r).iter().zip(&query).map(|(&a, &b)| (a - b).abs()).sum()
            };
            let slack = 5.0 * 2.0 / 1024.0 * 5.0; // d · 2ε per element, generous
            prop_assert!((dist(fixed_row) - dist(float_hit.row)).abs() < slack);
        }
    }

    #[test]
    fn index_engines_match_noise_free_analog_cam(
        rows in matrix(24, 6),
        queries in proptest::collection::vec(-4.0f32..4.0, 6 * 11),
    ) {
        // The pecan-index kernels must agree with the CAM simulator's own
        // searches exactly: same winning rows, and scores that are the
        // negated distances bit-for-bit.
        let cam = AnalogCam::new(rows.clone()).unwrap();
        let batched = cam.search_batch(&queries).unwrap();
        let kernel = pecan_index::l1_argmin_batch(rows.data(), 6, &queries);
        for (i, query) in queries.chunks_exact(6).enumerate() {
            let hit = cam.search(query).unwrap();
            let (row, distance) = pecan_index::l1_argmin(rows.data(), 6, query);
            prop_assert_eq!(row, hit.row);
            prop_assert_eq!(-distance, hit.score);
            prop_assert_eq!(kernel[i], (row, distance));
            prop_assert_eq!(&batched[i], &hit);
        }
    }

    #[test]
    fn lut_weighted_read_equals_matvec(table in matrix(3, 4), w in proptest::collection::vec(0.0f32..1.0, 4)) {
        let lut = LookupTable::new(table.clone()).unwrap();
        let mut acc = vec![0.0f32; 3];
        lut.accumulate_weighted(&w, &mut acc).unwrap();
        for o in 0..3 {
            let expect: f32 = (0..4).map(|m| w[m] * table.get2(o, m)).sum();
            prop_assert!((acc[o] - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn lut_prune_preserves_kept_columns(table in matrix(2, 6), keep in proptest::collection::vec(0usize..6, 1..6)) {
        let lut = LookupTable::new(table.clone()).unwrap();
        let pruned = lut.prune(&keep).unwrap();
        prop_assert_eq!(pruned.entries(), keep.len());
        for (new_m, &old_m) in keep.iter().enumerate() {
            let mut a = vec![0.0f32; 2];
            let mut b = vec![0.0f32; 2];
            lut.accumulate_column(old_m, &mut a).unwrap();
            pruned.accumulate_column(new_m, &mut b).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn cost_model_is_linear_in_ops(adds in 0u64..1_000_000, muls in 0u64..1_000_000) {
        let m = CostModel::via_nano();
        let ops = OpCounts::new(adds, muls);
        let doubled = ops.scaled(2);
        prop_assert_eq!(m.cycles(&doubled), 2 * m.cycles(&ops));
        prop_assert!((m.energy(&doubled) - 2.0 * m.energy(&ops)).abs() < 1e-6);
        // multiplier-free computations are always cheaper than MAC-parity ones
        let mac = OpCounts::mac(adds + muls);
        let add_only = OpCounts::new(adds + muls, 0);
        prop_assert!(m.energy(&add_only) <= m.energy(&mac));
    }
}
