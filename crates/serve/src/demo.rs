//! Small deterministic demo models for binaries, benches and tests.
//!
//! Serving needs a trained model to exist before it can do anything; these
//! constructors build seeded (untrained but fully structured) PECAN models
//! whose engines exercise every stage kind. Deterministic per seed: the
//! same seed always compiles to a bit-identical engine, which the snapshot
//! and parity tests rely on.

use crate::FrozenEngine;
use pecan_core::{PecanBuilder, PecanLinear, PecanVariant, PqLayerSettings};
use pecan_nn::{models, Relu, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input width of the [`mlp`] demo model.
pub const MLP_INPUT: usize = 64;
/// Output width of the [`mlp`] demo model.
pub const MLP_OUTPUT: usize = 10;

/// A 64→256→256→10 PECAN-D multi-layer perceptron with ReLU between
/// layers: the serving workhorse. Sub-vector width 8 and 256 prototypes
/// per group make CAM search most of its inference time — on the
/// prototype-lane `pecan-index` scan at batch 1, on the lane-blocked scan
/// for batches of more than four — so it is the model the
/// `serve_throughput` bench and the CI `loadgen` batching checks run on.
pub fn mlp(seed: u64) -> (Sequential, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let settings = PqLayerSettings::new(256, 8, 0.5);
    let mut net = Sequential::new();
    let dims = [MLP_INPUT, 256, 256, MLP_OUTPUT];
    for (i, pair) in dims.windows(2).enumerate() {
        if i > 0 {
            net.push(Box::new(Relu));
        }
        let layer = PecanLinear::new(
            &mut rng,
            PecanVariant::Distance,
            settings,
            pair[0],
            pair[1],
        )
        .expect("demo MLP settings are valid");
        net.push(Box::new(layer));
    }
    (net, vec![MLP_INPUT])
}

/// [`mlp`] compiled into its frozen engine, named `"mlp"`.
pub fn mlp_engine(seed: u64) -> FrozenEngine {
    let (net, shape) = mlp(seed);
    FrozenEngine::compile(&net, &shape)
        .expect("demo MLP always compiles")
        .with_name("mlp")
}

/// The paper's modified LeNet-5 with every conv/FC replaced by PECAN-D
/// lookup layers, for 28×28 single-channel input — exercises conv, pool
/// and flatten stages.
pub fn lenet(seed: u64) -> (Sequential, Vec<usize>) {
    let mut builder = PecanBuilder::from_seed(seed, PecanVariant::Distance);
    let net = models::lenet5_modified(&mut builder).expect("LeNet always builds");
    (net, vec![1, 28, 28])
}

/// [`lenet`] compiled into its frozen engine, named `"lenet"`.
pub fn lenet_engine(seed: u64) -> FrozenEngine {
    let (net, shape) = lenet(seed);
    FrozenEngine::compile(&net, &shape)
        .expect("demo LeNet always compiles")
        .with_name("lenet")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_engines_are_deterministic_per_seed() {
        let a = mlp_engine(9).snapshot_bytes();
        let b = mlp_engine(9).snapshot_bytes();
        let c = mlp_engine(10).snapshot_bytes();
        assert_eq!(a, b, "same seed, same engine");
        assert_ne!(a, c, "different seed, different engine");
    }

    #[test]
    fn lenet_engine_serves_mnist_shapes() {
        let engine = lenet_engine(4);
        assert_eq!(engine.input_len(), 28 * 28);
        assert_eq!(engine.output_len(), 10);
        let out = engine.predict(&vec![0.1; engine.input_len()]).unwrap();
        assert_eq!(out.len(), 10);
    }
}
