//! # PECAN — Product-QuantizEd Content Addressable Memory Network
//!
//! A from-scratch Rust reproduction of *"PECAN: A Product-Quantized Content
//! Addressable Memory Network"* (Ran, Lin, Li, Zhou, Wong — DATE 2023,
//! arXiv:2208.13571): a DNN architecture whose filtering and linear
//! transforms are realised **solely** with product quantization (PQ) and
//! table lookup, making inference a content-addressable-memory (CAM)
//! similarity search.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | PECAN-A / PECAN-D layers, Algorithm-1 LUT inference, Table-1 complexity model, paper configs, pruning |
//! | [`pq`] | codebooks, angle/L1 similarity, straight-through estimator, annealed sign gradients |
//! | [`cam`] | CAM hardware simulator: analog L1 arrays, lookup tables, VIA-Nano cost model, fixed-point pipeline |
//! | [`index`] | the exhaustive L1 prototype scan: one-query `l1_argmin` (the oracle), the prototype-lane `l1_argmin_lanes` that serving runs for at most `FEW_QUERIES` queries, and the Quick-ADC-style lane-blocked `l1_argmin_batch` it runs above that |
//! | [`nn`] | conventional layers + the model zoo (LeNet-5, VGG-Small, ResNet-20/32, ConvMixer) |
//! | [`serve`] | model serving: batch-first `InferBatch`/`Stage` pipeline, frozen engines, named binary snapshots, per-model micro-batching schedulers, multi-model HTTP front end |
//! | [`autograd`] | tape-based reverse-mode autodiff with SGD/Adam |
//! | [`tensor`] | dense f32 tensors, packed/threaded GEMM (`PECAN_NUM_THREADS`), im2col |
//! | [`datasets`] | MNIST IDX / CIFAR binary parsers, synthetic stand-ins, opt-in real-MNIST fixture |
//! | [`baselines`] | AdderNet and XNOR/binary convolutions |
//!
//! # Quickstart
//!
//! ```
//! use pecan::core::{PecanBuilder, PecanVariant};
//! use pecan::nn::{models, Layer};
//! use pecan::autograd::Var;
//! use pecan::tensor::Tensor;
//!
//! # fn main() -> Result<(), pecan::tensor::ShapeError> {
//! // A multiplier-free LeNet: every conv/FC is PQ + table lookup.
//! let mut builder = PecanBuilder::from_seed(0, PecanVariant::Distance);
//! let mut net = models::lenet5_modified(&mut builder)?;
//! let logits = net.forward(&Var::constant(Tensor::zeros(&[1, 1, 28, 28])), false)?;
//! assert_eq!(logits.value().dims(), &[1, 10]);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end training, CAM deployment, pruning and
//! the complexity–accuracy trade-off, and `crates/bench` for the harness
//! regenerating every table and figure of the paper.

#![forbid(unsafe_code)]

pub use pecan_autograd as autograd;
pub use pecan_baselines as baselines;
pub use pecan_cam as cam;
pub use pecan_core as core;
pub use pecan_datasets as datasets;
pub use pecan_index as index;
pub use pecan_nn as nn;
pub use pecan_pq as pq;
pub use pecan_serve as serve;
pub use pecan_tensor as tensor;
