//! Dataset substrate for the PECAN reproduction.
//!
//! The paper evaluates on MNIST, CIFAR-10/100 and Tiny-ImageNet. This crate
//! provides:
//!
//! * parsers for the real on-disk formats — MNIST **IDX**
//!   ([`parse_idx_images`]/[`parse_idx_labels`]) and the **CIFAR binary**
//!   records ([`parse_cifar10`]/[`parse_cifar100`]) — used automatically
//!   when the files are present;
//! * **synthetic stand-ins** ([`synthetic_mnist`], [`synthetic_cifar`],
//!   [`synthetic_tiny_imagenet`]) with the same shapes, class structure and
//!   label semantics, generated procedurally so the full experiment suite
//!   runs on a machine without the datasets. The substitution holds
//!   because PECAN's claims are *relative* accuracies between
//!   baseline / PECAN-A / PECAN-D on the same data, which the synthetic
//!   tasks exercise through identical code paths;
//! * batching/shuffling and light augmentation ([`make_batches`],
//!   [`random_flip`]);
//! * an **opt-in real-data fixture** ([`load_mnist`], gated on the
//!   [`PECAN_DATA_DIR`] environment variable via [`mnist_dir`]): tests and
//!   accuracy runs use the genuine MNIST files when present and skip
//!   cleanly when not.
//!
//! # Example
//!
//! ```
//! use pecan_datasets::{synthetic_mnist, make_batches};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = synthetic_mnist(&mut rng, 64);
//! let batches = make_batches(&data, 16, Some(&mut rng));
//! assert_eq!(batches.len(), 4);
//! assert_eq!(batches[0].0.dims(), &[16, 1, 28, 28]);
//! ```

#![forbid(unsafe_code)]

mod cifar;
mod dataset;
mod idx;
mod loader;
mod real;
mod synthetic;

pub use cifar::{parse_cifar10, parse_cifar100};
pub use dataset::{InMemoryDataset, ParseDataError};
pub use idx::{parse_idx_images, parse_idx_labels};
pub use loader::{make_batches, random_flip};
pub use real::{load_mnist, mnist_dir, Mnist, MNIST_FILES, PECAN_DATA_DIR};
pub use synthetic::{
    synthetic_cifar, synthetic_mnist, synthetic_textures, synthetic_tiny_imagenet,
};
