//! The CAM matching primitive as one exhaustive L1 scan.
//!
//! PECAN inference is "CAM similarity search + LUT read" (Algorithm 1): for
//! every im2col column and codebook group, find the stored prototype with
//! the smallest L1 distance to the query sub-vector. This crate is that
//! search, written once and shared by every CAM path in the workspace:
//!
//! * [`l1_argmin`] — one query against a flattened `[p, d]` prototype
//!   buffer. The reference scan: `AnalogCam::search` and
//!   `FixedCam::search` run it, and every test of the batched kernel uses
//!   it as the oracle.
//! * [`l1_argmin_batch`] — many queries per call in the spirit of Quick ADC
//!   (André et al.): queries are processed in blocks of [`LANES`], laid out
//!   transposed, so the inner loop streams one prototype element against
//!   [`LANES`] contiguous accumulators — a distance table the compiler
//!   auto-vectorizes without any unstable SIMD. Serving reaches it through
//!   `AnalogCam::search_batch` and `AnalogCam::search_strided_into`.
//!
//! Both are generic over [`L1Element`]: `f32` for the analog CAM and `i16`
//! accumulated in `i32` for the fixed-point CAM. They return **bit-identical
//! winners** — same rows, same distances, first row on ties — because both
//! accumulate each distance in ascending element order.
//!
//! # Example
//!
//! ```
//! use pecan_index::{l1_argmin, l1_argmin_batch};
//!
//! // four prototypes of width 2, flattened row-major
//! let rows = [0.0, 0.0, 1.0, 1.0, -1.0, 1.0, 2.0, -2.0];
//! let queries = [0.1, -0.2, 0.9, 1.2]; // two queries, query-major
//! let hits = l1_argmin_batch(&rows, 2, &queries);
//! assert_eq!(hits[0], l1_argmin(&rows, 2, &queries[..2]));
//! assert_eq!(hits[1], l1_argmin(&rows, 2, &queries[2..]));
//! assert_eq!(hits[0].0, 0);
//! assert_eq!(hits[1].0, 1);
//! ```

#![forbid(unsafe_code)]

mod batch;

pub use batch::{l1_argmin, l1_argmin_batch, L1Element, LANES};
