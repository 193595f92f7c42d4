//! The CAM matching primitive as one exhaustive L1 scan.
//!
//! PECAN inference is "CAM similarity search + LUT read" (Algorithm 1): for
//! every im2col column and codebook group, find the stored prototype with
//! the smallest L1 distance to the query sub-vector. This crate is that
//! search, written once and shared by every CAM path in the workspace:
//!
//! * [`l1_argmin`] — one query against a flattened `[p, d]` prototype
//!   buffer. The reference scan: `AnalogCam::search` and
//!   `FixedCam::search` run it, and every test of the other two kernels
//!   uses it as the oracle.
//! * [`l1_argmin_lanes`] — one query against a column-major `[d, p]` copy
//!   of the prototypes ([`transpose_rows`]), with the lanes across
//!   prototypes: Quick ADC's one-query layout (André et al.). Every lane
//!   does useful work at one query, so serving runs it for every search of
//!   at most [`FEW_QUERIES`] queries — batch 1 among them — through
//!   `AnalogCam::search_batch` and `AnalogCam::search_strided_into`.
//! * [`l1_argmin_batch`] — many queries per call in the spirit of Quick ADC:
//!   queries are processed in blocks of [`LANES`], laid out transposed, so
//!   the inner loop streams one prototype element against [`LANES`]
//!   contiguous accumulators — a distance table the compiler
//!   auto-vectorizes without any unstable SIMD. The same two `AnalogCam`
//!   entry points run it for every search of more than [`FEW_QUERIES`]
//!   queries.
//!
//! All three are generic over [`L1Element`]: `f32` for the analog CAM and
//! `i16` accumulated in `i32` for the fixed-point CAM. They return
//! **bit-identical winners** — same rows, same distances, first row on
//! ties — because each accumulates every distance in ascending element
//! order and keeps a row only on a strictly smaller distance.
//!
//! # Example
//!
//! ```
//! use pecan_index::{l1_argmin, l1_argmin_batch, l1_argmin_lanes, transpose_rows};
//!
//! // four prototypes of width 2, flattened row-major
//! let rows = [0.0, 0.0, 1.0, 1.0, -1.0, 1.0, 2.0, -2.0];
//! let queries = [0.1, -0.2, 0.9, 1.2]; // two queries, query-major
//! let hits = l1_argmin_batch(&rows, 2, &queries);
//! assert_eq!(hits[0], l1_argmin(&rows, 2, &queries[..2]));
//! assert_eq!(hits[1], l1_argmin(&rows, 2, &queries[2..]));
//! assert_eq!(hits[0].0, 0);
//! assert_eq!(hits[1].0, 1);
//!
//! // the same scan with the lanes across prototypes
//! let cols = transpose_rows(&rows, 2);
//! let mut dist = Vec::new();
//! assert_eq!(l1_argmin_lanes(&cols, 2, &queries[2..], &mut dist), hits[1]);
//! ```

#![forbid(unsafe_code)]

mod batch;

pub use batch::{
    l1_argmin, l1_argmin_batch, l1_argmin_lanes, transpose_rows, L1Element, FEW_QUERIES, LANES,
};
