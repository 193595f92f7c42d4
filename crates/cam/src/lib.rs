//! Behavioural content-addressable-memory (CAM) simulator.
//!
//! PECAN's hardware story (§1, §6) is that inference reduces to a CAM-style
//! similarity search — "which stored prototype best matches this query?" —
//! followed by a read from a precomputed lookup table. This crate models
//! that hardware:
//!
//! * [`AnalogCam`] — an analog CAM array that returns the row with the
//!   smallest L1 distance to the query (the winner-take-all match an RRAM
//!   crossbar performs), with optional per-cell Gaussian device noise;
//! * [`DotProductCam`] — the multiplicative counterpart used by PECAN-A;
//! * [`LookupTable`] — the `cout × p` quantized-product memory of
//!   Fig. 1(c) / Algorithm 1;
//! * [`CostModel`] — the cycle/power model of §4.3 (Intel VIA Nano 2000:
//!   float multiply = 4 cycles and 4× the power of a 2-cycle add), used to
//!   regenerate Table 5;
//! * [`fixed`] — an integer-only (int16 query / int32 accumulate) pipeline
//!   demonstrating that PECAN-D needs no floating-point multiplier at all.
//!
//! [`AnalogCam`]'s multi-query searches ([`AnalogCam::search_batch`] and
//! the batch-first serving entry point [`AnalogCam::search_strided`],
//! which reads each codebook group's queries straight out of a
//! column-major `[features, batch]` activation buffer) pick their
//! [`pecan_index`] kernel by query count alone: at most
//! [`pecan_index::FEW_QUERIES`] queries — every search of a request
//! served at batch 1 — run the prototype-lane scan over a `[d, p]` copy
//! of the array the CAM keeps beside its `[p, d]` rows, and more run the
//! lane-blocked scan. [`fixed::FixedCam::search_batch`] always runs the
//! lane-blocked scan, and the one-query searches run that crate's
//! reference scan. All paths return identical winners.
//!
//! # Example
//!
//! ```
//! use pecan_cam::AnalogCam;
//! use pecan_tensor::Tensor;
//!
//! # fn main() -> Result<(), pecan_tensor::ShapeError> {
//! // two stored prototypes of dimension 3 (rows of the array)
//! let cam = AnalogCam::new(Tensor::from_vec(
//!     vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[2, 3])?)?;
//! assert_eq!(cam.search(&[0.9, 1.1, 1.0])?.row, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod analog;
mod cost;
pub mod fixed;
mod lut;

pub use analog::{AnalogCam, DotProductCam, SearchResult};
pub use cost::{CostModel, OpCounts};
pub use lut::LookupTable;
