//! The unified pipeline-stage abstraction of the batch-first inference
//! API.
//!
//! Every step of a compiled model — LUT convolution, LUT linear, ReLU,
//! pooling, flatten — implements [`Stage`]: take the whole batch as one
//! [`InferBatch`] column matrix, return the whole batch as one column
//! matrix. Nothing between stages ever splits the batch into per-sample
//! buffers, so consecutive table-lookup layers keep feeding the
//! lane-blocked `pecan-index` scan kernel matrices as wide as the batch —
//! the cross-layer batch carrying that PQ-DNN throughput lives on.
//!
//! Stages are compiled against a fixed per-sample input shape by
//! [`FrozenEngine::compile`](crate::FrozenEngine::compile) (or rebuilt by
//! the snapshot loader), which validates shape threading **once** via
//! [`Stage::out_shape`]; [`Stage::run`] then re-checks only the cheap
//! invariants it needs to stay panic-free.

use crate::error::ServeError;
use pecan_core::{InferBatch, LayerLut, UsageStats};
use pecan_tensor::Conv2dGeometry;
use std::any::Any;
use std::fmt;

/// One batch-in / batch-out step of a frozen inference pipeline.
///
/// The contract every implementation upholds:
///
/// * **Batch-first**: `run` consumes the whole batch as one column-major
///   [`InferBatch`] (see that type's layout contract) and returns one —
///   never per-sample buffers.
/// * **Batch-invariant**: each column's output depends only on that
///   column's input, so any batch composition is bit-identical to running
///   the columns one at a time (the property micro-batching relies on).
/// * **Shape-stable**: for an input batch whose per-sample shape is `s`,
///   the output per-sample shape is `out_shape(s)`, fixed at compile
///   time.
///
/// `stats`, when given, lets PECAN stages record per-group prototype
/// usage (Fig. 6 of the paper); non-LUT stages ignore it.
pub trait Stage: fmt::Debug + Send + Sync {
    /// Short stage kind name for diagnostics (`"lut-conv"`, `"relu"`, …).
    fn name(&self) -> &'static str;

    /// Per-sample output shape for a given per-sample input shape,
    /// validating that this stage can run on it.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when the input shape does not fit the
    /// stage.
    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, ServeError>;

    /// Runs the stage over the whole batch.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when the batch's per-sample shape does not
    /// fit the stage; [`ServeError::Engine`] for internal inconsistencies.
    fn run(
        &self,
        batch: InferBatch,
        stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ServeError>;

    /// The stage's lookup-table engine, when it has one (LUT conv/linear).
    fn lut(&self) -> Option<&LayerLut> {
        None
    }

    /// Downcast hook (snapshot serialization walks the concrete types).
    fn as_any(&self) -> &dyn Any;
}

/// PECAN convolution: batched im2col into one `[patch_len, batch·n]`
/// matrix, one [`LayerLut::forward_cols`] sweep, then a single relayout
/// back to `[cout·Hout·Wout, batch]` sample columns.
#[derive(Debug)]
pub struct LutConvStage {
    lut: LayerLut,
    geom: Conv2dGeometry,
}

impl LutConvStage {
    /// Builds the stage from a compiled layer engine and its resolved
    /// im2col geometry.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when the geometry's patch length does not
    /// match the engine's PQ rows.
    pub fn new(lut: LayerLut, geom: Conv2dGeometry) -> Result<Self, ServeError> {
        if geom.patch_len() != lut.config().rows() {
            return Err(ServeError::BadInput(format!(
                "conv patch length {} does not match {} PQ rows",
                geom.patch_len(),
                lut.config().rows()
            )));
        }
        Ok(Self { lut, geom })
    }

    /// The layer's Algorithm-1 engine.
    pub fn lut_engine(&self) -> &LayerLut {
        &self.lut
    }

    /// The resolved im2col geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }
}

impl Stage for LutConvStage {
    fn name(&self) -> &'static str {
        "lut-conv"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, ServeError> {
        let expect = [self.geom.c_in(), self.geom.h_in(), self.geom.w_in()];
        if input != expect {
            return Err(ServeError::BadInput(format!(
                "lut-conv expects {expect:?}, pipeline carries {input:?}"
            )));
        }
        Ok(vec![self.lut.outputs(), self.geom.h_out(), self.geom.w_out()])
    }

    fn run(
        &self,
        batch: InferBatch,
        stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ServeError> {
        let b = batch.cols();
        let n = self.geom.n_patches();
        let c_out = self.lut.outputs();
        // One column matrix for the whole batch: sample i's patches are
        // columns i·n .. (i+1)·n.
        let cols = batch.im2col(&self.geom)?;
        let y = self.lut.forward_cols(cols, stats)?; // [c_out, b·n]
        // Relayout patch columns into sample columns: sample i's output is
        // the [c_out, Hout·Wout] feature map flattened channel-major.
        let mut out = InferBatch::zeros(
            &[c_out, self.geom.h_out(), self.geom.w_out()],
            b,
        )?;
        for i in 0..b {
            let dst = out.col_mut(i);
            for p in 0..n {
                for (o, &v) in y.col(i * n + p).iter().enumerate() {
                    dst[o * n + p] = v;
                }
            }
        }
        Ok(out)
    }

    fn lut(&self) -> Option<&LayerLut> {
        Some(&self.lut)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// PECAN fully-connected layer: the batch is already the `[features,
/// batch]` column matrix [`LayerLut::forward_cols`] wants — zero
/// relayout on either side.
#[derive(Debug)]
pub struct LutLinearStage {
    lut: LayerLut,
}

impl LutLinearStage {
    /// Wraps a compiled linear-layer engine.
    pub fn new(lut: LayerLut) -> Self {
        Self { lut }
    }

    /// The layer's Algorithm-1 engine.
    pub fn lut_engine(&self) -> &LayerLut {
        &self.lut
    }
}

impl Stage for LutLinearStage {
    fn name(&self) -> &'static str {
        "lut-linear"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, ServeError> {
        let features = self.lut.config().rows();
        if input != [features] {
            return Err(ServeError::BadInput(format!(
                "lut-linear expects [{features}], pipeline carries {input:?}"
            )));
        }
        Ok(vec![self.lut.outputs()])
    }

    fn run(
        &self,
        batch: InferBatch,
        stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ServeError> {
        Ok(self.lut.forward_cols(batch, stats)?)
    }

    fn lut(&self) -> Option<&LayerLut> {
        Some(&self.lut)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Elementwise `max(x, 0)` — one pass over the whole batch buffer, in
/// place.
#[derive(Debug)]
pub struct ReluStage;

impl Stage for ReluStage {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, ServeError> {
        Ok(input.to_vec())
    }

    fn run(
        &self,
        mut batch: InferBatch,
        _stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ServeError> {
        for v in batch.data_mut() {
            *v = v.max(0.0);
        }
        Ok(batch)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Square-window max pooling over every `[c, h, w]` column — the same
/// scan order and strict-greater/first-wins tie-break as the training
/// path's `Var::max_pool2d`, so engine outputs track the model
/// bit-for-bit.
#[derive(Debug)]
pub struct MaxPoolStage {
    kernel: usize,
    stride: usize,
}

impl MaxPoolStage {
    /// Builds the stage from window size and stride.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when either is zero.
    pub fn new(kernel: usize, stride: usize) -> Result<Self, ServeError> {
        if kernel == 0 || stride == 0 {
            return Err(ServeError::BadInput(format!(
                "max-pool window {kernel}/stride {stride} must be non-zero"
            )));
        }
        Ok(Self { kernel, stride })
    }

    /// Window size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Step between windows.
    pub fn stride(&self) -> usize {
        self.stride
    }
}

impl Stage for MaxPoolStage {
    fn name(&self) -> &'static str {
        "max-pool"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, ServeError> {
        if input.len() != 3 {
            return Err(ServeError::BadInput(format!(
                "max-pool expects [c, h, w], pipeline carries {input:?}"
            )));
        }
        let (c, h, w) = (input[0], input[1], input[2]);
        if self.kernel > h || self.kernel > w {
            return Err(ServeError::BadInput(format!(
                "max-pool window {}/stride {} does not fit {h}×{w}",
                self.kernel, self.stride
            )));
        }
        Ok(vec![
            c,
            (h - self.kernel) / self.stride + 1,
            (w - self.kernel) / self.stride + 1,
        ])
    }

    fn run(
        &self,
        batch: InferBatch,
        _stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ServeError> {
        let out_shape = self.out_shape(batch.sample_shape())?;
        let (c_n, h, w) = {
            let s = batch.sample_shape();
            (s[0], s[1], s[2])
        };
        let (h_out, w_out) = (out_shape[1], out_shape[2]);
        let mut out = InferBatch::zeros(&out_shape, batch.cols())?;
        for i in 0..batch.cols() {
            let src = batch.col(i);
            let dst = out.col_mut(i);
            let mut at = 0;
            for c in 0..c_n {
                let base = c * h * w;
                for oy in 0..h_out {
                    for ox in 0..w_out {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let v = src[base
                                    + (oy * self.stride + ky) * w
                                    + (ox * self.stride + kx)];
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        dst[at] = best;
                        at += 1;
                    }
                }
            }
        }
        Ok(out)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// `[c, h, w] → [c]` mean over the spatial plane of every column.
#[derive(Debug)]
pub struct GlobalAvgPoolStage;

impl Stage for GlobalAvgPoolStage {
    fn name(&self) -> &'static str {
        "global-avg-pool"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, ServeError> {
        if input.len() != 3 {
            return Err(ServeError::BadInput(format!(
                "global-avg-pool expects [c, h, w], pipeline carries {input:?}"
            )));
        }
        Ok(vec![input[0]])
    }

    fn run(
        &self,
        batch: InferBatch,
        _stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ServeError> {
        self.out_shape(batch.sample_shape())?;
        let (c_n, hw) = {
            let s = batch.sample_shape();
            (s[0], s[1] * s[2])
        };
        let mut out = InferBatch::zeros(&[c_n], batch.cols())?;
        for i in 0..batch.cols() {
            let src = batch.col(i);
            let dst = out.col_mut(i);
            for (c, slot) in dst.iter_mut().enumerate() {
                let s: f32 = src[c * hw..(c + 1) * hw].iter().sum();
                *slot = s / hw as f32;
            }
        }
        Ok(out)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Shape-only collapse to a vector — metadata-only on a column-major
/// batch, zero copies.
#[derive(Debug)]
pub struct FlattenStage;

impl Stage for FlattenStage {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, ServeError> {
        Ok(vec![input.iter().product()])
    }

    fn run(
        &self,
        batch: InferBatch,
        _stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ServeError> {
        let features = batch.features();
        Ok(batch.reshaped(&[features])?)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_stages_preserve_shape_and_layout() {
        let batch = InferBatch::from_samples(
            &[vec![-1.0, 2.0, -3.0, 4.0], vec![0.5, -0.5, 0.0, -0.0]],
            &[1, 2, 2],
        )
        .unwrap();
        let out = ReluStage.run(batch, None).unwrap();
        assert_eq!(out.col(0), &[0.0, 2.0, 0.0, 4.0]);
        assert_eq!(out.col(1), &[0.5, 0.0, 0.0, -0.0]);
        assert_eq!(out.sample_shape(), &[1, 2, 2]);

        let flat = FlattenStage.run(out, None).unwrap();
        assert_eq!(flat.sample_shape(), &[4]);
    }

    #[test]
    fn max_pool_matches_hand_computed_windows() {
        // one 1×4×4 sample, 2×2 windows, stride 2
        let sample: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let batch = InferBatch::from_samples(&[sample], &[1, 4, 4]).unwrap();
        let pool = MaxPoolStage::new(2, 2).unwrap();
        let out = pool.run(batch, None).unwrap();
        assert_eq!(out.sample_shape(), &[1, 2, 2]);
        assert_eq!(out.col(0), &[5.0, 7.0, 13.0, 15.0]);
        assert!(MaxPoolStage::new(0, 1).is_err());
        assert!(pool.out_shape(&[4]).is_err());
        assert!(pool.out_shape(&[1, 1, 1]).is_err());
    }

    #[test]
    fn global_avg_pool_means_each_plane() {
        let batch = InferBatch::from_samples(
            &[vec![1.0, 3.0, 5.0, 7.0, 10.0, 10.0, 10.0, 10.0]],
            &[2, 2, 2],
        )
        .unwrap();
        let out = GlobalAvgPoolStage.run(batch, None).unwrap();
        assert_eq!(out.col(0), &[4.0, 10.0]);
        assert!(GlobalAvgPoolStage.out_shape(&[4]).is_err());
    }
}
