//! The frozen inference engine: an immutable, `Arc`-shareable compiled
//! plan for Algorithm-1 serving.
//!
//! [`FrozenEngine::compile`] walks a trained [`Sequential`] model **once**,
//! compiling each layer into a [`Stage`] implementation: PECAN layers
//! become LUT stages (CAM prototypes + `W·C` product tables, line 3 of
//! Algorithm 1, with conv im2col geometry resolved against the fixed input
//! shape) and the plumbing layers become their batch-first counterparts.
//! After compilation no locks, no RNG and no mutable state remain beyond
//! each stage's timing histogram (relaxed atomics) — all inference entry
//! points take `&self`, so any number of scheduler workers can serve from
//! one shared engine concurrently.
//!
//! The pipeline is **batch-first end to end**: [`FrozenEngine::infer`]
//! takes the whole batch as one column-major [`InferBatch`] matrix and
//! every stage hands one matrix to the next — there is no per-sample
//! split/rejoin anywhere between stages. That keeps the lane-blocked
//! `pecan-index` scan kernel fed with matrices as wide as the batch through
//! *consecutive* table-lookup layers, which is where PQ-DNN serving
//! throughput comes from. Because every stage answers each column
//! independently of its batch-mates, batched outputs are **bit-identical**
//! to running the same requests one at a time — `tests/engine_parity.rs`
//! and `tests/batch_parity.rs` pin this per request, and the scheduler
//! relies on it to mix traffic freely.
//!
//! The sample-shaped [`FrozenEngine::predict`] /
//! [`FrozenEngine::predict_batch`] entry points remain as thin shims that
//! pack requests into an [`InferBatch`] at the boundary and unpack the
//! answer — same bits, one extra copy at each edge.

use crate::error::ServeError;
use crate::obs::Histogram;
use crate::stage::{
    FlattenStage, GlobalAvgPoolStage, LutConvStage, LutLinearStage, MaxPoolStage, ReluStage,
    Stage,
};
use pecan_core::{InferBatch, LayerLut, PecanConv2d, PecanLinear};
use pecan_nn::{Flatten, GlobalAvgPool, MaxPool2d, Relu, Sequential};

/// An immutable compiled inference plan for one PECAN model.
///
/// Build it with [`FrozenEngine::compile`] (from a live model) or
/// [`FrozenEngine::load_snapshot`](FrozenEngine::load_snapshot) (from a
/// serialized one), wrap it in an [`std::sync::Arc`], and serve: all
/// methods take `&self` and the type is `Send + Sync`.
///
/// # Example
///
/// ```
/// use pecan_serve::FrozenEngine;
///
/// let engine = pecan_serve::demo::mlp_engine(7);
/// let input = vec![0.25; engine.input_len()];
/// let single = engine.predict(&input).unwrap();
/// let batched = engine.predict_batch(&[input.clone(), input]).unwrap();
/// // batching never changes bits
/// assert_eq!(single, batched[0]);
/// assert_eq!(single, batched[1]);
/// ```
#[derive(Debug)]
pub struct FrozenEngine {
    pub(crate) stages: Vec<Box<dyn Stage>>,
    /// Per-batch wall time of each stage, ns, indexed like `stages`.
    times: Vec<Histogram>,
    pub(crate) input_shape: Vec<usize>,
    pub(crate) output_shape: Vec<usize>,
    pub(crate) name: Option<String>,
}

impl FrozenEngine {
    /// Compiles a trained model into a frozen serving plan.
    ///
    /// `input_shape` is the per-sample shape the engine will serve —
    /// `[c, h, w]` for convolutional models, `[features]` for MLPs. All
    /// geometry (im2col layouts, pooling windows, flatten sizes) is
    /// validated and resolved here, so `predict` can never fail on a
    /// well-sized input.
    ///
    /// Supported layers: [`PecanConv2d`], [`PecanLinear`], [`Relu`],
    /// [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], and nested
    /// [`Sequential`]s of those.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] for any other layer (standard
    /// uncompressed convolutions, BatchNorm, custom blocks) and
    /// [`ServeError::BadInput`] / [`ServeError::Engine`] when `input_shape`
    /// does not thread through the model.
    pub fn compile(model: &Sequential, input_shape: &[usize]) -> Result<Self, ServeError> {
        let mut stages: Vec<Box<dyn Stage>> = Vec::new();
        let mut shape = input_shape.to_vec();
        Self::compile_into(model, &mut stages, &mut shape)?;
        Self::from_stages(stages, input_shape.to_vec(), None)
    }

    /// Walks the model, appending one compiled stage per layer while
    /// threading the running per-sample `shape` forward (conv geometry
    /// resolution needs the current `[c, h, w]`).
    fn compile_into(
        model: &Sequential,
        stages: &mut Vec<Box<dyn Stage>>,
        shape: &mut Vec<usize>,
    ) -> Result<(), ServeError> {
        for layer in model.layers() {
            let any = layer.as_any();
            let stage: Box<dyn Stage> = if let Some(conv) = any.downcast_ref::<PecanConv2d>() {
                let (c_in, _, _, _, _) = conv.conv_config();
                if shape.len() != 3 || shape[0] != c_in {
                    return Err(ServeError::BadInput(format!(
                        "PecanConv2d expects [{c_in}, h, w], pipeline carries {shape:?}"
                    )));
                }
                let geom = conv.geometry(shape[1], shape[2])?;
                Box::new(LutConvStage::new(LayerLut::from_conv(conv)?, geom)?)
            } else if let Some(lin) = any.downcast_ref::<PecanLinear>() {
                Box::new(LutLinearStage::new(LayerLut::from_linear(lin)?))
            } else if any.downcast_ref::<Relu>().is_some() {
                Box::new(ReluStage)
            } else if let Some(pool) = any.downcast_ref::<MaxPool2d>() {
                Box::new(MaxPoolStage::new(pool.kernel(), pool.stride())?)
            } else if any.downcast_ref::<GlobalAvgPool>().is_some() {
                Box::new(GlobalAvgPoolStage)
            } else if any.downcast_ref::<Flatten>().is_some() {
                Box::new(FlattenStage)
            } else if let Some(seq) = any.downcast_ref::<Sequential>() {
                Self::compile_into(seq, stages, shape)?;
                continue;
            } else {
                return Err(ServeError::Unsupported(format!(
                    "layer `{}` cannot be compiled into a frozen engine \
                     (only PECAN conv/linear, ReLU, max/global pooling and \
                     flatten are servable)",
                    layer.name()
                )));
            };
            *shape = stage.out_shape(shape)?;
            stages.push(stage);
        }
        Ok(())
    }

    /// Builds an engine from already-constructed stages, threading the
    /// per-sample shape through every one to derive (and validate) the
    /// output shape — `predict` on a constructed engine can then never
    /// index out of bounds.
    pub(crate) fn from_stages(
        stages: Vec<Box<dyn Stage>>,
        input_shape: Vec<usize>,
        name: Option<String>,
    ) -> Result<Self, ServeError> {
        if input_shape.is_empty() || input_shape.contains(&0) {
            return Err(ServeError::BadInput(format!(
                "input shape {input_shape:?} must be non-empty with non-zero dims"
            )));
        }
        let mut shape = input_shape.clone();
        for (i, stage) in stages.iter().enumerate() {
            shape = stage.out_shape(&shape).map_err(|e| {
                ServeError::BadInput(format!("stage {i}: {e}"))
            })?;
        }
        let times = stages.iter().map(|_| Histogram::new()).collect();
        Ok(Self { stages, times, input_shape, output_shape: shape, name })
    }

    /// Rebuilds an engine from deserialized parts (snapshot loader),
    /// additionally checking the declared output shape.
    pub(crate) fn from_parts(
        stages: Vec<Box<dyn Stage>>,
        input_shape: Vec<usize>,
        output_shape: Vec<usize>,
        name: Option<String>,
    ) -> Result<Self, ServeError> {
        let engine = Self::from_stages(stages, input_shape, name)?;
        if engine.output_shape != output_shape {
            return Err(ServeError::BadInput(format!(
                "pipeline produces {:?}, header declares {output_shape:?}",
                engine.output_shape
            )));
        }
        Ok(engine)
    }

    /// Names the engine (the identity multi-model serving routes on and
    /// snapshots persist). Builder-style; `None`-named engines serve
    /// under a registry-assigned default.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The model name, when the engine carries one.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Per-sample input shape the engine was compiled for.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Per-sample output shape.
    pub fn output_shape(&self) -> &[usize] {
        &self.output_shape
    }

    /// Flattened input length one request must supply.
    pub fn input_len(&self) -> usize {
        self.input_shape.iter().product()
    }

    /// Flattened output length one response carries.
    pub fn output_len(&self) -> usize {
        self.output_shape.iter().product()
    }

    /// Number of compiled stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The compiled pipeline, for stage-by-stage drivers (e.g. usage-stats
    /// collection with a per-stage [`pecan_core::UsageStats`]).
    pub fn stages(&self) -> &[Box<dyn Stage>] {
        &self.stages
    }

    /// Total lookup-table memory across all PECAN stages, in scalars.
    pub fn lut_scalars(&self) -> usize {
        self.stages
            .iter()
            .filter_map(|s| s.lut())
            .map(LayerLut::lut_scalars)
            .sum()
    }

    /// Each stage's kind ([`Stage::name`]) and its per-batch wall-time
    /// histogram in ns, in pipeline order: entry `i` is layer `i`. Every
    /// [`FrozenEngine::infer`] records one sample per stage it runs;
    /// `/metrics` exports them as `pecan_stage_latency_seconds`.
    pub fn stage_times(&self) -> Vec<(&'static str, &Histogram)> {
        self.stages.iter().map(|s| s.name()).zip(&self.times).collect()
    }

    /// The batch-first inference entry point: runs the whole batch as
    /// **one** [`InferBatch`] column matrix through every stage. The batch
    /// must carry `input_len()` features per column, shaped either as the
    /// engine's exact `input_shape()` or flat `[input_len()]` (requests
    /// arrive flat off the wire).
    ///
    /// Each stage runs inside one [`pecan_obs::timed_span`]
    /// (`stage.<kind>`, id = layer index), whose clock pair feeds both the
    /// layer's [`FrozenEngine::stage_times`] histogram and the span.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when the batch's per-sample shape does not
    /// fit the engine.
    pub fn infer(&self, batch: InferBatch) -> Result<InferBatch, ServeError> {
        let mut b = if batch.sample_shape() == self.input_shape {
            batch
        } else if batch.sample_shape() == [self.input_len()] {
            batch.reshaped(&self.input_shape.clone())?
        } else {
            return Err(ServeError::BadInput(format!(
                "batch carries samples of {:?}, engine expects {:?}",
                batch.sample_shape(),
                self.input_shape
            )));
        };
        for (layer, (stage, hist)) in self.stages.iter().zip(&self.times).enumerate() {
            let _span = pecan_obs::timed_span(stage_span_name(stage.name()), layer as u64, hist);
            b = stage.run(b, None)?;
        }
        debug_assert_eq!(b.sample_shape(), self.output_shape);
        Ok(b)
    }

    /// Serves one request. Exactly equivalent to a batch of one.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when `input.len() != self.input_len()`.
    pub fn predict(&self, input: &[f32]) -> Result<Vec<f32>, ServeError> {
        if input.len() != self.input_len() {
            return Err(ServeError::BadInput(format!(
                "request has {} values, engine expects {}",
                input.len(),
                self.input_len()
            )));
        }
        let batch = InferBatch::from_data(input.to_vec(), &self.input_shape, 1)?;
        let mut out = self.infer(batch)?.into_samples();
        // A batch of one must yield one output; anything else is an
        // internal pipeline bug, reported as a typed 500 instead of
        // panicking the serving thread.
        out.pop().ok_or_else(|| ServeError::Engine("batch of one yielded no output".into()))
    }

    /// Serves a batch of requests in one sweep through the pipeline — a
    /// thin shim that packs the inputs into one [`InferBatch`] and calls
    /// [`FrozenEngine::infer`].
    ///
    /// Per-request outputs are **bit-identical** to calling
    /// [`FrozenEngine::predict`] on each input alone, for any batch size
    /// and any `PECAN_NUM_THREADS` — batching only changes wall-clock.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when any input has the wrong length. An
    /// empty batch returns an empty vector.
    pub fn predict_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        let want = self.input_len();
        for (i, x) in inputs.iter().enumerate() {
            if x.len() != want {
                return Err(ServeError::BadInput(format!(
                    "request {i} has {} values, engine expects {want}",
                    x.len()
                )));
            }
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let batch = InferBatch::from_samples(inputs, &self.input_shape)?;
        Ok(self.infer(batch)?.into_samples())
    }
}

/// Trace-span label for a stage kind. Span names must be `&'static str`
/// known at the call site, so the mapping is a static lookup over the
/// closed set of [`Stage::name`] values rather than a formatted string.
fn stage_span_name(kind: &'static str) -> &'static str {
    match kind {
        "lut-conv" => "stage.lut-conv",
        "lut-linear" => "stage.lut-linear",
        "relu" => "stage.relu",
        "max-pool" => "stage.max-pool",
        "global-avg-pool" => "stage.global-avg-pool",
        "flatten" => "stage.flatten",
        _ => "stage.other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pecan_core::{PecanBuilder, PecanVariant};
    use pecan_nn::models;

    #[test]
    fn compile_reports_shapes_and_memory() {
        let mut b = PecanBuilder::from_seed(1, PecanVariant::Distance);
        let net = models::lenet5_modified(&mut b).unwrap();
        let engine = FrozenEngine::compile(&net, &[1, 28, 28]).unwrap();
        assert_eq!(engine.input_shape(), &[1, 28, 28]);
        assert_eq!(engine.output_shape(), &[10]);
        assert_eq!(engine.input_len(), 784);
        assert_eq!(engine.output_len(), 10);
        assert_eq!(engine.stage_count(), 12);
        assert!(engine.lut_scalars() > 0);
        assert_eq!(engine.name(), None);
        assert_eq!(engine.with_name("lenet").name(), Some("lenet"));
    }

    #[test]
    fn compile_rejects_unsupported_and_misshapen_models() {
        use pecan_nn::StandardBuilder;
        let mut std_b = StandardBuilder::from_seed(2);
        let standard = models::lenet5_modified(&mut std_b).unwrap();
        match FrozenEngine::compile(&standard, &[1, 28, 28]) {
            Err(ServeError::Unsupported(msg)) => assert!(msg.contains("Conv2d")),
            other => panic!("expected Unsupported, got {other:?}"),
        }

        let mut b = PecanBuilder::from_seed(1, PecanVariant::Distance);
        let net = models::lenet5_modified(&mut b).unwrap();
        assert!(matches!(
            FrozenEngine::compile(&net, &[3, 28, 28]),
            Err(ServeError::BadInput(_))
        ));
        assert!(matches!(
            FrozenEngine::compile(&net, &[]),
            Err(ServeError::BadInput(_))
        ));
    }

    #[test]
    fn predict_validates_input_length() {
        let engine = crate::demo::mlp_engine(3);
        assert!(matches!(
            engine.predict(&vec![0.0; engine.input_len() + 1]),
            Err(ServeError::BadInput(_))
        ));
        assert!(engine.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn infer_accepts_flat_and_shaped_batches_and_rejects_others() {
        let engine = crate::demo::lenet_engine(5);
        let sample = vec![0.25f32; engine.input_len()];
        let flat =
            pecan_core::InferBatch::from_samples(std::slice::from_ref(&sample), &[784])
                .unwrap();
        let shaped =
            pecan_core::InferBatch::from_samples(&[sample], &[1, 28, 28]).unwrap();
        let a = engine.infer(flat).unwrap();
        let b = engine.infer(shaped).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(a.sample_shape(), engine.output_shape());
        let bad = pecan_core::InferBatch::zeros(&[2, 392], 1).unwrap();
        assert!(matches!(engine.infer(bad), Err(ServeError::BadInput(_))));
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenEngine>();
    }
}
