use crate::batch::InferBatch;
use crate::layers::{PecanConv2d, PecanLinear};
use crate::PecanVariant;
use pecan_cam::{AnalogCam, DotProductCam, LookupTable};
use pecan_pq::{PqConfig, UsageStats};
use pecan_tensor::{ShapeError, Tensor};
use rand::Rng;

/// The Algorithm-1 inference engine for one PECAN layer.
///
/// Construction performs line 3 of Algorithm 1: the filter matrix is split
/// into per-group sub-matrices `W1(j) ∈ R^{cout×d}` and multiplied with the
/// codebooks `C1(j) ∈ R^{d×p}` once, yielding the lookup tables
/// `Y(j) ∈ R^{cout×p}`. The prototypes themselves are programmed into CAM
/// arrays ([`AnalogCam`] for PECAN-D, [`DotProductCam`] for PECAN-A).
///
/// At inference, each im2col column triggers `D` CAM searches and `D`
/// table reads — **no dense filtering arithmetic ever runs**. For PECAN-D
/// this path is multiplier-free; the test suite asserts it matches the
/// training-path forward bit-for-bit.
#[derive(Debug)]
pub struct LayerLut {
    variant: PecanVariant,
    tau: f32,
    config: PqConfig,
    c_out: usize,
    analog: Vec<AnalogCam>,
    dot: Vec<DotProductCam>,
    luts: Vec<LookupTable>,
    bias: Option<Tensor>,
}

impl LayerLut {
    /// Builds the engine from a PECAN convolution.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the layer's weight/codebook shapes are
    /// inconsistent (cannot happen for layers built through this crate).
    pub fn from_conv(layer: &PecanConv2d) -> Result<Self, ShapeError> {
        let weight = layer.weight().to_tensor();
        Self::build(
            layer.variant(),
            *layer.pq_config(),
            &weight,
            &layer.codebook().to_tensors(),
            None,
        )
    }

    /// Builds the engine from a PECAN linear layer.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the layer's weight/codebook shapes are
    /// inconsistent.
    pub fn from_linear(layer: &PecanLinear) -> Result<Self, ShapeError> {
        let weight = layer.weight().to_tensor();
        Self::build(
            layer.variant(),
            *layer.pq_config(),
            &weight,
            &layer.codebook().to_tensors(),
            Some(layer.bias().to_tensor()),
        )
    }

    /// Builds the engine from raw parts (used by pruning and the noise
    /// experiments).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `weight` is not `[cout, D·d]` or any
    /// codebook group is not `[d, p]`.
    pub fn build(
        variant: PecanVariant,
        config: PqConfig,
        weight: &Tensor,
        codebooks: &[Tensor],
        bias: Option<Tensor>,
    ) -> Result<Self, ShapeError> {
        weight.shape().expect_rank(2)?;
        if weight.dims()[1] != config.rows() {
            return Err(ShapeError::new(format!(
                "weight {:?} does not cover {} im2col rows",
                weight.dims(),
                config.rows()
            )));
        }
        if codebooks.len() != config.groups() {
            return Err(ShapeError::new(format!(
                "{} codebooks for {} groups",
                codebooks.len(),
                config.groups()
            )));
        }
        let c_out = weight.dims()[0];
        let d = config.dim();
        let mut analog = Vec::new();
        let mut dot = Vec::new();
        let mut luts = Vec::with_capacity(config.groups());
        for (j, cb) in codebooks.iter().enumerate() {
            if cb.dims() != [d, config.prototypes()] {
                return Err(ShapeError::new(format!(
                    "codebook group {j} has shape {:?}",
                    cb.dims()
                )));
            }
            // W1(j): rows of the weight restricted to this group's columns.
            let mut w_j = Tensor::zeros(&[c_out, d]);
            for o in 0..c_out {
                for k in 0..d {
                    w_j.set2(o, k, weight.get2(o, j * d + k));
                }
            }
            luts.push(LookupTable::from_products(&w_j, cb)?);
            // CAM rows are prototypes: transpose [d, p] → [p, d].
            let rows = cb.transpose2()?;
            match variant {
                PecanVariant::Distance => analog.push(AnalogCam::new(rows)?),
                PecanVariant::Angle => dot.push(DotProductCam::new(rows)?),
            }
        }
        Ok(Self { variant, tau: config.tau(), config, c_out, analog, dot, luts, bias })
    }

    /// Rebuilds an engine from already-compiled parts: the per-group CAM
    /// arrays in their **runtime** `[p, d]` row layout, the matching
    /// precomputed lookup tables and an optional bias. This is the
    /// deserialization hook used by model snapshots (`pecan-serve`): no
    /// weight matrix is needed because the `W·C` products of Algorithm 1
    /// line 3 are supplied ready-made, so a reloaded engine is
    /// **bit-identical** to the one that was saved. The parts are taken as
    /// given — no transpose, no copy — so a loader can hand in borrowed
    /// [`Tensor`] views over a memory-mapped file and the engine is built
    /// without touching the bulk data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the part counts or shapes disagree with
    /// `config` (group count, `[p, d]` CAM rows, `[cout, p]` tables with a
    /// consistent `cout`, bias of length `cout`).
    pub fn from_tables(
        variant: PecanVariant,
        config: PqConfig,
        cam_rows: Vec<Tensor>,
        tables: Vec<LookupTable>,
        bias: Option<Tensor>,
    ) -> Result<Self, ShapeError> {
        if cam_rows.len() != config.groups() || tables.len() != config.groups() {
            return Err(ShapeError::new(format!(
                "{} CAM arrays / {} tables for {} groups",
                cam_rows.len(),
                tables.len(),
                config.groups()
            )));
        }
        let c_out = tables[0].outputs();
        for (j, t) in tables.iter().enumerate() {
            if t.outputs() != c_out || t.entries() != config.prototypes() {
                return Err(ShapeError::new(format!(
                    "table group {j} is [{}, {}], expected [{c_out}, {}]",
                    t.outputs(),
                    t.entries(),
                    config.prototypes()
                )));
            }
        }
        if let Some(b) = &bias {
            if b.len() != c_out {
                return Err(ShapeError::new(format!(
                    "bias of {} for {c_out} outputs",
                    b.len()
                )));
            }
        }
        let d = config.dim();
        let mut analog = Vec::new();
        let mut dot = Vec::new();
        for (j, rows) in cam_rows.into_iter().enumerate() {
            if rows.dims() != [config.prototypes(), d] {
                return Err(ShapeError::new(format!(
                    "CAM group {j} has shape {:?}, expected [{}, {d}]",
                    rows.dims(),
                    config.prototypes()
                )));
            }
            match variant {
                PecanVariant::Distance => analog.push(AnalogCam::new(rows)?),
                PecanVariant::Angle => dot.push(DotProductCam::new(rows)?),
            }
        }
        Ok(Self { variant, tau: config.tau(), config, c_out, analog, dot, luts: tables, bias })
    }

    /// Output width `cout`.
    pub fn outputs(&self) -> usize {
        self.c_out
    }

    /// The PQ configuration the engine was built for.
    pub fn config(&self) -> &PqConfig {
        &self.config
    }

    /// Which similarity variant the engine runs (PECAN-D or PECAN-A).
    pub fn variant(&self) -> PecanVariant {
        self.variant
    }

    /// The bias added to every output column, when the source layer had one.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// The per-group CAM arrays in their runtime `[p, d]` row layout — the
    /// exact tensors a [`LayerLut::from_tables`] round trip needs
    /// (and the layout snapshot v3 stores, so serialization is a straight
    /// byte copy with no transpose).
    pub fn cam_rows(&self) -> Vec<&Tensor> {
        match self.variant {
            PecanVariant::Distance => self.analog.iter().map(AnalogCam::rows).collect(),
            PecanVariant::Angle => self.dot.iter().map(DotProductCam::rows).collect(),
        }
    }

    /// The per-group lookup tables.
    pub fn luts(&self) -> &[LookupTable] {
        &self.luts
    }

    /// Total lookup-table memory in scalars (`cout·D·p`, §3 storage (ii)).
    pub fn lut_scalars(&self) -> usize {
        self.luts.iter().map(LookupTable::scalars).sum()
    }

    /// Perturbs the stored CAM prototypes with Gaussian device noise
    /// (RRAM-variation experiment). Only meaningful for PECAN-D.
    pub fn perturb_prototypes<R: Rng>(&mut self, sigma: f32, rng: &mut R) {
        let mut noisy = Vec::with_capacity(self.analog.len());
        for cam in &self.analog {
            let rows = cam.rows().clone();
            // analyze: allow(hot-path-panic) -- offline noise experiment
            // only, never a serving path; the rows come from a valid CAM.
            noisy.push(
                AnalogCam::with_noise(rows, sigma, rng)
                    .expect("existing CAM rows are valid"),
            );
        }
        self.analog = noisy;
    }

    /// Runs Algorithm 1 over a whole batch of columns at once: `x` is a
    /// column-major [`InferBatch`] whose every column carries the layer's
    /// `D·d` im2col features, and the result is the `[cout]`-per-column
    /// output batch. When `stats` is given, PECAN-D records which
    /// prototype won each search (Fig. 6).
    ///
    /// This is the batch-first inference entry point: the batch enters as
    /// one contiguous matrix and leaves as one contiguous matrix, so
    /// consecutive LUT layers can chain without ever splitting the batch
    /// into per-sample buffers. PECAN-D hands each codebook group's
    /// sub-rows to [`AnalogCam::search_strided_into`] straight out of the
    /// batch buffer, one call answering all columns of a group: on the
    /// prototype-lane `pecan-index` scan for at most four columns (batch 1
    /// among them), on the lane-blocked scan above that. Per-column
    /// accumulation order (bias, then groups in ascending order) matches
    /// the historical per-column loop, so outputs are bit-identical to it.
    ///
    /// Training-path tools that still hold a row-major `[rows, cols]`
    /// [`Tensor`] should call [`LayerLut::forward_matrix`], the thin shim
    /// over this method.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x` does not carry `D·d` features per
    /// column.
    pub fn forward_cols(
        &self,
        x: InferBatch,
        mut stats: Option<&mut UsageStats>,
    ) -> Result<InferBatch, ShapeError> {
        let _span = pecan_obs::span("core.forward_cols");
        if x.features() != self.config.rows() {
            return Err(ShapeError::new(format!(
                "feature matrix has {} rows, engine expects {}",
                x.features(),
                self.config.rows()
            )));
        }
        let cols = x.cols();
        let d = self.config.dim();
        let mut out = InferBatch::zeros(&[self.c_out], cols)?;
        match self.variant {
            PecanVariant::Distance => {
                // The output batch *is* the accumulator: column-major
                // [cout, cols], every LUT read adds into one contiguous
                // column.
                let acc = out.data_mut();
                if let Some(b) = &self.bias {
                    for column in acc.chunks_exact_mut(self.c_out) {
                        column.copy_from_slice(b.data());
                    }
                }
                // One gather scratch reused across every group's search.
                let mut scratch = Vec::new();
                for j in 0..self.config.groups() {
                    let hits = self.analog[j].search_strided_into(
                        x.data(),
                        x.features(),
                        j * d,
                        cols,
                        &mut scratch,
                    )?;
                    for (i, hit) in hits.iter().enumerate() {
                        self.luts[j].accumulate_column(
                            hit.row,
                            &mut acc[i * self.c_out..(i + 1) * self.c_out],
                        )?;
                        if let Some(s) = stats.as_deref_mut() {
                            s.record(j, hit.row);
                        }
                    }
                }
            }
            PecanVariant::Angle => {
                let mut scores = vec![0.0f32; self.config.prototypes()];
                for i in 0..cols {
                    let column = x.col(i);
                    let acc = out.col_mut(i);
                    if let Some(b) = &self.bias {
                        acc.copy_from_slice(b.data());
                    }
                    for j in 0..self.config.groups() {
                        self.dot[j].scores_into(&column[j * d..(j + 1) * d], &mut scores)?;
                        let weights = softmax(&scores, self.tau);
                        self.luts[j].accumulate_weighted(&weights, acc)?;
                        if let Some(s) = stats.as_deref_mut() {
                            // record the dominant prototype for usage stats
                            let best = argmax(&weights);
                            s.record(j, best);
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Runs Algorithm 1 over a row-major im2col matrix `x` (`[D·d, cols]`),
    /// producing the layer output `[cout, cols]` — the retained
    /// [`Tensor`]-shaped shim over the batch-first
    /// [`LayerLut::forward_cols`]. Results are bit-identical to the batch
    /// path (the conversions transpose, they never touch values).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x` does not match the configuration.
    pub fn forward_matrix(
        &self,
        x: &Tensor,
        stats: Option<&mut UsageStats>,
    ) -> Result<Tensor, ShapeError> {
        let batch = InferBatch::from_matrix(x)?;
        Ok(self.forward_cols(batch, stats)?.to_matrix())
    }

    /// Fresh usage-statistics accumulator sized for this engine.
    pub fn new_stats(&self) -> UsageStats {
        UsageStats::new(self.config.groups(), self.config.prototypes())
    }
}

fn softmax(scores: &[f32], tau: f32) -> Vec<f32> {
    let mx = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max) / tau;
    let exps: Vec<f32> = scores.iter().map(|&s| (s / tau - mx).exp()).collect();
    let z: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / z).collect()
}

fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PqLayerSettings;
    use pecan_autograd::Var;
    use pecan_nn::Layer;
    use pecan_tensor::{im2col, Conv2dGeometry};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv_layer(variant: PecanVariant, seed: u64) -> PecanConv2d {
        let mut rng = StdRng::seed_from_u64(seed);
        PecanConv2d::new(
            &mut rng,
            variant,
            PqLayerSettings::new(4, 9, 0.5),
            2,
            3,
            3,
            1,
            1,
        )
        .unwrap()
    }

    #[test]
    fn lut_inference_matches_training_forward_distance() {
        let mut layer = conv_layer(PecanVariant::Distance, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let x_t = pecan_tensor::uniform(&mut rng, &[1, 2, 5, 5], -1.0, 1.0);
        let x = Var::constant(x_t.clone());
        let train_path = layer.forward(&x, false).unwrap();

        let engine = LayerLut::from_conv(&layer).unwrap();
        let geom = Conv2dGeometry::new(2, 5, 5, 3, 1, 1).unwrap();
        let img = Tensor::from_vec(x_t.data().to_vec(), &[2, 5, 5]).unwrap();
        let cols = im2col(&img, &geom).unwrap();
        let lut_out = engine.forward_matrix(&cols, None).unwrap(); // [3, 25]

        // train path output is [1, 3, 5, 5] — same memory order as [3, 25]
        let train_flat = train_path.value().reshape(&[3, 25]).unwrap();
        assert!(
            lut_out.max_abs_diff(&train_flat) < 1e-4,
            "LUT path diverges from training path by {}",
            lut_out.max_abs_diff(&train_flat)
        );
    }

    #[test]
    fn lut_inference_matches_training_forward_angle() {
        let mut layer = conv_layer(PecanVariant::Angle, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let x_t = pecan_tensor::uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);
        let x = Var::constant(x_t.clone());
        let train_path = layer.forward(&x, false).unwrap();

        let engine = LayerLut::from_conv(&layer).unwrap();
        let geom = Conv2dGeometry::new(2, 4, 4, 3, 1, 1).unwrap();
        let img = Tensor::from_vec(x_t.data().to_vec(), &[2, 4, 4]).unwrap();
        let cols = im2col(&img, &geom).unwrap();
        let lut_out = engine.forward_matrix(&cols, None).unwrap();
        let train_flat = train_path.value().reshape(&[3, 16]).unwrap();
        assert!(lut_out.max_abs_diff(&train_flat) < 1e-3);
    }

    #[test]
    fn linear_lut_matches_layer() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = PecanLinear::new(
            &mut rng,
            PecanVariant::Distance,
            PqLayerSettings::new(4, 8, 0.5),
            16,
            5,
        )
        .unwrap();
        let x_t = pecan_tensor::uniform(&mut rng, &[3, 16], -1.0, 1.0);
        let y = layer.forward(&Var::constant(x_t.clone()), false).unwrap();

        let engine = LayerLut::from_linear(&layer).unwrap();
        let cols = x_t.transpose2().unwrap(); // [16, 3]
        let out = engine.forward_matrix(&cols, None).unwrap(); // [5, 3]
        let y_cols = y.value().transpose2().unwrap();
        assert!(out.max_abs_diff(&y_cols) < 1e-4);
    }

    #[test]
    fn usage_stats_are_recorded() {
        let layer = conv_layer(PecanVariant::Distance, 6);
        let engine = LayerLut::from_conv(&layer).unwrap();
        let mut stats = engine.new_stats();
        let mut rng = StdRng::seed_from_u64(7);
        let cols = pecan_tensor::uniform(&mut rng, &[18, 30], -1.0, 1.0);
        engine.forward_matrix(&cols, Some(&mut stats)).unwrap();
        let total: u64 = (0..stats.groups()).map(|g| stats.counts(g).iter().sum::<u64>()).sum();
        assert_eq!(total, 30 * 2); // 30 columns × 2 groups
    }

    #[test]
    fn noise_perturbation_changes_assignments_eventually() {
        let layer = conv_layer(PecanVariant::Distance, 8);
        let mut engine = LayerLut::from_conv(&layer).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let cols = pecan_tensor::uniform(&mut rng, &[18, 20], -1.0, 1.0);
        let clean = engine.forward_matrix(&cols, None).unwrap();
        engine.perturb_prototypes(5.0, &mut rng); // huge noise
        let noisy = engine.forward_matrix(&cols, None).unwrap();
        assert!(clean.max_abs_diff(&noisy) > 0.0);

        // Both kernels scan the noisy rows: strided searches of 1..=9
        // columns (prototype-lane up to four, blocked above) agree with
        // the one-query scan, and so do whole forwards.
        let (rows, d) = (engine.config.rows(), engine.config.dim());
        let data = pecan_tensor::uniform(&mut rng, &[9 * rows], -1.0, 1.0).into_vec();
        for (j, cam) in engine.analog.iter().enumerate() {
            for count in 1..=9 {
                let hits = cam.search_strided(&data, rows, j * d, count).unwrap();
                for (i, hit) in hits.iter().enumerate() {
                    let query = &data[i * rows + j * d..][..d];
                    assert_eq!(*hit, cam.search(query).unwrap(), "group {j} count {count}");
                }
            }
        }
        let batch = InferBatch::from_data(data.clone(), &[rows], 9).unwrap();
        let together = engine.forward_cols(batch, None).unwrap();
        for (i, column) in data.chunks_exact(rows).enumerate() {
            let one = InferBatch::from_data(column.to_vec(), &[rows], 1).unwrap();
            let alone = engine.forward_cols(one, None).unwrap();
            assert_eq!(alone.data(), together.col(i), "column {i}");
        }
    }

    #[test]
    fn forward_matrix_shim_is_bit_identical_to_batch_path() {
        for (variant, seed) in [(PecanVariant::Distance, 31), (PecanVariant::Angle, 32)] {
            let layer = conv_layer(variant, seed);
            let engine = LayerLut::from_conv(&layer).unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 1);
            let cols = pecan_tensor::uniform(&mut rng, &[18, 15], -1.0, 1.0);
            let via_shim = engine.forward_matrix(&cols, None).unwrap();
            let batch = InferBatch::from_matrix(&cols).unwrap();
            let via_batch = engine.forward_cols(batch, None).unwrap();
            assert_eq!(via_batch.sample_shape(), &[3]);
            assert_eq!(via_batch.cols(), 15);
            let back = via_batch.to_matrix();
            assert_eq!(via_shim.data(), back.data(), "{variant:?} shim must match batch");
        }
    }

    #[test]
    fn batch_stats_match_matrix_stats() {
        let layer = conv_layer(PecanVariant::Distance, 33);
        let engine = LayerLut::from_conv(&layer).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        let cols = pecan_tensor::uniform(&mut rng, &[18, 25], -1.0, 1.0);
        let mut a = engine.new_stats();
        let mut b = engine.new_stats();
        engine.forward_matrix(&cols, Some(&mut a)).unwrap();
        engine
            .forward_cols(InferBatch::from_matrix(&cols).unwrap(), Some(&mut b))
            .unwrap();
        for g in 0..a.groups() {
            assert_eq!(a.counts(g), b.counts(g));
        }
    }

    #[test]
    fn from_tables_round_trips_both_variants() {
        for (variant, seed) in [(PecanVariant::Distance, 10), (PecanVariant::Angle, 11)] {
            let layer = conv_layer(variant, seed);
            let engine = LayerLut::from_conv(&layer).unwrap();
            let rebuilt = LayerLut::from_tables(
                engine.variant(),
                *engine.config(),
                engine.cam_rows().into_iter().cloned().collect(),
                engine.luts().to_vec(),
                engine.bias().cloned(),
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let cols = pecan_tensor::uniform(&mut rng, &[18, 13], -1.0, 1.0);
            let a = engine.forward_matrix(&cols, None).unwrap();
            let b = rebuilt.forward_matrix(&cols, None).unwrap();
            assert_eq!(a.data(), b.data(), "{variant:?} rebuild must be bit-identical");
        }
    }

    #[test]
    fn from_tables_validates_parts() {
        let layer = conv_layer(PecanVariant::Distance, 12);
        let engine = LayerLut::from_conv(&layer).unwrap();
        let cfg = *engine.config();
        let rows: Vec<Tensor> = engine.cam_rows().into_iter().cloned().collect();
        let luts = engine.luts().to_vec();
        let build = |rows: Vec<Tensor>, luts: Vec<LookupTable>, bias: Option<Tensor>| {
            LayerLut::from_tables(PecanVariant::Distance, cfg, rows, luts, bias)
        };
        assert!(build(rows.clone(), luts.clone(), None).is_ok());
        // group-count mismatch
        assert!(build(rows[..1].to_vec(), luts.clone(), None).is_err());
        // wrong CAM shape: the [d, p] codebook layout is not accepted
        let codebooks = rows.iter().map(|r| r.transpose2().unwrap()).collect();
        assert!(build(codebooks, luts.clone(), None).is_err());
        // wrong table shape
        let bad_luts = vec![LookupTable::new(Tensor::zeros(&[3, 5])).unwrap(); luts.len()];
        assert!(build(rows.clone(), bad_luts, None).is_err());
        // bias length mismatch
        assert!(build(rows, luts, Some(Tensor::zeros(&[99]))).is_err());
    }

    #[test]
    fn build_validates_shapes() {
        let cfg = PqConfig::for_rows(8, 2, 4, 1.0).unwrap();
        let w = Tensor::zeros(&[3, 8]);
        let bad_weight = Tensor::zeros(&[3, 9]);
        let cb = vec![Tensor::zeros(&[4, 2]), Tensor::zeros(&[4, 2])];
        assert!(LayerLut::build(PecanVariant::Distance, cfg, &w, &cb, None).is_ok());
        assert!(LayerLut::build(PecanVariant::Distance, cfg, &bad_weight, &cb, None).is_err());
        assert!(LayerLut::build(PecanVariant::Distance, cfg, &w, &cb[..1], None).is_err());
        let engine = LayerLut::build(PecanVariant::Distance, cfg, &w, &cb, None).unwrap();
        assert!(engine.forward_matrix(&Tensor::zeros(&[7, 2]), None).is_err());
        assert_eq!(engine.lut_scalars(), 2 * 3 * 2);
    }
}
