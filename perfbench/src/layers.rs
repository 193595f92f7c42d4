//! The traced per-layer view of one frozen engine.
//!
//! [`Profiler`] answers each batch with [`FrozenEngine::infer`] (timed as
//! `engine.infer_us`), then replays the same batch stage by stage through
//! [`Stage::run`] (timed per stage index), and decomposes every LUT stage
//! into the three public calls Algorithm 1 is made of:
//!
//! 1. `InferBatch::im2col` (convolutions only) — the gather,
//! 2. `AnalogCam::search_strided_into` per codebook group — the CAM scan,
//!    on CAMs built from `LayerLut::cam_rows`,
//! 3. `LookupTable::accumulate_column` per search hit — the LUT reads.
//!
//! The decomposition must reproduce `Stage::run` bit for bit, and the
//! stage-by-stage replay must reproduce `infer` bit for bit; any
//! difference is counted as a mismatch and fails the run. A single-thread
//! dense GEMM over the same columns gives the dense layer each LUT stage
//! replaces, for the Table-1 comparison.

use crate::trace::Tracer;
use pecan_cam::{AnalogCam, SearchResult};
use pecan_core::complexity::{baseline_ops, pecan_d_ops, LayerShape};
use pecan_core::{InferBatch, LayerLut, PecanVariant};
use pecan_serve::{BatchRunner, FrozenEngine, LutConvStage, ServeError, Stage};
use pecan_tensor::Conv2dGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A LUT stage's decomposition inputs and Table-1 op counts.
struct LutPlan {
    geom: Option<Conv2dGeometry>,
    cams: Vec<AnalogCam>,
    /// Stand-in dense weights `[c_out, rows]` for the reference GEMM; only
    /// the shape matters for its cost.
    dense_w: Vec<f32>,
    c_out: usize,
    rows: usize,
    dim: usize,
    /// PECAN-D additions per sample (`pecan_d_ops`).
    adds: u64,
    /// Dense multiply-accumulates per sample (`baseline_ops`).
    macs: u64,
    names: [String; 4],
}

/// One stage of the engine as the report describes it.
struct StagePlan {
    kind: &'static str,
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
    name: String,
    lut: Option<LutPlan>,
}

/// Per-batch timings of one stage, in microseconds.
#[derive(Default)]
struct StageTimes {
    us: Vec<f64>,
    im2col_us: Vec<f64>,
    search_us: Vec<f64>,
    lut_us: Vec<f64>,
    dense_us: Vec<f64>,
    /// `us − (im2col + search + lut)` per batch.
    remainder_us: Vec<f64>,
    queries: u64,
    slots: u64,
    samples: u64,
}

#[derive(Default)]
struct Record {
    infer_us: Vec<f64>,
    /// Per profiled batch: Σ stage time ÷ the same batch's `infer` time.
    stage_sum_ratio: Vec<f64>,
    stages: Vec<StageTimes>,
    batches: u64,
    mismatches: u64,
}

/// Times one engine layer by layer; see the module docs.
pub struct Profiler {
    engine: Arc<FrozenEngine>,
    plans: Vec<StagePlan>,
    record: Mutex<Record>,
    tracer: Arc<Tracer>,
    /// Batches answered so far: the id that groups one batch's spans.
    batches: AtomicU64,
}

impl Profiler {
    /// Plans the per-stage replay of `engine`.
    ///
    /// # Errors
    ///
    /// When the engine holds a PECAN-A stage (the decomposition follows
    /// the PECAN-D path the demo models use) or a shape does not thread.
    pub fn new(engine: Arc<FrozenEngine>, tracer: Arc<Tracer>, seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shape = engine.input_shape().to_vec();
        let mut plans = Vec::new();
        for (i, stage) in engine.stages().iter().enumerate() {
            let out_shape = stage.out_shape(&shape).map_err(|e| e.to_string())?;
            let lut = match stage.lut() {
                Some(lut) => Some(lut_plan(i, stage.as_ref(), lut, &out_shape, &mut rng)?),
                None => None,
            };
            plans.push(StagePlan {
                kind: stage.name(),
                in_shape: shape.clone(),
                out_shape: out_shape.clone(),
                name: format!("stage.{i}.{}", stage.name()),
                lut,
            });
            shape = out_shape;
        }
        let record = Record {
            stages: plans.iter().map(|_| StageTimes::default()).collect(),
            ..Record::default()
        };
        Ok(Self {
            engine,
            plans,
            record: Mutex::new(record),
            tracer,
            batches: AtomicU64::new(0),
        })
    }

    /// Answers `batch` (shaped as the engine's input) with `infer`, then
    /// replays it layer by layer.
    ///
    /// # Errors
    ///
    /// The engine's error.
    pub fn run(&self, batch: InferBatch) -> Result<InferBatch, ServeError> {
        // ordering: Relaxed — a span id; it publishes nothing.
        let k = self.batches.fetch_add(1, Ordering::Relaxed);
        let replay = batch.clone();
        let t0 = Instant::now();
        let out = self.engine.infer(batch)?;
        let t1 = Instant::now();
        self.tracer.record("engine.infer", t0, t1, k);
        let infer_us = us(t0, t1);
        let (times, mismatch) = self.replay(replay, &out, k)?;
        let mut rec = self
            .record
            .lock()
            .expect("profiler lock poisoned by a panicking thread");
        rec.batches += 1;
        rec.infer_us.push(infer_us);
        rec.mismatches += u64::from(mismatch);
        rec.stage_sum_ratio
            .push(times.iter().map(|t| t.us).sum::<f64>() / infer_us);
        for (acc, t) in rec.stages.iter_mut().zip(times) {
            acc.us.push(t.us);
            if let Some(split) = t.split {
                acc.im2col_us.push(split.im2col_us);
                acc.search_us.push(split.search_us);
                acc.lut_us.push(split.lut_us);
                acc.dense_us.push(split.dense_us);
                acc.remainder_us
                    .push(t.us - split.im2col_us - split.search_us - split.lut_us);
                acc.queries += split.queries;
                acc.slots += split.slots;
                acc.samples += split.samples;
            }
        }
        Ok(out)
    }

    /// Stage-by-stage replay of one batch; returns per-stage timings and
    /// whether any bit differed from `infer` or from `Stage::run`.
    fn replay(
        &self,
        input: InferBatch,
        expect: &InferBatch,
        id: u64,
    ) -> Result<(Vec<StageRun>, bool), ServeError> {
        let mut mismatch = false;
        let mut b = if input.sample_shape() == self.engine.input_shape() {
            input
        } else {
            input.reshaped(self.engine.input_shape())?
        };
        let mut runs = Vec::with_capacity(self.plans.len());
        for (stage, plan) in self.engine.stages().iter().zip(&self.plans) {
            let lut_input = plan.lut.as_ref().map(|_| b.clone());
            let t0 = Instant::now();
            b = stage.run(b, None)?;
            let t1 = Instant::now();
            self.tracer.record(&plan.name, t0, t1, id);
            let split = match (&plan.lut, lut_input, stage.lut()) {
                (Some(lp), Some(x), Some(lut)) => {
                    let (out, split) = decompose(lp, lut, x, &self.tracer, id)?;
                    mismatch |= !same_bits(out.data(), b.data());
                    Some(split)
                }
                _ => None,
            };
            runs.push(StageRun {
                us: us(t0, t1),
                split,
            });
        }
        mismatch |= !same_bits(b.data(), expect.data());
        Ok((runs, mismatch))
    }

    /// Batches profiled and mismatches found so far.
    pub fn counts(&self) -> (u64, u64) {
        let rec = self
            .record
            .lock()
            .expect("profiler lock poisoned by a panicking thread");
        (rec.batches, rec.mismatches)
    }

    /// Median over profiled batches of Σ stage time ÷ `infer` time (0
    /// before the first batch).
    pub fn stage_sum_ratio(&self) -> f64 {
        let rec = self
            .record
            .lock()
            .expect("profiler lock poisoned by a panicking thread");
        if rec.stage_sum_ratio.is_empty() {
            0.0
        } else {
            crate::stats::median(&rec.stage_sum_ratio)
        }
    }

    /// Per-layer metrics (`engine.*`, `stage.*`, `core.*`, `cam.*`) and
    /// the Table-1 report lines, from every batch profiled so far.
    pub fn report(&self) -> (BTreeMap<String, f64>, Vec<String>) {
        let rec = self
            .record
            .lock()
            .expect("profiler lock poisoned by a panicking thread");
        let mut m = BTreeMap::new();
        let mut lines = Vec::new();
        if rec.batches == 0 {
            lines.push("no batch was profiled".into());
            return (m, lines);
        }
        let med = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                crate::stats::median(v)
            }
        };
        m.insert("engine.infer_us".into(), med(&rec.infer_us));
        lines.push(format!(
            "Table 1 per layer — {} batches profiled, median over them",
            rec.batches
        ));
        lines.push(format!(
            "{:>3} {:<11} {:>13} {:>13} {:>10} {:>10} {:>9} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>6}",
            "i", "kind", "in", "out", "PECAN-D+", "dense MAC", "us/batch", "ns/add", "dense us",
            "im2col", "search", "lut", "rest", "fill"
        ));
        for (i, (plan, t)) in self.plans.iter().zip(&rec.stages).enumerate() {
            let stage_us = med(&t.us);
            m.insert(format!("stage.{i}.us"), stage_us);
            let shape = |s: &[usize]| s.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
            let Some(lp) = &plan.lut else {
                lines.push(format!(
                    "{i:>3} {:<11} {:>13} {:>13} {:>10} {:>10} {stage_us:>9.1}",
                    plan.kind,
                    shape(&plan.in_shape),
                    shape(&plan.out_shape),
                    "-",
                    "-"
                ));
                continue;
            };
            // Ratios of sums over the profiled batches: batch sizes vary
            // under serving traffic, so a per-batch median of a ratio
            // would weight small batches like large ones.
            let total_us: f64 = t.us.iter().sum();
            let ns_per_add = total_us * 1e3 / (lp.adds as f64 * t.samples as f64);
            let lane_fill = t.queries as f64 / t.slots as f64;
            let profiled = t.us.len() as f64;
            m.insert(format!("stage.{i}.ns_per_add"), ns_per_add);
            m.insert(format!("stage.{i}.dense_ref_us"), med(&t.dense_us));
            if lp.geom.is_some() {
                m.insert(format!("core.im2col.{i}.us"), med(&t.im2col_us));
            }
            m.insert(format!("cam.search.{i}.us"), med(&t.search_us));
            m.insert(
                format!("cam.search.{i}.queries"),
                t.queries as f64 / profiled,
            );
            m.insert(format!("cam.search.{i}.lane_fill"), lane_fill);
            m.insert(format!("cam.lut.{i}.us"), med(&t.lut_us));
            lines.push(format!(
                "{i:>3} {:<11} {:>13} {:>13} {:>10} {:>10} {stage_us:>9.1} {ns_per_add:>8.3} {:>9.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {lane_fill:>6.3}",
                plan.kind,
                shape(&plan.in_shape),
                shape(&plan.out_shape),
                lp.adds,
                lp.macs,
                med(&t.dense_us),
                med(&t.im2col_us),
                med(&t.search_us),
                med(&t.lut_us),
                med(&t.remainder_us),
            ));
        }
        for (i, t) in rec.stages.iter().enumerate() {
            if !t.remainder_us.is_empty() {
                let parts: Vec<f64> =
                    t.us.iter()
                        .zip(&t.remainder_us)
                        .map(|(s, r)| (s - r) / s)
                        .collect();
                lines.push(format!(
                    "reconcile: stage {i}: (im2col + search + lut) / stage.us median {:.3}, remainder median {:.1} us (bias init, relayout, allocation)",
                    med(&parts),
                    med(&t.remainder_us)
                ));
            }
        }
        (m, lines)
    }
}

struct StageRun {
    us: f64,
    split: Option<Split>,
}

struct Split {
    im2col_us: f64,
    search_us: f64,
    lut_us: f64,
    dense_us: f64,
    queries: u64,
    slots: u64,
    samples: u64,
}

fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn lut_plan(
    index: usize,
    stage: &dyn Stage,
    lut: &LayerLut,
    out_shape: &[usize],
    rng: &mut StdRng,
) -> Result<LutPlan, String> {
    if lut.variant() != PecanVariant::Distance {
        return Err(format!(
            "stage {index}: only PECAN-D stages can be decomposed"
        ));
    }
    let cfg = lut.config();
    let geom = stage
        .as_any()
        .downcast_ref::<LutConvStage>()
        .map(|c| *c.geometry());
    let c_out = lut.outputs();
    let shape = match &geom {
        Some(g) => LayerShape::conv(g.c_in(), c_out, g.kernel(), out_shape[1], out_shape[2]),
        None => LayerShape::fc(cfg.rows(), c_out),
    };
    let cams = lut
        .cam_rows()
        .into_iter()
        .map(|rows| AnalogCam::new(rows.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let dense_w = (0..c_out * cfg.rows())
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    Ok(LutPlan {
        geom,
        cams,
        dense_w,
        c_out,
        rows: cfg.rows(),
        dim: cfg.dim(),
        adds: pecan_d_ops(&shape, cfg.prototypes(), cfg.groups(), cfg.dim()).adds,
        macs: baseline_ops(&shape).muls,
        names: [
            format!("core.im2col.{index}"),
            format!("cam.search.{index}"),
            format!("cam.lut.{index}"),
            format!("dense_ref.{index}"),
        ],
    })
}

/// Runs one LUT stage as its three public calls and returns the stage
/// output (in `Stage::run`'s layout) plus the timing split.
fn decompose(
    lp: &LutPlan,
    lut: &LayerLut,
    x: InferBatch,
    tracer: &Tracer,
    id: u64,
) -> Result<(InferBatch, Split), ServeError> {
    let samples = x.cols();
    let t0 = Instant::now();
    let cols = match &lp.geom {
        Some(g) => x.im2col(g)?,
        None => x,
    };
    let t1 = Instant::now();
    let n = cols.cols();
    let mut scratch = Vec::new();
    let mut hits: Vec<Vec<SearchResult>> = Vec::with_capacity(lp.cams.len());
    for (j, cam) in lp.cams.iter().enumerate() {
        hits.push(cam.search_strided_into(cols.data(), lp.rows, j * lp.dim, n, &mut scratch)?);
    }
    let t2 = Instant::now();
    // Bias first, then groups in ascending order: the accumulation order
    // of `LayerLut::forward_cols`, so the sums round identically.
    let mut acc = vec![0.0f32; lp.c_out * n];
    if let Some(bias) = lut.bias() {
        for column in acc.chunks_exact_mut(lp.c_out) {
            column.copy_from_slice(bias.data());
        }
    }
    for (table, group_hits) in lut.luts().iter().zip(&hits) {
        for (i, hit) in group_hits.iter().enumerate() {
            table.accumulate_column(hit.row, &mut acc[i * lp.c_out..(i + 1) * lp.c_out])?;
        }
    }
    let t3 = Instant::now();
    let mut dense = vec![0.0f32; lp.c_out * n];
    pecan_tensor::gemm::gemm_with_threads(
        &lp.dense_w,
        false,
        cols.data(),
        true,
        &mut dense,
        lp.c_out,
        lp.rows,
        n,
        1,
    );
    black_box(&dense);
    let t4 = Instant::now();
    for (name, (a, b)) in lp
        .names
        .iter()
        .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
    {
        tracer.record(name, a, b, id);
    }
    let out = match &lp.geom {
        Some(g) => {
            // Patch columns → sample columns, as `LutConvStage::run` lays
            // them out: sample i's map is [c_out, Hout·Wout] channel-major.
            let per = g.n_patches();
            let mut out = InferBatch::zeros(&[lp.c_out, g.h_out(), g.w_out()], samples)?;
            for i in 0..samples {
                let dst = out.col_mut(i);
                for p in 0..per {
                    let col = &acc[(i * per + p) * lp.c_out..(i * per + p + 1) * lp.c_out];
                    for (o, &v) in col.iter().enumerate() {
                        dst[o * per + p] = v;
                    }
                }
            }
            out
        }
        None => InferBatch::from_data(acc, &[lp.c_out], n)?,
    };
    let slots = lp.cams.len() as u64 * (n.div_ceil(pecan_index::LANES) * pecan_index::LANES) as u64;
    let split = Split {
        im2col_us: if lp.geom.is_some() { us(t0, t1) } else { 0.0 },
        search_us: us(t1, t2),
        lut_us: us(t2, t3),
        dense_us: us(t3, t4),
        queries: (lp.cams.len() * n) as u64,
        slots,
        samples: samples as u64,
    };
    Ok((out, split))
}

/// A [`BatchRunner`] that serves through a [`Profiler`], so the scheduler
/// and front end run unchanged while the engine is traced layer by layer.
pub struct TracedRunner(pub Arc<Profiler>);

impl BatchRunner for TracedRunner {
    fn input_len(&self) -> usize {
        self.0.engine.input_len()
    }

    fn output_len(&self) -> usize {
        self.0.engine.output_len()
    }

    fn run_batch(&self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, ServeError> {
        let batch = InferBatch::from_samples(inputs, self.0.engine.input_shape())?;
        Ok(self.0.run(batch)?.into_samples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pecan_serve::demo;

    fn check_model(engine: FrozenEngine, batch_sizes: &[usize]) {
        let engine = Arc::new(engine);
        let profiler = Profiler::new(Arc::clone(&engine), Arc::new(Tracer::new()), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for &b in batch_sizes {
            let samples: Vec<Vec<f32>> = (0..b)
                .map(|_| {
                    (0..engine.input_len())
                        .map(|_| rng.gen_range(-1.0f32..1.0))
                        .collect()
                })
                .collect();
            let batch = InferBatch::from_samples(&samples, engine.input_shape()).unwrap();
            let out = profiler.run(batch).unwrap();
            // Each column equals the sample answered alone.
            for (i, s) in samples.iter().enumerate() {
                assert!(same_bits(out.col(i), &engine.predict(s).unwrap()));
            }
        }
        let (batches, mismatches) = profiler.counts();
        assert_eq!(batches, batch_sizes.len() as u64);
        assert_eq!(mismatches, 0, "decomposition differs from Stage::run");
        let (m, _) = profiler.report();
        for (i, stage) in engine.stages().iter().enumerate() {
            assert!(m.contains_key(&format!("stage.{i}.us")));
            assert_eq!(
                stage.lut().is_some(),
                m.contains_key(&format!("cam.search.{i}.us"))
            );
        }
    }

    #[test]
    fn lenet_decomposition_is_bit_identical_to_stage_run() {
        check_model(demo::lenet_engine(21), &[1, 3, 8]);
    }

    #[test]
    fn mlp_decomposition_is_bit_identical_to_stage_run() {
        check_model(demo::mlp_engine(22), &[1, 2, 9, 32]);
    }

    #[test]
    fn a_wrong_decomposition_is_caught() {
        // Accumulating in another order must be detected as a mismatch,
        // or the bit-identity check above proves nothing.
        let engine = demo::mlp_engine(23);
        let stage = &engine.stages()[0];
        let lut = stage.lut().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let plan = lut_plan(0, stage.as_ref(), lut, &[256], &mut rng).unwrap();
        let x: Vec<f32> = (0..4 * engine.input_len())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let batch = InferBatch::from_data(x, &[engine.input_len()], 4).unwrap();
        let reference = stage.run(batch.clone(), None).unwrap();
        let (good, _) = decompose(&plan, lut, batch.clone(), &Tracer::new(), 0).unwrap();
        assert!(same_bits(good.data(), reference.data()));
        // Reverse group order.
        let n = batch.cols();
        let mut acc = vec![0.0f32; plan.c_out * n];
        if let Some(b) = lut.bias() {
            for c in acc.chunks_exact_mut(plan.c_out) {
                c.copy_from_slice(b.data());
            }
        }
        for (j, cam) in plan.cams.iter().enumerate().rev() {
            let hits = cam
                .search_strided(batch.data(), plan.rows, j * plan.dim, n)
                .unwrap();
            for (i, h) in hits.iter().enumerate() {
                lut.luts()[j]
                    .accumulate_column(h.row, &mut acc[i * plan.c_out..(i + 1) * plan.c_out])
                    .unwrap();
            }
        }
        assert!(
            !same_bits(&acc, reference.data()),
            "reordered sums should round differently"
        );
    }
}
