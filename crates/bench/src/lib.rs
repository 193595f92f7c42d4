//! Shared scaffolding for the experiment harness: reduced-scale training
//! scenarios and table formatting.
//!
//! Op-count columns of the paper's tables are reproduced **exactly** from
//! the paper-scale architecture plans (`pecan_core::configs`); accuracy
//! columns are **measured** by training reduced-width models on synthetic
//! stand-in datasets (the `pecan-datasets` crate docs give the
//! substitution argument).
//! Helpers here keep those runs small enough for a laptop while exercising
//! the full PECAN code path (im2col → PQ assignment → LUT → backprop).

#![forbid(unsafe_code)]

pub mod diff;

use pecan_core::{train_pecan, PecanBuilder, PecanVariant, Strategy};
use pecan_datasets::{make_batches, synthetic_mnist, synthetic_textures, InMemoryDataset};
use pecan_nn::{models, Batch, LayerBuilder, Sequential, StandardBuilder};
use pecan_tensor::ShapeError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which reduced-scale architecture a scenario trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// Modified LeNet-5 (28×28 single-channel input).
    Lenet,
    /// VGG-Small at `width/width_divisor` (input must be a multiple of 8).
    VggSmall { width_divisor: usize, input: usize },
    /// CIFAR ResNet with `blocks` per stage at reduced width.
    Resnet { blocks: usize, width_divisor: usize },
    /// Modified ConvMixer (reduced dim/depth).
    ConvMixer { dim: usize, depth: usize, patch: usize },
}

/// A reduced-scale dataset + split, sized for minutes-long harness runs.
pub struct Scenario {
    /// Training batches.
    pub train: Vec<Batch>,
    /// Held-out batches.
    pub test: Vec<Batch>,
    /// Class count.
    pub classes: usize,
}

fn to_batches(
    data: &InMemoryDataset,
    batch: usize,
    rng: &mut StdRng,
) -> Result<Vec<Batch>, ShapeError> {
    make_batches(data, batch, Some(rng))
        .into_iter()
        .map(|(i, l)| Batch::new(i, l))
        .collect()
}

/// Synthetic-MNIST scenario (LeNet experiments, Table 2).
///
/// # Errors
///
/// Returns [`ShapeError`] if batch construction fails (it cannot for valid
/// sizes).
pub fn mnist_scenario(
    n_train: usize,
    n_test: usize,
    seed: u64,
) -> Result<Scenario, ShapeError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = synthetic_mnist(&mut rng, n_train + n_test);
    let (train, test) = data.split(n_train);
    Ok(Scenario {
        train: to_batches(&train, 32, &mut rng)?,
        test: to_batches(&test, 32, &mut rng)?,
        classes: 10,
    })
}

/// Synthetic texture scenario standing in for CIFAR-10/100 (Tables 3/4) and
/// Tiny-ImageNet (Table A4) at a configurable spatial size.
///
/// # Errors
///
/// Returns [`ShapeError`] if batch construction fails.
pub fn texture_scenario(
    classes: usize,
    size: usize,
    n_train: usize,
    n_test: usize,
    seed: u64,
) -> Result<Scenario, ShapeError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = synthetic_textures(&mut rng, n_train + n_test, classes, size);
    let (train, test) = data.split(n_train);
    Ok(Scenario {
        train: to_batches(&train, 25, &mut rng)?,
        test: to_batches(&test, 25, &mut rng)?,
        classes,
    })
}

/// Instantiates a reduced-scale architecture through any layer builder.
///
/// # Errors
///
/// Returns [`ShapeError`] on invalid configurations (e.g. VGG input not a
/// multiple of 8).
pub fn build_arch(
    arch: Arch,
    builder: &mut dyn LayerBuilder,
    classes: usize,
) -> Result<Sequential, ShapeError> {
    match arch {
        Arch::Lenet => models::lenet5_modified(builder),
        Arch::VggSmall { width_divisor, input } => models::vgg_small(
            builder,
            models::VggSmallConfig { num_classes: classes, width_divisor, input_size: input },
        ),
        Arch::Resnet { blocks, width_divisor } => {
            models::resnet(builder, blocks, classes, width_divisor)
        }
        Arch::ConvMixer { dim, depth, patch } => models::convmixer(
            builder,
            models::ConvMixerConfig {
                dim,
                depth,
                kernel: 5,
                patch_size: patch,
                num_classes: classes,
            },
        ),
    }
}

/// Per-run hyperparameters for [`measure_accuracy`].
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Epoch at which the rate decays ×0.1.
    pub decay: usize,
    /// Prototypes for PECAN layers in this reduced run.
    pub prototypes: usize,
    /// Softmax temperature override (`None` → 0.25 for A, 0.5 for D —
    /// sharper than the paper's CIFAR values to suit the smaller feature
    /// magnitudes of the reduced tasks).
    pub tau: Option<f32>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { epochs: 8, lr: 0.005, decay: 6, prototypes: 16, tau: None }
    }
}

/// Trains `arch` as baseline (`variant = None`) or PECAN and returns test
/// accuracy. PECAN layers use `d = k²` for convolutions and the default
/// divisor rule for FC layers, with `config.prototypes` per codebook.
///
/// # Errors
///
/// Returns [`ShapeError`] if the architecture rejects the scenario shapes.
pub fn measure_accuracy(
    arch: Arch,
    variant: Option<PecanVariant>,
    scenario: &Scenario,
    seed: u64,
    config: RunConfig,
) -> Result<f32, ShapeError> {
    let mut net = match variant {
        None => build_arch(arch, &mut StandardBuilder::from_seed(seed), scenario.classes)?,
        Some(v) => {
            let tau = config.tau.unwrap_or(match v {
                PecanVariant::Angle => 0.25,
                PecanVariant::Distance => 0.5,
            });
            let mut b = PecanBuilder::from_seed(seed, v)
                .with_default_tau(tau)
                .with_default_prototypes(config.prototypes);
            build_arch(arch, &mut b, scenario.classes)?
        }
    };
    let report = train_pecan(
        &mut net,
        Strategy::CoOptimization,
        &scenario.train,
        &scenario.test,
        config.epochs,
        config.lr,
        config.decay,
    )?;
    Ok(report.eval_accuracy)
}

/// The paper's MNIST methodology (§4 "Implementation Details"): pretrain a
/// baseline, freeze its weights, and learn **only the prototypes**
/// (uni-optimization). Returns `(baseline_accuracy, pecan_accuracy)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the architecture rejects the scenario shapes.
pub fn measure_uni_accuracy(
    arch: Arch,
    variant: PecanVariant,
    scenario: &Scenario,
    seed: u64,
    baseline_epochs: usize,
    config: RunConfig,
) -> Result<(f32, f32), ShapeError> {
    let mut recorder = pecan_core::RecordingBuilder::from_seed(seed);
    let mut baseline = build_arch(arch, &mut recorder, scenario.classes)?;
    let base_report = train_pecan(
        &mut baseline,
        Strategy::CoOptimization,
        &scenario.train,
        &scenario.test,
        baseline_epochs,
        config.lr,
        baseline_epochs.saturating_sub(2).max(1),
    )?;
    let tau = config.tau.unwrap_or(match variant {
        PecanVariant::Angle => 0.25,
        PecanVariant::Distance => 0.5,
    });
    let mut b = PecanBuilder::from_seed(seed ^ 0xF00D, variant)
        .with_default_tau(tau)
        .with_default_prototypes(config.prototypes)
        .with_pretrained_from(&recorder, true);
    let mut net = build_arch(arch, &mut b, scenario.classes)?;
    let report = train_pecan(
        &mut net,
        Strategy::UniOptimization,
        &scenario.train,
        &scenario.test,
        config.epochs,
        config.lr,
        config.decay,
    )?;
    Ok((base_report.eval_accuracy, report.eval_accuracy))
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push_str("| ");
    s.push_str(&headers.join(" | "));
    s.push_str(" |\n|");
    for _ in headers {
        s.push_str("---|");
    }
    s.push('\n');
    for row in rows {
        s.push_str("| ");
        s.push_str(&row.join(" | "));
        s.push_str(" |\n");
    }
    s
}

/// Formats an op count with the paper's K/M/G units.
pub fn fmt_ops(n: u64) -> String {
    let f = n as f64;
    if f >= 1e9 {
        format!("{:.2}G", f / 1e9)
    } else if f >= 1e6 {
        format!("{:.2}M", f / 1e6)
    } else if f >= 1e3 {
        format!("{:.2}K", f / 1e3)
    } else {
        format!("{n}")
    }
}

/// Re-export used by the experiments binary for settings construction.
pub use pecan_core::PqLayerSettings as LayerSettings;
pub use pecan_core::PecanVariant as Variant;

/// [`LayerBuilder`] producing AdderNet convolutions (classifier stays a
/// standard linear layer, as in the AdderNet paper).
pub struct AdderBuilder {
    inner: StandardBuilder,
    rng: StdRng,
}

impl AdderBuilder {
    /// Creates a builder with a fixed seed.
    pub fn from_seed(seed: u64) -> Self {
        Self { inner: StandardBuilder::from_seed(seed), rng: StdRng::seed_from_u64(seed ^ 0xadd) }
    }
}

impl LayerBuilder for AdderBuilder {
    fn conv2d(
        &mut self,
        _layer_index: usize,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Box<dyn pecan_nn::Layer> {
        Box::new(pecan_baselines::AdderConv2d::new(
            &mut self.rng,
            c_in,
            c_out,
            kernel,
            stride,
            padding,
        ))
    }

    fn linear(
        &mut self,
        layer_index: usize,
        in_features: usize,
        out_features: usize,
    ) -> Box<dyn pecan_nn::Layer> {
        self.inner.linear(layer_index, in_features, out_features)
    }
}

/// Trains `arch` with AdderNet convolutions and returns test accuracy.
///
/// # Errors
///
/// Returns [`ShapeError`] if the architecture rejects the scenario shapes.
pub fn measure_adder_accuracy(
    arch: Arch,
    scenario: &Scenario,
    seed: u64,
    config: RunConfig,
) -> Result<f32, ShapeError> {
    let mut net = build_arch(arch, &mut AdderBuilder::from_seed(seed), scenario.classes)?;
    let report = train_pecan(
        &mut net,
        Strategy::CoOptimization,
        &scenario.train,
        &scenario.test,
        config.epochs,
        config.lr,
        config.decay,
    )?;
    Ok(report.eval_accuracy)
}

#[allow(unused)]
fn _assert_send<T>() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_renders() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn fmt_ops_units() {
        assert_eq!(fmt_ops(950), "950");
        assert_eq!(fmt_ops(48_672), "48.67K");
        assert_eq!(fmt_ops(1_998_064), "2.00M");
        assert_eq!(fmt_ops(3_360_000_000), "3.36G");
    }

    #[test]
    fn scenarios_produce_balanced_batches() {
        let s = mnist_scenario(64, 32, 0).unwrap();
        assert_eq!(s.classes, 10);
        let total: usize = s.train.iter().map(Batch::len).sum();
        assert_eq!(total, 64);
        let t = texture_scenario(4, 16, 50, 25, 1).unwrap();
        assert_eq!(t.classes, 4);
    }
}
