//! The seeded demo models a run serves: their snapshot files, the input
//! pool, and the in-process reference answers.

use crate::schedule::derive;
use pecan_serve::{demo, FrozenEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Distinct inputs per model; requests draw from this pool in a seeded
/// order, and every answer is checked against the pool's references.
pub const POOL: usize = 128;

/// Which demo model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `demo::lenet`: 28×28 inputs, 12 stages, 2.1 MB of LUTs.
    Lenet,
    /// `demo::mlp`: 64 inputs, 5 stages, 11.4 MB of LUTs.
    Mlp,
}

impl Kind {
    /// The name the model serves under.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Lenet => "lenet",
            Kind::Mlp => "mlp",
        }
    }
}

/// One model prepared for a run.
pub struct Model {
    /// Which demo model.
    pub kind: Kind,
    /// Its v3 snapshot file.
    pub path: PathBuf,
    /// Per-sample input shape.
    pub input_shape: Vec<usize>,
    /// The input pool.
    pub inputs: Vec<Vec<f32>>,
    /// `inputs[i]` answered alone by the compiled model.
    pub refs: Vec<Vec<f32>>,
    /// `inputs[i]` as a JSON request body.
    pub bodies: Vec<String>,
}

impl Model {
    /// Compiles the demo model for `seed`, writes its snapshot into
    /// `dir`, draws the input pool and computes the reference answers.
    /// The compiled engine is dropped before returning: the run serves
    /// only what it loads back from the file.
    ///
    /// # Errors
    ///
    /// When the snapshot cannot be written.
    pub fn prepare(kind: Kind, seed: u64, dir: &Path) -> Result<Self, String> {
        let (engine, stream, lo) = match kind {
            Kind::Lenet => (demo::lenet_engine(derive(seed, 1)), 3, 0.0f32),
            Kind::Mlp => (demo::mlp_engine(derive(seed, 2)), 4, -1.0f32),
        };
        let path = dir.join(format!("{}.psnp", kind.name()));
        engine
            .save_snapshot(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut rng = StdRng::seed_from_u64(derive(seed, stream));
        let inputs: Vec<Vec<f32>> = (0..POOL)
            .map(|_| {
                (0..engine.input_len())
                    .map(|_| rng.gen_range(lo..1.0))
                    .collect()
            })
            .collect();
        let refs = inputs
            .iter()
            .map(|x| engine.predict(x).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let bodies = inputs
            .iter()
            .map(|x| pecan_serve::json::format_f32_array(x))
            .collect();
        Ok(Self {
            kind,
            path,
            input_shape: engine.input_shape().to_vec(),
            inputs,
            refs,
            bodies,
        })
    }

    /// Loads the snapshot with the copying loader.
    ///
    /// # Errors
    ///
    /// The loader's error.
    pub fn load(&self) -> Result<FrozenEngine, String> {
        FrozenEngine::load_snapshot(&self.path)
            .map_err(|e| format!("loading {}: {e}", self.path.display()))
    }
}
