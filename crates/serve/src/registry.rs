//! Multi-model serving: a registry mapping model names to frozen engines,
//! each with its own micro-batching scheduler — plus the zero-downtime
//! model lifecycle (hot registration and blue/green reload).
//!
//! One process serves any number of snapshots side by side: every
//! registered model gets a dedicated [`BatchScheduler`] (its own bounded
//! queue, workers and [`ServeStats`](crate::ServeStats) counters) over an
//! `Arc`-shared [`FrozenEngine`], so traffic to one model never batches
//! with — or backpressures — another. The HTTP front end routes
//! `/models/{name}/predict` through [`EngineRegistry::resolve`]; the bare
//! `/predict` route serves the **default** model (the first one
//! registered, unless overridden), keeping single-model deployments and
//! old clients working unchanged.
//!
//! # Zero-downtime reload
//!
//! A [`ModelEntry`] is a stable *name* with one [`BatchScheduler`] for
//! its whole life; a reload ([`ModelEntry::reload_runner`], HTTP
//! `POST /models/{name}/reload`) swaps the engine inside that scheduler.
//! The swap and the new version number are one step under the queue
//! lock: requests admitted from that instant go to the new engine, and
//! requests already queued are still answered by the engine that
//! admitted them, so **zero requests are dropped** — even when the new
//! engine takes a different input length. Request counters and
//! latency/batch-size histograms belong to the scheduler and continue
//! across versions; per-layer stage times belong to each engine and
//! restart with it. Shutting the entry down drains every queued request,
//! whichever engine admitted it, and a later reload does not reopen it.
//! The registry itself is append-only, so the entry indices the
//! event-loop front end carries through asynchronous completions stay
//! valid across reloads and live registrations.

use crate::error::ServeError;
use crate::scheduler::{BatchRunner, BatchScheduler, Complete, Prediction, SchedulerConfig};
use crate::stats::{ServeStats, StatsSnapshot};
use crate::{lock, FrozenEngine};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Poison-tolerant shared lock (a panicked worker must not wedge serving).
fn read<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How a model's snapshot file is (re)loaded from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// [`FrozenEngine::load_snapshot`]: decode to the heap, verify every
    /// checksum.
    Copy,
    /// [`FrozenEngine::open_snapshot`]: memory-map v3 files and borrow
    /// the mapping (falls back to copying where unsupported).
    Map,
}

/// Where a model's bytes came from — kept so `POST /models/{name}/reload`
/// and the directory watcher can re-read the same file the same way.
#[derive(Debug, Clone)]
pub struct ModelSource {
    /// Snapshot file path.
    pub path: PathBuf,
    /// Loader used at registration (and for every reload).
    pub mode: LoadMode,
}

impl ModelSource {
    /// Loads an engine from this source.
    ///
    /// # Errors
    ///
    /// [`ServeError::Engine`] wrapping the snapshot error.
    pub fn load(&self) -> Result<FrozenEngine, ServeError> {
        let loaded = match self.mode {
            LoadMode::Copy => FrozenEngine::load_snapshot(&self.path),
            LoadMode::Map => FrozenEngine::open_snapshot(&self.path),
        };
        loaded.map_err(|e| {
            ServeError::Engine(format!("loading {}: {e}", self.path.display()))
        })
    }
}

/// One served model *name*: stable identity and the one scheduler that
/// serves it, whose engine a reload swaps. See the module docs.
pub struct ModelEntry {
    name: String,
    scheduler: BatchScheduler,
    source: Mutex<Option<ModelSource>>,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("name", &self.name)
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

impl ModelEntry {
    fn start(name: String, runner: Arc<dyn BatchRunner>, config: SchedulerConfig) -> Self {
        Self { name, scheduler: BatchScheduler::start(runner, config), source: Mutex::new(None) }
    }

    /// The name the model serves under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The currently served engine generation, starting at 1 and
    /// incremented by every reload.
    pub fn version(&self) -> u64 {
        self.scheduler.runner().1
    }

    /// The current batch runner (a [`FrozenEngine`] in production).
    pub fn runner(&self) -> Arc<dyn BatchRunner> {
        self.scheduler.runner().0
    }

    /// Live counters (continuous across engine versions; stage times are
    /// per runner, [`BatchRunner::stage_times`]).
    pub fn stats(&self) -> StatsSnapshot {
        self.scheduler.stats()
    }

    /// The live stats store itself — histograms included.
    pub fn serve_stats(&self) -> &ServeStats {
        self.scheduler.serve_stats()
    }

    /// Requests waiting in the model's queue (advisory).
    pub fn queue_len(&self) -> usize {
        self.scheduler.queue_len()
    }

    /// The model's scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        self.scheduler.config()
    }

    /// The snapshot file backing this model, when known.
    pub fn source(&self) -> Option<ModelSource> {
        lock(&self.source).clone()
    }

    /// Records where this model's bytes came from, enabling
    /// [`ModelEntry::reload_from_source`].
    pub fn set_source(&self, path: impl Into<PathBuf>, mode: LoadMode) {
        *lock(&self.source) = Some(ModelSource { path: path.into(), mode });
    }

    /// Submits one request and waits for the answer.
    ///
    /// # Errors
    ///
    /// As for [`BatchScheduler::predict`].
    pub fn predict(&self, input: Vec<f32>) -> Result<Prediction, ServeError> {
        self.scheduler.predict(input)
    }

    /// Submits one request whose answer `complete` receives on a worker
    /// thread (the event-loop front end).
    ///
    /// # Errors
    ///
    /// As for [`BatchScheduler::submit_with`]. On error the callback has
    /// not been invoked.
    pub fn submit_with(&self, input: Vec<f32>, complete: Complete) -> Result<(), ServeError> {
        self.scheduler.submit_with(input, complete)
    }

    /// Swaps `runner` in as the engine new requests go to and returns its
    /// version number. Requests already queued are answered by the
    /// engine that admitted them; nothing is dropped.
    pub fn reload_runner(&self, runner: Arc<dyn BatchRunner>) -> u64 {
        self.scheduler.replace_runner(runner)
    }

    /// Re-reads the snapshot file recorded by [`ModelEntry::set_source`]
    /// (same path, same [`LoadMode`]) and swaps the result in.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] when no source is recorded (models
    /// registered from memory cannot be reloaded from disk);
    /// [`ServeError::Engine`] when the file no longer loads — the
    /// current version keeps serving untouched in that case.
    pub fn reload_from_source(&self) -> Result<u64, ServeError> {
        let source = self.source().ok_or_else(|| {
            ServeError::BadInput(format!(
                "model `{}` has no snapshot source to reload from",
                self.name
            ))
        })?;
        let engine = source.load()?;
        Ok(self.reload_runner(Arc::new(engine)))
    }

    /// Stops the scheduler, draining every queued request.
    fn shutdown(&self) {
        self.scheduler.shutdown();
    }
}

/// Maps model names to `Arc<FrozenEngine>`s with per-model schedulers.
/// Interior-mutable: registration and reload take `&self`, so one
/// registry can be shared (`Arc`) by the HTTP front ends, the directory
/// watcher and operator tooling at once.
///
/// # Example
///
/// ```
/// use pecan_serve::{demo, EngineRegistry, SchedulerConfig};
/// use std::sync::Arc;
///
/// let registry = EngineRegistry::new();
/// registry
///     .register(Arc::new(demo::mlp_engine(1)), SchedulerConfig::default())
///     .unwrap();
/// registry
///     .register(Arc::new(demo::lenet_engine(1)), SchedulerConfig::default())
///     .unwrap();
/// assert_eq!(registry.default_model().name(), "mlp"); // first registered
/// assert!(registry.resolve(Some("lenet")).is_ok());
/// assert!(registry.resolve(Some("nope")).is_err());
/// registry.shutdown();
/// ```
#[derive(Debug, Default)]
pub struct EngineRegistry {
    /// Append-only: entries are never removed or reordered, so an index
    /// from [`EngineRegistry::resolve_index`] stays valid forever.
    entries: RwLock<Vec<Arc<ModelEntry>>>,
    default: AtomicUsize,
}

/// Model names must be route-safe: non-empty, at most 64 bytes, drawn
/// from `[A-Za-z0-9_.-]`.
pub(crate) fn validate_name(name: &str) -> Result<(), ServeError> {
    if name.is_empty()
        || name.len() > 64
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    {
        return Err(ServeError::BadInput(format!(
            "model name `{name}` must be 1–64 characters of [A-Za-z0-9_.-]"
        )));
    }
    Ok(())
}

impl EngineRegistry {
    /// An empty registry. The first registered model becomes the default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `engine` under its own name
    /// ([`FrozenEngine::name`], falling back to `"default"`), starting a
    /// dedicated scheduler with `config`. Safe while serving: requests
    /// racing the registration simply don't see the new name yet.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for a route-unsafe or duplicate name.
    pub fn register(
        &self,
        engine: Arc<FrozenEngine>,
        config: SchedulerConfig,
    ) -> Result<(), ServeError> {
        let name = engine.name().unwrap_or("default").to_string();
        self.register_as(name, engine, config)
    }

    /// Registers `engine` under an explicit `name` (overriding any
    /// embedded one), starting a dedicated scheduler with `config`.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for a route-unsafe or duplicate name.
    pub fn register_as(
        &self,
        name: impl Into<String>,
        engine: Arc<FrozenEngine>,
        config: SchedulerConfig,
    ) -> Result<(), ServeError> {
        self.register_runner_as(name, engine as Arc<dyn BatchRunner>, config)
    }

    /// Registers a snapshot file under `name`, loading it with `mode` and
    /// recording the source so `/models/{name}/reload` and the directory
    /// watcher can re-read it later.
    ///
    /// # Errors
    ///
    /// [`ServeError::Engine`] when the file does not load;
    /// [`ServeError::BadInput`] for a route-unsafe or duplicate name.
    pub fn register_file(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        mode: LoadMode,
        config: SchedulerConfig,
    ) -> Result<(), ServeError> {
        let name = name.into();
        let source = ModelSource { path: path.as_ref().to_path_buf(), mode };
        let engine = source.load()?;
        self.register_as(name.clone(), Arc::new(engine), config)?;
        if let Ok(entry) = self.resolve(Some(&name)) {
            entry.set_source(source.path, source.mode);
        }
        Ok(())
    }

    /// Registers an arbitrary [`BatchRunner`] under `name`. This is how
    /// tests plug deterministic doubles (gated runners, failure injectors)
    /// into the full HTTP serving stack; production code registers
    /// [`FrozenEngine`]s via [`EngineRegistry::register`].
    ///
    /// # Errors
    ///
    /// [`ServeError::BadInput`] for a route-unsafe or duplicate name.
    pub fn register_runner_as(
        &self,
        name: impl Into<String>,
        runner: Arc<dyn BatchRunner>,
        config: SchedulerConfig,
    ) -> Result<(), ServeError> {
        let name = name.into();
        validate_name(&name)?;
        let mut entries = write(&self.entries);
        if entries.iter().any(|e| e.name == name) {
            return Err(ServeError::BadInput(format!(
                "model `{name}` is already registered"
            )));
        }
        entries.push(Arc::new(ModelEntry::start(name, runner, config)));
        Ok(())
    }

    /// Makes `name` the model the bare routes serve.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] when no such model is registered.
    pub fn set_default(&self, name: &str) -> Result<(), ServeError> {
        match read(&self.entries).iter().position(|e| e.name == name) {
            Some(i) => {
                // ordering: Relaxed — stores an index into the
                // append-only `entries` Vec. Any reader got (or will
                // get) the Vec contents through the `entries` RwLock,
                // which provides the happens-before for the entry the
                // index points at; the index itself carries no payload.
                self.default.store(i, Ordering::Relaxed);
                Ok(())
            }
            None => Err(ServeError::UnknownModel(name.to_string())),
        }
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        read(&self.entries).len()
    }

    /// `true` when nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        read(&self.entries).is_empty()
    }

    /// Registered model names, in registration order.
    pub fn names(&self) -> Vec<String> {
        read(&self.entries).iter().map(|e| e.name.clone()).collect()
    }

    /// A snapshot of all entries, in registration order (cheap `Arc`
    /// clones).
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        read(&self.entries).clone()
    }

    /// The entry at `idx` (an index from
    /// [`EngineRegistry::resolve_index`]; the registry is append-only, so
    /// such indices never dangle).
    ///
    /// # Panics
    ///
    /// Panics on an index that never came from `resolve_index`.
    pub fn entry(&self, idx: usize) -> Arc<ModelEntry> {
        Arc::clone(&read(&self.entries)[idx])
    }

    /// The model the bare routes serve.
    ///
    /// # Panics
    ///
    /// Panics on an empty registry (the server refuses to start on one).
    pub fn default_model(&self) -> Arc<ModelEntry> {
        // ordering: Relaxed — pairs with the store in `set_default`; see
        // there (the `entries` RwLock orders the Vec the index selects).
        self.entry(self.default.load(Ordering::Relaxed))
    }

    /// Resolves a request's model: `None` means the default model, a name
    /// must match a registered one.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] — the typed 404 of the HTTP front end.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<ModelEntry>, ServeError> {
        match name {
            None => Ok(self.default_model()),
            Some(n) => read(&self.entries)
                .iter()
                .find(|e| e.name == n)
                .map(Arc::clone)
                .ok_or_else(|| ServeError::UnknownModel(n.to_string())),
        }
    }

    /// As [`EngineRegistry::resolve`], but returns the entry's index — a
    /// stable handle the event-loop front end carries through
    /// asynchronous completions instead of a borrow.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] — the typed 404 of the HTTP front end.
    pub fn resolve_index(&self, name: Option<&str>) -> Result<usize, ServeError> {
        match name {
            // ordering: Relaxed — same pairing as `default_model`.
            None => Ok(self.default.load(Ordering::Relaxed)),
            Some(n) => read(&self.entries)
                .iter()
                .position(|e| e.name == n)
                .ok_or_else(|| ServeError::UnknownModel(n.to_string())),
        }
    }

    /// Reloads `name` (or the default model) from its recorded snapshot
    /// source. Returns the entry and its new version number.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unregistered name; otherwise
    /// as [`ModelEntry::reload_from_source`].
    pub fn reload(&self, name: Option<&str>) -> Result<(Arc<ModelEntry>, u64), ServeError> {
        let entry = self.resolve(name)?;
        let version = entry.reload_from_source()?;
        Ok((entry, version))
    }

    /// Shuts down every model's scheduler, draining queued requests.
    /// Idempotent.
    pub fn shutdown(&self) {
        for e in self.entries() {
            e.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;

    #[test]
    fn names_are_validated_and_deduplicated() {
        let r = EngineRegistry::new();
        let engine = Arc::new(demo::mlp_engine(1));
        assert!(matches!(
            r.register_as("", engine.clone(), SchedulerConfig::default()),
            Err(ServeError::BadInput(_))
        ));
        assert!(matches!(
            r.register_as("a/b", engine.clone(), SchedulerConfig::default()),
            Err(ServeError::BadInput(_))
        ));
        r.register_as("m-1", engine.clone(), SchedulerConfig::default()).unwrap();
        assert!(matches!(
            r.register_as("m-1", engine, SchedulerConfig::default()),
            Err(ServeError::BadInput(_))
        ));
        r.shutdown();
    }

    #[test]
    fn default_resolution_and_override() {
        let r = EngineRegistry::new();
        r.register(Arc::new(demo::mlp_engine(1)), SchedulerConfig::default()).unwrap();
        r.register(Arc::new(demo::lenet_engine(1)), SchedulerConfig::default()).unwrap();
        assert_eq!(r.names(), vec!["mlp", "lenet"]);
        assert_eq!(r.resolve(None).unwrap().name(), "mlp");
        r.set_default("lenet").unwrap();
        assert_eq!(r.resolve(None).unwrap().name(), "lenet");
        assert!(matches!(r.set_default("nope"), Err(ServeError::UnknownModel(_))));
        match r.resolve(Some("gone")) {
            Err(ServeError::UnknownModel(n)) => assert_eq!(n, "gone"),
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        r.shutdown();
    }

    #[test]
    fn reload_swaps_versions_and_keeps_counters() {
        let r = EngineRegistry::new();
        r.register(Arc::new(demo::mlp_engine(1)), SchedulerConfig::default()).unwrap();
        let entry = r.resolve(Some("mlp")).unwrap();
        assert_eq!(entry.version(), 1);
        let input = vec![0.5f32; entry.runner().input_len()];
        let before = entry.predict(input.clone()).unwrap();
        assert_eq!(entry.stats().completed, 1);

        // Same weights, new generation: answers stay bit-identical and
        // the counters continue rather than reset.
        let v = entry.reload_runner(Arc::new(demo::mlp_engine(1)));
        assert_eq!(v, 2);
        assert_eq!(entry.version(), 2);
        let after = entry.predict(input.clone()).unwrap();
        assert_eq!(after.output, before.output);
        assert_eq!(entry.stats().completed, 2, "stats survive the swap");

        // Different weights change the answer — proof the swap took.
        entry.reload_runner(Arc::new(demo::mlp_engine(7)));
        let changed = entry.predict(input).unwrap();
        assert_ne!(changed.output, before.output);
        r.shutdown();
    }

    #[test]
    fn reload_from_source_requires_a_source_and_survives_bad_files() {
        let dir = std::env::temp_dir().join(format!("pecan-reload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.psnp");
        demo::mlp_engine(3).save_snapshot(&path).unwrap();

        let r = EngineRegistry::new();
        // In-memory models have nothing to reload from.
        r.register(Arc::new(demo::mlp_engine(3)), SchedulerConfig::default()).unwrap();
        assert!(matches!(r.reload(Some("mlp")), Err(ServeError::BadInput(_))));

        r.register_file("disk", &path, LoadMode::Copy, SchedulerConfig::default()).unwrap();
        let entry = r.resolve(Some("disk")).unwrap();
        assert_eq!(entry.source().unwrap().path, path);
        let (_, v) = r.reload(Some("disk")).unwrap();
        assert_eq!(v, 2);

        // A reload from a corrupt file fails without touching the
        // serving version.
        std::fs::write(&path, b"PECANSNPgarbage").unwrap();
        assert!(matches!(r.reload(Some("disk")), Err(ServeError::Engine(_))));
        assert_eq!(entry.version(), 2, "failed reload must not swap");
        let input = vec![0.5f32; entry.runner().input_len()];
        assert!(entry.predict(input).is_ok(), "old version keeps serving");

        assert!(matches!(r.reload(Some("nope")), Err(ServeError::UnknownModel(_))));
        r.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
