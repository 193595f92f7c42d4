//! Serving walkthrough: compile PECAN models into frozen engines,
//! snapshot them to disk, reload them, and serve **two models side by
//! side** over HTTP through per-model micro-batching schedulers.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use pecan::core::InferBatch;
use pecan::serve::client::HttpClient;
use pecan::serve::{
    demo, EngineRegistry, FrozenEngine, SchedulerConfig, Server, ServerConfig,
};
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Trained models become immutable, Arc-shared inference plans:
    //    LUTs and im2col geometry precomputed once, lock-free reads.
    let lenet = demo::lenet_engine(7);
    let mlp = demo::mlp_engine(7);
    println!(
        "compiled `{}`: {:?} → {:?}, {} stages, {} LUT scalars",
        lenet.name().unwrap_or("?"),
        lenet.input_shape(),
        lenet.output_shape(),
        lenet.stage_count(),
        lenet.lut_scalars()
    );

    // 2. Snapshot round trip — the reloaded engine is bit-identical and
    //    carries its model name.
    let path = std::env::temp_dir().join("pecan-serving-example.psnp");
    lenet.save_snapshot(&path)?;
    let lenet = Arc::new(FrozenEngine::load_snapshot(&path)?);
    println!(
        "snapshot round trip via {} ok (model `{}`)",
        path.display(),
        lenet.name().unwrap_or("?")
    );

    // 3. The batch-first core: the whole batch is ONE column-major matrix
    //    through the entire pipeline — no per-sample splitting anywhere.
    let inputs: Vec<Vec<f32>> = (0..4)
        .map(|k| (0..lenet.input_len()).map(|i| ((i + k) as f32 * 0.017).sin()).collect())
        .collect();
    let batch = InferBatch::from_samples(&inputs, &[lenet.input_len()])?;
    let logits = lenet.infer(batch)?; // [10, 4] column matrix
    let shim = lenet.predict_batch(&inputs)?; // the per-sample shim
    for (i, out) in shim.iter().enumerate() {
        assert_eq!(logits.col(i), &out[..], "shim == matrix pipeline, bitwise");
    }
    println!("batch of {} ran as one [10, 4] matrix through {} stages", 4, lenet.stage_count());

    // 4. Serve BOTH models: each gets its own scheduler and counters; the
    //    first registered one answers the bare routes.
    let registry = EngineRegistry::new();
    let scheduler = SchedulerConfig {
        max_batch: 16,
        queue_capacity: 256,
        workers: 1,
    };
    registry.register(lenet.clone(), scheduler.clone())?;
    registry.register(Arc::new(mlp), scheduler)?;
    let server = Server::start_registry(registry, ServerConfig::default())?;
    let addr = server.local_addr();
    println!(
        "serving {:?} on http://{addr} (default `{}`)",
        server.registry().names(),
        server.registry().default_model().name()
    );

    // 5. An HTTP client (std only — the same one `loadgen` uses at scale):
    //    the default route and the named route answer the same engine.
    let mut client = HttpClient::connect(addr)?;
    let (status, response) = client.predict(None, &inputs[0])?;
    assert_eq!(status, 200, "{response}");
    let (status, named) = client.predict(Some("lenet"), &inputs[0])?;
    assert_eq!(status, 200, "{named}");
    let served = pecan::serve::json::array_field(&response, "output")
        .map_err(|e| format!("bad response: {e}"))?;

    // 6. The wire changed nothing: HTTP answer == in-process answer,
    //    bitwise — and the mlp route serves its own engine.
    let direct = lenet.predict(&inputs[0])?;
    assert_eq!(served.len(), direct.len());
    for (a, b) in served.iter().zip(&direct) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let (status, mlp_health) = client.healthz(Some("mlp"))?;
    assert_eq!(status, 200, "{mlp_health}");
    println!("served logits match in-process inference bit-for-bit: {served:.3?}");

    // 7. Per-model counters under one /stats document.
    let (_, stats) = client.call("GET", "/stats", "")?;
    println!("server stats: {stats}");
    server.stop();
    std::fs::remove_file(&path)?;
    Ok(())
}
