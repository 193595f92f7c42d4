//! Multi-model routing over real TCP: two snapshots served side by side,
//! `/models/{name}/...` routes, default-model fallback on the bare
//! routes, typed 404 for unknown models, and per-model `/stats` counters.

use pecan_serve::client::HttpClient;
use pecan_serve::{demo, json, EngineRegistry, SchedulerConfig, Server, ServerConfig};
use std::sync::Arc;

fn two_model_server() -> (Server, Arc<pecan_serve::FrozenEngine>, Arc<pecan_serve::FrozenEngine>) {
    let mlp = Arc::new(demo::mlp_engine(41));
    let lenet = Arc::new(demo::lenet_engine(42));
    let registry = EngineRegistry::new();
    registry.register(mlp.clone(), SchedulerConfig::default()).unwrap();
    registry.register(lenet.clone(), SchedulerConfig::default()).unwrap();
    let server = Server::start_registry(registry, ServerConfig::default()).expect("bind");
    (server, mlp, lenet)
}

fn input_for(engine: &pecan_serve::FrozenEngine, phase: f32) -> Vec<f32> {
    (0..engine.input_len()).map(|i| (i as f32 * phase).sin()).collect()
}

#[test]
fn models_route_independently_and_bits_match() {
    let (server, mlp, lenet) = two_model_server();
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");

    // Per-model healthz advertises each model's own contract.
    let (status, body) = client.healthz(Some("lenet")).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(json::number_field(&body, "input_len").unwrap() as usize, lenet.input_len());
    assert_eq!(json::string_field(&body, "model").unwrap(), "lenet");

    // Bare healthz = default model (first registered), plus the model list.
    let (status, body) = client.healthz(None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(json::string_field(&body, "model").unwrap(), "mlp");
    assert!(body.contains("\"models\":[\"mlp\",\"lenet\"]"), "{body}");

    // Each named route serves its own engine, bit-identically.
    for (name, engine, phase) in
        [("mlp", &mlp, 0.21f32), ("lenet", &lenet, 0.013f32)]
    {
        let input = input_for(engine, phase);
        let (status, body) = client.predict(Some(name), &input).unwrap();
        assert_eq!(status, 200, "{name}: {body}");
        let served = json::array_field(&body, "output").unwrap();
        let direct = engine.predict(&input).unwrap();
        assert_eq!(served.len(), direct.len());
        for (a, b) in served.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: wire changed bits");
        }
    }

    // Bare /predict falls back to the default model.
    let input = input_for(&mlp, 0.33);
    let (status, body) = client.predict(None, &input).unwrap();
    assert_eq!(status, 200, "{body}");
    let served = json::array_field(&body, "output").unwrap();
    let direct = mlp.predict(&input).unwrap();
    for (a, b) in served.iter().zip(&direct) {
        assert_eq!(a.to_bits(), b.to_bits());
    }

    // Unknown model → typed 404 on every scoped route.
    for (method, path, body) in [
        ("POST", "/models/nope/predict", "[1.0]"),
        ("GET", "/models/nope/healthz", ""),
        ("GET", "/models/nope/stats", ""),
    ] {
        let (status, body) = client.call(method, path, body).unwrap();
        assert_eq!(status, 404, "{path}: {body}");
        assert!(body.contains("unknown model"), "{path}: {body}");
    }
    // A model-scoped shutdown route does not exist (shutdown is global).
    let (status, _) = client.call("POST", "/models/mlp/shutdown", "").unwrap();
    assert_eq!(status, 404);

    // Bare /stats nests per-model counters: 2 mlp predictions (one named,
    // one bare), 1 lenet.
    let (status, stats) = client.call("GET", "/stats", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json::string_field(&stats, "default").unwrap(), "mlp");
    let mlp_part = stats.split("\"mlp\":").nth(1).expect("mlp counters present");
    let lenet_part = stats.split("\"lenet\":").nth(1).expect("lenet counters present");
    assert_eq!(json::number_field(mlp_part, "completed").unwrap() as u64, 2);
    assert_eq!(json::number_field(lenet_part, "completed").unwrap() as u64, 1);

    // Per-model stats are the flat counters.
    let (status, lenet_stats) = client.call("GET", "/models/lenet/stats", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json::number_field(&lenet_stats, "completed").unwrap() as u64, 1);
    assert_eq!(json::number_field(&lenet_stats, "submitted").unwrap() as u64, 1);

    server.stop();
}

#[test]
fn single_engine_start_keeps_legacy_routes() {
    // A one-model registry serves its model on the bare routes.
    let engine = Arc::new(demo::mlp_engine(43));
    let registry = EngineRegistry::new();
    registry.register(engine.clone(), SchedulerConfig::default()).expect("register");
    let server = Server::start_registry(registry, ServerConfig::default()).expect("bind");
    let mut client = HttpClient::connect(server.local_addr()).expect("connect");
    let input = input_for(&engine, 0.4);
    let (status, body) = client.call("POST", "/predict", &json::format_f32_array(&input)).unwrap();
    assert_eq!(status, 200, "{body}");
    // …and the same engine is also reachable under its embedded name.
    let (status, body2) = client.predict(Some("mlp"), &input).unwrap();
    assert_eq!(status, 200, "{body2}");
    assert_eq!(
        json::array_field(&body, "output").unwrap(),
        json::array_field(&body2, "output").unwrap()
    );
    server.stop();
}

#[test]
fn empty_registry_refuses_to_serve() {
    let err = Server::start_registry(EngineRegistry::new(), ServerConfig::default())
        .expect_err("empty registry must not bind");
    assert!(err.to_string().contains("empty"), "{err}");
}
