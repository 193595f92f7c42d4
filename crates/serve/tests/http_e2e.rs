//! End-to-end front-end test over real TCP: a raw HTTP/1.1 client drives
//! `/healthz`, `/predict`, `/stats` and `/shutdown` against an in-process
//! server, asserting that served predictions equal in-process engine
//! predictions **bit-for-bit** (the wire format uses shortest-round-trip
//! float formatting, so nothing is lost in transit).

use pecan_serve::client::HttpClient;
use pecan_serve::{demo, json, EngineRegistry, FrozenEngine, SchedulerConfig, Server, ServerConfig};
use std::net::TcpStream;
use std::sync::Arc;

/// The crate's own minimal client (the same one `loadgen` uses).
struct Client {
    inner: HttpClient,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        Self { inner: HttpClient::connect(addr).expect("connect") }
    }

    fn call(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        self.inner.call(method, path, body).expect("request")
    }
}

/// Serves `engine` as a one-model registry on an ephemeral port.
fn serve(engine: Arc<FrozenEngine>, scheduler: SchedulerConfig) -> Server {
    let registry = EngineRegistry::new();
    registry.register(engine, scheduler).expect("register");
    Server::start_registry(registry, ServerConfig::default()).expect("bind ephemeral port")
}

#[test]
fn full_protocol_round_trip() {
    let engine = Arc::new(demo::mlp_engine(31));
    let server =
        serve(engine.clone(), SchedulerConfig { max_batch: 8, workers: 1, ..Default::default() });
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    // /healthz advertises the model contract.
    let (status, body) = client.call("GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json::number_field(&body, "input_len").unwrap() as usize, engine.input_len());
    assert_eq!(json::number_field(&body, "output_len").unwrap() as usize, engine.output_len());

    // /predict serves bit-identical results over the wire (keep-alive:
    // several requests on one connection).
    for k in 0..3 {
        let input: Vec<f32> =
            (0..engine.input_len()).map(|i| ((i + k) as f32 * 0.37).sin()).collect();
        let (status, body) = client.call("POST", "/predict", &json::format_f32_array(&input));
        assert_eq!(status, 200, "{body}");
        let served = json::array_field(&body, "output").unwrap();
        let direct = engine.predict(&input).unwrap();
        assert_eq!(served.len(), direct.len());
        for (a, b) in served.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits(), "wire changed bits");
        }
        assert!(json::number_field(&body, "batch_size").unwrap() >= 1.0);
    }

    // Errors are typed at the HTTP layer.
    let (status, _) = client.call("POST", "/predict", "[1.0, 2.0]"); // wrong length
    assert_eq!(status, 400);
    let (status, _) = client.call("POST", "/predict", "not json");
    assert_eq!(status, 400);
    let (status, _) = client.call("GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = client.call("DELETE", "/predict", "");
    assert_eq!(status, 405);

    // /stats reflects the traffic (3 ok predictions; failures never entered
    // the queue).
    let (status, body) = client.call("GET", "/stats", "");
    assert_eq!(status, 200);
    assert_eq!(json::number_field(&body, "completed").unwrap() as u64, 3);
    assert_eq!(json::number_field(&body, "rejected").unwrap() as u64, 0);

    // Parallel clients against the same engine.
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            let input = vec![t as f32 * 0.2 - 0.3; engine.input_len()];
            let (status, body) = c.call("POST", "/predict", &json::format_f32_array(&input));
            assert_eq!(status, 200, "{body}");
            let served = json::array_field(&body, "output").unwrap();
            let direct = engine.predict(&input).unwrap();
            for (a, b) in served.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    server.stop();
    // After stop, new connections are refused or dropped without answers —
    // either way, no hang: this connect may fail, which is the point.
    let _ = TcpStream::connect(addr);
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let engine = Arc::new(demo::mlp_engine(32));
    let server = serve(engine, SchedulerConfig::default());
    let addr = server.local_addr();
    let waiter = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr);
    let (status, body) = client.call("POST", "/shutdown", "");
    assert_eq!(status, 200, "{body}");
    waiter.join().expect("run() returns after /shutdown");
}

#[test]
fn lenet_served_over_http_matches_engine() {
    let engine = Arc::new(demo::lenet_engine(33));
    let server = serve(engine.clone(), SchedulerConfig::default());
    let mut client = Client::connect(server.local_addr());
    let input: Vec<f32> = (0..engine.input_len()).map(|i| (i as f32 * 0.011).cos()).collect();
    let (status, body) = client.call("POST", "/predict", &json::format_f32_array(&input));
    assert_eq!(status, 200, "{body}");
    let served = json::array_field(&body, "output").unwrap();
    let direct = engine.predict(&input).unwrap();
    for (a, b) in served.iter().zip(&direct) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    server.stop();
}
