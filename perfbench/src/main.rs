//! `pecan-perfbench`: the steady end-to-end and per-layer benchmark for
//! PECAN inference. See `perfbench/README.md` for the workloads, the
//! metrics and how to read a traced run.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload lenet-batch --seed 1 --seconds 60 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`;
//! the human-readable report goes to standard error. Exit code 0 means
//! every answer matched its reference and every count reconciled; 1 means
//! the run finished but a check failed (the JSON line is still printed);
//! 2 means the run could not be set up (nothing is printed on stdout).

mod client;
mod duo;
mod host;
mod layers;
mod model;
mod offline;
mod schedule;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// The end-to-end metrics every untraced run prints, with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("goodput_ratio", "ratio"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Stage indices of LeNet, the model both workloads profile.
const STAGES: usize = 12;
/// LeNet's LUT stages.
const LUT_STAGES: [usize; 5] = [0, 3, 7, 9, 11];
/// LeNet's convolution stages.
const CONV_STAGES: [usize; 2] = [0, 3];

/// Every per-layer metric a traced run prints, with units, in report
/// order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("engine.infer_us".into(), "us")];
    v.extend((0..STAGES).map(|i| (format!("stage.{i}.us"), "us")));
    for i in LUT_STAGES {
        v.push((format!("stage.{i}.ns_per_add"), "ns"));
        v.push((format!("stage.{i}.dense_ref_us"), "us"));
    }
    v.extend(
        CONV_STAGES
            .iter()
            .map(|i| (format!("core.im2col.{i}.us"), "us")),
    );
    for i in LUT_STAGES {
        v.push((format!("cam.search.{i}.us"), "us"));
        v.push((format!("cam.search.{i}.queries"), "count"));
        v.push((format!("cam.search.{i}.lane_fill"), "ratio"));
        v.push((format!("cam.lut.{i}.us"), "us"));
    }
    for model in ["mlp", "lenet"] {
        for (name, unit) in [
            ("queue_wait_p50_us", "us"),
            ("batch_size_mean", "count"),
            ("infer_p50_us", "us"),
        ] {
            v.push((format!("scheduler.{model}.{name}"), unit));
        }
    }
    for (name, unit) in [
        ("http.overhead_p50_us", "us"),
        ("http.shed_requests", "count"),
        ("http.timeouts", "count"),
        ("json.parse_us", "us"),
        ("json.format_us", "us"),
        ("snapshot.load_ms", "ms"),
        ("snapshot.open_ms", "ms"),
        ("server.start_ms", "ms"),
        ("registry.reload_ms", "ms"),
        ("registry.reloads", "count"),
        ("host.steal_ratio", "ratio"),
        ("loadgen.late_p99_us", "us"),
        ("trace.overhead_cpu_pct", "%"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

/// Workloads the program runs, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["lenet-batch", "duo-reload"];

/// Per-layer metric prefixes `workload` does not exercise: they read 0
/// (no time spent, nothing counted). Every other per-layer metric must be
/// measured, or the run fails.
fn unexercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "lenet-batch" => &["scheduler.", "http.", "json.", "server.", "registry."],
        _ => &[],
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {WORKLOADS:?}"
        ));
    }
    if !(seconds.is_finite() && (0.5..=600.0).contains(&seconds)) {
        return Err(format!("--seconds {seconds} is outside 0.5..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The metrics a run prints: end-to-end, or per-layer when traced.
fn listed(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// The result line: every listed metric, by name, with its unit. A
/// metric `workload` should have measured but did not is an error.
fn result_line(run: &workload::Run, workload: &str, trace: bool) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        run.correct, run.attempted, run.failed
    );
    let skipped = unexercised(workload);
    for (i, (name, unit)) in listed(trace).iter().enumerate() {
        let value = match run.metrics.get(name) {
            Some(v) => *v,
            None if trace && skipped.iter().any(|p| name.starts_with(p)) => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// The human-readable metric table.
fn metric_table(metrics: &BTreeMap<String, f64>, trace: bool) -> Vec<String> {
    listed(trace)
        .into_iter()
        .map(|(name, unit)| match metrics.get(&name) {
            Some(v) => format!("  {name:<36} {v:>16.4} {unit}"),
            None => format!(
                "  {name:<36} {:>16} {unit}  (not exercised by this workload)",
                0
            ),
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: creating {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let tracer = Arc::new(trace::Tracer::new());
    let ctx = workload::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: run_dir.clone(),
        tracer: Arc::clone(&tracer),
    };
    let result = match args.workload.as_str() {
        "lenet-batch" => offline::run(&ctx),
        _ => duo::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} (seed {}): {e}", args.workload, args.seed);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench {} seed {} {}s {} — {} operations attempted, {} succeeded, {} failed; correct: {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        run.attempted,
        run.attempted - run.failed,
        run.failed,
        run.correct
    );
    for line in &run.report {
        eprintln!("{line}");
    }
    for line in metric_table(&run.metrics, args.trace) {
        eprintln!("{line}");
    }
    if args.trace {
        let path = out_dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match tracer.write_json(&path) {
            Ok(n) => eprintln!(
                "trace: {n} spans in {} (open in ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => eprintln!("trace: writing {}: {e}", path.display()),
        }
    }
    match result_line(&run, &args.workload, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside perfbench/");
        let field =
            |obj: &str, key| pecan_serve::json::string_field(obj, key).expect("string field");
        let objects = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let open = start + text[start..].find('[').expect("array");
            let close = open + text[open..].find(']').expect("array end");
            text[open..close]
                .split('{')
                .skip(1)
                .map(str::to_string)
                .collect()
        };
        let named = |key: &str| -> Vec<(String, String)> {
            objects(key)
                .iter()
                .map(|o| (field(o, "name"), field(o, "unit")))
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(named("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(named("per_layer"), layers);
        let listed: Vec<String> = objects("workloads")
            .iter()
            .map(|o| field(o, "name"))
            .collect();
        assert!(listed.len() >= 2);
        for w in &listed {
            assert!(
                WORKLOADS.contains(&w.as_str()),
                "listed workload {w} is not runnable"
            );
        }
    }

    /// A per-layer metric reads 0 only when its workload does not
    /// exercise the layer; any other missing metric fails the run.
    #[test]
    fn a_missing_per_layer_metric_fails_unless_its_layer_is_unexercised() {
        let skipped = unexercised("lenet-batch");
        let metrics: BTreeMap<String, f64> = per_layer()
            .into_iter()
            .filter(|(n, _)| !skipped.iter().any(|p| n.starts_with(p)))
            .map(|(n, _)| (n, 1.0))
            .collect();
        let mut run = workload::Run {
            attempted: 1,
            failed: 0,
            correct: true,
            metrics,
            report: Vec::new(),
        };
        let line = result_line(&run, "lenet-batch", true).unwrap();
        assert!(line.contains(r#""registry.reload_ms":{"value":0,"#));
        assert!(result_line(&run, "duo-reload", true).is_err());
        run.metrics.remove("engine.infer_us");
        assert!(result_line(&run, "lenet-batch", true).is_err());
    }

    #[test]
    fn per_layer_names_are_unique_and_within_limits() {
        let names = per_layer();
        assert!(names.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
