//! CAM prototype-search latency: the hardware primitive of PECAN-D.
//!
//! Two groups:
//!
//! * `cam_l1_search` — the original single-query linear-scan scaling in the
//!   number of stored prototypes `p` and sub-vector width `d`;
//! * `cam_search` — the three `pecan-index` kernels on the same workload:
//!   `single` ([`l1_argmin`] once per query), `lanes`
//!   ([`l1_argmin_lanes`] once per query, lanes across prototypes, one
//!   reused distance buffer) and `blocked` ([`l1_argmin_batch`], lanes
//!   across queries). Shapes are the demo engines' CAM groups — `p = 64,
//!   d = 9` (LeNet) and `p = 256, d = 8` (MLP) — at `q ∈ {1, 2, 4, 8,
//!   256}` queries per call (`lanes` up to 8); `q = 1` is one request at
//!   batch 1, where the blocked kernel fills one of its
//!   [`pecan_index::LANES`] lanes. Serving runs `lanes` for calls of at
//!   most [`pecan_index::FEW_QUERIES`] queries and `blocked` above it; that
//!   constant sits at the `lanes`/`blocked` crossover these entries show.
//!   Reported times are **per call**; all kernels return identical winners
//!   (asserted before timing), so the entries are directly comparable.
//!   Medians also land in `target/bench/*.json` via the criterion shim's
//!   sink for cross-PR regression tracking.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pecan_cam::AnalogCam;
use pecan_index::{l1_argmin, l1_argmin_batch, l1_argmin_lanes, transpose_rows};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_cam_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_l1_search");
    group.sample_size(30);

    for &p in &[8usize, 32, 128] {
        for &d in &[9usize, 32] {
            let mut rng = StdRng::seed_from_u64(p as u64 * 100 + d as u64);
            let rows = pecan_tensor::uniform(&mut rng, &[p, d], -1.0, 1.0);
            let cam = AnalogCam::new(rows).expect("cam");
            let query: Vec<f32> = (0..d).map(|i| (i as f32 * 0.13).sin()).collect();
            group.bench_with_input(BenchmarkId::new("search", format!("p{p}_d{d}")), &(), |b, ()| {
                b.iter(|| black_box(cam.search(&query).expect("search")));
            });
        }
    }
    group.finish();
}

/// Queries near stored prototypes — im2col features cluster around the
/// codebooks they were trained to match.
fn queries_near(rows: &[f32], d: usize, q: usize, rng: &mut StdRng) -> Vec<f32> {
    let p = rows.len() / d;
    (0..q)
        .flat_map(|i| {
            let anchor = (i * 17) % p;
            (0..d)
                .map(|k| rows[anchor * d + k] + rng.gen_range(-0.15f32..0.15))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("cam_search");
    group.sample_size(30);

    for (p, d) in [(64usize, 9usize), (256, 8)] {
        let mut rng = StdRng::seed_from_u64((p * 100 + d) as u64);
        let rows: Vec<f32> = (0..p * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let cols = transpose_rows(&rows, d);
        let mut dist = Vec::new();
        for q in [1usize, 2, 4, 8, 256] {
            let queries = queries_near(&rows, d, q, &mut rng);
            let single = || -> Vec<(usize, f32)> {
                queries.chunks_exact(d).map(|query| l1_argmin(&rows, d, query)).collect()
            };
            let mut lanes = || -> Vec<(usize, f32)> {
                queries
                    .chunks_exact(d)
                    .map(|query| l1_argmin_lanes(&cols, d, query, &mut dist))
                    .collect()
            };
            assert_eq!(l1_argmin_batch(&rows, d, &queries), single(), "p={p} d={d} q={q}");
            assert_eq!(lanes(), single(), "p={p} d={d} q={q}");

            let param = format!("p{p}_d{d}_q{q}");
            group.bench_with_input(BenchmarkId::new("single", &param), &(), |b, ()| {
                b.iter(|| black_box(single()))
            });
            if q <= 8 {
                group.bench_with_input(BenchmarkId::new("lanes", &param), &(), |b, ()| {
                    b.iter(|| black_box(lanes()))
                });
            }
            group.bench_with_input(BenchmarkId::new("blocked", &param), &(), |b, ()| {
                b.iter(|| black_box(l1_argmin_batch(&rows, d, &queries)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cam_search, bench_kernels);
criterion_main!(benches);
