//! Micro-benchmarks of the DGCNN kernels: graph-conv forward/backward,
//! SortPooling, full-model scoring, one training epoch, and the
//! parallel-vs-serial comparison of batched training/scoring.
//!
//! Like `matmul_kernels`, this bench also writes a **machine-readable perf
//! trajectory** — `<results>/BENCH_gnn_kernels.json`, one entry per
//! (op, dims, threads) with ns/iter and the speedup over its baseline
//! (serial pool, or the materialized training path for the streamed
//! entry) — which CI diffs against the committed baseline with
//! `.github/scripts/check_bench_regression.py`.
//!
//! Set `AUTOLOCK_BENCH_QUICK=1` for a CI smoke run (fewer samples, smaller
//! batches) that still exercises every kernel and prints the
//! parallel-vs-serial numbers.

use autolock_bench::results_dir;
use autolock_bench::trajectory::{paired_median_ns, versus_serial, BenchEntry, BenchTrajectory};
use autolock_gnn::{Dgcnn, DgcnnConfig, GraphConv, GraphSource, SortPooling, SubgraphTensor};
use autolock_mlcore::Matrix;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::hint::black_box;

/// CI smoke mode: fewer samples, smaller batches, same coverage.
fn quick() -> bool {
    std::env::var_os("AUTOLOCK_BENCH_QUICK").is_some()
}

fn bench_config() -> Criterion {
    Criterion::default().sample_size(if quick() { 3 } else { 10 })
}

/// A random connected graph tensor with `n` nodes and `f` features.
fn random_graph(n: usize, f: usize, seed: u64) -> SubgraphTensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, f);
    for r in 0..n {
        for c in 0..f {
            x.set(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a, b));
        }
    }
    let mut degree = vec![0usize; n];
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut adj: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![(i, 1.0)]).collect();
    for &(a, b) in &edges {
        adj[a].push((b, 1.0));
        adj[b].push((a, 1.0));
    }
    for (i, row) in adj.iter_mut().enumerate() {
        let norm = 1.0 / (degree[i] as f64 + 1.0);
        for e in row.iter_mut() {
            e.1 *= norm;
        }
    }
    SubgraphTensor::from_parts(x, adj)
}

fn bench_conv(c: &mut Criterion) {
    let graph = random_graph(40, 22, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let conv = GraphConv::new(22, 16, &mut rng);
    let mut group = c.benchmark_group("G1_graphconv");
    group.bench_function("forward_40n_22f_16c", |b| {
        b.iter(|| conv.forward(black_box(&graph), black_box(graph.features())))
    });
    let cache = conv.forward(&graph, graph.features());
    let grad = Matrix::from_vec(40, 16, vec![0.01; 40 * 16]);
    group.bench_function("backward_40n_22f_16c", |b| {
        b.iter(|| conv.backward(black_box(&graph), black_box(&cache), black_box(&grad)))
    });
    group.finish();
}

fn bench_sortpool(c: &mut Criterion) {
    let graph = random_graph(60, 33, 3);
    let pool = SortPooling::new(10);
    let mut group = c.benchmark_group("G2_sortpool");
    group.bench_function("forward_60n_33f_k10", |b| {
        b.iter(|| pool.forward(black_box(graph.features()), 0..60))
    });
    group.finish();
}

fn bench_model(c: &mut Criterion) {
    let count = if quick() { 8 } else { 32 };
    let graphs: Vec<SubgraphTensor> = (0..count)
        .map(|i| random_graph(30, 22, 10 + i as u64))
        .collect();
    let labels: Vec<f64> = (0..count).map(|i| f64::from(i % 2 == 0)).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut model = Dgcnn::new(
        DgcnnConfig {
            epochs: 1,
            num_threads: 1,
            ..DgcnnConfig::for_features(22)
        },
        &mut rng,
    );
    let mut group = c.benchmark_group("G3_dgcnn");
    group.bench_function("score_30n", |b| {
        b.iter(|| model.score(black_box(&graphs[0])))
    });
    group.bench_function(&format!("train_epoch_{count}graphs"), |b| {
        b.iter(|| model.train(black_box(&graphs), black_box(&labels), &mut rng))
    });
    group.finish();
}

/// Parallel vs serial batched forward/backward (one training epoch over one
/// large mini-batch) and batched scoring. The determinism suite proves the
/// outputs are bit-identical for every thread count, so these entries are a
/// pure wall-clock comparison; on a multi-core machine the 4-thread rows
/// should run ≥2x faster than the serial ones.
fn bench_parallel(c: &mut Criterion) {
    let count = if quick() { 16 } else { 64 };
    let graphs: Vec<SubgraphTensor> = (0..count)
        .map(|i| random_graph(40, 22, 100 + i as u64))
        .collect();
    let labels: Vec<f64> = (0..count).map(|i| f64::from(i % 2 == 0)).collect();
    let mut group = c.benchmark_group("G4_parallel");
    for threads in [1usize, 2, 4] {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut model = Dgcnn::new(
            DgcnnConfig {
                epochs: 1,
                batch_size: count, // one parallel fan-out per epoch
                num_threads: threads,
                ..DgcnnConfig::for_features(22)
            },
            &mut rng,
        );
        group.bench_function(&format!("train_epoch_{count}x40n_{threads}threads"), |b| {
            b.iter(|| model.train(black_box(&graphs), black_box(&labels), &mut rng))
        });
        group.bench_function(&format!("score_batch_{count}x40n_{threads}threads"), |b| {
            b.iter(|| model.score_batch(black_box(&graphs)))
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable trajectory (shared schema: autolock_bench::trajectory)
// ---------------------------------------------------------------------------

/// A streaming source over a materialized set that serves **owned** tensor
/// rebuilds — the per-epoch tensor-construction cost the streamed attack
/// path pays, isolated from cache/extraction effects.
struct RebuildSource {
    graphs: Vec<SubgraphTensor>,
    labels: Vec<f64>,
}

impl GraphSource for RebuildSource {
    fn len(&self) -> usize {
        self.graphs.len()
    }

    fn label(&self, idx: usize) -> f64 {
        self.labels[idx]
    }

    fn num_nodes(&self, idx: usize) -> usize {
        self.graphs[idx].num_nodes()
    }

    fn tensor(&self, idx: usize) -> Cow<'_, SubgraphTensor> {
        Cow::Owned(self.graphs[idx].clone())
    }
}

/// Measures the parallel-vs-serial training/scoring fan-outs and the
/// streamed-vs-materialized training path, then writes the JSON trajectory.
/// Runs as a Criterion target so `cargo bench --bench gnn_kernels` always
/// refreshes the file.
fn emit_trajectory(_c: &mut Criterion) {
    let samples = if quick() { 5 } else { 9 };
    let count = if quick() { 16 } else { 64 };
    let graphs: Vec<SubgraphTensor> = (0..count)
        .map(|i| random_graph(40, 22, 100 + i as u64))
        .collect();
    let labels: Vec<f64> = (0..count).map(|i| f64::from(i % 2 == 0)).collect();
    let dims = format!("{count}x40n");
    let mut entries = Vec::new();

    let model_for = |threads: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        Dgcnn::new(
            DgcnnConfig {
                epochs: 1,
                batch_size: count, // one parallel fan-out per epoch
                num_threads: threads,
                ..DgcnnConfig::for_features(22)
            },
            &mut rng,
        )
    };
    // Each gated ratio times its two sides in alternating samples (see
    // `paired_median_ns`).
    let (graphs, labels) = (&graphs, &labels);
    let train = |threads: usize| {
        let mut model = model_for(threads);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        move || {
            black_box(model.train(black_box(graphs), black_box(labels), &mut rng));
        }
    };
    let score = |threads: usize| {
        let model = model_for(threads);
        move || {
            black_box(model.score_batch(black_box(graphs)));
        }
    };
    let source = &RebuildSource {
        graphs: graphs.clone(),
        labels: labels.clone(),
    };
    let streamed = || {
        let mut model = model_for(1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        move || {
            black_box(model.train_source(black_box(source), &mut rng));
        }
    };
    let mut entry = |op: &str, threads: usize, baseline: &str, pair: (f64, f64)| {
        entries.push(BenchEntry::new(op, &dims, threads, baseline, pair));
    };
    for threads in [1usize, 2, 4] {
        let pair = versus_serial(samples, threads, train);
        entry("gnn_train_epoch", threads, "threads=1", pair);
        let pair = versus_serial(samples, threads, score);
        entry("gnn_score_batch", threads, "threads=1", pair);
    }

    // Streamed (owned per-example rebuilds) vs materialized (borrowed
    // slices), serial: records that the memory-lean path stays at speed
    // parity with the path it replaced.
    entry(
        "gnn_train_epoch_streamed",
        1,
        "materialized",
        paired_median_ns(samples, train(1), streamed()),
    );

    // Observability overhead: the identical streamed epoch with the obs
    // registry recording. `train_source` carries the densest
    // instrumentation in the workspace (gnn.train / gnn.train_epoch spans,
    // per-batch counters), so this ratio is the worst-case *enabled* cost;
    // while disabled (the baseline) every site is one relaxed load.
    let mut recorded = streamed();
    autolock_obs::reset();
    let obs = paired_median_ns(samples, streamed(), || {
        autolock_obs::enable();
        recorded();
        autolock_obs::disable();
    });
    autolock_obs::reset();
    entry("gnn_train_epoch_obs_enabled", 1, "obs_disabled", obs);

    BenchTrajectory {
        bench: "gnn_kernels".to_string(),
        quick: quick(),
        entries,
    }
    .emit(&results_dir(), "BENCH_gnn_kernels.json");
}

criterion_group! {
    name = gnn;
    config = bench_config();
    targets = bench_conv, bench_sortpool, bench_model, bench_parallel, emit_trajectory
}
criterion_main!(gnn);
