//! Micro-benchmarks of the shared `mlcore` dense-kernel layer: the tiled
//! `matmul`/`matmul_tn`/`matmul_nt` against their naive references, the
//! workspace `tanh` row kernel against the libm's `f64::tanh`, one serial
//! MLP-ensemble training at the AutoLock fitness shape, and the parallel
//! MLP-ensemble fan-out against serial training/scoring.
//!
//! Besides the usual Criterion entries, this bench writes a
//! **machine-readable perf trajectory** to
//! `<results>/BENCH_kernels.json` — one entry per (op, dims, threads) with
//! ns/iter and the speedup over its baseline (naive kernel, libm `tanh`, or
//! the serial pool) — so future PRs can diff kernel performance instead of
//! eyeballing bench logs. Besides the square shapes, two products run at
//! the shapes the MuxLink models multiply (`matmul_tn` 16x32x66 and
//! `matmul` 348x22x16, as `m x k x n`). On a multi-core runner the tiled
//! kernels should hold ≥ 1.5× naive on the ≥128×128 shapes and the
//! 4-thread ensemble rows should beat serial; the JSON records whether they
//! did. (The determinism suites prove tiled-vs-naive and parallel-vs-serial
//! outputs are bit-identical, so every entry is a pure wall-clock
//! comparison.)
//!
//! Set `AUTOLOCK_BENCH_QUICK=1` for a CI smoke run (fewer samples, smaller
//! shapes) that still exercises every kernel and writes the JSON.

use autolock_bench::results_dir;
use autolock_bench::trajectory::{paired_median_ns, versus_serial, BenchEntry, BenchTrajectory};
use autolock_mlcore::kernels::tanh_in_place;
use autolock_mlcore::{Dataset, Matrix, MlpConfig, MlpEnsemble, MlpEnsembleConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// CI smoke mode: fewer samples, smaller shapes, same coverage.
fn quick() -> bool {
    std::env::var_os("AUTOLOCK_BENCH_QUICK").is_some()
}

fn bench_config() -> Criterion {
    Criterion::default().sample_size(if quick() { 3 } else { 10 })
}

/// Square matmul shapes; always includes the 128³ point the perf target is
/// stated against.
fn shapes() -> Vec<usize> {
    if quick() {
        vec![32, 128]
    } else {
        vec![32, 64, 128, 256]
    }
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::random(rows, cols, 1.0, &mut rng)
}

/// One DGCNN forward pass's worth of conv pre-activations: a 30-node
/// subgraph times the 33 channels of the default conv stack
/// (16 + 16 + 1).
const TANH_BLOCK: (usize, usize) = (30, 33);

fn tanh_block() -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(3000);
    Matrix::random(TANH_BLOCK.0, TANH_BLOCK.1, 3.0, &mut rng).into_vec()
}

/// `tanh` over a copy of `block` in `buf`, by the workspace row kernel.
fn tanh_kernel(block: &[f64], buf: &mut [f64]) {
    buf.copy_from_slice(block);
    tanh_in_place(black_box(buf));
}

/// `tanh` over a copy of `block` in `buf`, element by element through the
/// libm.
fn tanh_libm(block: &[f64], buf: &mut [f64]) {
    buf.copy_from_slice(block);
    for v in black_box(buf).iter_mut() {
        *v = v.tanh();
    }
}

/// A linearly-separable-ish training set for the ensemble rows.
fn ensemble_dataset(n: usize, dim: usize) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0B);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let label = f64::from(i % 2 == 0);
        let base = if label > 0.5 { 0.8 } else { -0.8 };
        rows.push(
            (0..dim)
                .map(|d| base * f64::from(d % 2 == 0) + rng.gen_range(-0.5..0.5))
                .collect(),
        );
        labels.push(label);
    }
    Dataset::from_rows(rows, labels).unwrap()
}

fn ensemble_config(threads: usize) -> MlpEnsembleConfig {
    MlpEnsembleConfig {
        mlp: MlpConfig {
            input_dim: 16,
            hidden: vec![16],
            epochs: if quick() { 4 } else { 10 },
            ..Default::default()
        },
        members: 8,
        threads,
    }
}

// ---------------------------------------------------------------------------
// Criterion entries
// ---------------------------------------------------------------------------

fn bench_blocked_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("K1_matmul");
    for &s in &shapes() {
        let a = random_matrix(s, s, 1000 + s as u64);
        let b = random_matrix(s, s, 2000 + s as u64);
        group.bench_function(&format!("matmul_blocked_{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)))
        });
        group.bench_function(&format!("matmul_naive_{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul_naive(black_box(&b)))
        });
        group.bench_function(&format!("matmul_tn_blocked_{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul_tn(black_box(&b)))
        });
        group.bench_function(&format!("matmul_tn_naive_{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul_tn_naive(black_box(&b)))
        });
        group.bench_function(&format!("matmul_nt_blocked_{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul_nt(black_box(&b)))
        });
        group.bench_function(&format!("matmul_nt_naive_{s}x{s}"), |bch| {
            bch.iter(|| black_box(&a).matmul_nt_naive(black_box(&b)))
        });
    }
    group.finish();
}

/// The workspace `tanh` row kernel vs `f64::tanh` over one conv block.
fn bench_tanh(c: &mut Criterion) {
    let block = tanh_block();
    let mut buf = block.clone();
    let (rows, cols) = TANH_BLOCK;
    let mut group = c.benchmark_group("K3_tanh");
    group.bench_function(&format!("tanh_kernel_{rows}x{cols}"), |bch| {
        bch.iter(|| tanh_kernel(&block, &mut buf))
    });
    group.bench_function(&format!("tanh_libm_{rows}x{cols}"), |bch| {
        bch.iter(|| tanh_libm(&block, &mut buf))
    });
    group.finish();
}

/// Parallel vs serial bagged-ensemble training and batch scoring. The
/// ensemble determinism suite proves outputs are bit-identical for every
/// thread count, so these entries are a pure wall-clock comparison; on a
/// multi-core machine the 4-thread rows should clearly beat serial.
fn bench_ensemble_parallel(c: &mut Criterion) {
    let data = ensemble_dataset(if quick() { 64 } else { 256 }, 16);
    let rows: Vec<Vec<f64>> = (0..data.len())
        .map(|i| data.features_of(i).to_vec())
        .collect();
    let mut group = c.benchmark_group("K2_ensemble");
    for threads in [1usize, 2, 4] {
        group.bench_function(&format!("train_8members_{threads}threads"), |bch| {
            bch.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(7);
                MlpEnsemble::train(ensemble_config(threads), black_box(&data), &mut rng)
            })
        });
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let ensemble = MlpEnsemble::train(ensemble_config(threads), &data, &mut rng);
        group.bench_function(&format!("predict_batch_{threads}threads"), |bch| {
            bch.iter(|| ensemble.predict_batch(black_box(&rows)))
        });
    }
    group.finish();
}

/// One serial `MlpEnsemble::train` at the shape an AutoLock fitness
/// evaluation trains: 600 examples of 66 link features, one hidden layer of
/// 16, 5 members, batches of 32, 30 epochs (6 in quick mode). Printed only;
/// the trajectory does not record it.
fn bench_mlp_step(c: &mut Criterion) {
    let data = ensemble_dataset(600, 66);
    let config = MlpEnsembleConfig {
        mlp: MlpConfig {
            input_dim: 66,
            hidden: vec![16],
            epochs: if quick() { 6 } else { 30 },
            batch_size: 32,
            ..Default::default()
        },
        members: 5,
        threads: 1,
    };
    let mut group = c.benchmark_group("K3_mlp_step");
    group.bench_function("train_600x66_h16_5members", |bch| {
        bch.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            MlpEnsemble::train(config.clone(), black_box(&data), &mut rng)
        })
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable trajectory (shared schema: autolock_bench::trajectory)
// ---------------------------------------------------------------------------

/// A product of two matrices (a tiled kernel or its naive reference).
type Product = fn(&Matrix, &Matrix) -> Matrix;

/// Measures every kernel and fan-out pair and writes the JSON trajectory.
/// Runs as a Criterion target so `cargo bench --bench matmul_kernels`
/// always refreshes the file.
fn emit_trajectory(_c: &mut Criterion) {
    // More samples than the criterion smoke: these medians feed the gated
    // JSON trajectory, so buy extra noise margin (the ops are sub-ms).
    let samples = if quick() { 5 } else { 9 };
    let mut entries = Vec::new();

    // Every product at the square shapes, then two shapes the MuxLink
    // models multiply, as `m x k x n`: the MLP weight gradient `Δᵀ·A` at
    // batch depth 32 and a DGCNN conv `ÂX·W` over a 348-row union.
    let mut products: Vec<(&str, usize, usize, usize)> = Vec::new();
    for &s in &shapes() {
        for op in ["matmul", "matmul_tn", "matmul_nt"] {
            products.push((op, s, s, s));
        }
    }
    products.extend([("matmul_tn", 16, 32, 66), ("matmul", 348, 22, 16)]);
    for (op, m, k, n) in products {
        let (a_dims, b_dims, tiled, naive): (_, _, Product, Product) = match op {
            "matmul" => ((m, k), (k, n), Matrix::matmul, Matrix::matmul_naive),
            "matmul_tn" => ((k, m), (k, n), Matrix::matmul_tn, Matrix::matmul_tn_naive),
            _ => ((m, k), (n, k), Matrix::matmul_nt, Matrix::matmul_nt_naive),
        };
        let a = random_matrix(a_dims.0, a_dims.1, 1000 + m as u64);
        let b = random_matrix(b_dims.0, b_dims.1, 2000 + n as u64);
        // Each gated ratio times its two sides in alternating samples (see
        // `paired_median_ns`).
        let pair = paired_median_ns(
            samples,
            || {
                black_box(naive(black_box(&a), black_box(&b)));
            },
            || {
                black_box(tiled(black_box(&a), black_box(&b)));
            },
        );
        entries.push(BenchEntry::new(
            op,
            format!("{m}x{k}x{n}"),
            1,
            "naive",
            pair,
        ));
    }

    let block = tanh_block();
    let (mut libm_buf, mut kernel_buf) = (block.clone(), block.clone());
    let pair = paired_median_ns(
        samples,
        || tanh_libm(&block, &mut libm_buf),
        || tanh_kernel(&block, &mut kernel_buf),
    );
    let dims = format!("{}x{}", TANH_BLOCK.0, TANH_BLOCK.1);
    entries.push(BenchEntry::new("tanh", dims, 1, "f64::tanh", pair));

    let data = ensemble_dataset(if quick() { 64 } else { 256 }, 16);
    let rows: Vec<Vec<f64>> = (0..data.len())
        .map(|i| data.features_of(i).to_vec())
        .collect();
    let train = |threads: usize| {
        let data = &data;
        move || {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            black_box(MlpEnsemble::train(
                ensemble_config(threads),
                black_box(data),
                &mut rng,
            ));
        }
    };
    let predict = |threads: usize| {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let ensemble = MlpEnsemble::train(ensemble_config(threads), &data, &mut rng);
        let rows = &rows;
        move || {
            black_box(ensemble.predict_batch(black_box(rows)));
        }
    };
    let train_dims = format!("8members_x_{}examples", data.len());
    let predict_dims = format!("8members_x_{}rows", rows.len());
    for threads in [1usize, 2, 4] {
        let pair = versus_serial(samples, threads, train);
        entries.push(BenchEntry::new(
            "ensemble_train",
            &train_dims,
            threads,
            "threads=1",
            pair,
        ));
        let pair = versus_serial(samples, threads, predict);
        entries.push(BenchEntry::new(
            "ensemble_predict_batch",
            &predict_dims,
            threads,
            "threads=1",
            pair,
        ));
    }

    BenchTrajectory {
        bench: "matmul_kernels".to_string(),
        quick: quick(),
        entries,
    }
    .emit(&results_dir(), "BENCH_kernels.json");
}

criterion_group! {
    name = kernels;
    config = bench_config();
    targets = bench_blocked_vs_naive, bench_tanh, bench_mlp_step, bench_ensemble_parallel, emit_trajectory
}
criterion_main!(kernels);
