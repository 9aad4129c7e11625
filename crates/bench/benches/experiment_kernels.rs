//! Benchmark kernels, one per experiment (E1–E9).
//!
//! Each kernel times a *reduced but structurally identical* slice of the
//! corresponding experiment so `cargo bench` stays in the minutes range; the
//! full tables are produced by the `exp` binary (see this crate's README).

use autolock::operators::{CrossoverKind, LocusCrossover, LocusMutation, MutationKind};
use autolock::{
    random_genotype, AutoLock, AutoLockConfig, MultiObjectiveLockingFitness, ObjectiveKind,
};
use autolock_attacks::{
    KeyRecoveryAttack, MuxLinkAttack, MuxLinkConfig, RandomGuessAttack, SatAttack, SatAttackConfig,
};
use autolock_circuits::suite_circuit;
use autolock_evo::{Nsga2, Nsga2Config, SelectionMethod};
use autolock_locking::overhead::overhead_report;
use autolock_locking::{DMuxLocking, LockingScheme, XorLocking};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;

/// A small AutoLock configuration shared by the GA-based kernels.
fn kernel_config(key_len: usize) -> AutoLockConfig {
    AutoLockConfig {
        key_len,
        population_size: 6,
        generations: 3,
        attack_repeats: 1,
        parallel: false,
        seed: 0xBE,
        ..Default::default()
    }
}

/// E1 kernel — one MuxLink attack on a D-MUX-locked netlist plus a miniature
/// AutoLock run (the two measurements the headline table compares).
fn e1_kernel(c: &mut Criterion) {
    let original = suite_circuit("s380").unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let dmux = DMuxLocking::default()
        .lock(&original, 16, &mut rng)
        .unwrap();
    let mut group = c.benchmark_group("E1_autolock_vs_dmux");
    group.bench_function("muxlink_attack_dmux_k16", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            black_box(
                MuxLinkAttack::new(MuxLinkConfig::fast())
                    .attack(&dmux, &mut rng)
                    .key_accuracy,
            )
        })
    });
    group.bench_function("autolock_mini_run_k16", |b| {
        b.iter(|| {
            let result = AutoLock::new(kernel_config(16)).run(&original).unwrap();
            black_box(result.final_attack_accuracy)
        })
    });
    group.finish();
}

/// E2/E3/E7/E9 kernel — one GA generation's worth of fitness evaluations
/// (population × one attack), the unit all convergence/sweep experiments scale
/// with.
fn e2_kernel(c: &mut Criterion) {
    let original = suite_circuit("s380").unwrap();
    c.bench_function("E2_E3_E7_E9_one_generation_equivalent", |b| {
        b.iter(|| {
            let mut cfg = kernel_config(16);
            cfg.generations = 1;
            let result = AutoLock::new(cfg).run(&original).unwrap();
            black_box(result.fitness_evaluations)
        })
    });
}

/// E4 kernel — the attack matrix row cost: each attack on one locked netlist.
fn e4_kernel(c: &mut Criterion) {
    let original = suite_circuit("s380").unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let dmux = DMuxLocking::default()
        .lock(&original, 16, &mut rng)
        .unwrap();
    let xor = XorLocking::default().lock(&original, 16, &mut rng).unwrap();
    let mut group = c.benchmark_group("E4_attack_matrix");
    group.bench_function("random_guess", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            black_box(RandomGuessAttack.attack(&dmux, &mut rng).key_accuracy)
        })
    });
    group.bench_function("locality_only_on_dmux", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            black_box(
                MuxLinkAttack::new(MuxLinkConfig::locality_only())
                    .attack(&dmux, &mut rng)
                    .key_accuracy,
            )
        })
    });
    group.bench_function("muxlink_on_xor", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            black_box(
                MuxLinkAttack::new(MuxLinkConfig::fast())
                    .attack(&xor, &mut rng)
                    .key_accuracy,
            )
        })
    });
    group.finish();
}

/// E5 kernel — the oracle-guided SAT attack on c17 and a 160-gate circuit.
fn e5_kernel(c: &mut Criterion) {
    let c17 = suite_circuit("c17").unwrap();
    let s160 = suite_circuit("s160").unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let locked_c17 = DMuxLocking::default().lock(&c17, 3, &mut rng).unwrap();
    let locked_s160 = DMuxLocking::default().lock(&s160, 8, &mut rng).unwrap();
    let mut group = c.benchmark_group("E5_sat_attack");
    group.bench_function("sat_attack_c17_k3", |b| {
        b.iter(|| black_box(SatAttack::default().attack(&locked_c17, &c17).iterations))
    });
    group.bench_function("sat_attack_s160_k8", |b| {
        b.iter(|| black_box(SatAttack::default().attack(&locked_s160, &s160).iterations))
    });
    group.finish();
}

/// E6 kernel — locking plus overhead-report computation per scheme.
fn e6_kernel(c: &mut Criterion) {
    let original = suite_circuit("s380").unwrap();
    let mut group = c.benchmark_group("E6_overhead");
    group.bench_function("dmux_lock_and_overhead_k32", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let locked = DMuxLocking::default()
                .lock(&original, 32, &mut rng)
                .unwrap();
            black_box(
                overhead_report(&original, &locked, 4, &mut rng)
                    .unwrap()
                    .area_overhead_pct(),
            )
        })
    });
    group.bench_function("xor_lock_and_overhead_k32", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let locked = XorLocking::default().lock(&original, 32, &mut rng).unwrap();
            black_box(
                overhead_report(&original, &locked, 4, &mut rng)
                    .unwrap()
                    .area_overhead_pct(),
            )
        })
    });
    group.finish();
}

/// E8 kernel — a miniature NSGA-II run with the accuracy/overhead objectives.
fn e8_kernel(c: &mut Criterion) {
    let original = Arc::new(suite_circuit("s380").unwrap());
    c.bench_function("E8_nsga2_mini_run", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let initial: Vec<_> = (0..6)
                .map(|_| random_genotype(&original, 12, &mut rng).unwrap())
                .collect();
            let fitness = MultiObjectiveLockingFitness::new(
                original.clone(),
                MuxLinkConfig::fast(),
                SatAttackConfig {
                    max_iterations: 20,
                    max_propagations_per_solve: None,
                    ..SatAttackConfig::default()
                },
                vec![ObjectiveKind::MuxLinkAccuracy, ObjectiveKind::AreaOverhead],
                8,
            );
            let crossover = LocusCrossover::new(original.clone(), 12, CrossoverKind::OnePoint);
            let mutation = LocusMutation::new(original.clone(), 12, MutationKind::Composite);
            let result = Nsga2::new(Nsga2Config {
                generations: 2,
                parallel: false,
                ..Default::default()
            })
            .run(initial, &fitness, &crossover, &mutation, &mut rng);
            black_box(result.front.len())
        })
    });
    // Keep the selection-method enum exercised so ablation configs stay valid.
    let _ = SelectionMethod::default();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = e1_kernel, e2_kernel, e4_kernel, e5_kernel, e6_kernel, e8_kernel
}
criterion_main!(kernels);
