//! Golden digests of whole `AutoLock::run` evolutions.
//!
//! A refactor of the pipeline's setup or of the GA's generation loop must
//! not change a single bit of what a run evolves. These tests pin an FNV-1a
//! digest of everything a run reports — the best genotype, the bits of every
//! history entry and of the final accuracy, the evaluation and migration
//! counts and the fitness-cache hits/misses — for the classic serial GA, the
//! classic GA with parallel fitness evaluation, and a two-island run with an
//! exact-mode surrogate. The digests were captured before the evolution
//! setup was unified into `EvolutionJob`, so a passing run proves that
//! change bit-identical.
//!
//! The in-loop attacks run with reduced epochs on a tiny circuit, so a debug
//! `cargo test` stays fast. The island run fans out over the CI
//! thread-matrix leg's `AUTOLOCK_THREADS`, so it also pins the thread-count
//! contract.

use autolock::{AutoLock, AutoLockConfig, AutoLockResult};
use autolock_attacks::MuxLinkConfig;
use autolock_circuits::synth_circuit;
use autolock_evo::IslandConfig;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.write(&v.to_bits().to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

fn config() -> AutoLockConfig {
    AutoLockConfig {
        key_len: 4,
        population_size: 6,
        generations: 2,
        parallel: false,
        attack: MuxLinkConfig {
            epochs: 3,
            max_train_samples_per_class: 24,
            ensemble: 1,
            ..MuxLinkConfig::fast()
        },
        seed: 41,
        ..AutoLockConfig::default()
    }
}

fn run(cfg: AutoLockConfig) -> AutoLockResult {
    let netlist = synth_circuit("evo_pin", 10, 4, 120, 29);
    AutoLock::new(cfg).run(&netlist).unwrap()
}

/// Digest of the evolved outcome: genotype, history and final accuracy.
fn outcome_digest(r: &AutoLockResult) -> Fnv {
    let mut h = Fnv::new();
    h.write(serde_json::to_string(&r.best_genotype).unwrap().as_bytes());
    for g in &r.history {
        h.u64(g.generation as u64);
        h.f64(g.best_attack_accuracy);
        h.f64(g.mean_attack_accuracy);
        h.f64(g.worst_attack_accuracy);
    }
    h.f64(r.baseline_attack_accuracy);
    h.f64(r.final_attack_accuracy);
    h.u64(r.best_generation as u64);
    h
}

/// [`outcome_digest`] plus the run's evaluation, migration and cache counts.
fn full_digest(r: &AutoLockResult) -> u64 {
    let mut h = outcome_digest(r);
    h.u64(r.fitness_evaluations as u64);
    h.u64(r.migrations as u64);
    h.u64(r.fitness_cache_hits);
    h.u64(r.fitness_cache_misses);
    h.0
}

#[test]
fn classic_serial_run_matches_golden_digest() {
    let got = full_digest(&run(config()));
    assert_eq!(
        got, 0x1396_0ec3_683e_3e3e,
        "digest {got:#x} drifted from the pin"
    );
}

/// Parallel evaluation pins the outcome only: two identical children of one
/// generation scored concurrently may both miss the shared cache, so the
/// evaluation and cache counts depend on scheduling.
#[test]
fn classic_parallel_run_matches_golden_digest() {
    let got = outcome_digest(&run(AutoLockConfig {
        parallel: true,
        ..config()
    }))
    .0;
    assert_eq!(
        got, 0xc53f_ec36_2dd8_9cf6,
        "digest {got:#x} drifted from the pin"
    );
}

#[test]
fn island_run_with_exact_surrogate_matches_golden_digest() {
    let cfg = config();
    let got = full_digest(&run(AutoLockConfig {
        islands: IslandConfig {
            islands: 2,
            migration_interval: 1,
            migrants: 1,
            threads: std::env::var("AUTOLOCK_THREADS")
                .ok()
                .and_then(|t| t.parse().ok())
                .unwrap_or(1),
        },
        surrogate: Some(cfg.attack.clone()),
        ..cfg
    }));
    assert_eq!(
        got, 0x917f_e58b_1bc5_cbb6,
        "digest {got:#x} drifted from the pin"
    );
}
