//! `evolve`: one `AutoLock::run` per op group — a serial GA (see `main`)
//! whose fitness evaluations are serial MuxLink (MLP) attacks on a random synthetic
//! circuit. Many small attacks instead of the few large ones of `muxlink`,
//! and the only workload through `evo` and the fitness cache.

use crate::trace::{median, ratio, Tracer};
use crate::{Counters, Pass, Workload};
use autolock::operators::{LocusCrossover, LocusMutation};
use autolock::{AutoLock, AutoLockConfig, AutoLockResult, LockingGenotype, MuxLinkFitness};
use autolock_attacks::MuxLinkConfig;
use autolock_circuits::suite_circuit;
use autolock_evo::{CrossoverOperator, FitnessFunction, MutationOperator};
use autolock_locking::DMuxLocking;
use autolock_netlist::Netlist;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Random rounds (64 vectors each) of the evolved lock's functional check.
const VERIFY_ROUNDS: usize = 64;
/// Repetitions of the one-generation breeding probe.
const BREED_PROBES: usize = 5;

pub struct Evolve {
    original: Arc<Netlist>,
    config: AutoLockConfig,
    /// A population seeded like the engine seeds its own, for the traced
    /// evaluation and breeding probes.
    population: Vec<LockingGenotype>,
    /// Results of the traced passes.
    traced: Vec<AutoLockResult>,
    /// `final_attack_accuracy` of the latest run.
    accuracy: f64,
}

pub fn setup(seed: u64, smoke: bool, tr: &Tracer) -> Evolve {
    let (circuit, config) = if smoke {
        let attack = MuxLinkConfig {
            epochs: 2,
            max_train_samples_per_class: 20,
            ensemble: 1,
            ..MuxLinkConfig::fast().with_threads(1)
        };
        let config = AutoLockConfig {
            key_len: 4,
            population_size: 4,
            generations: 1,
            elitism: 1,
            attack,
            parallel: false,
            seed,
            ..AutoLockConfig::default()
        };
        ("s160", config)
    } else {
        // Every child is recombined and mutated, so apart from the elites
        // each generation is new genotypes: the number of real evaluations
        // (the work of a run) barely depends on the seed. A run is one call
        // the reference sorts cannot look into, so it is kept to about 2.5 s
        // (ten evaluations) for the sorts around it to follow the machine's
        // speed.
        let config = AutoLockConfig {
            key_len: 16,
            population_size: 4,
            generations: 2,
            elitism: 1,
            crossover_rate: 1.0,
            mutation_rate: 1.0,
            attack: MuxLinkConfig::fast().with_threads(1),
            parallel: false,
            seed,
            ..AutoLockConfig::default()
        };
        ("s880", config)
    };
    let original = Arc::new(suite_circuit(circuit).expect("suite member"));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let population: Vec<LockingGenotype> = (0..config.population_size)
        .map(|_| {
            tr.time("locking.lock", || {
                DMuxLocking::default()
                    .select_loci(&original, config.key_len, &mut rng)
                    .expect("suite member hosts the key")
            })
            .0
        })
        .collect();
    // Warm-up: one fitness evaluation.
    fitness(&original, &config).evaluate(&population[0]);
    Evolve {
        original,
        config,
        population,
        traced: Vec::new(),
        accuracy: 0.0,
    }
}

/// A fresh fitness with the engine's in-loop attack settings.
fn fitness(original: &Arc<Netlist>, config: &AutoLockConfig) -> MuxLinkFitness {
    let attack = config.attack.clone();
    MuxLinkFitness::new(original.clone(), attack, config.seed, config.attack_repeats)
}

impl Workload for Evolve {
    fn pass(&mut self, tr: &Tracer) -> Pass {
        let mut pass = Pass::default();
        tr.begin_op();
        let engine = AutoLock::new(self.config.clone());
        let (result, times) = tr.time("autolock.run", || engine.run(&self.original));
        pass.time = times;
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("evolve: run failed: {e}");
                pass.ops = 1;
                pass.failed = 1;
                return pass;
            }
        };
        pass.ops = result.fitness_evaluations as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ self.traced.len() as u64);
        let functional = result
            .locked
            .verify_functional(&self.original, VERIFY_ROUNDS, &mut rng);
        let ok = matches!(functional, Ok(true))
            && result.locked.key_len() == self.config.key_len
            && (0.0..=1.0).contains(&result.final_attack_accuracy)
            && pass.ops > 0;
        if !ok {
            eprintln!("evolve: evolved lock failed its check ({functional:?})");
            pass.ops = pass.ops.max(1);
            pass.failed = pass.ops;
        }
        self.accuracy = result.final_attack_accuracy;
        if tr.recording() {
            self.traced.push(result);
        }
        pass
    }

    fn layers(&mut self, tr: &Tracer, _: &Counters, _: usize) -> Vec<(&'static str, f64)> {
        // Evaluation probe: every member of a seeded population on a fresh
        // fitness (no cache hits).
        let fresh = fitness(&self.original, &self.config);
        for genotype in &self.population {
            tr.begin_op();
            tr.time("evo.evaluate", || fresh.evaluate(genotype));
        }
        // Breeding probe: crossover of consecutive pairs, then mutation of
        // every child — one generation's variation.
        let (orig, k) = (self.original.clone(), self.config.key_len);
        let crossover = LocusCrossover::new(orig.clone(), k, self.config.crossover_kind);
        let mutation = LocusMutation::new(orig, k, self.config.mutation_kind);
        for probe in 0..BREED_PROBES {
            let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ probe as u64);
            tr.begin_op();
            tr.time("evo.breed", || {
                for pair in self.population.chunks(2) {
                    if let [a, b] = pair {
                        let (mut x, mut y) = crossover.crossover(a, b, &mut rng);
                        mutation.mutate(&mut x, &mut rng);
                        mutation.mutate(&mut y, &mut rng);
                        std::hint::black_box((x, y));
                    }
                }
            });
        }
        let evals: Vec<f64> = self
            .traced
            .iter()
            .map(|r| r.fitness_evaluations as f64)
            .collect();
        let (hits, misses) = self.traced.iter().fold((0, 0), |(h, m), r| {
            (h + r.fitness_cache_hits, m + r.fitness_cache_misses)
        });
        vec![
            ("evo.fitness_evals", median(&evals)),
            (
                "autolock.fitness_cache.hit_rate",
                ratio(hits as f64, (hits + misses) as f64),
            ),
            ("evo.eval_s", median(&tr.durations("evo.evaluate"))),
            ("evo.breed_s", median(&tr.durations("evo.breed"))),
            ("locking.lock_s", median(&tr.durations("locking.lock"))),
        ]
    }

    fn quality(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![("evolved_attack_accuracy", self.accuracy, "ratio")]
    }
}
