//! Island-model contracts: thread-count invariance, per-generation
//! checkpoint/resume bit-identity, exact-mode surrogate equivalence, and
//! migration accounting. The thread test runs in the CI thread matrix,
//! which folds `AUTOLOCK_THREADS` into the compared set.

use autolock_evo::{
    CrossoverOperator, FitnessFunction, GaConfig, GaState, GeneticAlgorithm, IslandConfig,
    IslandGa, IslandGaState, MutationOperator, SurrogateScreen,
};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Extra thread count folded into the compared set, from the CI
/// thread-matrix leg's `AUTOLOCK_THREADS` (the multi-core runners are the
/// only machines where `n > 1` workers actually exist).
fn env_threads() -> Option<usize> {
    std::env::var("AUTOLOCK_THREADS").ok()?.parse().ok()
}

struct OneMax;
impl FitnessFunction<Vec<bool>> for OneMax {
    fn evaluate(&self, g: &Vec<bool>) -> f64 {
        g.iter().filter(|&&b| b).count() as f64
    }
}

/// A deliberately *different* cheap fitness (weights later bits double), so
/// the inexact-screening test can show screening actually gates evaluations.
struct WeightedMax;
impl FitnessFunction<Vec<bool>> for WeightedMax {
    fn evaluate(&self, g: &Vec<bool>) -> f64 {
        g.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| 1.0 + i as f64 / g.len() as f64)
            .sum()
    }
}

struct BitFlip;
impl MutationOperator<Vec<bool>> for BitFlip {
    fn mutate(&self, g: &mut Vec<bool>, rng: &mut dyn RngCore) {
        let i = rng.gen_range(0..g.len());
        g[i] = !g[i];
    }
}

struct OnePoint;
impl CrossoverOperator<Vec<bool>> for OnePoint {
    fn crossover(
        &self,
        a: &Vec<bool>,
        b: &Vec<bool>,
        rng: &mut dyn RngCore,
    ) -> (Vec<bool>, Vec<bool>) {
        let cut = rng.gen_range(0..a.len().min(b.len()));
        let mut c = a.clone();
        let mut d = b.clone();
        c[cut..].copy_from_slice(&b[cut..]);
        d[cut..].copy_from_slice(&a[cut..]);
        (c, d)
    }
}

fn initial(pop: usize, len: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..pop)
        .map(|_| (0..len).map(|_| rng.gen_bool(0.3)).collect())
        .collect()
}

fn island_ga(threads: usize) -> IslandGa {
    IslandGa::new(
        GeneticAlgorithm::new(GaConfig {
            generations: 8,
            parallel: false,
            ..Default::default()
        }),
        IslandConfig {
            islands: 3,
            migration_interval: 2,
            migrants: 1,
            threads,
        },
    )
}

/// The tentpole determinism contract: the island fan-out width changes
/// wall-clock only, never results.
#[test]
fn island_results_are_thread_count_invariant() {
    let mut thread_set = vec![1, 2, 4];
    thread_set.extend(env_threads());
    let reference = island_ga(1).run(
        initial(12, 16, 3),
        &OneMax,
        &OnePoint,
        &BitFlip,
        None,
        ChaCha8Rng::seed_from_u64(7),
    );
    assert!(reference.evaluations > 0);
    for threads in thread_set {
        let got = island_ga(threads).run(
            initial(12, 16, 3),
            &OneMax,
            &OnePoint,
            &BitFlip,
            None,
            ChaCha8Rng::seed_from_u64(7),
        );
        assert_eq!(reference, got, "{threads} threads diverged from serial");
    }
}

/// A checkpoint captured at *every* generation boundary restores to a run
/// that finishes bit-identically to the uninterrupted one — the guarantee
/// the service engine's kill/resume path leans on.
#[test]
fn every_generation_boundary_resumes_bit_identically() {
    let engine = island_ga(1);
    let mut state = engine.init_state(
        initial(9, 12, 5),
        &OneMax,
        None,
        ChaCha8Rng::seed_from_u64(9),
    );
    let mut snapshots = vec![serde_json::to_string(&state).unwrap()];
    while engine.step(&mut state, &OneMax, &OnePoint, &BitFlip, None) {
        snapshots.push(serde_json::to_string(&state).unwrap());
    }
    let reference = engine.finish(state);
    assert!(
        snapshots.len() > 2,
        "expected several generation boundaries"
    );

    for (g, snapshot) in snapshots.iter().enumerate() {
        let mut state: IslandGaState<Vec<bool>> = serde_json::from_str(snapshot).unwrap();
        engine.validate_state(&state).unwrap();
        while engine.step(&mut state, &OneMax, &OnePoint, &BitFlip, None) {}
        assert!(engine.is_finished(&state));
        assert_eq!(
            reference,
            engine.finish(state),
            "resume from generation {g} diverged"
        );
    }
}

/// Restore validation rejects snapshots that do not match the job's
/// topology.
#[test]
fn restore_rejects_mismatched_island_counts() {
    let engine = island_ga(1);
    let good = engine.init_state(
        initial(9, 12, 5),
        &OneMax,
        None,
        ChaCha8Rng::seed_from_u64(9),
    );
    let mut wrong = good.clone();
    wrong.islands.pop();
    assert!(engine
        .validate_state(&wrong)
        .unwrap_err()
        .contains("islands"));
    let mut torn = good.clone();
    torn.islands[0].scores.pop();
    assert!(engine
        .validate_state(&torn)
        .unwrap_err()
        .contains("mismatch"));
    assert!(engine.validate_state(&good).is_ok());
}

/// When the surrogate *is* the real fitness, screening must not change who
/// is selected: the run is bit-identical to an unscreened one.
#[test]
fn exact_mode_surrogate_screening_changes_nothing() {
    let engine = island_ga(1);
    let unscreened = engine.run(
        initial(12, 16, 3),
        &OneMax,
        &OnePoint,
        &BitFlip,
        None,
        ChaCha8Rng::seed_from_u64(11),
    );
    let screen = SurrogateScreen {
        surrogate: &OneMax,
        survivor_fraction: 0.5,
    };
    let screened = engine.run(
        initial(12, 16, 3),
        &OneMax,
        &OnePoint,
        &BitFlip,
        Some(&screen),
        ChaCha8Rng::seed_from_u64(11),
    );
    assert_eq!(unscreened, screened);
}

/// With an inexact surrogate, rejected offspring keep the cheap score and
/// never pay the real fitness — the real-evaluation count drops.
#[test]
fn surrogate_screening_gates_real_evaluations() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    struct Counting(AtomicUsize);
    impl FitnessFunction<Vec<bool>> for Counting {
        fn evaluate(&self, g: &Vec<bool>) -> f64 {
            self.0.fetch_add(1, Ordering::Relaxed);
            OneMax.evaluate(g)
        }
    }
    let engine = island_ga(1);
    let unscreened_fitness = Counting(AtomicUsize::new(0));
    engine.run(
        initial(12, 16, 3),
        &unscreened_fitness,
        &OnePoint,
        &BitFlip,
        None,
        ChaCha8Rng::seed_from_u64(13),
    );
    let screened_fitness = Counting(AtomicUsize::new(0));
    let screen = SurrogateScreen {
        surrogate: &WeightedMax,
        survivor_fraction: 0.5,
    };
    engine.run(
        initial(12, 16, 3),
        &screened_fitness,
        &OnePoint,
        &BitFlip,
        Some(&screen),
        ChaCha8Rng::seed_from_u64(13),
    );
    let full = unscreened_fitness.0.load(Ordering::Relaxed);
    let gated = screened_fitness.0.load(Ordering::Relaxed);
    assert!(gated > 0);
    assert!(
        gated < full,
        "screening must cut real evaluations ({gated} vs {full})"
    );
}

/// Migration fires on the configured interval and propagates individuals:
/// a planted super-individual's fitness reaches the next island's state.
#[test]
fn migration_fires_on_interval_and_propagates() {
    let engine = island_ga(1);
    let mut population = initial(9, 12, 5);
    population[0] = vec![true; 12]; // planted optimum lands in island 0
    let mut state = engine.init_state(population, &OneMax, None, ChaCha8Rng::seed_from_u64(2));
    assert_eq!(state.migrations, 0);
    for _ in 0..4 {
        engine.step(&mut state, &OneMax, &OnePoint, &BitFlip, None);
    }
    assert_eq!(
        state.migrations, 2,
        "interval-2 topology must migrate twice in 4 generations"
    );
    // Elitism keeps the planted optimum alive in island 0; the ring must
    // have delivered a copy, so at least two islands now hold max fitness.
    let at_max = state
        .islands
        .iter()
        .filter(|isl: &&GaState<Vec<bool>>| isl.best_fitness >= 12.0)
        .count();
    assert!(at_max >= 2, "optimum must propagate over the ring");
}
