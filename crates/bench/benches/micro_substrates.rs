//! Micro-benchmarks of the substrates, B1–B4 below:
//! netlist parsing/simulation, SAT solving, enclosing-subgraph feature
//! extraction and one GA generation step.

use autolock_attacks::{LinkFeatureConfig, LinkFeatureExtractor, LinkView};
use autolock_circuits::{suite_circuit, synth_circuit};
use autolock_evo::{
    CrossoverOperator, FitnessFunction, GaConfig, GeneticAlgorithm, MutationOperator,
};
use autolock_locking::{DMuxLocking, LockingScheme};
use autolock_netlist::ingest::{parse_auto, IngestOptions};
use autolock_netlist::{sim, topo, write_bench};
use autolock_satsolver::{CircuitEncoder, Lit, Solver};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

/// B1 — netlist substrate: `.bench` parsing, writing and 64-pattern
/// bit-parallel simulation of the s880 suite circuit.
fn bench_netlist(c: &mut Criterion) {
    let nl = suite_circuit("s880").expect("suite circuit");
    let text = write_bench(&nl);
    let mut group = c.benchmark_group("B1_netlist");
    let ingest_opts = IngestOptions::default();
    group.bench_function("parse_s880", |b| {
        b.iter(|| parse_auto("s880", black_box(&text), &ingest_opts).unwrap())
    });
    group.bench_function("write_s880", |b| b.iter(|| write_bench(black_box(&nl))));
    group.bench_function("topo_order_s880", |b| {
        b.iter(|| topo::topological_order(black_box(&nl)).unwrap())
    });
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let pi: Vec<u64> = (0..nl.num_inputs()).map(|_| rng.gen()).collect();
    group.bench_function("simulate_64_patterns_s880", |b| {
        b.iter(|| sim::simulate(black_box(&nl), black_box(&pi), &[], 64).unwrap())
    });
    group.finish();
}

/// B2 — SAT solver: random 3-SAT near the phase transition and a c17 miter.
fn bench_satsolver(c: &mut Criterion) {
    let mut group = c.benchmark_group("B2_satsolver");
    group.bench_function("random_3sat_60vars", |b| {
        b.iter_batched(
            || {
                let mut rng = ChaCha8Rng::seed_from_u64(7);
                let num_vars = 60;
                let clauses: Vec<Vec<(u32, bool)>> = (0..250)
                    .map(|_| {
                        (0..3)
                            .map(|_| (rng.gen_range(0..num_vars), rng.gen()))
                            .collect()
                    })
                    .collect();
                clauses
            },
            |clauses| {
                let mut solver = Solver::new();
                solver.reserve_vars(60);
                for clause in &clauses {
                    let lits: Vec<Lit> = clause
                        .iter()
                        .map(|&(v, pos)| Lit::new(autolock_satsolver::Var(v), pos))
                        .collect();
                    solver.add_clause(&lits);
                }
                black_box(solver.solve())
            },
            BatchSize::SmallInput,
        )
    });
    let c17 = suite_circuit("c17").unwrap();
    group.bench_function("encode_and_solve_c17_miter", |b| {
        b.iter(|| {
            let mut solver = Solver::new();
            let a = CircuitEncoder::encode(&mut solver, &c17);
            let bb = CircuitEncoder::encode(&mut solver, &c17);
            for pi in c17.inputs() {
                a.assert_equal(&mut solver, pi, &bb, pi);
            }
            // Force outputs to differ: UNSAT for identical circuits.
            let o = c17.outputs()[0];
            solver.add_clause(&[a.lit(o, true), bb.lit(o, true)]);
            solver.add_clause(&[!a.lit(o, true), !bb.lit(o, true)]);
            black_box(solver.solve())
        })
    });
    group.finish();
}

/// B3 — link-feature extraction over all key-MUX candidates of a D-MUX-locked
/// netlist (the inner loop of the MuxLink attack and of every fitness call).
fn bench_feature_extraction(c: &mut Criterion) {
    let original = synth_circuit("bfeat", 24, 12, 400, 5);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let locked = DMuxLocking::default()
        .lock(&original, 32, &mut rng)
        .unwrap();
    let view = LinkView::new(locked.netlist()).expect("a D-MUX lock has candidates");
    let extractor = LinkFeatureExtractor::new(LinkFeatureConfig::default());
    c.bench_function("B3_extract_features_64_candidates", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for cand in view.candidates() {
                let f = extractor.extract(&view, cand.cand_key0, cand.sink, false);
                acc += f.iter().sum::<f64>();
            }
            black_box(acc)
        })
    });
}

/// B4 — one GA generation step on a synthetic OneMax-style problem (isolates
/// the evolutionary engine from the attack cost).
fn bench_ga_generation(c: &mut Criterion) {
    struct OneMax;
    impl FitnessFunction<Vec<bool>> for OneMax {
        fn evaluate(&self, g: &Vec<bool>) -> f64 {
            g.iter().filter(|&&b| b).count() as f64
        }
    }
    struct Uniform;
    impl CrossoverOperator<Vec<bool>> for Uniform {
        fn crossover(
            &self,
            a: &Vec<bool>,
            b: &Vec<bool>,
            rng: &mut dyn RngCore,
        ) -> (Vec<bool>, Vec<bool>) {
            let mut c = a.clone();
            let mut d = b.clone();
            for i in 0..a.len() {
                if rng.gen_bool(0.5) {
                    c[i] = b[i];
                    d[i] = a[i];
                }
            }
            (c, d)
        }
    }
    struct Flip;
    impl MutationOperator<Vec<bool>> for Flip {
        fn mutate(&self, g: &mut Vec<bool>, rng: &mut dyn RngCore) {
            let i = rng.gen_range(0..g.len());
            g[i] = !g[i];
        }
    }
    c.bench_function("B4_ga_20_generations_onemax", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let initial: Vec<Vec<bool>> = (0..32)
                .map(|_| (0..64).map(|_| rng.gen_bool(0.3)).collect())
                .collect();
            let result = GeneticAlgorithm::new(GaConfig {
                generations: 20,
                parallel: false,
                ..Default::default()
            })
            .run(initial, &OneMax, &Uniform, &Flip, &mut rng);
            black_box(result.best_fitness)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_netlist, bench_satsolver, bench_feature_extraction, bench_ga_generation
}
criterion_main!(benches);
