//! Experiment implementations: the E-series, one function per table (see
//! "The E-series" in `crates/bench/README.md`).
//!
//! Each function is pure computation returning a [`ResultTable`]; the `exp`
//! binary (`exp <id>`, e.g. `exp e12`) runs one of them with output
//! handling, and the Criterion benches time representative slices of them.

use crate::{
    experiment_suite_scale, experiment_threads, parallel_map, pct, peak_rss_mb, ResultTable, Scale,
};
use autolock::operators::{CrossoverKind, MutationKind};
use autolock::{AutoLock, AutoLockConfig, MultiObjectiveLockingFitness, ObjectiveKind};
use autolock_attacks::{
    KeyRecoveryAttack, MuxLinkAttack, MuxLinkConfig, RandomGuessAttack, SatAttack, SatAttackConfig,
    XorStructuralAttack,
};
use autolock_circuits::suite_circuit;
use autolock_evo::{Nsga2, Nsga2Config, SelectionMethod};
use autolock_locking::overhead::overhead_report;
use autolock_locking::{DMuxLocking, LockedNetlist, LockingScheme, XorLocking};
use autolock_netlist::Netlist;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Circuits used at each scale.
///
/// The locking density matters: with key length 32, circuits below ~400 gates
/// are so saturated with MUXes that even the baseline attack degrades, which
/// is not the regime the paper evaluates. `s880` (≈880 gates) is the smallest
/// member with ISCAS-like density for a 32-bit key.
pub fn circuits_for(scale: Scale) -> Vec<&'static str> {
    match scale {
        Scale::Quick => vec!["s880"],
        Scale::Full => vec!["s380", "s880", "s1660"],
    }
}

fn circuit(name: &str) -> Netlist {
    suite_circuit(name).unwrap_or_else(|| panic!("unknown suite circuit {name}"))
}

/// Locality radius used when AutoLock seeds its population on structured
/// (datapath) circuits: both wires of a seeded MUX pair lie within this many
/// undirected hops, so locked pairs land on realistic reconvergent nets
/// (see `AutoLockConfig::structured` and
/// `PairSelectionStrategy::Localized`).
pub const STRUCTURED_LOCK_RADIUS: usize = 4;

/// The independent evaluation attack: the same MuxLink pipeline, but freshly
/// retrained with seeds never used inside the GA loop.
fn evaluation_attack() -> MuxLinkAttack {
    MuxLinkAttack::new(MuxLinkConfig::default())
}

/// MuxLink accuracy of the evaluation attack on a locked netlist, averaged
/// over three retrained attacker instances fanned across the driver pool
/// (summed in fixed seed order, so the mean is reproducible).
fn evaluated_accuracy(locked: &LockedNetlist, seed: u64) -> f64 {
    let seeds: Vec<u64> = (0..3u64)
        .map(|s| seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(s + 1)))
        .collect();
    let accs = parallel_map(&seeds, |&s| {
        let mut rng = ChaCha8Rng::seed_from_u64(s);
        evaluation_attack().attack(locked, &mut rng).key_accuracy
    });
    accs.iter().sum::<f64>() / accs.len() as f64
}

/// AutoLock configuration used by the headline experiments at a given scale.
pub fn autolock_config(scale: Scale, key_len: usize, seed: u64) -> AutoLockConfig {
    match scale {
        Scale::Quick => AutoLockConfig {
            key_len,
            population_size: 20,
            generations: 60,
            attack_repeats: 4,
            seed,
            ..Default::default()
        },
        Scale::Full => AutoLockConfig {
            key_len,
            population_size: 24,
            generations: 100,
            attack_repeats: 4,
            seed,
            ..Default::default()
        },
    }
}

/// A reduced AutoLock configuration for the sweep experiments (E7, E9), where
/// many runs are compared against each other and absolute depth matters less.
pub fn autolock_config_small(key_len: usize, seed: u64) -> AutoLockConfig {
    AutoLockConfig {
        key_len,
        population_size: 12,
        generations: 20,
        attack_repeats: 2,
        seed,
        ..Default::default()
    }
}

/// E1 — the paper's headline claim ("First Insights"): AutoLock lowers MuxLink
/// key-prediction accuracy by tens of percentage points compared to D-MUX.
pub fn e1_autolock_vs_dmux(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E1",
        "MuxLink accuracy: D-MUX vs AutoLock (paper: ~25 pp drop)",
        &[
            "circuit",
            "key len",
            "D-MUX accuracy",
            "AutoLock accuracy (in-loop attacker)",
            "AutoLock accuracy (retrained attacker)",
            "drop, in-loop (pp)",
            "drop, retrained (pp)",
        ],
    );
    let key_lens: Vec<usize> = match scale {
        Scale::Quick => vec![32],
        Scale::Full => vec![32, 64],
    };
    // At full suite scale the headline comparison also covers a structured
    // (datapath) member: D-MUX stays the published random-insertion
    // baseline, while AutoLock seeds its population with locality-aware
    // pairs (`AutoLockConfig::structured`) so evolved MUX pairs sit on
    // realistic reconvergent nets.
    let mut targets: Vec<(String, bool)> = circuits_for(scale)
        .into_iter()
        .map(|n| (n.to_string(), false))
        .collect();
    if experiment_suite_scale(scale) == autolock_circuits::SuiteScale::Full {
        targets.push(("st1355".to_string(), true));
    }
    for (name, structured) in &targets {
        let original = circuit(name);
        for &k in &key_lens {
            // Average the baseline over three independent D-MUX lockings to
            // smooth out the variance of any single random locking.
            let mut dmux_acc = 0.0;
            for seed in 0..3u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(0xE1 + seed);
                let dmux = DMuxLocking::default().lock(&original, k, &mut rng).unwrap();
                dmux_acc += evaluated_accuracy(&dmux, 0xEAA + seed);
            }
            let dmux_acc = dmux_acc / 3.0;

            let mut config = autolock_config(scale, k, 0xE1);
            if *structured {
                config = config.structured(STRUCTURED_LOCK_RADIUS);
            }
            let result = AutoLock::new(config).run(&original).unwrap();
            let in_loop_acc = result.final_attack_accuracy;
            let retrained_acc = evaluated_accuracy(&result.locked, 0xEAA);

            table.push_row(vec![
                name.to_string(),
                k.to_string(),
                pct(dmux_acc),
                pct(in_loop_acc),
                pct(retrained_acc),
                format!("{:.1}", (dmux_acc - in_loop_acc) * 100.0),
                format!("{:.1}", (dmux_acc - retrained_acc) * 100.0),
            ]);
        }
    }
    table
}

/// E2 — GA convergence: best/mean attack accuracy per generation.
pub fn e2_convergence(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E2",
        "AutoLock convergence (attack accuracy per generation)",
        &[
            "generation",
            "best accuracy",
            "mean accuracy",
            "worst accuracy",
        ],
    );
    let original = circuit(circuits_for(scale)[0]);
    let key_len = 32;
    let result = AutoLock::new(autolock_config(scale, key_len, 0xE2))
        .run(&original)
        .unwrap();
    for rec in &result.history {
        table.push_row(vec![
            rec.generation.to_string(),
            pct(rec.best_attack_accuracy),
            pct(rec.mean_attack_accuracy),
            pct(rec.worst_attack_accuracy),
        ]);
    }
    table
}

/// E3 — key-length sweep.
pub fn e3_key_sweep(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E3",
        "Key-length sweep: D-MUX vs AutoLock accuracy and runtime",
        &[
            "key len",
            "D-MUX accuracy",
            "AutoLock accuracy",
            "drop (pp)",
            "AutoLock runtime (s)",
        ],
    );
    let original = circuit(circuits_for(scale)[0]);
    let key_lens: Vec<usize> = match scale {
        Scale::Quick => vec![16, 32, 64],
        Scale::Full => vec![8, 16, 32, 64, 128],
    };
    for &k in &key_lens {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE3);
        let dmux = DMuxLocking::default().lock(&original, k, &mut rng).unwrap();
        let dmux_acc = evaluated_accuracy(&dmux, 0xE3A);
        let result = AutoLock::new(autolock_config(scale, k, 0xE3))
            .run(&original)
            .unwrap();
        let auto_acc = evaluated_accuracy(&result.locked, 0xE3A);
        table.push_row(vec![
            k.to_string(),
            pct(dmux_acc),
            pct(auto_acc),
            format!("{:.1}", (dmux_acc - auto_acc) * 100.0),
            format!("{:.1}", result.runtime_ms as f64 / 1000.0),
        ]);
    }
    table
}

/// E4 — attack-vs-scheme matrix.
pub fn e4_attack_matrix(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E4",
        "Key-recovery accuracy: attacks (rows) vs schemes (columns)",
        &["attack", "XOR-RLL", "D-MUX", "AutoLock"],
    );
    let original = circuit(circuits_for(scale)[0]);
    let key_len = 32;
    let mut rng = ChaCha8Rng::seed_from_u64(0xE4);
    let xor = XorLocking::default()
        .lock(&original, key_len, &mut rng)
        .unwrap();
    let dmux = DMuxLocking::default()
        .lock(&original, key_len, &mut rng)
        .unwrap();
    let auto = AutoLock::new(autolock_config(scale, key_len, 0xE4))
        .run(&original)
        .unwrap()
        .locked;

    let attacks: Vec<Box<dyn KeyRecoveryAttack>> = vec![
        Box::new(RandomGuessAttack),
        Box::new(XorStructuralAttack),
        Box::new(MuxLinkAttack::new(MuxLinkConfig::locality_only())),
        Box::new(evaluation_attack()),
    ];
    for attack in &attacks {
        let mut row = vec![attack.name().to_string()];
        for locked in [&xor, &dmux, &auto] {
            let mut rng = ChaCha8Rng::seed_from_u64(0xE4A);
            row.push(pct(attack.attack(locked, &mut rng).key_accuracy));
        }
        table.push_row(row);
    }
    table
}

/// E5 — oracle-guided SAT attack across schemes and key lengths.
pub fn e5_sat_attack(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E5",
        "SAT attack: oracle queries (DIPs) and runtime per scheme",
        &[
            "circuit",
            "scheme",
            "key len",
            "success",
            "DIP iterations",
            "runtime (ms)",
        ],
    );
    let (circuits, key_lens): (Vec<&str>, Vec<usize>) = match scale {
        Scale::Quick => (vec!["c17", "s160"], vec![4, 8]),
        Scale::Full => (vec!["c17", "s160", "s380"], vec![4, 8, 16]),
    };
    let schemes: Vec<Box<dyn LockingScheme>> = vec![
        Box::new(XorLocking::default()),
        Box::new(DMuxLocking::default()),
    ];
    for name in &circuits {
        let original = circuit(name);
        for scheme in &schemes {
            for &k in &key_lens {
                let mut rng = ChaCha8Rng::seed_from_u64(0xE5);
                let Ok(locked) = scheme.lock(&original, k, &mut rng) else {
                    continue; // key longer than the circuit supports (e.g. c17)
                };
                let outcome = SatAttack::new(SatAttackConfig {
                    max_iterations: 500,
                    ..SatAttackConfig::default()
                })
                .attack(&locked, &original);
                table.push_row(vec![
                    name.to_string(),
                    scheme.name().to_string(),
                    k.to_string(),
                    outcome.success.to_string(),
                    outcome.iterations.to_string(),
                    outcome.runtime_ms.to_string(),
                ]);
            }
        }
        // AutoLock netlists are MUX-locked too; include one row per circuit.
        let k = key_lens[0].clamp(8, 16);
        if let Ok(result) = AutoLock::new(autolock_config(scale, k, 0xE5)).run(&original) {
            let outcome = SatAttack::new(SatAttackConfig {
                max_iterations: 500,
                ..SatAttackConfig::default()
            })
            .attack(&result.locked, &original);
            table.push_row(vec![
                name.to_string(),
                "autolock".to_string(),
                k.to_string(),
                outcome.success.to_string(),
                outcome.iterations.to_string(),
                outcome.runtime_ms.to_string(),
            ]);
        }
    }
    table
}

/// E6 — structural overhead (area / delay / switching proxies).
pub fn e6_overhead(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E6",
        "Overhead of locking: area, depth and switching-activity proxies",
        &[
            "circuit",
            "scheme",
            "key len",
            "area overhead",
            "depth overhead",
            "power overhead",
        ],
    );
    let key_lens: Vec<usize> = match scale {
        Scale::Quick => vec![16, 32],
        Scale::Full => vec![16, 32, 64],
    };
    for name in circuits_for(scale) {
        let original = circuit(name);
        for &k in &key_lens {
            let mut rng = ChaCha8Rng::seed_from_u64(0xE6);
            let entries: Vec<(String, LockedNetlist)> = vec![
                (
                    "xor-rll".into(),
                    XorLocking::default().lock(&original, k, &mut rng).unwrap(),
                ),
                (
                    "d-mux".into(),
                    DMuxLocking::default().lock(&original, k, &mut rng).unwrap(),
                ),
                (
                    "autolock".into(),
                    AutoLock::new(autolock_config(Scale::Quick, k, 0xE6))
                        .run(&original)
                        .unwrap()
                        .locked,
                ),
            ];
            for (scheme, locked) in &entries {
                let mut rng = ChaCha8Rng::seed_from_u64(0xE6A);
                let report = overhead_report(&original, locked, 8, &mut rng).unwrap();
                table.push_row(vec![
                    name.to_string(),
                    scheme.clone(),
                    k.to_string(),
                    pct(report.area_overhead_pct() / 100.0),
                    pct(report.delay_overhead_pct() / 100.0),
                    pct(report.power_overhead_pct() / 100.0),
                ]);
            }
        }
    }
    table
}

/// E7 — evolutionary-operator ablation (research-plan item on operator design).
pub fn e7_operator_ablation(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E7",
        "Operator ablation: final MuxLink accuracy per operator combination",
        &[
            "selection",
            "crossover",
            "mutation",
            "final accuracy",
            "best generation",
        ],
    );
    let original = circuit(circuits_for(scale)[0]);
    let key_len = 24;
    let selections: Vec<SelectionMethod> = match scale {
        Scale::Quick => vec![SelectionMethod::Tournament { size: 3 }],
        Scale::Full => vec![
            SelectionMethod::Tournament { size: 3 },
            SelectionMethod::Roulette,
            SelectionMethod::Rank,
        ],
    };
    let crossovers = [CrossoverKind::OnePoint, CrossoverKind::Uniform];
    let mutations = [
        MutationKind::KeyFlip,
        MutationKind::Relocate,
        MutationKind::Composite,
    ];
    for sel in &selections {
        for &cx in &crossovers {
            for &mu in &mutations {
                let mut cfg = autolock_config_small(key_len, 0xE7);
                cfg.selection = *sel;
                cfg.crossover_kind = cx;
                cfg.mutation_kind = mu;
                let result = AutoLock::new(cfg).run(&original).unwrap();
                table.push_row(vec![
                    sel.name().to_string(),
                    format!("{cx:?}"),
                    format!("{mu:?}"),
                    pct(result.final_attack_accuracy),
                    result.best_generation.to_string(),
                ]);
            }
        }
    }
    table
}

/// E8 — multi-objective optimization (research-plan item): Pareto front of
/// MuxLink accuracy vs area overhead.
pub fn e8_multi_objective(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E8",
        "NSGA-II Pareto front: MuxLink accuracy vs depth (delay) overhead",
        &["point", "MuxLink accuracy", "depth overhead", "key len"],
    );
    let original = Arc::new(circuit(circuits_for(scale)[0]));
    let key_len = 24;
    let (pop, gens) = match scale {
        Scale::Quick => (12, 10),
        Scale::Full => (20, 25),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0xE8);
    let initial: Vec<autolock::LockingGenotype> = (0..pop)
        .map(|_| autolock::random_genotype(&original, key_len, &mut rng).unwrap())
        .collect();
    let fitness = MultiObjectiveLockingFitness::new(
        original.clone(),
        MuxLinkConfig::fast(),
        SatAttackConfig {
            max_iterations: 100,
            ..SatAttackConfig::default()
        },
        vec![ObjectiveKind::MuxLinkAccuracy, ObjectiveKind::DepthOverhead],
        0xE8,
    );
    let crossover = autolock::operators::LocusCrossover::new(
        original.clone(),
        key_len,
        CrossoverKind::OnePoint,
    );
    let mutation =
        autolock::operators::LocusMutation::new(original.clone(), key_len, MutationKind::Composite);
    let result = Nsga2::new(Nsga2Config {
        generations: gens,
        parallel: true,
        ..Default::default()
    })
    .run(initial, &fitness, &crossover, &mutation, &mut rng);
    for (i, point) in result.front.iter().enumerate() {
        table.push_row(vec![
            i.to_string(),
            pct(point.objectives[0]),
            pct(point.objectives[1]),
            point.genotype.len().to_string(),
        ]);
    }
    table
}

/// E9 — GA hyper-parameter sensitivity: population size × mutation rate.
pub fn e9_sensitivity(scale: Scale) -> ResultTable {
    let mut table = ResultTable::new(
        "E9",
        "Hyper-parameter sensitivity: final accuracy per (population, mutation rate)",
        &[
            "population",
            "mutation rate",
            "final accuracy",
            "evaluations",
        ],
    );
    let original = circuit(circuits_for(scale)[0]);
    let key_len = 24;
    let pops: Vec<usize> = match scale {
        Scale::Quick => vec![6, 12],
        Scale::Full => vec![8, 16, 32],
    };
    let rates = [0.2, 0.6];
    for &pop in &pops {
        for &rate in &rates {
            let mut cfg = autolock_config_small(key_len, 0xE9);
            cfg.population_size = pop;
            cfg.mutation_rate = rate;
            let result = AutoLock::new(cfg).run(&original).unwrap();
            table.push_row(vec![
                pop.to_string(),
                format!("{rate:.1}"),
                pct(result.final_attack_accuracy),
                result.fitness_evaluations.to_string(),
            ]);
        }
    }
    table
}

/// E10 — MuxLink backend comparison: the seed's feature+MLP approximation vs
/// the faithful DGCNN (`autolock_gnn`) on the same locked circuits.
///
/// For every circuit, both backends attack the same D-MUX-locked netlist with
/// identical seeds; accuracy is averaged over three attacker seeds. The DGCNN
/// is the stronger, paper-faithful adversary; this table quantifies the gap
/// the `gnn` crate closes.
pub fn e10_backend_comparison(scale: Scale) -> ResultTable {
    use autolock_circuits::synth_circuit;
    use std::time::Instant;

    let mut table = ResultTable::new(
        "E10",
        "MuxLink backends: enclosing-subgraph MLP vs DGCNN (key accuracy, mean of 3 seeds)",
        &["circuit", "backend", "key accuracy", "runtime ms"],
    );
    let key_len = match scale {
        Scale::Quick => 16,
        Scale::Full => 32,
    };
    let mut targets: Vec<(String, Netlist)> = vec![(
        "synth600".to_string(),
        synth_circuit("synth600", 24, 10, 600, 0xE10),
    )];
    for name in circuits_for(scale) {
        targets.push((name.to_string(), circuit(name)));
    }
    // At full suite scale the backend comparison also covers a structured
    // (datapath-shaped) member — the regime the DGCNN was built for.
    if experiment_suite_scale(scale) == autolock_circuits::SuiteScale::Full {
        targets.push(("st2670".to_string(), circuit("st2670")));
    }
    for (name, original) in &targets {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE10);
        let locked = DMuxLocking::default()
            .lock(original, key_len, &mut rng)
            .unwrap();
        for (backend, config) in [
            ("mlp", MuxLinkConfig::default()),
            ("dgcnn", MuxLinkConfig::gnn()),
            // DGCNN with the paper's percentile rule for SortPooling k
            // instead of the fixed k = 10.
            (
                "dgcnn-adaptive-k",
                MuxLinkConfig::gnn().with_adaptive_k(0.6),
            ),
        ] {
            // Runtime is wall clock per attack, timed inside the seed fan-out;
            // AUTOLOCK_THREADS=1 runs every attack fully serial (the nesting
            // rule on `pooled_map`), the cleanest runtime column.
            let attack = MuxLinkAttack::new(config);
            let seeds: Vec<u64> = (0..3u64).map(|s| 0xE10A + s).collect();
            let runs = parallel_map(&seeds, |&s| {
                let mut rng = ChaCha8Rng::seed_from_u64(s);
                let start = Instant::now();
                let accuracy = attack.attack(&locked, &mut rng).key_accuracy;
                (accuracy, start.elapsed().as_millis())
            });
            table.push_row(vec![
                name.clone(),
                backend.to_string(),
                pct(runs.iter().map(|r| r.0).sum::<f64>() / 3.0),
                format!("{}", runs.iter().map(|r| r.1).sum::<u128>() / 3),
            ]);
        }
    }
    table
}

/// E11 — GNN-targeted evolution: AutoLock evolves a locking **against the
/// DGCNN adversary itself** (batch-parallel training, adaptive percentile-k
/// SortPooling), closing the loop that E10 only measured on fixed lockings.
///
/// The in-loop fitness oracle is `MuxLinkConfig::gnn_fast()` with adaptive
/// `k`; the table reports the GNN's accuracy on the plain D-MUX baseline
/// (the initial population) vs the evolved locking, plus the evolution cost.
pub fn e11_gnn_adversary_evolution(scale: Scale) -> ResultTable {
    use autolock_circuits::synth_circuit;

    let mut table = ResultTable::new(
        "E11",
        "AutoLock vs the DGCNN adversary (in-loop GNN fitness, adaptive sortpool-k)",
        &[
            "circuit",
            "key len",
            "D-MUX accuracy (GNN)",
            "evolved accuracy (GNN)",
            "drop (pp)",
            "generations",
            "fitness evals",
            "runtime ms",
        ],
    );
    // The GNN fitness oracle is ~an order of magnitude costlier than the MLP
    // one, so E11 runs smaller populations than the E1-series.
    let (mut targets, key_len, population_size, generations): (Vec<(String, Netlist)>, _, _, _) =
        match scale {
            Scale::Quick => (
                vec![(
                    "synth300".to_string(),
                    synth_circuit("synth300", 16, 8, 300, 0xE11),
                )],
                12,
                6,
                3,
            ),
            Scale::Full => (
                circuits_for(scale)
                    .into_iter()
                    .map(|name| (name.to_string(), circuit(name)))
                    .collect(),
                24,
                10,
                12,
            ),
        };
    // At full suite scale, evolve against the GNN on a structured member
    // too (the smallest one — the GA × GNN loop dominates the runtime).
    if experiment_suite_scale(scale) == autolock_circuits::SuiteScale::Full {
        targets.push(("st1355".to_string(), circuit("st1355")));
    }
    // Per-circuit runs are independent, so they fan across the driver pool
    // (rows collected in fixed target order).
    let rows = parallel_map(&targets, |(name, original)| {
        let mut config = AutoLockConfig {
            key_len,
            population_size,
            generations,
            attack: MuxLinkConfig::gnn_fast().with_adaptive_k(0.6),
            attack_repeats: 1,
            seed: 0xE11,
            ..Default::default()
        };
        // Structured members evolve from locality-aware seed lockings;
        // random synthetics keep the paper's uniform insertion.
        if name.starts_with("st") || name.starts_with("xl") {
            config = config.structured(STRUCTURED_LOCK_RADIUS);
        }
        let result = AutoLock::new(config).run(original).expect("E11 run failed");
        vec![
            name.clone(),
            key_len.to_string(),
            pct(result.baseline_attack_accuracy),
            pct(result.final_attack_accuracy),
            format!("{:.1}", result.accuracy_drop_pp()),
            result.history.len().saturating_sub(1).to_string(),
            result.fitness_evaluations.to_string(),
            result.runtime_ms.to_string(),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// E12 — the paper's headline regime at last: MuxLink key accuracy as a
/// function of **circuit size × locking density** on the structured
/// (ISCAS-shaped) suite tier.
///
/// For every structured member and density, a D-MUX locking with
/// `key_len = density × gates` is attacked by the retrained MLP-backend
/// MuxLink (the evaluation attack, never trained in any GA loop). One
/// attack instance is shared across the retrained repeats of a cell, so the
/// LRU subgraph cache ([`MuxLinkConfig::subgraph_cache`]) serves repeated
/// candidate neighbourhoods — the table reports the hit rate alongside the
/// accuracy. Cells fan across the driver pool (`AUTOLOCK_THREADS`), rows
/// are emitted in fixed (member, density) order.
///
/// Row format (documented in `crates/bench/README.md`): `circuit`, `gates`,
/// `density` (fraction of gates carrying a key bit), `key len`, `key
/// accuracy` (mean over the repeats), `mean runtime ms` (per attack, wall
/// clock inside the fan-out), `cache hit rate` (hits / lookups across the
/// cell's repeats).
pub fn e12_size_density_sweep(scale: Scale) -> ResultTable {
    use std::time::Instant;

    let mut table = ResultTable::new(
        "E12",
        "MuxLink accuracy vs circuit size × locking density (structured suite)",
        &[
            "circuit",
            "gates",
            "density",
            "key len",
            "key accuracy",
            "mean runtime ms",
            "cache hit rate",
        ],
    );
    let members = autolock_circuits::structured_entries(experiment_suite_scale(scale));
    // Two retrained repeats even at quick scale: the second repeat scores
    // the identical candidate set, so the subgraph cache column reflects
    // real reuse.
    let (densities, repeats): (Vec<f64>, u64) = match scale {
        Scale::Quick => (vec![0.02, 0.05], 2),
        Scale::Full => (vec![0.01, 0.02, 0.05], 3),
    };
    let cells: Vec<(String, usize, f64)> = members
        .iter()
        .flat_map(|m| densities.iter().map(|&d| (m.name.clone(), m.gates, d)))
        .collect();
    let rows = parallel_map(&cells, |(name, gates, density)| {
        let original = circuit(name);
        let key_len = ((*gates as f64 * density).round() as usize).max(8);
        let mut rng = ChaCha8Rng::seed_from_u64(0xE12);
        let locked = DMuxLocking::default()
            .lock(&original, key_len, &mut rng)
            .expect("structured members have enough lockable wires");
        // One shared instance per cell: repeats reuse the subgraph cache.
        let attack = MuxLinkAttack::new(MuxLinkConfig::fast());
        let mut accuracy = 0.0;
        let mut runtime_ms = 0u128;
        for seed in 0..repeats {
            let mut rng = ChaCha8Rng::seed_from_u64(0xE12A + seed);
            let start = Instant::now();
            accuracy += attack.attack(&locked, &mut rng).key_accuracy;
            runtime_ms += start.elapsed().as_millis();
        }
        let stats = attack.cache_stats();
        let lookups = stats.hits + stats.misses;
        vec![
            name.clone(),
            gates.to_string(),
            format!("{density:.2}"),
            key_len.to_string(),
            pct(accuracy / repeats as f64),
            format!("{}", runtime_ms / repeats as u128),
            pct(if lookups == 0 {
                0.0
            } else {
                stats.hits as f64 / lookups as f64
            }),
        ]
    });
    for row in rows {
        table.push_row(row);
    }
    table
}

/// E13 — the *DGCNN* backend on the structured tier: key accuracy vs
/// circuit size, the sweep the streamed training pipeline exists for.
///
/// E12 already sweeps size × density with the MLP backend; E13 runs the
/// paper-faithful DGCNN (`MuxLinkConfig::gnn_fast`, streamed training
/// through the subgraph cache) over the structured members — up to `st7552`
/// at quick scale, plus `xl11k` when the suite tier is Full. Each cell
/// D-MUX-locks the member at ~1% density and reports the GNN's key
/// accuracy, per-attack wall clock, subgraph-cache hit rate, and the
/// process's **peak RSS** so the streamed pipeline's memory behaviour is a
/// committed number rather than a claim (`peak RSS MB` is process-wide and
/// monotone across rows; the last row records the run's peak).
///
/// Row format (documented in `crates/bench/README.md`): `circuit`, `gates`,
/// `key len`, `key accuracy` (mean over the scale's repeats), `mean runtime
/// ms`, `cache hit rate`, `peak RSS MB`.
pub fn e13_gnn_structured_sweep(scale: Scale) -> ResultTable {
    use std::time::Instant;

    let mut table = ResultTable::new(
        "E13",
        "DGCNN-backend MuxLink accuracy vs circuit size (structured suite, streamed training)",
        &[
            "circuit",
            "gates",
            "key len",
            "key accuracy",
            "mean runtime ms",
            "cache hit rate",
            "peak RSS MB",
        ],
    );
    let members = autolock_circuits::structured_entries(experiment_suite_scale(scale));
    // Quick scale spans the tier's size range with three members (the GNN
    // attack is ~an order of magnitude costlier than the MLP's, and the
    // largest quick member is the acceptance gate) — plus `xl11k` whenever
    // the *suite* tier is Full (a dispatch-triggered Full sweep adds the xl
    // member without also paying Full experiment depth). Full experiment
    // scale runs everything the suite tier offers, twice.
    let (names, repeats): (Vec<String>, u64) = match scale {
        Scale::Quick => (
            ["st1355", "st3540", "st7552", "xl11k"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            1,
        ),
        Scale::Full => (members.iter().map(|m| m.name.clone()).collect(), 2),
    };
    let cells: Vec<(String, usize)> = members
        .iter()
        .filter(|m| names.contains(&m.name))
        .map(|m| (m.name.clone(), m.gates))
        .collect();
    // Cells run **serially**, unlike E12: the peak-RSS column only means
    // "the largest footprint any cell needed so far" if no other cell is
    // training concurrently when a row samples VmHWM. The machine is still
    // used — each attack parallelizes internally (`AUTOLOCK_THREADS`
    // reaches `MuxLinkConfig::threads` directly here; `0` = all cores).
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|(name, gates)| {
            let original = circuit(name);
            let key_len = ((*gates as f64 * 0.01).round() as usize).max(8);
            let mut rng = ChaCha8Rng::seed_from_u64(0xE13);
            let locked = DMuxLocking::default()
                .lock(&original, key_len, &mut rng)
                .expect("structured members have enough lockable wires");
            // One shared instance per cell: repeats (and streamed training
            // epochs) reuse the subgraph cache.
            let attack =
                MuxLinkAttack::new(MuxLinkConfig::gnn_fast().with_threads(experiment_threads()));
            let mut accuracy = 0.0;
            let mut runtime_ms = 0u128;
            for seed in 0..repeats {
                let mut rng = ChaCha8Rng::seed_from_u64(0xE13A + seed);
                let start = Instant::now();
                accuracy += attack.attack(&locked, &mut rng).key_accuracy;
                runtime_ms += start.elapsed().as_millis();
            }
            let stats = attack.cache_stats();
            let lookups = stats.hits + stats.misses;
            vec![
                name.clone(),
                gates.to_string(),
                key_len.to_string(),
                pct(accuracy / repeats as f64),
                format!("{}", runtime_ms / repeats as u128),
                pct(if lookups == 0 {
                    0.0
                } else {
                    stats.hits as f64 / lookups as f64
                }),
                peak_rss_mb().map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.0}")),
            ]
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    table
}

/// E14 — island-model evolution at the `xl` tier, driven end-to-end through
/// the resumable job engine.
///
/// One [`autolock_service::JobKind::EvolveIslands`] job locks the target
/// (quick: a small synthetic; full: `xl11k`, the suite's largest member)
/// and evolves it with ring-migrating islands, surrogate screening (the
/// cheap MLP attack ranks each generation; only the top half pay the
/// DGCNN-backend fitness) and the shared fingerprint-keyed fitness cache.
/// The engine checkpoints every generation under `{id}.iga.json` through
/// the unified `Resumable` path.
///
/// Quick mode **self-gates** the PR's acceptance criteria: the run must
/// apply at least one migration round and score a nonzero fitness-cache
/// hit rate, and a second engine seeded with a genuine mid-run checkpoint
/// must resume to a byte-identical `rows.jsonl` (the `resume check`
/// column). Full mode skips the duplicate run (`-`).
///
/// Row format (documented in `crates/bench/README.md`): `circuit`,
/// `key len`, `islands`, `generations`, `migrations`, `key accuracy`,
/// `cache hit rate`, `surrogate rejected`, `resume check`.
pub fn e14_island_evolution(scale: Scale) -> ResultTable {
    use autolock::EvolutionJob;
    use autolock_circuits::synth_circuit;
    use autolock_evo::Resumable;
    use autolock_netlist::write_bench;
    use autolock_service::{EngineConfig, JobEngine, JobKind, JobSpec, JobStatus};

    let mut table = ResultTable::new(
        "E14",
        "Island-model evolution through the resumable job engine (surrogate-screened DGCNN fitness)",
        &[
            "circuit",
            "key len",
            "islands",
            "generations",
            "migrations",
            "key accuracy",
            "cache hit rate",
            "surrogate rejected",
            "resume check",
        ],
    );
    let (name, original, key_len, population_size, generations, islands, interval, migrants) =
        match scale {
            Scale::Quick => (
                "synth240",
                synth_circuit("synth240", 12, 6, 240, 0xE14),
                6usize,
                6usize,
                2usize,
                2usize,
                1usize,
                1usize,
            ),
            Scale::Full => ("xl11k", circuit("xl11k"), 32, 12, 4, 4, 2, 2),
        };
    let spec = JobSpec {
        id: format!("{name}.evolve"),
        circuit: name.to_string(),
        source: write_bench(&original),
        seed: 0xE14,
        sequential: Default::default(),
        kind: JobKind::EvolveIslands {
            key_len,
            population_size,
            generations,
            islands,
            migration_interval: interval,
            migrants,
            surrogate: true,
        },
    };

    // Counter deltas around the engine run; reads are non-destructive, so
    // the ObsRun manifest still drains the totals at process exit.
    let read = |name: &'static str| autolock_obs::counter(name).value();
    let before = (
        read("autolock.fitness_cache.hits"),
        read("autolock.fitness_cache.misses"),
        read("evo.migrations"),
        read("evo.surrogate.rejected"),
        read("service.jobs_completed"),
    );
    let run_dir = crate::results_dir().join("e14-service");
    let engine = JobEngine::new(EngineConfig::rooted(&run_dir, experiment_threads()))
        .expect("E14 engine opens");
    let rows = engine
        .run(std::slice::from_ref(&spec))
        .expect("E14 batch runs");
    let row = rows.first().expect("one row per job");
    assert_eq!(row.status, JobStatus::Ok, "E14 job failed: {:?}", row.error);
    let hits = read("autolock.fitness_cache.hits") - before.0;
    let misses = read("autolock.fitness_cache.misses") - before.1;
    let migrations = read("evo.migrations") - before.2;
    let rejected = read("evo.surrogate.rejected") - before.3;
    let completed = read("service.jobs_completed") > before.4;
    // The acceptance gates only apply when the job actually evolved in this
    // process — a re-run against an existing results dir resumes the
    // finished row and moves no counters.
    if scale == Scale::Quick && completed {
        assert!(migrations >= 1, "quick E14 must apply a migration round");
        assert!(hits > 0, "quick E14 must score fitness-cache hits");
    }

    // Kill/resume gate: seed a second engine with a genuine generation-1
    // checkpoint (built through the same `EvolutionJob` the engine runs)
    // and require a byte-identical row stream.
    let resume_check = if scale == Scale::Quick {
        let resume_dir = crate::results_dir().join("e14-service-resume");
        let _ = std::fs::remove_dir_all(&resume_dir);
        let engine_b = JobEngine::new(EngineConfig::rooted(&resume_dir, experiment_threads()))
            .expect("E14 resume engine opens");
        let config = spec.evolution_config().expect("E14 spec is an evolve job");
        let netlist = spec.ingest().expect("E14 source parses").netlist;
        let job = EvolutionJob::new(&config, &netlist).expect("E14 config is valid");
        let mut state = job.init_state();
        assert!(
            job.step(&mut state),
            "quick E14 has more than one generation"
        );
        let ckpt = serde_json::to_string(&job.checkpoint(&state)).expect("checkpoint serializes");
        engine_b
            .store()
            .write(
                &JobEngine::island_checkpoint_name(&spec.id),
                ckpt.as_bytes(),
            )
            .expect("checkpoint seeds");
        let resumes_before = read("service.evolve_resumes");
        engine_b
            .run(std::slice::from_ref(&spec))
            .expect("E14 resumed batch runs");
        assert!(
            read("service.evolve_resumes") > resumes_before,
            "the resumed engine must pick up the seeded checkpoint"
        );
        let reference = std::fs::read(run_dir.join("rows.jsonl")).expect("reference rows");
        let resumed = std::fs::read(resume_dir.join("rows.jsonl")).expect("resumed rows");
        assert_eq!(
            reference, resumed,
            "resumed E14 row stream must be byte-identical"
        );
        "identical"
    } else {
        "-"
    };

    let lookups = hits + misses;
    table.push_row(vec![
        name.to_string(),
        key_len.to_string(),
        islands.to_string(),
        row.iterations.to_string(),
        migrations.to_string(),
        row.key_accuracy.map_or_else(|| "n/a".into(), pct),
        pct(if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }),
        rejected.to_string(),
        resume_check.to_string(),
    ]);
    table
}

/// E15 — sequential-circuit ingestion through the unified front door.
///
/// Writes a mixed-format directory — a deterministic **sequential** ASCII
/// AIGER circuit ([`autolock_circuits::synth_sequential`] serialized with
/// [`autolock_netlist::ingest::write_aag_seq`]) next to a combinational
/// `.bench` control — then scans it with
/// [`autolock_service::jobs_from_dir`] and runs the SAT + MuxLink attacks
/// through the job engine. The sequential source fans out into its two
/// attack targets: the register **cut** (`{stem}.cut`) and the 2-frame
/// **unrolling** (`{stem}.u2`), extending the E12/E13 scenario tables to
/// registered circuits.
///
/// Quick mode **self-gates** the PR's acceptance criteria: both sequential
/// variants must produce rows, the SAT attack must reach a provably
/// correct key (nonzero key recovery) on at least one variant, and a
/// second engine run in a fresh directory must produce a byte-identical
/// `rows.jsonl` (the determinism column). Full mode skips the duplicate
/// run (`-`).
///
/// Row format (documented in `crates/bench/README.md`): `job`, `format`,
/// `variant`, `attack`, `status`, `key len`, `success`, `key accuracy`,
/// `iterations`.
pub fn e15_sequential_ingestion(scale: Scale) -> ResultTable {
    use autolock_circuits::{synth_circuit, synth_sequential};
    use autolock_netlist::ingest::write_aag_seq;
    use autolock_netlist::write_bench;
    use autolock_service::{
        jobs_from_dir, DirJobConfig, DirJobKinds, EngineConfig, JobEngine, JobStatus, LockSpec,
    };

    let mut table = ResultTable::new(
        "E15",
        "Sequential-circuit ingestion: SAT + MuxLink on register-cut and unrolled AIGER variants",
        &[
            "job",
            "format",
            "variant",
            "attack",
            "status",
            "key len",
            "success",
            "key accuracy",
            "iterations",
            "determinism",
        ],
    );
    let (seq_name, seq, bench_name, bench_nl, key_len) = match scale {
        Scale::Quick => (
            "seq240",
            synth_sequential("seq240", 10, 4, 240, 0xE15),
            "comb160",
            synth_circuit("comb160", 10, 5, 160, 0x00E1_5002),
            8usize,
        ),
        Scale::Full => (
            "seq900",
            synth_sequential("seq900", 16, 8, 900, 0xE15),
            "comb540",
            synth_circuit("comb540", 16, 8, 540, 0x00E1_5002),
            16,
        ),
    };
    let circuits_dir = crate::results_dir().join("e15-circuits");
    std::fs::create_dir_all(&circuits_dir).expect("E15 circuits dir");
    std::fs::write(
        circuits_dir.join(format!("{seq_name}.aag")),
        write_aag_seq(&seq).expect("sequential demo serializes"),
    )
    .expect("E15 .aag writes");
    std::fs::write(
        circuits_dir.join(format!("{bench_name}.bench")),
        write_bench(&bench_nl),
    )
    .expect("E15 .bench writes");

    let config = DirJobConfig {
        lock: LockSpec::DMux { key_len },
        seed: 0xE15,
        max_propagations_per_solve: None,
        max_iterations: 2000,
        kinds: DirJobKinds {
            sat: true,
            muxlink: true,
            evolve: false,
        },
        evolve_population: 4,
        evolve_generations: 2,
        evolve_islands: 1,
        unroll_frames: 2,
    };
    let jobs = jobs_from_dir(&circuits_dir, &config).expect("E15 job scan");
    let run = |dir: &std::path::Path| {
        let engine = JobEngine::new(EngineConfig::rooted(dir, experiment_threads()))
            .expect("E15 engine opens");
        engine.run(&jobs).expect("E15 batch runs")
    };
    let run_dir = crate::results_dir().join("e15-service");
    let rows = run(&run_dir);

    let cut_base = format!("{seq_name}.cut");
    let unrolled_base = format!("{seq_name}.u2");
    let row_of = |id: &str| {
        rows.iter()
            .find(|r| r.job_id == id)
            .unwrap_or_else(|| panic!("E15 row {id} missing"))
    };
    let cut_sat = row_of(&cut_base);
    let unrolled_sat = row_of(&unrolled_base);
    assert_eq!(
        cut_sat.format, "aiger",
        "cut variant must record its format"
    );
    assert_eq!(row_of(bench_name).format, "bench");
    if scale == Scale::Quick {
        assert!(
            cut_sat.success || unrolled_sat.success,
            "E15 must provably recover the key on at least one sequential variant \
             (cut: {:?}, unrolled: {:?})",
            cut_sat.error,
            unrolled_sat.error
        );
    }

    // Determinism gate: a second engine in a fresh directory must produce a
    // byte-identical row stream (covers ingestion, job fan-out and the
    // attacks themselves).
    let determinism = if scale == Scale::Quick {
        let rerun_dir = crate::results_dir().join("e15-service-rerun");
        let _ = std::fs::remove_dir_all(&rerun_dir);
        run(&rerun_dir);
        let reference = std::fs::read(run_dir.join("rows.jsonl")).expect("reference rows");
        let rerun = std::fs::read(rerun_dir.join("rows.jsonl")).expect("rerun rows");
        assert_eq!(reference, rerun, "E15 reruns must be byte-identical");
        "identical"
    } else {
        "-"
    };

    for row in &rows {
        let variant = if row.job_id.contains(".cut") {
            "cut"
        } else if row.job_id.contains(".u2") {
            "unrolled(2)"
        } else {
            "-"
        };
        let status = match row.status {
            JobStatus::Ok => "ok",
            JobStatus::Timeout => "timeout",
            JobStatus::Error => "error",
        };
        table.push_row(vec![
            row.job_id.clone(),
            row.format.clone(),
            variant.to_string(),
            row.attack.clone(),
            status.to_string(),
            row.key_len.to_string(),
            row.success.to_string(),
            row.key_accuracy.map_or_else(|| "n/a".into(), pct),
            row.iterations.to_string(),
            determinism.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuits_lists_are_non_empty_and_known() {
        for scale in [Scale::Quick, Scale::Full] {
            let list = circuits_for(scale);
            assert!(!list.is_empty());
            for name in list {
                assert!(suite_circuit(name).is_some(), "{name} missing from suite");
            }
        }
    }

    #[test]
    fn autolock_config_scales() {
        let quick = autolock_config(Scale::Quick, 16, 1);
        let full = autolock_config(Scale::Full, 16, 1);
        assert!(full.generations > quick.generations);
        assert!(full.population_size > quick.population_size);
        assert_eq!(quick.key_len, 16);
    }
}
