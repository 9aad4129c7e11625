//! Runs one experiment of the E-series by id, prints its table and writes
//! `<results>/<id>.json`.
//!
//! Run with `cargo run --release -p autolock_bench --bin exp -- e12`; an
//! unknown id prints the list of experiments and exits with status 2.
//! Set `AUTOLOCK_SCALE=full` for the paper-sized (slower) version.

use autolock_bench::experiments::*;
use autolock_bench::{experiment_scale, results_dir, ObsRun, ResultTable, Scale};

/// An experiment's driver.
type Driver = fn(Scale) -> ResultTable;

/// Every experiment: number, title and driver. The id is `e<number>`.
const EXPERIMENTS: [(u64, &str, Driver); 15] = [
    (
        1,
        "MuxLink accuracy, D-MUX vs AutoLock (headline claim)",
        e1_autolock_vs_dmux,
    ),
    (2, "GA convergence curve", e2_convergence),
    (3, "key-length sweep", e3_key_sweep),
    (4, "attack-vs-scheme accuracy matrix", e4_attack_matrix),
    (5, "oracle-guided SAT attack comparison", e5_sat_attack),
    (6, "area/delay/power overhead", e6_overhead),
    (7, "evolutionary operator ablation", e7_operator_ablation),
    (
        8,
        "NSGA-II multi-objective Pareto front",
        e8_multi_objective,
    ),
    (9, "GA hyper-parameter sensitivity", e9_sensitivity),
    (10, "MuxLink backend comparison", e10_backend_comparison),
    (11, "GNN-targeted evolution", e11_gnn_adversary_evolution),
    (12, "size x density sweep", e12_size_density_sweep),
    (
        13,
        "GNN-backend structured-tier sweep",
        e13_gnn_structured_sweep,
    ),
    (14, "island-model evolution", e14_island_evolution),
    (15, "sequential-circuit ingestion", e15_sequential_ingestion),
];

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let Some(&(number, title, run)) = EXPERIMENTS
        .iter()
        .find(|(number, ..)| arg == format!("e{number}"))
    else {
        eprintln!("usage: exp <id>\n\nexperiments:");
        for (number, title, _) in EXPERIMENTS {
            eprintln!("  e{number:<3} {title}");
        }
        std::process::exit(2);
    };
    let scale = experiment_scale();
    // Record the run: manifest + span trace under <results>/obs/.
    let _obs = ObsRun::start(&arg, number);
    eprintln!("running E{number}: {title} at {scale:?} scale...");
    run(scale).emit(&results_dir());
}
