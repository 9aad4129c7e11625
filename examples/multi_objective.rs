//! Multi-objective locking design (research-plan item of the paper): evolve a
//! Pareto front trading MuxLink accuracy against area overhead with NSGA-II.
//!
//! Usage: `cargo run --release --example multi_objective -- [circuit] [key_len]`

use autolock_suite::attacks::MuxLinkConfig;
use autolock_suite::attacks::SatAttackConfig;
use autolock_suite::autolock::operators::{
    CrossoverKind, LocusCrossover, LocusMutation, MutationKind,
};
use autolock_suite::autolock::{random_genotype, MultiObjectiveLockingFitness, ObjectiveKind};
use autolock_suite::circuits::suite_circuit;
use autolock_suite::evo::{Nsga2, Nsga2Config};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let circuit_name = args.get(1).map(String::as_str).unwrap_or("s380");
    let key_len: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(24);
    let original = Arc::new(suite_circuit(circuit_name).ok_or("unknown circuit")?);
    println!(
        "NSGA-II on {} ({} gates), key length {}: minimize (MuxLink accuracy, area overhead)\n",
        circuit_name,
        original.num_logic_gates(),
        key_len
    );

    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let initial: Vec<_> = (0..12)
        .map(|_| random_genotype(&original, key_len, &mut rng))
        .collect::<Result<_, _>>()?;
    let fitness = MultiObjectiveLockingFitness::new(
        original.clone(),
        MuxLinkConfig::fast(),
        SatAttackConfig {
            max_iterations: 100,
            max_propagations_per_solve: None,
            ..SatAttackConfig::default()
        },
        vec![ObjectiveKind::MuxLinkAccuracy, ObjectiveKind::AreaOverhead],
        23,
    );
    let crossover = LocusCrossover::new(original.clone(), key_len, CrossoverKind::OnePoint);
    let mutation = LocusMutation::new(original.clone(), key_len, MutationKind::Composite);
    let result = Nsga2::new(Nsga2Config {
        generations: 12,
        ..Default::default()
    })
    .run(initial, &fitness, &crossover, &mutation, &mut rng);

    println!("Pareto front ({} points):", result.front.len());
    println!(
        "{:<8} {:>18} {:>16}",
        "point", "MuxLink accuracy", "area overhead"
    );
    let mut points = result.front.clone();
    points.sort_by(|a, b| a.objectives[0].partial_cmp(&b.objectives[0]).unwrap());
    for (i, p) in points.iter().enumerate() {
        println!(
            "{:<8} {:>17.1}% {:>15.1}%",
            i,
            p.objectives[0] * 100.0,
            p.objectives[1] * 100.0
        );
    }
    println!(
        "\n({} objective evaluations; front sizes per generation: {:?})",
        result.evaluations, result.front_size_history
    );
    Ok(())
}
