//! Golden search path of the SAT attack: DIP count, total solver conflicts
//! and verdict of seeded D-MUX locks, as the solver produced them before its
//! hot path was optimised. Solver speed-ups must not change a single
//! decision, so these stay exact; a deliberate search change re-pins them.

use autolock_attacks::{SatAttack, SatAttackConfig};
use autolock_circuits::suite_circuit;
use autolock_locking::{DMuxLocking, LockingScheme};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `(iterations, solver_conflicts, success, gave_up)` of one attack.
fn attack(circuit: &str, key_len: usize, seed: u64, cap: Option<u64>) -> (usize, u64, bool, bool) {
    let original = suite_circuit(circuit).expect("suite member");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let locked = DMuxLocking::default()
        .lock(&original, key_len, &mut rng)
        .expect("the circuit hosts the key");
    let outcome = SatAttack::new(SatAttackConfig {
        max_propagations_per_solve: cap,
        ..SatAttackConfig::default()
    })
    .attack(&locked, &original);
    (
        outcome.iterations,
        outcome.solver_conflicts,
        outcome.success,
        outcome.gave_up,
    )
}

#[test]
fn dmux_s880_k32_attacks_follow_the_pinned_search_path() {
    let pinned = [
        (1, (6, 361, true, false)),
        (2, (3, 143, true, false)),
        (3, (2, 114, true, false)),
        (4, (2, 100, true, false)),
    ];
    for (seed, expected) in pinned {
        assert_eq!(attack("s880", 32, seed, None), expected, "seed {seed}");
    }
}

#[test]
fn capped_st1355_attack_follows_the_pinned_search_path() {
    // The miter outlasts the 100k-propagation cap, so the attack gives up
    // after a fixed amount of solver work.
    assert_eq!(
        attack("st1355", 3, 5, Some(100_000)),
        (2, 1466, false, true)
    );
}
