//! Oracle-guided SAT attack demo: how many distinguishing input patterns does
//! the classic SAT attack need against XOR locking, D-MUX and an
//! AutoLock-evolved locking?
//!
//! Usage: `cargo run --release --example sat_resilience -- [circuit] [key_len]`

use autolock_suite::attacks::{SatAttack, SatAttackConfig};
use autolock_suite::autolock::{AutoLock, AutoLockConfig};
use autolock_suite::circuits::suite_circuit;
use autolock_suite::locking::{DMuxLocking, LockedNetlist, LockingScheme, XorLocking};
use autolock_suite::netlist::{equiv, Netlist};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn report(label: &str, original: &Netlist, locked: &LockedNetlist) {
    let attack = SatAttack::new(SatAttackConfig {
        max_iterations: 1000,
        max_propagations_per_solve: None,
        ..SatAttackConfig::default()
    });
    let outcome = attack.attack(locked, original);
    let functional = if outcome.success {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        equiv::random_equivalent(
            original,
            &[],
            locked.netlist(),
            outcome.recovered_key.bits(),
            8,
            &mut rng,
        )
        .unwrap_or(false)
    } else {
        false
    };
    println!(
        "{label:<10} | success: {:<5} | DIPs: {:>4} | runtime: {:>6} ms | recovered key functionally correct: {} | exact key match: {}",
        outcome.success, outcome.iterations, outcome.runtime_ms, functional, outcome.exact_key_match
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let circuit_name = args.get(1).map(String::as_str).unwrap_or("s160");
    let key_len: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let original = suite_circuit(circuit_name).ok_or("unknown circuit")?;
    println!(
        "SAT attack on {} ({} gates), key length {}\n",
        circuit_name,
        original.num_logic_gates(),
        key_len
    );

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let xor = XorLocking::default().lock(&original, key_len, &mut rng)?;
    report("xor-rll", &original, &xor);

    let dmux = DMuxLocking::default().lock(&original, key_len, &mut rng)?;
    report("d-mux", &original, &dmux);

    let autolock = AutoLock::new(AutoLockConfig {
        key_len,
        population_size: 8,
        generations: 8,
        seed: 11,
        ..Default::default()
    })
    .run(&original)?;
    report("autolock", &original, &autolock.locked);

    println!(
        "\nNote: the SAT attack defeats all purely combinational MUX/XOR locking given an oracle;\n\
         the point of this table is the relative query effort, and that AutoLock (which targets the\n\
         ML attack surface) does not accidentally make the SAT attack easier."
    );
    Ok(())
}
