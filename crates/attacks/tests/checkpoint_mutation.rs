//! Arbitrary bytes never panic a SAT attack resume: a serialized mid-solve
//! checkpoint with one to three random byte edits either fails to parse,
//! is rejected by `SatAttack::restore`, or restores into a state that
//! steps without panicking.

use autolock_attacks::{SatAttack, SatAttackCheckpoint, SatAttackConfig};
use autolock_circuits::synth_circuit;
use autolock_locking::{DMuxLocking, LockingScheme};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The field at a `/`-separated path of a serialized checkpoint.
fn field<'a>(value: &'a Value, path: &str) -> &'a Value {
    path.split('/')
        .filter(|name| !name.is_empty())
        .fold(value, |v, name| match v {
            Value::Map(m) => serde::get_field(m, name).unwrap_or_else(|| panic!("no {path}")),
            _ => panic!("no {path}"),
        })
}

/// Bytes a JSON edit most likely hits something with: structure,
/// digits, the letters of `true`/`false`/`null`, and a space.
const ALPHABET: &[u8] = b"{}[]\":,-.0123456789eEtrufalsn ";

#[test]
fn mutated_checkpoint_bytes_never_panic() {
    // The mid-solve checkpoint of the 6-bit D-MUX lock that the unit test
    // `restore_rejects_corrupt_mid_solve_checkpoints_without_panicking`
    // edits field by field: after a DIP, paused inside a miter solve, with
    // at least two decision levels on the trail.
    let original = synth_circuit("t", 8, 4, 60, 13);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let locked = DMuxLocking::default().lock(&original, 6, &mut rng).unwrap();
    let attack = SatAttack::new(SatAttackConfig {
        checkpoint_conflicts: Some(1),
        ..SatAttackConfig::default()
    });
    let mut state = attack.init_state(&locked, &original);
    let checkpoint = loop {
        assert!(attack.step(&mut state, &locked, &original), "no deep pause");
        let checkpoint = attack.checkpoint(&state);
        let value = checkpoint.to_value();
        let levels = field(&value, "/miter/trail_lim").as_seq().unwrap().len();
        let paused = *field(&value, "/miter/paused") == Value::Bool(true);
        if checkpoint.iterations() > 0 && paused && levels >= 2 {
            break checkpoint;
        }
    };
    let good = serde_json::to_string(&checkpoint).unwrap();
    assert!(good.is_ascii());

    let (mut parsed, mut restored, mut panics) = (0, 0, Vec::new());
    for seed in 0..2000u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut bytes = good.clone().into_bytes();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..bytes.len());
            let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            match rng.gen_range(0..3) {
                0 => {
                    bytes.remove(at);
                }
                1 => bytes[at] = byte,
                _ => bytes.insert(at, byte),
            }
        }
        let text = String::from_utf8(bytes).expect("ASCII edits of ASCII text");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(checkpoint) = serde_json::from_str::<SatAttackCheckpoint>(&text) else {
                return (false, false);
            };
            let Ok(mut state) = attack.restore(&locked, checkpoint) else {
                return (true, false);
            };
            for _ in 0..3 {
                if !attack.step(&mut state, &locked, &original) {
                    break;
                }
            }
            (true, true)
        }));
        match outcome {
            Ok((p, r)) => {
                parsed += usize::from(p);
                restored += usize::from(r);
            }
            Err(_) => panics.push(seed),
        }
    }
    assert!(panics.is_empty(), "mutants of seeds {panics:?} panicked");
    assert!(
        restored > 0,
        "no mutant restored ({parsed} parsed): the edits never reach a value"
    );
}
