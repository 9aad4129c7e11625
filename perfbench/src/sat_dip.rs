//! `sat-dip`: oracle-guided SAT attacks on D-MUX locks, each driven step by
//! step through `attacks::SatAttack` so every DIP iteration is timed.
//!
//! The synthetic cells (`s880`, `s2300`, 32-bit keys) finish with a key in a
//! few DIPs. The structured `st1355` cells have a 3-bit key but a miter the
//! solver cannot finish within the per-solve propagation cap, so each does a
//! fixed amount of solver work: solver throughput shows up in pass time, and
//! a solver that gets through shows up as more recovered keys.

use crate::trace::{median, ratio, Tracer};
use crate::{Counters, Pass, Workload};
use autolock_attacks::{SatAttack, SatAttackConfig, SatAttackOutcome};
use autolock_circuits::suite_circuit;
use autolock_locking::{DMuxLocking, LockedNetlist, LockingScheme};
use autolock_netlist::{equiv, Netlist};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Circuits with at most this many primary inputs are checked exhaustively.
const EXHAUSTIVE_INPUTS: usize = 16;
/// Random rounds (64 vectors each) of the equivalence check otherwise.
const RANDOM_ROUNDS: usize = 64;
/// Per-solve propagation cap of the `st1355` cells.
const CAP: u64 = 100_000;

/// One attack target.
struct Cell {
    original: Netlist,
    locked: LockedNetlist,
    attack: SatAttack,
    /// The cell is expected to stop on its propagation cap.
    capped: bool,
}

pub struct SatDip {
    cells: Vec<Cell>,
    seed: u64,
    keys_recovered: u64,
    passes: u64,
}

/// (circuit, key bits, per-solve propagation cap, locks). Each lock is its
/// own cell with its own seed. How many DIPs an attack needs, and how fast
/// the solver runs on its miter, depend on where the key sits; across seeds
/// one cell's time varies by 10-50%, so a pass attacks many locks per
/// circuit and the pass time averages that out.
fn cells_of(smoke: bool) -> Vec<(&'static str, usize, Option<u64>, usize)> {
    if smoke {
        return vec![("s880", 8, None, 1), ("st1355", 3, Some(100_000), 1)];
    }
    vec![
        ("s880", 32, None, 12),
        ("s2300", 32, None, 16),
        ("st1355", 3, Some(CAP), 20),
    ]
}

pub fn setup(seed: u64, smoke: bool, tr: &Tracer) -> SatDip {
    let mut cells = Vec::new();
    for (name, key_len, cap, locks) in cells_of(smoke) {
        let original = suite_circuit(name).expect("suite member");
        for _ in 0..locks {
            let cell_seed = seed ^ ((cells.len() as u64 + 1) << 40);
            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed);
            let (locked, _) = tr.time("locking.lock", || {
                DMuxLocking::default()
                    .lock(&original, key_len, &mut rng)
                    .expect("suite members host the key")
            });
            let attack = SatAttack::new(SatAttackConfig {
                max_propagations_per_solve: cap,
                ..SatAttackConfig::default()
            });
            cells.push(Cell {
                original: original.clone(),
                locked,
                attack,
                capped: cap.is_some(),
            });
        }
    }
    // Warm-up: one attack on the first cell.
    let first = &cells[0];
    first.attack.attack(&first.locked, &first.original);
    SatDip {
        cells,
        seed,
        keys_recovered: 0,
        passes: 0,
    }
}

/// Runs one attack call by call: encode, DIP steps, the UNSAT step, key
/// extraction (or the capped solve), finish.
fn attack(cell: &Cell, tr: &Tracer) -> SatAttackOutcome {
    let (a, locked, oracle) = (&cell.attack, &cell.locked, &cell.original);
    let (mut state, _) = tr.time("attacks.sat.encode", || a.init_state(locked, oracle));
    let mut after_unsat = false;
    loop {
        let before = state.iterations();
        let ((more, after), _) = tr.time_as(
            || {
                let more = a.step(&mut state, locked, oracle);
                (more, state.iterations())
            },
            |&(more, after)| match (after > before, more, after_unsat) {
                (true, _, _) => "attacks.sat.dip_step",
                (false, true, _) => "attacks.sat.unsat_step",
                (false, false, true) => "attacks.sat.key_extract",
                (false, false, false) => "attacks.sat.capped_step",
            },
        );
        if !more {
            break;
        }
        after_unsat = after == before;
    }
    tr.time("attacks.sat.finish", || a.finish(state, locked)).0
}

impl SatDip {
    /// Whether an outcome is right for its cell; counts recovered keys.
    fn check(&mut self, cell: &Cell, out: &SatAttackOutcome, pass_seed: u64) -> bool {
        if !out.success {
            return cell.capped && out.gave_up;
        }
        let key = out.recovered_key.bits();
        let (original, locked) = (&cell.original, cell.locked.netlist());
        let equal = if original.num_inputs() <= EXHAUSTIVE_INPUTS {
            equiv::exhaustive_equivalent(original, &[], locked, key)
        } else {
            let mut rng = ChaCha8Rng::seed_from_u64(pass_seed);
            equiv::random_equivalent(original, &[], locked, key, RANDOM_ROUNDS, &mut rng)
        };
        let ok = out.key_len == cell.locked.key_len() && matches!(equal, Ok(true));
        self.keys_recovered += u64::from(ok);
        ok
    }
}

impl Workload for SatDip {
    fn pass(&mut self, tr: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let clock = tr.stopwatch();
        let mut outcomes = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            tr.begin_op();
            let (out, times) = tr.time("attacks.sat.attack", || attack(cell, tr));
            let op = format!("{}#{i}", cell.original.name());
            pass.op_times.entry(op).or_default().push(times);
            outcomes.push(out);
        }
        pass.time = clock.read();
        let cells = std::mem::take(&mut self.cells);
        for (i, (cell, out)) in cells.iter().zip(&outcomes).enumerate() {
            pass.ops += 1;
            let seed = self.seed ^ (self.passes << 8) ^ i as u64;
            if !self.check(cell, out, seed) {
                eprintln!(
                    "sat-dip: wrong outcome on {}: {out:?}",
                    cell.original.name()
                );
                pass.failed += 1;
            }
        }
        self.cells = cells;
        self.passes += 1;
        pass
    }

    fn layers(
        &mut self,
        tr: &Tracer,
        counters: &Counters,
        traced: usize,
    ) -> Vec<(&'static str, f64)> {
        let steps: f64 = [
            "attacks.sat.dip_step",
            "attacks.sat.unsat_step",
            "attacks.sat.key_extract",
            "attacks.sat.capped_step",
        ]
        .iter()
        .flat_map(|n| tr.durations(n))
        .sum();
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        let per_pass = |v: f64| ratio(v, traced as f64);
        vec![
            (
                "attacks.sat.encode_s",
                median(&tr.durations("attacks.sat.encode")),
            ),
            (
                "attacks.sat.dip_step_s",
                median(&tr.durations("attacks.sat.dip_step")),
            ),
            (
                "attacks.sat.dips",
                per_pass(tr.durations("attacks.sat.dip_step").len() as f64),
            ),
            (
                "attacks.sat.unsat_step_s",
                median(&tr.durations("attacks.sat.unsat_step")),
            ),
            (
                "attacks.sat.key_extract_s",
                median(&tr.durations("attacks.sat.key_extract")),
            ),
            (
                "satsolver.props_per_s",
                ratio(counter("sat.propagations"), steps),
            ),
            (
                "satsolver.conflicts_per_s",
                ratio(counter("sat.conflicts"), steps),
            ),
            (
                "satsolver.learned_clauses",
                per_pass(counter("sat.learned_clauses")),
            ),
            ("locking.lock_s", median(&tr.durations("locking.lock"))),
        ]
    }

    fn quality(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_pass = ratio(self.keys_recovered as f64, self.passes as f64);
        vec![("sat_keys_recovered", per_pass, "count")]
    }
}
