//! `SolverStats` must be populated by real work: an UNSAT miter exercises
//! decisions, propagations, conflicts and clause learning, and a pigeonhole
//! instance runs long enough to cross the restart threshold. The exact
//! counters of two instances are pinned, so a change to the solver's hot
//! path that alters the search path fails here.

use autolock_netlist::{GateKind, Netlist};
use autolock_satsolver::{CircuitEncoder, Lit, SolveResult, Solver, SolverStats};

/// An 8-input parity/majority ladder — small, but enough structure that
/// proving the self-miter UNSAT requires actual search, not pure
/// propagation.
fn ladder() -> Netlist {
    let mut nl = Netlist::new("ladder");
    let inputs: Vec<_> = (0..8).map(|i| nl.add_input(format!("x{i}"))).collect();
    let mut xors = Vec::new();
    let mut acc = inputs[0];
    for (i, &x) in inputs.iter().enumerate().skip(1) {
        acc = nl
            .add_gate(format!("p{i}"), GateKind::Xor, vec![acc, x])
            .unwrap();
        xors.push(acc);
    }
    let mut ands = Vec::new();
    for (i, pair) in inputs.chunks(2).enumerate() {
        ands.push(
            nl.add_gate(format!("a{i}"), GateKind::And, pair.to_vec())
                .unwrap(),
        );
    }
    let any = nl.add_gate("any", GateKind::Or, ands).unwrap();
    let out = nl.add_gate("y", GateKind::Xor, vec![acc, any]).unwrap();
    nl.mark_output(out);
    nl
}

/// Encodes two copies of the same circuit with shared primary inputs and
/// asserts their outputs differ — unsatisfiable by construction, the same
/// miter shape the SAT attack builds.
fn ladder_miter() -> Solver {
    let nl = ladder();
    let mut solver = Solver::new();
    let enc_a = CircuitEncoder::encode(&mut solver, &nl);
    let enc_b = CircuitEncoder::encode(&mut solver, &nl);
    for &pi in &nl.inputs() {
        enc_a.assert_equal(&mut solver, pi, &enc_b, pi);
    }
    let mut diff = Vec::new();
    for &o in nl.outputs() {
        let d = Lit::pos(solver.new_var());
        let a = enc_a.lit(o, true);
        let b = enc_b.lit(o, true);
        solver.add_clause(&[!a, !b, !d]);
        solver.add_clause(&[a, b, !d]);
        solver.add_clause(&[!a, b, d]);
        solver.add_clause(&[a, !b, d]);
        diff.push(d);
    }
    solver.add_clause(&diff);
    solver
}

/// The pigeonhole principle PHP(`pigeons`, `holes`), unsatisfiable when
/// there are more pigeons than holes.
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut solver = Solver::new();
    let vars: Vec<Vec<_>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &vars {
        let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        solver.add_clause(&clause);
    }
    for h in 0..holes {
        for (p1, row1) in vars.iter().enumerate() {
            for row2 in &vars[p1 + 1..] {
                solver.add_clause(&[Lit::neg(row1[h]), Lit::neg(row2[h])]);
            }
        }
    }
    solver
}

#[test]
fn unsat_miter_populates_all_core_stats() {
    let mut solver = ladder_miter();
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let stats = solver.stats();
    assert!(stats.decisions > 0, "no decisions: {stats:?}");
    assert!(stats.propagations > 0, "no propagations: {stats:?}");
    assert!(stats.conflicts > 0, "no conflicts: {stats:?}");
    assert!(stats.learned_clauses > 0, "no learned clauses: {stats:?}");
}

/// PHP(8, 7): 8 pigeons cannot fit 7 holes. Hard enough for a CDCL solver
/// that the conflict count crosses the first restart threshold, so the
/// restart counter is exercised too.
#[test]
fn pigeonhole_unsat_triggers_restarts() {
    let mut solver = pigeonhole(8, 7);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    let stats = solver.stats();
    assert!(stats.conflicts >= 100, "too easy: {stats:?}");
    assert!(stats.restarts > 0, "no restarts: {stats:?}");
    assert!(stats.decisions > 0 && stats.learned_clauses > 0);
}

/// Golden search path: every decision, propagation, conflict, learnt clause
/// and restart of these two solves, as the solver made them before its hot
/// path was optimised (O(vars) decision scan, fresh watch and `analyze`
/// buffers). Optimisations must leave these numbers alone; a deliberate
/// search change (new restart policy, clause reduction) re-pins them.
#[test]
fn search_path_is_pinned() {
    let mut miter = ladder_miter();
    assert_eq!(miter.solve(), SolveResult::Unsat);
    assert_eq!(
        miter.stats(),
        SolverStats {
            decisions: 121,
            propagations: 1362,
            conflicts: 107,
            learned_clauses: 101,
            restarts: 1,
        }
    );

    let mut php = pigeonhole(7, 6);
    assert_eq!(php.solve(), SolveResult::Unsat);
    assert_eq!(
        php.stats(),
        SolverStats {
            decisions: 956,
            propagations: 9862,
            conflicts: 806,
            learned_clauses: 802,
            restarts: 3,
        }
    );
}
