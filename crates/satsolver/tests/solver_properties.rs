//! Property-based tests for the CDCL solver and the circuit encoder.

use autolock_netlist::{GateId, GateKind, Netlist};
use autolock_satsolver::{CircuitEncoder, Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// Brute-force satisfiability check for small variable counts.
fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    for assignment in 0u32..(1 << num_vars) {
        let value = |l: Lit| {
            let bit = (assignment >> l.var().index()) & 1 == 1;
            if l.is_neg() {
                !bit
            } else {
                bit
            }
        };
        if clauses.iter().all(|c| c.iter().any(|&l| value(l))) {
            return true;
        }
    }
    false
}

fn clause_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..num_vars as u32, proptest::bool::ANY), 1..4).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, pos)| Lit::new(Var(v), pos))
            .collect()
    })
}

/// A random 3-literal clause over `num_vars` variables.
fn three_clause(num_vars: usize) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..num_vars as u32, proptest::bool::ANY), 3).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, pos)| Lit::new(Var(v), pos))
            .collect()
    })
}

/// A solver holding `clauses` over `num_vars` variables.
fn solver_with(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut solver = Solver::new();
    solver.reserve_vars(num_vars);
    for c in clauses {
        solver.add_clause(c);
    }
    solver
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pausing at every conflict and rebuilding the solver from its JSON
    /// snapshot at every pause is invisible: random 3-SAT near the
    /// satisfiability threshold ends with the verdict, model and stats of
    /// an uninterrupted solve.
    #[test]
    fn snapshot_roundtrip_at_every_pause_keeps_the_search(
        clauses in proptest::collection::vec(three_clause(20), 70..100),
    ) {
        let mut plain = solver_with(20, &clauses);
        let expected = plain.solve();

        let mut live = solver_with(20, &clauses);
        live.set_pause_granule(Some(1));
        let verdict = loop {
            match live.solve() {
                SolveResult::Paused => {
                    let json = serde_json::to_string(&live.snapshot()).unwrap();
                    live = Solver::from_snapshot(serde_json::from_str(&json).unwrap()).unwrap();
                    live.set_pause_granule(Some(1));
                }
                verdict => break verdict,
            }
        };
        prop_assert_eq!(verdict, expected);
        prop_assert_eq!(live.stats(), plain.stats());
        for v in 0..20 {
            prop_assert_eq!(live.value(Var(v)), plain.value(Var(v)));
        }
    }

    /// The solver agrees with a brute-force model enumeration on random small
    /// formulas, and reported models actually satisfy every clause.
    #[test]
    fn solver_agrees_with_brute_force(
        clauses in proptest::collection::vec(clause_strategy(7), 1..30),
    ) {
        let mut solver = Solver::new();
        solver.reserve_vars(7);
        let mut ok = true;
        for c in &clauses {
            ok &= solver.add_clause(c);
        }
        let expected = brute_force_sat(7, &clauses);
        let got = ok && solver.solve() == SolveResult::Sat;
        prop_assert_eq!(got, expected);
        if got {
            for c in &clauses {
                let satisfied = c.iter().any(|&l| {
                    let v = solver.value(l.var()).unwrap();
                    if l.is_neg() { !v } else { v }
                });
                prop_assert!(satisfied, "model does not satisfy clause {:?}", c);
            }
        }
    }

    /// Solving under assumptions never contradicts the assumptions and is
    /// consistent with adding the assumptions as unit clauses.
    #[test]
    fn assumptions_match_unit_clauses(
        clauses in proptest::collection::vec(clause_strategy(6), 1..20),
        assumption_var in 0u32..6,
        assumption_sign in proptest::bool::ANY,
    ) {
        let assumption = Lit::new(Var(assumption_var), assumption_sign);

        let mut with_assumption = Solver::new();
        with_assumption.reserve_vars(6);
        let mut ok_a = true;
        for c in &clauses {
            ok_a &= with_assumption.add_clause(c);
        }
        let result_assumed = if ok_a {
            with_assumption.solve_with_assumptions(&[assumption])
        } else {
            SolveResult::Unsat
        };

        let mut with_unit = Solver::new();
        with_unit.reserve_vars(6);
        let mut ok_u = true;
        for c in &clauses {
            ok_u &= with_unit.add_clause(c);
        }
        ok_u &= with_unit.add_clause(&[assumption]);
        let result_unit = if ok_u { with_unit.solve() } else { SolveResult::Unsat };

        prop_assert_eq!(result_assumed, result_unit);
        if result_assumed == SolveResult::Sat {
            let v = with_assumption.value(assumption.var()).unwrap();
            prop_assert_eq!(v, assumption.is_pos());
        }
    }
}

/// Builds a small random-ish combinational netlist deterministically from a
/// byte recipe (no RNG dependency needed in this crate's tests).
fn netlist_from_recipe(recipe: &[u8]) -> Netlist {
    let mut nl = Netlist::new("recipe");
    let inputs: Vec<GateId> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
    let mut signals = inputs;
    let kinds = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Mux,
    ];
    for (idx, &b) in recipe.iter().enumerate() {
        let kind = kinds[(b % 8) as usize];
        let pick = |offset: usize| signals[(b as usize + offset * 7) % signals.len()];
        let fanin = match kind {
            GateKind::Not => vec![pick(1)],
            GateKind::Mux => vec![pick(1), pick(2), pick(3)],
            _ => vec![pick(1), pick(2)],
        };
        let id = nl.add_gate(format!("g{idx}"), kind, fanin).unwrap();
        signals.push(id);
    }
    let last = *signals.last().unwrap();
    nl.mark_output(last);
    if signals.len() >= 2 {
        nl.mark_output(signals[signals.len() - 2]);
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tseitin encoding is consistent with direct simulation: constraining the
    /// CNF inputs to any assignment yields exactly the simulated outputs.
    #[test]
    fn circuit_encoding_matches_simulation(
        recipe in proptest::collection::vec(any::<u8>(), 1..20),
        assignment in 0u8..16,
    ) {
        let nl = netlist_from_recipe(&recipe);
        let inputs = nl.inputs();
        let bits: Vec<bool> = (0..inputs.len()).map(|i| (assignment >> i) & 1 == 1).collect();
        let expected = nl.evaluate(&bits).unwrap();

        let mut solver = Solver::new();
        let enc = CircuitEncoder::encode(&mut solver, &nl);
        for (&pi, &b) in inputs.iter().zip(&bits) {
            enc.assert_value(&mut solver, pi, b);
        }
        prop_assert_eq!(solver.solve(), SolveResult::Sat);
        let got: Vec<bool> = nl
            .outputs()
            .iter()
            .map(|&o| solver.value(enc.var(o)).unwrap())
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// A miter of a circuit against itself (inputs tied) is unsatisfiable.
    #[test]
    fn self_miter_is_unsat(recipe in proptest::collection::vec(any::<u8>(), 1..16)) {
        let nl = netlist_from_recipe(&recipe);
        let mut solver = Solver::new();
        miter(&mut solver, &nl, &nl);
        prop_assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    /// A miter of two different circuits is satisfiable exactly when some
    /// input vector tells them apart, and a `Sat` model's inputs are such a
    /// vector.
    #[test]
    fn miter_of_two_circuits_matches_simulation(
        recipe_a in proptest::collection::vec(any::<u8>(), 1..16),
        recipe_b in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let (nl_a, nl_b) = (netlist_from_recipe(&recipe_a), netlist_from_recipe(&recipe_b));
        let bits = |assignment: u8| -> Vec<bool> {
            (0..4).map(|i| (assignment >> i) & 1 == 1).collect()
        };
        let differs = |input: &[bool]| nl_a.evaluate(input).unwrap() != nl_b.evaluate(input).unwrap();
        let distinguishable = (0u8..16).any(|assignment| differs(&bits(assignment)));

        let mut solver = Solver::new();
        let enc_a = miter(&mut solver, &nl_a, &nl_b);
        let result = solver.solve();
        prop_assert_eq!(result == SolveResult::Sat, distinguishable);
        if result == SolveResult::Sat {
            let input: Vec<bool> = nl_a
                .inputs()
                .iter()
                .map(|&pi| solver.value(enc_a.var(pi)).unwrap())
                .collect();
            prop_assert!(differs(&input), "model input {:?} does not distinguish", input);
        }
    }
}

/// Encodes `a` and `b` into `solver` with their primary inputs tied in order
/// and a clause requiring some output pair to differ; returns `a`'s encoder.
fn miter(solver: &mut Solver, a: &Netlist, b: &Netlist) -> CircuitEncoder {
    let enc_a = CircuitEncoder::encode(solver, a);
    let enc_b = CircuitEncoder::encode(solver, b);
    for (pa, pb) in a.inputs().into_iter().zip(b.inputs()) {
        enc_a.assert_equal(solver, pa, &enc_b, pb);
    }
    let mut diff = Vec::new();
    for (&oa, &ob) in a.outputs().iter().zip(b.outputs()) {
        let d = Lit::pos(solver.new_var());
        let (la, lb) = (enc_a.lit(oa, true), enc_b.lit(ob, true));
        solver.add_clause(&[!la, !lb, !d]);
        solver.add_clause(&[la, lb, !d]);
        solver.add_clause(&[!la, lb, d]);
        solver.add_clause(&[la, !lb, d]);
        diff.push(d);
    }
    solver.add_clause(&diff);
    enc_a
}
