//! Tseitin encoding of gate-level netlists into CNF.
//!
//! Every gate output is given one SAT variable. The encoder adds the standard
//! Tseitin clauses for each gate so that any satisfying assignment of the CNF
//! corresponds exactly to a consistent evaluation of the circuit. The SAT
//! attack builds miters out of two copies of a locked netlist using this
//! encoder.

use crate::{Lit, Solver, Var};
use autolock_netlist::{GateId, GateKind, Netlist};

/// Maps the gates of one netlist instance to solver variables.
///
/// Multiple `CircuitEncoder`s over the same [`Solver`] create independent
/// copies of the circuit (used to build miters); the caller can tie selected
/// variables together (e.g. primary inputs) with equality clauses via
/// [`CircuitEncoder::assert_equal`].
#[derive(Debug, Clone)]
pub struct CircuitEncoder {
    vars: Vec<Var>,
}

impl CircuitEncoder {
    /// Encodes `netlist` into `solver`, creating one fresh variable per gate
    /// and adding the Tseitin clauses of every logic gate.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation (callers encode validated
    /// netlists).
    pub fn encode(solver: &mut Solver, netlist: &Netlist) -> Self {
        netlist.validate().expect("encode requires a valid netlist");
        Self::encode_validated(solver, netlist)
    }

    /// [`CircuitEncoder::encode`] without the validation, for callers that
    /// encode many copies of one netlist they have validated once (the SAT
    /// attack adds three copies per DIP). The encoding is the same: same
    /// variables, same clauses, same order.
    ///
    /// An invalid netlist may panic here or encode a cyclic relation.
    pub fn encode_validated(solver: &mut Solver, netlist: &Netlist) -> Self {
        let vars = (0..netlist.len()).map(|_| solver.new_var()).collect();
        let enc = CircuitEncoder { vars };
        // Per-gate scratch, reused so a gate costs no allocation.
        let (mut fanin, mut clause) = (Vec::new(), Vec::new());
        for (id, gate) in netlist.iter() {
            fanin.clear();
            fanin.extend(gate.fanin.iter().map(|&f| Lit::pos(enc.var(f))));
            enc.encode_gate(solver, id, gate.kind, &fanin, &mut clause);
        }
        enc
    }

    /// Rebuilds an encoder from the per-gate variables a previous
    /// [`CircuitEncoder::encode`] of the *same* netlist produced (e.g.
    /// recovered from a [`crate::SolverSnapshot`]-based checkpoint). Adds no
    /// clauses — the restored solver already carries them. Auxiliary
    /// variables the original encoding allocated (XOR-chain internals) live
    /// only in the solver and need no mapping here.
    ///
    /// # Errors
    ///
    /// Returns an error when `vars` does not have one entry per gate of
    /// `netlist` — the checkpoint and the netlist do not belong together.
    pub fn from_vars(netlist: &Netlist, vars: Vec<Var>) -> Result<Self, String> {
        if vars.len() != netlist.len() {
            return Err(format!(
                "encoder/netlist mismatch: {} variables for {} gates",
                vars.len(),
                netlist.len()
            ));
        }
        Ok(CircuitEncoder { vars })
    }

    /// The solver variable of a gate.
    pub fn var(&self, gate: GateId) -> Var {
        self.vars[gate.index()]
    }

    /// The solver variable of a signal by name in `netlist`, the netlist
    /// this encoder encoded, if the name is present.
    pub fn var_by_name(&self, netlist: &Netlist, name: &str) -> Option<Var> {
        netlist.find(name).map(|id| self.var(id))
    }

    /// All variables, indexed by gate id.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Adds clauses forcing the variables of `gate_a` (in this encoding) and
    /// `gate_b` (in `other`) to be equal.
    pub fn assert_equal(
        &self,
        solver: &mut Solver,
        gate_a: GateId,
        other: &CircuitEncoder,
        gate_b: GateId,
    ) {
        let a = Lit::pos(self.var(gate_a));
        let b = Lit::pos(other.var(gate_b));
        solver.add_clause(&[!a, b]);
        solver.add_clause(&[a, !b]);
    }

    /// Adds a unit clause fixing a gate's variable to a constant value.
    pub fn assert_value(&self, solver: &mut Solver, gate: GateId, value: bool) {
        solver.add_clause(&[Lit::new(self.var(gate), value)]);
    }

    /// Creates a literal for "the value of `gate` is `value`".
    pub fn lit(&self, gate: GateId, value: bool) -> Lit {
        Lit::new(self.var(gate), value)
    }

    /// Adds the clauses of gate `id`, whose fan-in literals are `fanin`;
    /// `clause` is scratch space for the wide clauses.
    fn encode_gate(
        &self,
        solver: &mut Solver,
        id: GateId,
        kind: GateKind,
        fanin: &[Lit],
        clause: &mut Vec<Lit>,
    ) {
        let out = Lit::pos(self.var(id));
        match kind {
            GateKind::Input | GateKind::KeyInput => {
                // Free variables: no clauses.
            }
            GateKind::Const0 => {
                solver.add_clause(&[!out]);
            }
            GateKind::Const1 => {
                solver.add_clause(&[out]);
            }
            GateKind::Buf => {
                solver.add_clause(&[!fanin[0], out]);
                solver.add_clause(&[fanin[0], !out]);
            }
            GateKind::Not => {
                solver.add_clause(&[fanin[0], out]);
                solver.add_clause(&[!fanin[0], !out]);
            }
            GateKind::And => Self::encode_and(solver, out, fanin, false, clause),
            GateKind::Nand => Self::encode_and(solver, out, fanin, true, clause),
            GateKind::Or => Self::encode_or(solver, out, fanin, false, clause),
            GateKind::Nor => Self::encode_or(solver, out, fanin, true, clause),
            GateKind::Xor => Self::encode_xor(solver, out, fanin, false),
            GateKind::Xnor => Self::encode_xor(solver, out, fanin, true),
            GateKind::Mux => {
                let s = fanin[0];
                let a = fanin[1]; // selected when s = 0
                let b = fanin[2]; // selected when s = 1
                                  // out = (!s & a) | (s & b)
                solver.add_clause(&[s, !a, out]);
                solver.add_clause(&[s, a, !out]);
                solver.add_clause(&[!s, !b, out]);
                solver.add_clause(&[!s, b, !out]);
                // Redundant but propagation-friendly: if a == b, out == a.
                solver.add_clause(&[!a, !b, out]);
                solver.add_clause(&[a, b, !out]);
            }
        }
    }

    fn encode_and(
        solver: &mut Solver,
        out: Lit,
        fanin: &[Lit],
        invert: bool,
        clause: &mut Vec<Lit>,
    ) {
        let y = if invert { !out } else { out };
        // y -> every input true: (!y | in_i)
        for &i in fanin {
            solver.add_clause(&[!y, i]);
        }
        // all inputs true -> y: (!in_1 | ... | !in_n | y)
        clause.clear();
        clause.extend(fanin.iter().map(|&i| !i));
        clause.push(y);
        solver.add_clause(clause);
    }

    fn encode_or(
        solver: &mut Solver,
        out: Lit,
        fanin: &[Lit],
        invert: bool,
        clause: &mut Vec<Lit>,
    ) {
        let y = if invert { !out } else { out };
        // in_i -> y
        for &i in fanin {
            solver.add_clause(&[!i, y]);
        }
        // y -> some input: (in_1 | ... | in_n | !y)
        clause.clear();
        clause.extend_from_slice(fanin);
        clause.push(!y);
        solver.add_clause(clause);
    }

    fn encode_xor(solver: &mut Solver, out: Lit, fanin: &[Lit], invert: bool) {
        // Chain pairwise: t_0 = in_0, t_i = t_{i-1} xor in_i, out = t_last (xnor inverts).
        let mut acc = fanin[0];
        for &next in &fanin[1..fanin.len().saturating_sub(1)] {
            let t = Lit::pos(solver.new_var());
            Self::encode_xor2(solver, t, acc, next);
            acc = t;
        }
        let last = *fanin.last().expect("xor has at least 2 inputs");
        let target = if invert { !out } else { out };
        if fanin.len() == 1 {
            // Degenerate, not produced by validated netlists; treat as buffer.
            solver.add_clause(&[!acc, target]);
            solver.add_clause(&[acc, !target]);
        } else {
            Self::encode_xor2(solver, target, acc, last);
        }
    }

    /// Clauses for `y = a xor b`.
    fn encode_xor2(solver: &mut Solver, y: Lit, a: Lit, b: Lit) {
        solver.add_clause(&[!a, !b, !y]);
        solver.add_clause(&[a, b, !y]);
        solver.add_clause(&[!a, b, y]);
        solver.add_clause(&[a, !b, y]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;
    use autolock_netlist::{GateKind, Netlist};

    /// Checks that the CNF encoding of `nl` agrees with direct simulation for
    /// every primary-input/key-input assignment.
    fn check_encoding_exhaustive(nl: &Netlist) {
        let inputs = nl.inputs();
        let keys = nl.key_inputs();
        let total_bits = inputs.len() + keys.len();
        assert!(total_bits <= 10, "test helper is exhaustive");
        for assignment in 0..(1u32 << total_bits) {
            let bits: Vec<bool> = (0..total_bits)
                .map(|i| (assignment >> i) & 1 == 1)
                .collect();
            let expected = nl.evaluate(&bits).unwrap();

            let mut solver = Solver::new();
            let enc = CircuitEncoder::encode(&mut solver, nl);
            for (i, &id) in inputs.iter().chain(keys.iter()).enumerate() {
                enc.assert_value(&mut solver, id, bits[i]);
            }
            assert_eq!(
                solver.solve(),
                SolveResult::Sat,
                "circuit CNF must be satisfiable"
            );
            let got: Vec<bool> = nl
                .outputs()
                .iter()
                .map(|&o| solver.value(enc.var(o)).unwrap())
                .collect();
            assert_eq!(got, expected, "assignment {assignment:#b}");
        }
    }

    #[test]
    fn encode_every_gate_kind() {
        let mut nl = Netlist::new("all_kinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let and = nl.add_gate("and", GateKind::And, vec![a, b]).unwrap();
        let nand = nl.add_gate("nand", GateKind::Nand, vec![a, b, c]).unwrap();
        let or = nl.add_gate("or", GateKind::Or, vec![a, c]).unwrap();
        let nor = nl.add_gate("nor", GateKind::Nor, vec![b, c]).unwrap();
        let xor = nl.add_gate("xor", GateKind::Xor, vec![a, b, c]).unwrap();
        let xnor = nl.add_gate("xnor", GateKind::Xnor, vec![and, or]).unwrap();
        let not = nl.add_gate("not", GateKind::Not, vec![nand]).unwrap();
        let buf = nl.add_gate("buf", GateKind::Buf, vec![nor]).unwrap();
        let mux = nl
            .add_gate("mux", GateKind::Mux, vec![a, xor, xnor])
            .unwrap();
        let c1 = nl.add_gate("one", GateKind::Const1, vec![]).unwrap();
        let fin = nl
            .add_gate("fin", GateKind::And, vec![mux, not, buf, c1])
            .unwrap();
        nl.mark_output(fin);
        nl.mark_output(xor);
        nl.mark_output(mux);
        check_encoding_exhaustive(&nl);
    }

    #[test]
    fn encode_with_key_inputs() {
        let mut nl = Netlist::new("keyed");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k0 = nl.add_key_input("keyinput0").unwrap();
        let k1 = nl.add_key_input("keyinput1").unwrap();
        let x = nl.add_gate("x", GateKind::Xor, vec![a, k0]).unwrap();
        let m = nl.add_gate("m", GateKind::Mux, vec![k1, x, b]).unwrap();
        nl.mark_output(m);
        check_encoding_exhaustive(&nl);
    }

    #[test]
    fn assert_equal_ties_two_copies_together() {
        let mut nl = Netlist::new("pair");
        let a = nl.add_input("a");
        let y = nl.add_gate("y", GateKind::Not, vec![a]).unwrap();
        nl.mark_output(y);

        let mut solver = Solver::new();
        let enc1 = CircuitEncoder::encode(&mut solver, &nl);
        let enc2 = CircuitEncoder::encode(&mut solver, &nl);
        enc1.assert_equal(&mut solver, a, &enc2, a);
        // Force the two outputs to differ: impossible for identical circuits
        // with tied inputs.
        let o1 = enc1.lit(y, true);
        let o2 = enc2.lit(y, true);
        solver.add_clause(&[o1, o2]);
        solver.add_clause(&[!o1, !o2]);
        assert_eq!(solver.solve(), SolveResult::Unsat);
    }

    #[test]
    fn from_vars_rebuilds_the_same_mapping() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let k = nl.add_key_input("keyinput0").unwrap();
        let y = nl.add_gate("y", GateKind::Xor, vec![a, k]).unwrap();
        nl.mark_output(y);
        let mut solver = Solver::new();
        let enc = CircuitEncoder::encode(&mut solver, &nl);
        let rebuilt = CircuitEncoder::from_vars(&nl, enc.vars().to_vec()).unwrap();
        assert_eq!(rebuilt.var(a), enc.var(a));
        assert_eq!(rebuilt.var(y), enc.var(y));
        assert_eq!(
            rebuilt.var_by_name(&nl, "keyinput0"),
            enc.var_by_name(&nl, "keyinput0")
        );
        // Wrong cardinality is rejected, not silently misaligned.
        assert!(CircuitEncoder::from_vars(&nl, enc.vars()[1..].to_vec()).is_err());
    }

    #[test]
    fn var_by_name_lookup() {
        let mut nl = Netlist::new("n");
        let a = nl.add_input("a");
        let y = nl.add_gate("y", GateKind::Buf, vec![a]).unwrap();
        nl.mark_output(y);
        let mut solver = Solver::new();
        let enc = CircuitEncoder::encode(&mut solver, &nl);
        assert_eq!(enc.var_by_name(&nl, "y"), Some(enc.var(y)));
        assert_eq!(enc.var_by_name(&nl, "zzz"), None);
    }
}
