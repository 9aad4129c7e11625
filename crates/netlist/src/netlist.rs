//! The [`Netlist`] container: an arena of gates plus input/output bookkeeping.

use crate::{Gate, GateId, GateKind, NetlistError, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A combinational gate-level netlist.
///
/// Gates are stored in an arena ([`Vec<Gate>`]) and referenced by [`GateId`].
/// Signal names are unique; each gate drives exactly one named signal. Primary
/// inputs and key inputs are gates of kind [`GateKind::Input`] /
/// [`GateKind::KeyInput`] with no fan-in.
///
/// Construction is incremental ([`Netlist::add_input`], [`Netlist::add_gate`],
/// [`Netlist::mark_output`]) and finished with [`Netlist::validate`], which
/// checks arities, dangling references and combinational cycles.
///
/// Deserializing rebuilds the signal-name index and rejects a duplicate
/// name or an out-of-range gate id with the structured error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "NetlistData")]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    outputs: Vec<GateId>,
    #[serde(skip)]
    name_map: HashMap<String, GateId>,
}

/// The serialized fields of a [`Netlist`], without its name index.
#[derive(Deserialize)]
struct NetlistData {
    name: String,
    gates: Vec<Gate>,
    outputs: Vec<GateId>,
}

impl TryFrom<NetlistData> for Netlist {
    type Error = NetlistError;

    fn try_from(data: NetlistData) -> Result<Self> {
        let mut nl = Netlist::new(data.name);
        for gate in data.gates {
            nl.insert_named(gate)?;
        }
        let fanins = nl.gates.iter().flat_map(|g| &g.fanin);
        if let Some(&id) = fanins
            .chain(&data.outputs)
            .find(|id| id.index() >= nl.len())
        {
            return Err(NetlistError::InvalidGateId(id));
        }
        nl.outputs = data.outputs;
        Ok(nl)
    }
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            outputs: Vec::new(),
            name_map: HashMap::new(),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of gates (including inputs, key inputs and constants).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Immutable access to a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Fallible access to a gate.
    pub fn try_gate(&self, id: GateId) -> Result<&Gate> {
        self.gates
            .get(id.index())
            .ok_or(NetlistError::InvalidGateId(id))
    }

    /// Iterates over `(GateId, &Gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// All gate ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Looks up a gate id by signal name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.name_map.get(name).copied()
    }

    /// Primary inputs (excluding key inputs), in insertion order.
    pub fn inputs(&self) -> Vec<GateId> {
        self.ids()
            .filter(|&id| self.gate(id).kind == GateKind::Input)
            .collect()
    }

    /// Key inputs, in insertion order.
    pub fn key_inputs(&self) -> Vec<GateId> {
        self.ids()
            .filter(|&id| self.gate(id).kind == GateKind::KeyInput)
            .collect()
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::Input)
            .count()
    }

    /// Number of key inputs.
    pub fn num_key_inputs(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.kind == GateKind::KeyInput)
            .count()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of logic gates (everything that is not an input, key input or
    /// constant).
    pub fn num_logic_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !g.kind.is_input() && !g.kind.is_constant())
            .count()
    }

    fn insert_named(&mut self, gate: Gate) -> Result<GateId> {
        if self.name_map.contains_key(&gate.name) {
            return Err(NetlistError::DuplicateName(gate.name));
        }
        let id = GateId(self.gates.len() as u32);
        self.name_map.insert(gate.name.clone(), id);
        self.gates.push(gate);
        Ok(id)
    }

    /// Adds a primary input and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already used (inputs are normally added first;
    /// use [`Netlist::try_add_input`] for fallible insertion).
    pub fn add_input(&mut self, name: impl Into<String>) -> GateId {
        self.try_add_input(name).expect("duplicate input name")
    }

    /// Fallible variant of [`Netlist::add_input`].
    pub fn try_add_input(&mut self, name: impl Into<String>) -> Result<GateId> {
        self.insert_named(Gate::new(name, GateKind::Input, Vec::new()))
    }

    /// Adds a key input and returns its id.
    pub fn add_key_input(&mut self, name: impl Into<String>) -> Result<GateId> {
        self.insert_named(Gate::new(name, GateKind::KeyInput, Vec::new()))
    }

    /// Adds a logic gate (or constant) and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the signal name exists,
    /// [`NetlistError::InvalidGateId`] if a fan-in id is out of range and
    /// [`NetlistError::BadArity`] if the fan-in count violates the gate kind.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: Vec<GateId>,
    ) -> Result<GateId> {
        let name = name.into();
        let (min, max) = kind.arity();
        if fanin.len() < min || fanin.len() > max {
            return Err(NetlistError::BadArity {
                gate: name,
                kind: kind.to_string(),
                got: fanin.len(),
            });
        }
        for &f in &fanin {
            if f.index() >= self.gates.len() {
                return Err(NetlistError::InvalidGateId(f));
            }
        }
        self.insert_named(Gate::new(name, kind, fanin))
    }

    /// Declares an existing gate as a primary output. Re-declaring is a no-op.
    pub fn mark_output(&mut self, id: GateId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Removes a gate from the output list (the gate itself is kept).
    pub fn unmark_output(&mut self, id: GateId) {
        self.outputs.retain(|&o| o != id);
    }

    /// Rewires every occurrence of `old` in the fan-in of `sink` to `new`.
    ///
    /// Returns the number of replaced connections.
    pub fn replace_fanin(&mut self, sink: GateId, old: GateId, new: GateId) -> Result<usize> {
        if new.index() >= self.gates.len() {
            return Err(NetlistError::InvalidGateId(new));
        }
        let gate = self
            .gates
            .get_mut(sink.index())
            .ok_or(NetlistError::InvalidGateId(sink))?;
        let mut n = 0;
        for f in gate.fanin.iter_mut() {
            if *f == old {
                *f = new;
                n += 1;
            }
        }
        Ok(n)
    }

    /// Rewires every sink of `old` (optionally also the output list) to read
    /// from `new` instead. Returns the number of rewired connections.
    pub fn replace_all_uses(
        &mut self,
        old: GateId,
        new: GateId,
        include_outputs: bool,
    ) -> Result<usize> {
        if new.index() >= self.gates.len() {
            return Err(NetlistError::InvalidGateId(new));
        }
        if old.index() >= self.gates.len() {
            return Err(NetlistError::InvalidGateId(old));
        }
        let mut n = 0;
        for gate in self.gates.iter_mut() {
            for f in gate.fanin.iter_mut() {
                if *f == old {
                    *f = new;
                    n += 1;
                }
            }
        }
        if include_outputs {
            for o in self.outputs.iter_mut() {
                if *o == old {
                    *o = new;
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Computes the fan-out list of every gate: `fanouts[i]` is the list of
    /// gates that read gate `i`.
    pub fn fanouts(&self) -> Vec<Vec<GateId>> {
        let mut fo = vec![Vec::new(); self.gates.len()];
        for (id, gate) in self.iter() {
            for &f in &gate.fanin {
                fo[f.index()].push(id);
            }
        }
        fo
    }

    /// Validates structural invariants: arities, fan-in ids, output ids,
    /// acyclicity, and that input/constant gates have no fan-in.
    pub fn validate(&self) -> Result<()> {
        for (id, gate) in self.iter() {
            let (min, max) = gate.kind.arity();
            if gate.fanin.len() < min || gate.fanin.len() > max {
                return Err(NetlistError::BadArity {
                    gate: gate.name.clone(),
                    kind: gate.kind.to_string(),
                    got: gate.fanin.len(),
                });
            }
            for &f in &gate.fanin {
                if f.index() >= self.gates.len() {
                    return Err(NetlistError::InvalidGateId(f));
                }
                if f == id {
                    return Err(NetlistError::CombinationalCycle(gate.name.clone()));
                }
            }
        }
        for &o in &self.outputs {
            if o.index() >= self.gates.len() {
                return Err(NetlistError::InvalidGateId(o));
            }
        }
        // Cycle check via topological sort.
        crate::topo::topological_order(self)?;
        Ok(())
    }

    /// Evaluates the netlist for a single pattern.
    ///
    /// `values` supplies the primary-input values in [`Netlist::inputs`] order
    /// followed by the key-input values in [`Netlist::key_inputs`] order.
    /// Returns the output values in [`Netlist::outputs`] order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] if the value count is wrong.
    pub fn evaluate(&self, values: &[bool]) -> Result<Vec<bool>> {
        let inputs = self.inputs();
        let keys = self.key_inputs();
        if values.len() != inputs.len() + keys.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: inputs.len() + keys.len(),
                got: values.len(),
            });
        }
        let (pi_vals, key_vals) = values.split_at(inputs.len());
        self.evaluate_with_key(pi_vals, key_vals)
    }

    /// Evaluates the netlist for a single pattern with explicit primary-input
    /// and key-input values.
    pub fn evaluate_with_key(&self, pi_values: &[bool], key_values: &[bool]) -> Result<Vec<bool>> {
        let inputs = self.inputs();
        let keys = self.key_inputs();
        if pi_values.len() != inputs.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: inputs.len(),
                got: pi_values.len(),
            });
        }
        if key_values.len() != keys.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: keys.len(),
                got: key_values.len(),
            });
        }
        let order = crate::topo::topological_order(self)?;
        let mut values = vec![false; self.gates.len()];
        for (id, &v) in inputs.iter().zip(pi_values) {
            values[id.index()] = v;
        }
        for (id, &v) in keys.iter().zip(key_values) {
            values[id.index()] = v;
        }
        let mut buf = Vec::with_capacity(8);
        for id in order {
            let gate = self.gate(id);
            if gate.kind.is_input() {
                continue;
            }
            buf.clear();
            buf.extend(gate.fanin.iter().map(|f| values[f.index()]));
            values[id.index()] = gate.kind.eval_bool(&buf);
        }
        Ok(self.outputs.iter().map(|o| values[o.index()]).collect())
    }

    /// Generates a signal name that is not yet used in this netlist, based on
    /// `prefix`.
    pub fn fresh_name(&self, prefix: &str) -> String {
        if !self.name_map.contains_key(prefix) {
            return prefix.to_string();
        }
        let mut i = 0usize;
        loop {
            let candidate = format!("{prefix}_{i}");
            if !self.name_map.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("half_adder");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let sum = nl.add_gate("sum", GateKind::Xor, vec![a, b]).unwrap();
        let carry = nl.add_gate("carry", GateKind::And, vec![a, b]).unwrap();
        nl.mark_output(sum);
        nl.mark_output(carry);
        nl
    }

    #[test]
    fn build_and_evaluate_half_adder() {
        let nl = half_adder();
        nl.validate().unwrap();
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.num_outputs(), 2);
        assert_eq!(nl.num_logic_gates(), 2);
        assert_eq!(nl.evaluate(&[false, false]).unwrap(), vec![false, false]);
        assert_eq!(nl.evaluate(&[true, false]).unwrap(), vec![true, false]);
        assert_eq!(nl.evaluate(&[false, true]).unwrap(), vec![true, false]);
        assert_eq!(nl.evaluate(&[true, true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("d");
        nl.add_input("a");
        assert!(matches!(
            nl.try_add_input("a"),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        assert!(matches!(
            nl.add_gate("x", GateKind::And, vec![a]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            nl.add_gate("y", GateKind::Not, vec![a, a]),
            Err(NetlistError::BadArity { .. })
        ));
        assert!(matches!(
            nl.add_gate("z", GateKind::Mux, vec![a, a]),
            Err(NetlistError::BadArity { .. })
        ));
    }

    #[test]
    fn dangling_fanin_rejected() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        assert!(matches!(
            nl.add_gate("x", GateKind::Not, vec![GateId(99)]),
            Err(NetlistError::InvalidGateId(_))
        ));
        let _ = a;
    }

    #[test]
    fn key_inputs_tracked_separately() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let k = nl.add_key_input("keyinput0").unwrap();
        let x = nl.add_gate("x", GateKind::Xor, vec![a, k]).unwrap();
        nl.mark_output(x);
        assert_eq!(nl.inputs(), vec![a]);
        assert_eq!(nl.key_inputs(), vec![k]);
        // XOR with key=0 is identity, key=1 inverts.
        assert_eq!(nl.evaluate_with_key(&[true], &[false]).unwrap(), vec![true]);
        assert_eq!(nl.evaluate_with_key(&[true], &[true]).unwrap(), vec![false]);
    }

    #[test]
    fn replace_fanin_rewires() {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate("x", GateKind::And, vec![a, a]).unwrap();
        nl.mark_output(x);
        let n = nl.replace_fanin(x, a, b).unwrap();
        assert_eq!(n, 2);
        assert_eq!(nl.gate(x).fanin, vec![b, b]);
    }

    #[test]
    fn replace_all_uses_rewires_everything() {
        let mut nl = Netlist::new("r");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate("x", GateKind::Not, vec![a]).unwrap();
        let y = nl.add_gate("y", GateKind::And, vec![a, x]).unwrap();
        nl.mark_output(a);
        nl.mark_output(y);
        let n = nl.replace_all_uses(a, b, true).unwrap();
        assert_eq!(n, 3);
        assert_eq!(nl.gate(x).fanin, vec![b]);
        assert_eq!(nl.gate(y).fanin, vec![b, x]);
        assert_eq!(nl.outputs(), &[b, y]);
    }

    #[test]
    fn fanouts_computed() {
        let nl = half_adder();
        let fo = nl.fanouts();
        let a = nl.find("a").unwrap();
        assert_eq!(fo[a.index()].len(), 2);
    }

    #[test]
    fn evaluate_rejects_wrong_count() {
        let nl = half_adder();
        assert!(matches!(
            nl.evaluate(&[true]),
            Err(NetlistError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut nl = Netlist::new("f");
        nl.add_input("a");
        assert_eq!(nl.fresh_name("b"), "b");
        let n = nl.fresh_name("a");
        assert_ne!(n, "a");
        assert!(nl.find(&n).is_none());
    }

    #[test]
    fn self_loop_detected_by_validate() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let x = nl.add_gate("x", GateKind::Not, vec![a]).unwrap();
        // Manually create a self-loop (bypassing add_gate checks).
        nl.gates[x.index()].fanin[0] = x;
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut nl = half_adder();
        let s = nl.find("sum").unwrap();
        nl.mark_output(s);
        assert_eq!(nl.num_outputs(), 2);
        nl.unmark_output(s);
        assert_eq!(nl.num_outputs(), 1);
    }

    #[test]
    fn json_round_trip_rebuilds_the_name_index() {
        let original = half_adder();
        let json = serde_json::to_string(&original).unwrap();
        let back: Netlist = serde_json::from_str(&json).unwrap();
        assert_eq!(back, original);
        for name in ["a", "b", "sum", "carry"] {
            assert_eq!(back.find(name), original.find(name), "{name}");
        }
        let fresh = back.fresh_name("a");
        assert_eq!(
            back.find(&fresh),
            None,
            "fresh_name gave the taken {fresh:?}"
        );
        assert_eq!(fresh, original.fresh_name("a"));
    }

    #[test]
    fn json_with_a_duplicate_name_or_a_dangling_id_is_rejected() {
        let json = serde_json::to_string(&half_adder()).unwrap();
        let duplicate = json.replace("\"carry\"", "\"sum\"");
        let dangling = json.replace("\"outputs\":[2,3]", "\"outputs\":[2,9]");
        for bad in [duplicate, dangling] {
            assert_ne!(bad, json, "the edit must apply");
            assert!(serde_json::from_str::<Netlist>(&bad).is_err(), "{bad}");
        }
    }
}
