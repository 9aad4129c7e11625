//! Topological ordering, logic levels, cones and reachability.

use crate::{GateId, GateKind, Netlist, NetlistError, Result};
use std::collections::VecDeque;

/// Computes a topological order of all gates (fan-ins before fan-outs).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the netlist has a cycle.
pub fn topological_order(nl: &Netlist) -> Result<Vec<GateId>> {
    let n = nl.len();
    // Every fan-in edge counts, repeats included: `fanouts` lists a gate
    // once per occurrence in its successor's fan-in, so each occurrence is
    // retired exactly once below.
    let mut indeg: Vec<usize> = nl.iter().map(|(_, gate)| gate.fanin.len()).collect();
    let fanouts = nl.fanouts();
    let mut queue: VecDeque<GateId> = nl.ids().filter(|id| indeg[id.index()] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop_front() {
        order.push(id);
        for &s in &fanouts[id.index()] {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                queue.push_back(s);
            }
        }
    }
    if order.len() != n {
        // Find a gate still having nonzero indegree for the error message.
        let culprit = nl
            .ids()
            .find(|id| indeg[id.index()] > 0)
            .map(|id| nl.gate(id).name.clone())
            .unwrap_or_else(|| "<unknown>".to_string());
        return Err(NetlistError::CombinationalCycle(culprit));
    }
    Ok(order)
}

/// Computes the logic level (longest distance from any input/constant) of
/// every gate. Inputs, key inputs and constants are level 0.
pub fn logic_levels(nl: &Netlist) -> Result<Vec<usize>> {
    let order = topological_order(nl)?;
    let mut levels = vec![0usize; nl.len()];
    for id in order {
        let gate = nl.gate(id);
        if gate.fanin.is_empty() {
            levels[id.index()] = 0;
        } else {
            levels[id.index()] = gate
                .fanin
                .iter()
                .map(|f| levels[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
        }
    }
    Ok(levels)
}

/// The circuit depth: the maximum logic level over all primary outputs.
pub fn depth(nl: &Netlist) -> Result<usize> {
    let levels = logic_levels(nl)?;
    Ok(nl
        .outputs()
        .iter()
        .map(|o| levels[o.index()])
        .max()
        .unwrap_or(0))
}

/// Returns the transitive fan-in cone of `root` (including `root` itself).
pub fn fanin_cone(nl: &Netlist, root: GateId) -> Vec<GateId> {
    let mut visited = vec![false; nl.len()];
    let mut stack = vec![root];
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if visited[id.index()] {
            continue;
        }
        visited[id.index()] = true;
        cone.push(id);
        for &f in &nl.gate(id).fanin {
            if !visited[f.index()] {
                stack.push(f);
            }
        }
    }
    cone.sort();
    cone
}

/// Returns the transitive fan-out cone of `root` (including `root` itself).
pub fn fanout_cone(nl: &Netlist, root: GateId) -> Vec<GateId> {
    let fanouts = nl.fanouts();
    let mut visited = vec![false; nl.len()];
    let mut stack = vec![root];
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        if visited[id.index()] {
            continue;
        }
        visited[id.index()] = true;
        cone.push(id);
        for &s in &fanouts[id.index()] {
            if !visited[s.index()] {
                stack.push(s);
            }
        }
    }
    cone.sort();
    cone
}

/// Returns `true` if `target` is reachable from `from` following driver→sink
/// edges (i.e. `target` is in the transitive fan-out of `from`).
///
/// Used by MUX-insertion to avoid creating combinational cycles.
pub fn is_reachable(nl: &Netlist, from: GateId, target: GateId) -> bool {
    if from == target {
        return true;
    }
    let fanouts = nl.fanouts();
    let mut visited = vec![false; nl.len()];
    let mut stack = vec![from];
    visited[from.index()] = true;
    while let Some(id) = stack.pop() {
        for &s in &fanouts[id.index()] {
            if s == target {
                return true;
            }
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
}

/// Returns all gates whose kind is ordinary logic (not inputs/keys/constants).
pub fn logic_gates(nl: &Netlist) -> Vec<GateId> {
    nl.ids()
        .filter(|&id| {
            let k = nl.gate(id).kind;
            !k.is_input() && !k.is_constant()
        })
        .collect()
}

/// Returns the gates that drive at least one other gate or a primary output
/// ("live" gates); useful to pick locking locations with observable effect.
pub fn live_gates(nl: &Netlist) -> Vec<GateId> {
    let fanouts = nl.fanouts();
    nl.ids()
        .filter(|&id| !fanouts[id.index()].is_empty() || nl.outputs().contains(&id))
        .collect()
}

/// Computes, for every gate, whether its kind is [`GateKind::KeyInput`] or it
/// is in the transitive fan-out of a key input. Attacks use this to identify
/// "key-affected" logic.
pub fn key_affected(nl: &Netlist) -> Vec<bool> {
    let mut affected = vec![false; nl.len()];
    let fanouts = nl.fanouts();
    let mut stack: Vec<GateId> = nl
        .ids()
        .filter(|&id| nl.gate(id).kind == GateKind::KeyInput)
        .collect();
    for &k in &stack {
        affected[k.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &s in &fanouts[id.index()] {
            if !affected[s.index()] {
                affected[s.index()] = true;
                stack.push(s);
            }
        }
    }
    affected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("in");
        for i in 0..n {
            prev = nl
                .add_gate(format!("n{i}"), GateKind::Not, vec![prev])
                .unwrap();
        }
        nl.mark_output(prev);
        nl
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nl = chain(5);
        let order = topological_order(&nl).unwrap();
        assert_eq!(order.len(), nl.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; nl.len()];
            for (i, id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for (id, gate) in nl.iter() {
            for &f in &gate.fanin {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn depth_of_chain() {
        let nl = chain(7);
        assert_eq!(depth(&nl).unwrap(), 7);
        let levels = logic_levels(&nl).unwrap();
        assert_eq!(levels[nl.find("in").unwrap().index()], 0);
        assert_eq!(levels[nl.find("n6").unwrap().index()], 7);
    }

    #[test]
    fn cones_and_reachability() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate("x", GateKind::And, vec![a, b]).unwrap();
        let y = nl.add_gate("y", GateKind::Not, vec![x]).unwrap();
        let z = nl.add_gate("z", GateKind::Or, vec![a, y]).unwrap();
        nl.mark_output(z);

        let cone = fanin_cone(&nl, z);
        assert_eq!(cone, vec![a, b, x, y, z]);
        let fout = fanout_cone(&nl, b);
        assert_eq!(fout, vec![b, x, y, z]);
        assert!(is_reachable(&nl, a, z));
        assert!(is_reachable(&nl, x, z));
        assert!(!is_reachable(&nl, z, a));
        assert!(is_reachable(&nl, a, a));
    }

    #[test]
    fn key_affected_marks_fanout_of_keys() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let k = nl.add_key_input("k0").unwrap();
        let x = nl.add_gate("x", GateKind::Xor, vec![a, k]).unwrap();
        let y = nl.add_gate("y", GateKind::Not, vec![a]).unwrap();
        nl.mark_output(x);
        nl.mark_output(y);
        let aff = key_affected(&nl);
        assert!(aff[k.index()]);
        assert!(aff[x.index()]);
        assert!(!aff[a.index()]);
        assert!(!aff[y.index()]);
    }

    #[test]
    fn logic_gates_excludes_inputs() {
        let nl = chain(3);
        assert_eq!(logic_gates(&nl).len(), 3);
        assert_eq!(live_gates(&nl).len(), 4); // input + 3 gates (last is output)
    }

    #[test]
    fn cycle_reported() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let x = nl.add_gate("x", GateKind::Not, vec![a]).unwrap();
        let y = nl.add_gate("y", GateKind::Not, vec![x]).unwrap();
        // Introduce cycle x -> y -> x by rewiring x's fanin to y.
        nl.replace_fanin(x, a, y).unwrap();
        assert!(matches!(
            topological_order(&nl),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }
}
