//! What the MuxLink attacker sees of a locked netlist ([`LinkView`]).

use crate::cache::netlist_fingerprint;
use crate::muxlink::MuxCandidate;
use autolock_netlist::graph::CsrGraph;
use autolock_netlist::{GateId, GateKind, Netlist};
use std::collections::VecDeque;

/// The attacker's view of one locked netlist.
///
/// MuxLink (Alrahis et al., DATE 2022) learns links on the locked netlist
/// with the key inputs and the key-controlled MUXes taken out: those gates
/// are the lock itself, so the attack must judge the two wires behind each
/// MUX from the *rest* of the circuit. This type is the one place that
/// decides what is hidden. Every structure the attack reads (graph, logic
/// levels, directed fan-outs, candidate list) is derived from its mask once
/// per attack by [`LinkView::new`] and shared by training and scoring;
/// [`crate::LinkFeatureExtractor`] reads the netlist only through it.
#[derive(Debug)]
pub struct LinkView<'a> {
    pub(crate) netlist: &'a Netlist,
    /// `hidden[g]`: gate `g` is a key input or a key-controlled MUX.
    hidden: Vec<bool>,
    /// Undirected graph of the visible gates (no edge touches a hidden one).
    pub(crate) graph: CsrGraph,
    /// Longest-path logic levels of the visible sub-DAG.
    pub(crate) levels: VisibleLevels,
    /// Directed fan-outs between visible gates (the cycle rule's graph).
    fanouts: Vec<Vec<GateId>>,
    /// [`netlist_fingerprint`] of the netlist (the subgraph-cache domain).
    pub(crate) fingerprint: u64,
    /// Every key-MUX decision, in gate order.
    pub(crate) candidates: Vec<MuxCandidate>,
}

impl<'a> LinkView<'a> {
    /// The view of `netlist`, or `None` when it hides no key-controlled MUX
    /// (nothing to attack: not MUX-locked, or keyless).
    pub fn new(netlist: &'a Netlist) -> Option<Self> {
        let hidden = hidden_mask(netlist);
        let candidates = key_mux_candidates(netlist, &hidden);
        (!candidates.is_empty()).then(|| Self::with_mask(netlist, hidden, candidates))
    }

    /// The view of `netlist` under an arbitrary `hidden` mask.
    fn with_mask(netlist: &'a Netlist, hidden: Vec<bool>, candidates: Vec<MuxCandidate>) -> Self {
        let mut fanouts = vec![Vec::new(); netlist.len()];
        for (id, gate) in netlist.iter() {
            if hidden[id.index()] {
                continue;
            }
            for &f in &gate.fanin {
                if !hidden[f.index()] {
                    fanouts[f.index()].push(id);
                }
            }
        }
        LinkView {
            graph: CsrGraph::from_netlist_filtered(netlist, |id| hidden[id.index()]),
            levels: VisibleLevels::new(netlist, &hidden, &fanouts),
            fanouts,
            fingerprint: netlist_fingerprint(netlist),
            candidates,
            hidden,
            netlist,
        }
    }

    /// A view of `netlist` that hides exactly the gates in `hidden` (tests
    /// of the view-derived structures on unlocked circuits).
    #[cfg(test)]
    pub(crate) fn hiding(netlist: &'a Netlist, hidden: &[GateId]) -> Self {
        let mut mask = vec![false; netlist.len()];
        for id in hidden {
            mask[id.index()] = true;
        }
        Self::with_mask(netlist, mask, Vec::new())
    }

    /// The key-MUX decisions the attack has to make, in gate order.
    pub fn candidates(&self) -> &[MuxCandidate] {
        &self.candidates
    }

    /// `true` if `gate` is hidden from the attacker.
    pub(crate) fn is_hidden(&self, gate: GateId) -> bool {
        self.hidden[gate.index()]
    }

    /// `true` if `target` is reachable from `from` along visible directed
    /// wires. The cycle rule: a candidate link `driver → sink` is
    /// structurally impossible if `sink` already reaches `driver` (it would
    /// close a combinational loop).
    pub(crate) fn reaches(&self, from: GateId, target: GateId) -> bool {
        if from == target {
            return true;
        }
        let mut visited = vec![false; self.fanouts.len()];
        let mut stack = vec![from];
        visited[from.index()] = true;
        while let Some(node) = stack.pop() {
            for &next in &self.fanouts[node.index()] {
                if next == target {
                    return true;
                }
                if !visited[next.index()] {
                    visited[next.index()] = true;
                    stack.push(next);
                }
            }
        }
        false
    }
}

/// The hidden-gate rule: key inputs, plus every MUX whose select is hidden
/// (in gate order, so a MUX selected by a key MUX is hidden as well). This is
/// the only place the rule is written.
fn hidden_mask(netlist: &Netlist) -> Vec<bool> {
    let mut hidden: Vec<bool> = netlist
        .iter()
        .map(|(_, gate)| gate.kind == GateKind::KeyInput)
        .collect();
    for (id, gate) in netlist.iter() {
        if gate.kind == GateKind::Mux && hidden[gate.fanin[0].index()] {
            hidden[id.index()] = true;
        }
    }
    hidden
}

/// One candidate decision per (hidden MUX selected by a key input, distinct
/// sink), in gate order.
fn key_mux_candidates(netlist: &Netlist, hidden: &[bool]) -> Vec<MuxCandidate> {
    let mut key_bit = vec![None; netlist.len()];
    for (bit, id) in netlist.key_inputs().into_iter().enumerate() {
        key_bit[id.index()] = Some(bit);
    }
    let fanouts = netlist.fanouts();
    let mut candidates = Vec::new();
    for (id, gate) in netlist.iter() {
        if gate.kind != GateKind::Mux || !hidden[id.index()] {
            continue;
        }
        let Some(key_bit) = key_bit[gate.fanin[0].index()] else {
            continue;
        };
        // A sink reading the MUX through multiple fan-in positions still
        // constitutes a single candidate decision.
        let mut sinks: Vec<GateId> = fanouts[id.index()].clone();
        sinks.sort();
        sinks.dedup();
        for sink in sinks {
            candidates.push(MuxCandidate {
                key_bit,
                mux: id,
                sink,
                cand_key0: gate.fanin[1],
                cand_key1: gate.fanin[2],
            });
        }
    }
    candidates
}

/// [`LinkView::candidates`] of `netlist` (empty when it is not MUX-locked).
pub(crate) fn find_candidates(netlist: &Netlist) -> Vec<MuxCandidate> {
    key_mux_candidates(netlist, &hidden_mask(netlist))
}

/// Longest-path logic levels of a netlist's visible part, with their
/// maximum taken once per netlist rather than once per link.
///
/// True drivers sit at a lower level than their sinks, which makes the level
/// difference a strong link-prediction feature.
#[derive(Debug)]
pub(crate) struct VisibleLevels {
    levels: Vec<usize>,
    /// The largest level, floored at 1: the normaliser of the level
    /// features.
    max: usize,
}

impl VisibleLevels {
    /// Kahn-style longest path over the visible sub-DAG; hidden gates keep
    /// level 0. `fanouts` are the visible directed fan-outs.
    fn new(netlist: &Netlist, hidden: &[bool], fanouts: &[Vec<GateId>]) -> Self {
        let mut indeg = vec![0usize; netlist.len()];
        for (id, gate) in netlist.iter() {
            if !hidden[id.index()] {
                indeg[id.index()] = gate.fanin.iter().filter(|f| !hidden[f.index()]).count();
            }
        }
        let mut levels = vec![0usize; netlist.len()];
        let mut queue: VecDeque<GateId> = netlist
            .ids()
            .filter(|id| !hidden[id.index()] && indeg[id.index()] == 0)
            .collect();
        while let Some(id) = queue.pop_front() {
            for &sink in &fanouts[id.index()] {
                levels[sink.index()] = levels[sink.index()].max(levels[id.index()] + 1);
                indeg[sink.index()] -= 1;
                if indeg[sink.index()] == 0 {
                    queue.push_back(sink);
                }
            }
        }
        let max = levels.iter().copied().max().unwrap_or(1).max(1);
        VisibleLevels { levels, max }
    }

    /// Level of gate `id` (0 for a gate outside the netlist).
    pub(crate) fn of(&self, id: GateId) -> usize {
        self.levels.get(id.index()).copied().unwrap_or(0)
    }

    /// The largest level, floored at 1.
    pub(crate) fn max(&self) -> usize {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_circuits::{c17, synth_circuit};
    use autolock_locking::{DMuxLocking, LockingScheme};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn dmux_view_hides_key_inputs_and_key_muxes() {
        let original = synth_circuit("t", 10, 4, 120, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let locked = DMuxLocking::default().lock(&original, 8, &mut rng).unwrap();
        let netlist = locked.netlist();
        let view = LinkView::new(netlist).expect("a D-MUX lock has candidates");
        // Two MUXes per key bit, each driving one sink.
        assert_eq!(view.candidates().len(), 16);
        let hidden: Vec<GateId> = netlist.ids().filter(|&id| view.is_hidden(id)).collect();
        assert_eq!(hidden.len(), 8 + 16); // key inputs + muxes
        for id in hidden {
            assert!(view.graph.neighbors(id).is_empty());
            assert!(view.fanouts[id.index()].is_empty());
            assert_eq!(view.levels.of(id), 0);
        }
    }

    #[test]
    fn unlocked_netlist_has_no_view() {
        assert!(LinkView::new(&c17()).is_none());
    }
}
