//! Graph views of a netlist and enclosing-subgraph extraction.
//!
//! Link-prediction attacks (MuxLink-style) treat the netlist as an undirected
//! graph whose nodes are gates and whose edges are driver→sink connections.
//! This module provides that graph ([`CsrGraph`]), its bounded neighbourhood
//! queries, and the *enclosing subgraph* extraction (the h-hop neighbourhood
//! around a candidate link) those attacks operate on, together with
//! Double-Radius Node Labelling (DRNL) as used by SEAL-style link predictors.

use crate::{GateId, Netlist};
use std::cell::RefCell;

/// Distance of a node that a bounded search did not reach
/// ([`CsrGraph::bfs_distances`]).
pub const UNREACHED: u32 = u32::MAX;

/// Compressed-sparse-row undirected view of a netlist.
///
/// The graph lives in two flat arrays instead of one `Vec` per node, which
/// matters once circuits reach ISCAS scale: a 7500-gate netlist is ~30k
/// adjacency entries in two contiguous allocations rather than 7500 heap
/// vectors. Per-node adjacency is sorted, so neighbourhood intersection
/// ([`CsrGraph::common_neighbors`]) is a linear merge instead of a quadratic
/// scan.
///
/// The link-prediction attacks additionally need neighbourhoods of a link
/// *with that link hidden* (positive training examples). Instead of cloning
/// the adjacency without the edge, every query takes an optional skipped
/// edge, so large-circuit attacks never copy the graph at all. Queries keep
/// their per-node state in dense buffers indexed by gate, not in hash maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[i]..offsets[i + 1]` indexes node `i`'s neighbours in `adj`.
    offsets: Vec<u32>,
    /// Concatenated, per-node-sorted neighbour lists.
    adj: Vec<GateId>,
}

impl CsrGraph {
    /// Builds the CSR graph of a netlist (one node per gate, one undirected
    /// edge per driver→sink connection; duplicate edges are collapsed).
    pub fn from_netlist(nl: &Netlist) -> Self {
        Self::from_netlist_filtered(nl, |_| false)
    }

    /// Builds the CSR graph while skipping every edge incident to a node for
    /// which `hidden(node)` returns `true` (the attacker's view of a locked
    /// netlist, with key inputs and key gates removed).
    pub fn from_netlist_filtered<F: Fn(GateId) -> bool>(nl: &Netlist, hidden: F) -> Self {
        // Collect both directions of every edge, then sort + dedup: one pass
        // of transient memory, and the per-node slices come out sorted.
        let mut pairs: Vec<(GateId, GateId)> = Vec::new();
        for (id, gate) in nl.iter() {
            if hidden(id) {
                continue;
            }
            for &f in &gate.fanin {
                if hidden(f) || f == id {
                    continue;
                }
                pairs.push((id, f));
                pairs.push((f, id));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; nl.len() + 1];
        for &(a, _) in &pairs {
            offsets[a.index() + 1] += 1;
        }
        for i in 0..nl.len() {
            offsets[i + 1] += offsets[i];
        }
        let adj: Vec<GateId> = pairs.into_iter().map(|(_, b)| b).collect();
        CsrGraph { offsets, adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Neighbours of a node, in ascending id order.
    pub fn neighbors(&self, id: GateId) -> &[GateId] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Node degree.
    pub fn degree(&self, id: GateId) -> usize {
        self.neighbors(id).len()
    }

    /// Returns `true` if the undirected edge `(a, b)` exists.
    pub fn has_edge(&self, a: GateId, b: GateId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Number of common neighbours of two nodes (linear merge over the two
    /// sorted adjacency slices).
    pub fn common_neighbors(&self, a: GateId, b: GateId) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        let (na, nb) = (self.neighbors(a), self.neighbors(b));
        while i < na.len() && j < nb.len() {
            match na[i].cmp(&nb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Jaccard similarity of the neighbourhoods of two nodes.
    pub fn jaccard(&self, a: GateId, b: GateId) -> f64 {
        let common = self.common_neighbors(a, b);
        let union = self.degree(a) + self.degree(b) - common;
        if union == 0 {
            0.0
        } else {
            common as f64 / union as f64
        }
    }

    /// Breadth-first hop distances from `source`, up to `max_hops`
    /// (inclusive), with the undirected edge `skip` treated as absent.
    ///
    /// The result is dense and indexed by gate: `dist[g.index()]` is the hop
    /// count of gate `g`, or [`UNREACHED`] past the budget (or in another
    /// component).
    pub fn bfs_distances(
        &self,
        source: GateId,
        max_hops: usize,
        skip: Option<(GateId, GateId)>,
    ) -> Vec<u32> {
        let mut dist = vec![UNREACHED; self.len()];
        self.bfs_into(source, max_hops, skip, None, &mut dist, &mut Vec::new());
        dist
    }

    /// Hop distance between `u` and `v` with the undirected edge `skip`
    /// treated as absent: `Some(d)` when the shortest path has `d <=
    /// max_hops` edges, `None` when it is longer or does not exist.
    ///
    /// A breadth-first search from `u` that stops as soon as it reaches `v`,
    /// so it pays for the ball of radius `d` around `u` (the whole
    /// `max_hops` ball when it returns `None`).
    pub fn distance(
        &self,
        u: GateId,
        v: GateId,
        max_hops: usize,
        skip: Option<(GateId, GateId)>,
    ) -> Option<usize> {
        let mut dist = borrow_buffer(self.len());
        let mut reached = Vec::new();
        self.bfs_into(u, max_hops, skip, Some(v), &mut dist, &mut reached);
        let d = dist[v.index()];
        return_buffer(dist, &reached);
        (d != UNREACHED).then_some(d as usize)
    }

    /// Breadth-first search from `source` into the dense `dist` (which must
    /// be [`UNREACHED`] on every node the search can reach), stopping as
    /// soon as it reaches `stop`. Reached nodes are appended to `reached`
    /// in visit order; the appended tail doubles as the BFS queue.
    fn bfs_into(
        &self,
        source: GateId,
        max_hops: usize,
        skip: Option<(GateId, GateId)>,
        stop: Option<GateId>,
        dist: &mut [u32],
        reached: &mut Vec<GateId>,
    ) {
        let mut head = reached.len();
        dist[source.index()] = 0;
        reached.push(source);
        while let Some(&x) = reached.get(head) {
            head += 1;
            let dx = dist[x.index()];
            if dx as usize == max_hops {
                continue;
            }
            for &y in self.neighbors(x) {
                if dist[y.index()] == UNREACHED && !is_skipped(skip, x, y) {
                    dist[y.index()] = dx + 1;
                    reached.push(y);
                    if Some(y) == stop {
                        return;
                    }
                }
            }
        }
    }

    /// Extracts the `hops`-hop enclosing subgraph of the candidate link
    /// `(u, v)`. With `drop_link` the edge `(u, v)` is treated as absent —
    /// in BFS *and* in the extracted edge list — without copying the graph;
    /// link-prediction training uses this to hide a positive link before
    /// extracting its neighbourhood.
    pub fn enclosing_subgraph(
        &self,
        u: GateId,
        v: GateId,
        hops: usize,
        drop_link: bool,
    ) -> EnclosingSubgraph {
        let skip = drop_link.then_some((u, v));
        let mut du = borrow_buffer(self.len());
        let mut dv = borrow_buffer(self.len());
        // Both balls (each contains its own endpoint), sorted by gate id.
        let mut nodes = Vec::new();
        self.bfs_into(u, hops, skip, None, &mut du, &mut nodes);
        self.bfs_into(v, hops, skip, None, &mut dv, &mut nodes);
        nodes.sort_unstable();
        nodes.dedup();
        let widen = |d: u32| {
            if d == UNREACHED {
                usize::MAX
            } else {
                d as usize
            }
        };
        let dist_u: Vec<usize> = nodes.iter().map(|n| widen(du[n.index()])).collect();
        let dist_v: Vec<usize> = nodes.iter().map(|n| widen(dv[n.index()])).collect();
        let drnl: Vec<usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                if n == u || n == v {
                    1
                } else {
                    drnl_label(dist_u[i], dist_v[i])
                }
            })
            .collect();
        // `du` becomes the gate → subgraph-index map: every node of `u`'s
        // ball is in `nodes`, so every gate outside the subgraph still reads
        // `UNREACHED`.
        let mut index_of = du;
        for (i, n) in nodes.iter().enumerate() {
            index_of[n.index()] = i as u32;
        }
        let mut edges = Vec::new();
        for (i, &n) in nodes.iter().enumerate() {
            for &m in self.neighbors(n) {
                let j = index_of[m.index()];
                if j != UNREACHED && i < j as usize && !is_skipped(skip, n, m) {
                    edges.push((i, j as usize));
                }
            }
        }
        // Both buffers were written only at subgraph nodes.
        return_buffer(index_of, &nodes);
        return_buffer(dv, &nodes);
        EnclosingSubgraph {
            u,
            v,
            nodes,
            dist_u,
            dist_v,
            drnl,
            edges,
        }
    }
}

thread_local! {
    /// This thread's spare per-gate buffers, [`UNREACHED`] throughout.
    /// Queries borrow them and reset only the entries they wrote, so a query
    /// costs the nodes it visits rather than `len()` words of fill.
    static SPARE_BUFFERS: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
}

/// A per-gate buffer of at least `len` entries, all [`UNREACHED`].
fn borrow_buffer(len: usize) -> Vec<u32> {
    let mut buf = SPARE_BUFFERS.with_borrow_mut(Vec::pop).unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, UNREACHED);
    }
    buf
}

/// Hands back a borrowed buffer after resetting the entries of `written`,
/// which must cover every entry the borrower changed.
fn return_buffer(mut buf: Vec<u32>, written: &[GateId]) {
    for g in written {
        buf[g.index()] = UNREACHED;
    }
    SPARE_BUFFERS.with_borrow_mut(|spare| spare.push(buf));
}

/// Whether the undirected edge `(a, b)` is the skipped one.
fn is_skipped(skip: Option<(GateId, GateId)>, a: GateId, b: GateId) -> bool {
    matches!(skip, Some((x, y)) if (a == x && b == y) || (a == y && b == x))
}

/// The enclosing subgraph of a candidate link `(u, v)`: all nodes within
/// `hops` of either endpoint, with per-node structural labels.
#[derive(Debug, Clone)]
pub struct EnclosingSubgraph {
    /// First endpoint of the candidate link.
    pub u: GateId,
    /// Second endpoint of the candidate link.
    pub v: GateId,
    /// Nodes of the subgraph (always contains `u` and `v`).
    pub nodes: Vec<GateId>,
    /// Hop distance from `u` for every node (usize::MAX if unreachable within
    /// the hop budget).
    pub dist_u: Vec<usize>,
    /// Hop distance from `v` for every node.
    pub dist_v: Vec<usize>,
    /// DRNL label of every node.
    pub drnl: Vec<usize>,
    /// Edges of the subgraph as index pairs into `nodes`.
    pub edges: Vec<(usize, usize)>,
}

/// Double-Radius Node Labelling (Zhang & Chen, SEAL). Labels encode the pair
/// of distances `(d_u, d_v)` of a node to the two link endpoints; the two
/// endpoints themselves get label 1. Unreachable nodes get label 0.
pub fn drnl_label(d_u: usize, d_v: usize) -> usize {
    if d_u == usize::MAX || d_v == usize::MAX {
        return 0;
    }
    let d = d_u + d_v;
    let half = d / 2;
    // f(du, dv) = 1 + min(du, dv) + (d/2) * ((d/2) + (d % 2) - 1)
    1 + d_u.min(d_v) + half * ((half + d % 2).saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn diamond() -> (Netlist, GateId, GateId, GateId, GateId) {
        // a -> x, a -> y, x -> z, y -> z
        let mut nl = Netlist::new("diamond");
        let a = nl.add_input("a");
        let x = nl.add_gate("x", GateKind::Not, vec![a]).unwrap();
        let y = nl.add_gate("y", GateKind::Buf, vec![a]).unwrap();
        let z = nl.add_gate("z", GateKind::And, vec![x, y]).unwrap();
        nl.mark_output(z);
        (nl, a, x, y, z)
    }

    /// Brute-force adjacency straight from the fan-in lists: both
    /// directions of every wire, deduplicated and sorted.
    fn reference_adjacency(nl: &Netlist, hidden: impl Fn(GateId) -> bool) -> Vec<Vec<GateId>> {
        let mut adj = vec![Vec::new(); nl.len()];
        for (id, gate) in nl.iter() {
            for &f in &gate.fanin {
                if !hidden(id) && !hidden(f) {
                    adj[id.index()].push(f);
                    adj[f.index()].push(id);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        adj
    }

    #[test]
    fn undirected_adjacency() {
        let (nl, a, x, y, z) = diamond();
        let g = CsrGraph::from_netlist(&nl);
        assert_eq!(g.len(), 4);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.degree(z), 2);
        assert!(g.neighbors(x).contains(&a));
        assert!(g.neighbors(x).contains(&z));
        assert_eq!(g.common_neighbors(x, y), 2); // a and z
        assert!(g.jaccard(x, y) > 0.9);
    }

    #[test]
    fn excluded_edges_are_absent() {
        // A skipped edge is never walked: with a–x hidden, x is only
        // reachable the long way round (a → y → z → x).
        let (nl, a, x, y, _z) = diamond();
        let g = CsrGraph::from_netlist(&nl);
        let d = g.bfs_distances(a, 4, Some((a, x)));
        assert_eq!(d[x.index()], 3);
        assert_eq!(d[y.index()], 1);
        assert_eq!(g.distance(a, x, 4, Some((a, x))), Some(3));
        assert_eq!(g.distance(a, x, 2, Some((a, x))), None);
    }

    #[test]
    fn without_edge_removes_both_directions() {
        let (nl, a, x, _y, _z) = diamond();
        let g = CsrGraph::from_netlist(&nl);
        // The skip is undirected: either orientation hides the edge, from
        // either endpoint.
        for skip in [(a, x), (x, a)] {
            assert_eq!(g.distance(a, x, 4, Some(skip)), Some(3));
            assert_eq!(g.distance(x, a, 4, Some(skip)), Some(3));
            assert_eq!(g.bfs_distances(x, 4, Some(skip))[a.index()], 3);
        }
        // The graph itself is untouched.
        assert!(g.has_edge(a, x));
        assert_eq!(g.distance(a, x, 4, None), Some(1));
    }

    #[test]
    fn filtered_graph_hides_nodes() {
        let (nl, _a, x, _y, _z) = diamond();
        let g = CsrGraph::from_netlist_filtered(&nl, |id| id == x);
        let reference = reference_adjacency(&nl, |id| id == x);
        for id in nl.ids() {
            assert_eq!(g.neighbors(id), reference[id.index()].as_slice(), "{id}");
        }
    }

    #[test]
    fn bfs_distances_respect_hop_limit() {
        let (nl, a, _x, _y, z) = diamond();
        let g = CsrGraph::from_netlist(&nl);
        let d = g.bfs_distances(a, 1, None);
        assert_eq!(d[a.index()], 0);
        assert_eq!(d[z.index()], UNREACHED); // z is 2 hops away
        let d2 = g.bfs_distances(a, 2, None);
        assert_eq!(d2[z.index()], 2);
        assert_eq!(g.distance(a, z, 1, None), None);
        assert_eq!(g.distance(a, z, 2, None), Some(2));
    }

    #[test]
    fn enclosing_subgraph_contains_endpoints_and_labels() {
        let (nl, a, x, y, z) = diamond();
        let g = CsrGraph::from_netlist(&nl);
        let sg = g.enclosing_subgraph(x, z, 2, true);
        assert!(sg.nodes.contains(&x));
        assert!(sg.nodes.contains(&z));
        assert!(sg.nodes.contains(&a));
        assert!(sg.nodes.contains(&y));
        // Endpoints labelled 1.
        let xi = sg.nodes.iter().position(|&n| n == x).unwrap();
        let zi = sg.nodes.iter().position(|&n| n == z).unwrap();
        assert_eq!(sg.drnl[xi], 1);
        assert_eq!(sg.drnl[zi], 1);
        // The excluded edge must not appear.
        assert!(!sg.edges.contains(&(xi.min(zi), xi.max(zi))));
    }

    #[test]
    fn csr_graph_matches_vec_of_vec_adjacency() {
        let (nl, a, x, y, z) = diamond();
        let reference = reference_adjacency(&nl, |_| false);
        let c = CsrGraph::from_netlist(&nl);
        assert_eq!(c.len(), reference.len());
        assert_eq!(c.num_edges(), 4);
        for id in [a, x, y, z] {
            assert_eq!(c.degree(id), reference[id.index()].len(), "{id}");
            assert_eq!(c.neighbors(id), reference[id.index()].as_slice(), "{id}");
        }
        // Common neighbours and Jaccard of every pair, against a quadratic
        // intersection of the reference lists.
        for p in [a, x, y, z] {
            for q in [a, x, y, z] {
                let (np, nq) = (&reference[p.index()], &reference[q.index()]);
                let common = np.iter().filter(|n| nq.contains(n)).count();
                let union = np.len() + nq.len() - common;
                assert_eq!(c.common_neighbors(p, q), common, "{p} {q}");
                assert_eq!(c.jaccard(p, q), common as f64 / union as f64, "{p} {q}");
            }
        }
        assert_eq!(c.jaccard(x, y), 1.0);
        assert!(c.has_edge(a, x));
        assert!(!c.has_edge(a, z));
    }

    #[test]
    fn csr_filtered_hides_nodes() {
        let (nl, a, x, y, z) = diamond();
        let c = CsrGraph::from_netlist_filtered(&nl, |id| id == x);
        assert!(c.neighbors(a).contains(&y));
        assert!(!c.neighbors(a).contains(&x));
        assert!(c.neighbors(x).is_empty());
        assert!(!c.neighbors(z).contains(&x));
    }

    #[test]
    fn csr_bfs_skip_edge_reroutes_distances() {
        let (nl, a, x, _y, z) = diamond();
        let c = CsrGraph::from_netlist(&nl);
        let plain = c.bfs_distances(x, 4, None);
        assert_eq!(plain[z.index()], 1);
        // With the x–z edge hidden, z is only reachable via a → y.
        let skipped = c.bfs_distances(x, 4, Some((z, x)));
        assert_eq!(skipped[z.index()], 3);
        assert_eq!(skipped[a.index()], 1);
        assert_eq!(c.distance(x, z, 4, Some((z, x))), Some(3));
    }

    #[test]
    fn csr_enclosing_subgraph_matches_cloning_extraction() {
        // What extraction from a clone of the graph without the x–z edge
        // yields, worked by hand: BFS from x reaches a (1) and y (2), BFS
        // from z reaches y (1) and a (2); nodes are sorted by id.
        let (nl, a, x, y, z) = diamond();
        let c = CsrGraph::from_netlist(&nl);
        let sg = c.enclosing_subgraph(x, z, 2, true);
        assert_eq!(sg.nodes, vec![a, x, y, z]);
        assert_eq!(sg.dist_u, vec![1, 0, 2, usize::MAX]);
        assert_eq!(sg.dist_v, vec![2, usize::MAX, 1, 0]);
        assert_eq!(sg.drnl, vec![drnl_label(1, 2), 1, drnl_label(2, 1), 1]);
        assert_eq!(sg.edges, vec![(0, 1), (0, 2), (2, 3)]);
    }

    #[test]
    fn csr_enclosing_subgraph_keeps_link_without_drop() {
        let (nl, _a, x, _y, z) = diamond();
        let c = CsrGraph::from_netlist(&nl);
        let sg = c.enclosing_subgraph(x, z, 2, false);
        let xi = sg.nodes.iter().position(|&n| n == x).unwrap();
        let zi = sg.nodes.iter().position(|&n| n == z).unwrap();
        assert!(sg.edges.contains(&(xi.min(zi), xi.max(zi))));
    }

    #[test]
    fn drnl_label_basics() {
        assert_eq!(drnl_label(usize::MAX, 3), 0);
        // (1,1): d=2, half=1 -> 1 + 1 + 1*(1+0-1) = 2
        assert_eq!(drnl_label(1, 1), 2);
        // (1,2): d=3, half=1 -> 1 + 1 + 1*(1+1-1) = 3
        assert_eq!(drnl_label(1, 2), 3);
        // (2,2): d=4, half=2 -> 1 + 2 + 2*(2+0-1) = 5
        assert_eq!(drnl_label(2, 2), 5);
        // labels are positive and deterministic
        for du in 1..5 {
            for dv in 1..5 {
                assert!(drnl_label(du, dv) >= 1);
                assert_eq!(drnl_label(du, dv), drnl_label(dv, du));
            }
        }
    }
}
