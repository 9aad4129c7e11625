//! Property-based tests for the netlist substrate.

use autolock_netlist::graph::{CsrGraph, EnclosingSubgraph, UNREACHED};
use autolock_netlist::{
    graph, parse_bench, sim, stats, topo, write_bench, GateId, GateKind, Netlist,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};

/// Builds a random, valid, acyclic netlist from a seed-like description:
/// `layers[i]` gates in layer i, each reading from earlier gates.
fn build_random_netlist(num_inputs: usize, layer_sizes: &[u8], seed: u64) -> Netlist {
    use rand::Rng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("rand_{seed}"));
    let mut pool: Vec<GateId> = (0..num_inputs.max(1))
        .map(|i| nl.add_input(format!("in{i}")))
        .collect();
    let kinds = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut counter = 0usize;
    for &sz in layer_sizes {
        let mut new_layer = Vec::new();
        for _ in 0..sz.clamp(1, 8) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let arity = match kind {
                GateKind::Not | GateKind::Buf => 1,
                _ => 2,
            };
            let fanin: Vec<GateId> = (0..arity)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            let id = nl
                .add_gate(format!("g{counter}"), kind, fanin)
                .expect("valid gate");
            counter += 1;
            new_layer.push(id);
        }
        pool.extend(new_layer);
    }
    // Last few gates become outputs.
    let n_out = pool.len().min(3);
    for &id in pool.iter().rev().take(n_out) {
        nl.mark_output(id);
    }
    nl
}

/// Brute-force undirected adjacency from the fan-in lists: both directions
/// of every wire, deduplicated and sorted.
fn reference_adjacency(nl: &Netlist) -> Vec<Vec<GateId>> {
    let mut adj = vec![Vec::new(); nl.len()];
    for (id, gate) in nl.iter() {
        for &f in &gate.fanin {
            adj[id.index()].push(f);
            adj[f.index()].push(id);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// One-sided BFS from `source` to `max_hops` (inclusive) that never walks
/// the undirected edge `skip`; unreached nodes are absent from the map.
fn reference_distances(
    adj: &[Vec<GateId>],
    source: GateId,
    max_hops: usize,
    skip: Option<(GateId, GateId)>,
) -> HashMap<GateId, usize> {
    let skipped = |a, b| skip == Some((a, b)) || skip == Some((b, a));
    let mut dist = HashMap::from([(source, 0usize)]);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        if du == max_hops {
            continue;
        }
        for &v in &adj[u.index()] {
            if !skipped(u, v) && !dist.contains_key(&v) {
                dist.insert(v, du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The enclosing subgraph of `(u, v)` from two reference BFS maps and a
/// hash-map node index.
fn reference_subgraph(
    adj: &[Vec<GateId>],
    u: GateId,
    v: GateId,
    hops: usize,
    drop_link: bool,
) -> EnclosingSubgraph {
    let skip = drop_link.then_some((u, v));
    let du = reference_distances(adj, u, hops, skip);
    let dv = reference_distances(adj, v, hops, skip);
    let mut nodes: Vec<GateId> = du.keys().chain(dv.keys()).copied().collect();
    nodes.sort_unstable();
    nodes.dedup();
    let index_of: HashMap<GateId, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let dist = |d: &HashMap<GateId, usize>| -> Vec<usize> {
        nodes
            .iter()
            .map(|n| d.get(n).copied().unwrap_or(usize::MAX))
            .collect()
    };
    let (dist_u, dist_v) = (dist(&du), dist(&dv));
    let drnl = nodes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            if n == u || n == v {
                1
            } else {
                graph::drnl_label(dist_u[i], dist_v[i])
            }
        })
        .collect();
    let mut edges = Vec::new();
    for (i, &n) in nodes.iter().enumerate() {
        for &m in &adj[n.index()] {
            if drop_link && ((n == u && m == v) || (n == v && m == u)) {
                continue;
            }
            if let Some(&j) = index_of.get(&m) {
                if i < j {
                    edges.push((i, j));
                }
            }
        }
    }
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

/// Checks `CsrGraph::distance` and `CsrGraph::bfs_distances` from `u`
/// against the reference BFS, for every target and every budget 0–10.
fn check_distances_from(
    graph: &CsrGraph,
    adj: &[Vec<GateId>],
    u: GateId,
    skip: Option<(GateId, GateId)>,
) {
    const MAX_BUDGET: usize = 10;
    let reference = reference_distances(adj, u, MAX_BUDGET, skip);
    let dense = graph.bfs_distances(u, MAX_BUDGET, skip);
    for (i, &d) in dense.iter().enumerate() {
        let expect = reference
            .get(&GateId(i as u32))
            .map_or(UNREACHED, |&d| d as u32);
        assert_eq!(d, expect, "bfs_distances from {u} to g{i}, skip {skip:?}");
    }
    for v in (0..adj.len() as u32).map(GateId) {
        for budget in 0..=MAX_BUDGET {
            let expect = reference.get(&v).copied().filter(|&d| d <= budget);
            assert_eq!(
                graph.distance(u, v, budget, skip),
                expect,
                "distance({u}, {v}) within {budget}, skip {skip:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_netlists_validate_and_roundtrip(
        num_inputs in 1usize..6,
        layers in proptest::collection::vec(1u8..6, 1..4),
        seed in 0u64..5000,
    ) {
        let nl = build_random_netlist(num_inputs, &layers, seed);
        prop_assert!(nl.validate().is_ok());

        // .bench round trip preserves function on exhaustive inputs (inputs <= 5).
        let text = write_bench(&nl);
        let back = parse_bench(nl.name(), &text).unwrap();
        prop_assert_eq!(back.num_logic_gates(), nl.num_logic_gates());
        let n = nl.num_inputs();
        for pattern in 0..(1u32 << n) {
            let vals: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            prop_assert_eq!(nl.evaluate(&vals).unwrap(), back.evaluate(&vals).unwrap());
        }
    }

    #[test]
    fn topo_order_is_consistent_with_levels(
        num_inputs in 1usize..5,
        layers in proptest::collection::vec(1u8..5, 1..4),
        seed in 0u64..5000,
    ) {
        let nl = build_random_netlist(num_inputs, &layers, seed);
        let order = topo::topological_order(&nl).unwrap();
        prop_assert_eq!(order.len(), nl.len());
        let levels = topo::logic_levels(&nl).unwrap();
        for (id, gate) in nl.iter() {
            for &f in &gate.fanin {
                prop_assert!(levels[f.index()] < levels[id.index()]);
            }
        }
        let depth = topo::depth(&nl).unwrap();
        let max_level = levels.iter().copied().max().unwrap_or(0);
        prop_assert!(depth <= max_level);
    }

    #[test]
    fn parallel_sim_matches_scalar_eval(
        num_inputs in 1usize..5,
        layers in proptest::collection::vec(1u8..5, 1..3),
        seed in 0u64..5000,
    ) {
        let nl = build_random_netlist(num_inputs, &layers, seed);
        let n = nl.num_inputs();
        // Pack all exhaustive patterns (at most 16).
        let total = 1usize << n;
        let mut pi = vec![0u64; n];
        for pat in 0..total {
            for (i, w) in pi.iter_mut().enumerate() {
                if (pat >> i) & 1 == 1 {
                    *w |= 1 << pat;
                }
            }
        }
        let simres = sim::simulate(&nl, &pi, &[], total).unwrap();
        for pat in 0..total {
            let vals: Vec<bool> = (0..n).map(|i| (pat >> i) & 1 == 1).collect();
            let expect = nl.evaluate(&vals).unwrap();
            let got: Vec<bool> = nl.outputs().iter().map(|&o| simres.get(o, pat)).collect();
            prop_assert_eq!(expect, got);
        }
    }

    #[test]
    fn stats_are_internally_consistent(
        num_inputs in 1usize..5,
        layers in proptest::collection::vec(1u8..5, 1..4),
        seed in 0u64..5000,
    ) {
        let nl = build_random_netlist(num_inputs, &layers, seed);
        let s = stats::netlist_stats(&nl).unwrap();
        prop_assert_eq!(s.inputs, nl.num_inputs());
        prop_assert_eq!(s.gates, nl.num_logic_gates());
        let total_from_hist: usize = s.kind_histogram.iter().sum();
        prop_assert_eq!(total_from_hist, nl.len());
        prop_assert!(s.depth >= 1);
    }

    #[test]
    fn undirected_graph_degrees_match_edges(
        num_inputs in 1usize..5,
        layers in proptest::collection::vec(1u8..5, 1..3),
        seed in 0u64..5000,
    ) {
        let nl = build_random_netlist(num_inputs, &layers, seed);
        let g = CsrGraph::from_netlist(&nl);
        let reference = reference_adjacency(&nl);
        let mut degree_sum = 0;
        for id in nl.ids() {
            prop_assert_eq!(g.neighbors(id), reference[id.index()].as_slice());
            // Symmetry: if a is neighbor of b then b is neighbor of a.
            for &nb in g.neighbors(id) {
                prop_assert!(g.neighbors(nb).contains(&id));
            }
            degree_sum += g.degree(id);
        }
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// The early-exit distance query (and the dense BFS) agree with a
    /// one-sided reference BFS on every pair and budget: without a skipped
    /// edge, with a random skipped edge (often a bridge to a leaf gate), and
    /// with every edge at the source skipped — the drop-link query the link
    /// features make. The queries run back to back on one thread over
    /// netlists of varying size, so a reused buffer left dirty by one query
    /// would show up in a later one.
    #[test]
    fn distance_query_matches_one_sided_bfs(
        num_inputs in 1usize..5,
        layers in proptest::collection::vec(1u8..9, 1..5),
        seed in 0u64..5000,
        skip_pick in 0usize..1000,
    ) {
        let nl = build_random_netlist(num_inputs, &layers, seed);
        let g = CsrGraph::from_netlist(&nl);
        let adj = reference_adjacency(&nl);
        let edges: Vec<(GateId, GateId)> = nl
            .ids()
            .flat_map(|a| adj[a.index()].iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b)
            .collect();
        let random_skip = (!edges.is_empty()).then(|| edges[skip_pick % edges.len()]);
        for u in nl.ids() {
            check_distances_from(&g, &adj, u, None);
            check_distances_from(&g, &adj, u, random_skip);
            for &w in &adj[u.index()] {
                check_distances_from(&g, &adj, u, Some((u, w)));
            }
        }
    }

    /// `CsrGraph::enclosing_subgraph` equals the reference extraction field
    /// for field, for every ordered pair, with and without the link hidden.
    #[test]
    fn enclosing_subgraph_matches_reference(
        num_inputs in 1usize..5,
        layers in proptest::collection::vec(1u8..9, 1..5),
        seed in 0u64..5000,
        hops in 0usize..4,
    ) {
        let nl = build_random_netlist(num_inputs, &layers, seed);
        let g = CsrGraph::from_netlist(&nl);
        let adj = reference_adjacency(&nl);
        for u in nl.ids() {
            for v in nl.ids() {
                for drop_link in [false, true] {
                    let got = g.enclosing_subgraph(u, v, hops, drop_link);
                    let want = reference_subgraph(&adj, u, v, hops, drop_link);
                    prop_assert_eq!((got.u, got.v), (want.u, want.v));
                    prop_assert_eq!(&got.nodes, &want.nodes);
                    prop_assert_eq!(&got.dist_u, &want.dist_u);
                    prop_assert_eq!(&got.dist_v, &want.dist_v);
                    prop_assert_eq!(&got.drnl, &want.drnl);
                    prop_assert_eq!(&got.edges, &want.edges);
                }
            }
        }
    }

    #[test]
    fn drnl_labels_positive_for_reachable(
        du in 0usize..10,
        dv in 0usize..10,
    ) {
        let l = graph::drnl_label(du, dv);
        prop_assert!(l >= 1);
        prop_assert_eq!(l, graph::drnl_label(dv, du));
    }
}

/// The corner cases of the distance query, pinned on a fixed graph:
/// `a – b – c` is a path whose edges are bridges, `d – e` a separate
/// component.
#[test]
fn distance_query_edge_cases() {
    let mut nl = Netlist::new("bridges");
    let a = nl.add_input("a");
    let d = nl.add_input("d");
    let b = nl.add_gate("b", GateKind::Not, vec![a]).unwrap();
    let c = nl.add_gate("c", GateKind::Buf, vec![b]).unwrap();
    let e = nl.add_gate("e", GateKind::Not, vec![d]).unwrap();
    nl.mark_output(c);
    nl.mark_output(e);
    let g = CsrGraph::from_netlist(&nl);
    // u == v is distance 0 under any budget, even with its edges skipped.
    assert_eq!(g.distance(b, b, 0, None), Some(0));
    assert_eq!(g.distance(b, b, 0, Some((a, b))), Some(0));
    // Within and past the budget.
    assert_eq!(g.distance(a, c, 2, None), Some(2));
    assert_eq!(g.distance(c, a, 1, None), None);
    // Unreachable: another component, under any budget.
    assert_eq!(g.distance(a, e, 10, None), None);
    assert_eq!(g.distance(e, c, usize::MAX, None), None);
    // Skipping a bridge disconnects its two sides, including the skipped
    // link's own endpoints.
    assert_eq!(g.distance(a, c, 10, Some((b, c))), None);
    assert_eq!(g.distance(b, c, 10, Some((c, b))), None);
    assert_eq!(g.distance(a, b, 10, Some((b, c))), Some(1));
}
