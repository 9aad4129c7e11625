//! Link-feature extraction for the MuxLink-style attack.
//!
//! The published MuxLink feeds the *enclosing subgraph* of each candidate link
//! into a DGCNN. This reproduction extracts a fixed-length feature vector from
//! the same enclosing subgraph — structural statistics (sizes, degrees,
//! distances, DRNL-label histogram) plus gate-type information — and feeds it
//! to an MLP. The discriminative signal is the same: what the logic
//! *surrounding* a candidate connection looks like.

use crate::view::LinkView;
use autolock_netlist::graph::EnclosingSubgraph;
use autolock_netlist::{GateId, GateKind};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Which features the extractor emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeatureMode {
    /// Full MuxLink-style features: enclosing-subgraph structure + gate types.
    Full,
    /// Only the gate types of the two link endpoints ("locality-only").
    ///
    /// This models the pre-MuxLink learning attacks (SnapShot/OMLA style)
    /// that judge a key-gate location purely from its local gate-type
    /// composition — exactly the attack class D-MUX defeats by construction.
    LocalityOnly,
}

/// Configuration of the feature extractor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFeatureConfig {
    /// Number of hops of the enclosing subgraph.
    pub hops: usize,
    /// Cap on DRNL labels; larger labels are clipped into the last bucket.
    pub max_drnl: usize,
    /// Feature mode.
    pub mode: FeatureMode,
}

impl Default for LinkFeatureConfig {
    fn default() -> Self {
        LinkFeatureConfig {
            hops: 2,
            max_drnl: 8,
            mode: FeatureMode::Full,
        }
    }
}

/// Extracts fixed-length feature vectors for candidate links of a netlist.
#[derive(Debug, Clone)]
pub struct LinkFeatureExtractor {
    config: LinkFeatureConfig,
}

impl LinkFeatureExtractor {
    /// Creates an extractor.
    pub fn new(config: LinkFeatureConfig) -> Self {
        LinkFeatureExtractor { config }
    }

    /// The configuration.
    pub fn config(&self) -> &LinkFeatureConfig {
        &self.config
    }

    /// Dimensionality of the emitted feature vectors.
    pub fn dim(&self) -> usize {
        match self.config.mode {
            FeatureMode::LocalityOnly => 2 * GateKind::NUM_CODES,
            FeatureMode::Full => {
                // endpoint one-hots + endpoint degrees/fanio + pair stats +
                // level features + subgraph stats + kind histogram + drnl
                // histogram
                2 * GateKind::NUM_CODES + 6 + 5 + 4 + 4 + GateKind::NUM_CODES + self.config.max_drnl
            }
        }
    }

    /// Extracts the feature vector of the candidate link `(driver, sink)`
    /// as the attacker sees it in `view`.
    ///
    /// With `drop_link` the candidate link itself is treated as absent from
    /// the view's graph (positive training examples hide the known link
    /// before looking at its neighbourhood) — the exclusion is threaded
    /// through every feature instead of cloning the graph, so large-circuit
    /// attacks stay memory-lean.
    pub fn extract(
        &self,
        view: &LinkView,
        driver: GateId,
        sink: GateId,
        drop_link: bool,
    ) -> Vec<f64> {
        self.extract_with_subgraph(view, driver, sink, drop_link, || {
            view.graph
                .enclosing_subgraph(driver, sink, self.config.hops, drop_link)
        })
    }

    /// [`LinkFeatureExtractor::extract`] with the enclosing subgraph of the
    /// same `(driver, sink, drop_link)` query supplied by `subgraph` (e.g.
    /// from a cache). `subgraph` is called only when the mode reads the
    /// neighbourhood: the locality ablation never does.
    pub fn extract_with_subgraph<S: Borrow<EnclosingSubgraph>>(
        &self,
        view: &LinkView,
        driver: GateId,
        sink: GateId,
        drop_link: bool,
        subgraph: impl FnOnce() -> S,
    ) -> Vec<f64> {
        let netlist = view.netlist;
        let mut features = Vec::with_capacity(self.dim());
        for id in [driver, sink] {
            let mut v = vec![0.0; GateKind::NUM_CODES];
            v[netlist.gate(id).kind.code()] = 1.0;
            features.extend(v);
        }
        if self.config.mode == FeatureMode::LocalityOnly {
            return features;
        }
        let sg = subgraph();
        let sg = sg.borrow();
        let (graph, levels) = (&view.graph, &view.levels);

        // Endpoint structure. With `drop_link`, the candidate edge (if it
        // exists) is subtracted from both endpoint degrees — numerically
        // identical to extracting from a graph with the edge removed.
        let linked = drop_link && graph.has_edge(driver, sink);
        let deg_u = (graph.degree(driver) - usize::from(linked)) as f64;
        let deg_v = (graph.degree(sink) - usize::from(linked)) as f64;
        let fanin_v = netlist.gate(sink).fanin.len() as f64;
        // True directed fan-out of the driver within the visible graph: count
        // the neighbours that actually read `driver` as a fan-in. Restricting
        // to `graph` keeps the feature consistent with the attack's view
        // (hidden gates and the dropped candidate link are excluded).
        let fanout_u = graph
            .neighbors(driver)
            .iter()
            .filter(|&&nb| !(linked && nb == sink) && netlist.gate(nb).fanin.contains(&driver))
            .count() as f64;
        features.push(deg_u);
        features.push(deg_v);
        features.push(fanin_v);
        features.push(fanout_u);
        features.push((deg_u - deg_v).abs());
        features.push(deg_u * deg_v);

        // Pairwise link-prediction heuristics. Dropping the (driver, sink)
        // edge changes neither endpoint's *other* neighbours, so the common
        // count carries over; the Jaccard denominator uses the adjusted
        // degrees.
        let common = graph.common_neighbors(driver, sink) as f64;
        let union = deg_u + deg_v - common;
        let jaccard = if union > 0.0 { common / union } else { 0.0 };
        // Probe the endpoint distance well beyond the enclosing-subgraph
        // radius: on larger netlists both the true driver (via alternate
        // paths) and a decoy can exceed 2*hops, and saturating that early
        // erases exactly the near/far contrast that separates them.
        let dist_budget = (self.config.hops * 4).max(8);
        let dist = graph
            .distance(driver, sink, dist_budget, linked.then_some((driver, sink)))
            .map_or((dist_budget + 1) as f64, |d| d as f64);
        features.push(common);
        features.push(jaccard);
        features.push(dist);
        features.push(if dist <= self.config.hops as f64 {
            1.0
        } else {
            0.0
        });
        features.push(common / (deg_u + deg_v + 1.0));

        // Logic-level features: a true driver sits below its sink, usually by
        // a small number of levels.
        let lvl_u = levels.of(driver) as f64;
        let lvl_v = levels.of(sink) as f64;
        let max_level = levels.max() as f64;
        features.push(lvl_u / max_level);
        features.push(lvl_v / max_level);
        features.push(lvl_v - lvl_u);
        features.push(if lvl_u < lvl_v { 1.0 } else { 0.0 });

        // Enclosing-subgraph statistics.
        let n = sg.nodes.len() as f64;
        let m = sg.edges.len() as f64;
        features.push(n);
        features.push(m);
        features.push(if n > 0.0 { m / n } else { 0.0 });
        features.push(
            sg.dist_u
                .iter()
                .zip(&sg.dist_v)
                .filter(|(&a, &b)| a != usize::MAX && b != usize::MAX)
                .count() as f64
                / n.max(1.0),
        );

        // Gate-kind histogram of the subgraph (normalized).
        let mut kinds = vec![0.0; GateKind::NUM_CODES];
        for &node in &sg.nodes {
            kinds[netlist.gate(node).kind.code()] += 1.0;
        }
        for k in kinds.iter_mut() {
            *k /= n.max(1.0);
        }
        features.extend(kinds);

        // DRNL-label histogram (normalized, clipped).
        let mut drnl = vec![0.0; self.config.max_drnl];
        for &label in &sg.drnl {
            let bucket = label.min(self.config.max_drnl - 1);
            drnl[bucket] += 1.0;
        }
        for d in drnl.iter_mut() {
            *d /= n.max(1.0);
        }
        features.extend(drnl);

        debug_assert_eq!(features.len(), self.dim());
        features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_circuits::c17;
    use autolock_netlist::Netlist;

    fn no_hidden(nl: &Netlist) -> LinkView<'_> {
        LinkView::hiding(nl, &[])
    }

    #[test]
    fn full_features_have_declared_dimension() {
        let nl = c17();
        let view = no_hidden(&nl);
        let ex = LinkFeatureExtractor::new(LinkFeatureConfig::default());
        let u = nl.find("G10gat").unwrap();
        let v = nl.find("G22gat").unwrap();
        let f = ex.extract(&view, u, v, false);
        assert_eq!(f.len(), ex.dim());
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn locality_only_features_are_pure_type_one_hots() {
        let nl = c17();
        let view = no_hidden(&nl);
        let ex = LinkFeatureExtractor::new(LinkFeatureConfig {
            mode: FeatureMode::LocalityOnly,
            ..Default::default()
        });
        let u = nl.find("G1gat").unwrap();
        let v = nl.find("G10gat").unwrap();
        let f = ex.extract(&view, u, v, false);
        assert_eq!(f.len(), 2 * GateKind::NUM_CODES);
        // Exactly two ones (one per endpoint one-hot).
        assert_eq!(f.iter().filter(|&&x| x == 1.0).count(), 2);
        assert_eq!(f.iter().filter(|&&x| x == 0.0).count(), f.len() - 2);
    }

    #[test]
    fn existing_link_and_non_link_have_different_features() {
        let nl = c17();
        let u = nl.find("G10gat").unwrap();
        let v = nl.find("G22gat").unwrap();
        let far = nl.find("G6gat").unwrap();
        let view = no_hidden(&nl);
        let ex = LinkFeatureExtractor::new(LinkFeatureConfig::default());
        // Hide the true link before extraction (as the attack does).
        let f_true = ex.extract(&view, u, v, true);
        let f_false = ex.extract(&view, far, v, false);
        assert_ne!(f_true, f_false);
    }

    #[test]
    fn drop_link_matches_extraction_from_edge_removed_graph() {
        // The no-clone drop_link path must produce exactly the features the
        // old clone-the-graph path produced: build a netlist *without* the
        // candidate wire and compare against drop_link on the full one.
        let nl = c17();
        let u = nl.find("G16gat").unwrap();
        let v = nl.find("G23gat").unwrap();
        let view = no_hidden(&nl);
        let ex = LinkFeatureExtractor::new(LinkFeatureConfig::default());
        let dropped = ex.extract(&view, u, v, true);
        // Reference: the endpoint degrees with the G16→G23 wire removed,
        // counted straight from the fan-in lists.
        let fanouts = nl.fanouts();
        let degree_without_link = |id: GateId| {
            let mut neighbours: Vec<GateId> = nl
                .gate(id)
                .fanin
                .iter()
                .chain(&fanouts[id.index()])
                .copied()
                .filter(|&w| (id, w) != (u, v) && (id, w) != (v, u))
                .collect();
            neighbours.sort_unstable();
            neighbours.dedup();
            neighbours.len()
        };
        assert_eq!(
            dropped[2 * GateKind::NUM_CODES] as usize,
            degree_without_link(u),
            "driver degree must match the edge-removed graph"
        );
        assert_eq!(
            dropped[2 * GateKind::NUM_CODES + 1] as usize,
            degree_without_link(v),
            "sink degree must match the edge-removed graph"
        );
        // The distance feature routes around the hidden wire: it equals a
        // one-sided BFS that never walks it.
        let dist_at = 2 * GateKind::NUM_CODES + 6 + 2;
        let rerouted = view.graph.bfs_distances(u, 8, Some((u, v)))[v.index()];
        assert_eq!(dropped[dist_at], f64::from(rerouted));
        assert!(dropped[dist_at] > 1.0);
    }

    #[test]
    fn distance_feature_saturates_for_disconnected_pairs() {
        let mut nl = autolock_netlist::Netlist::new("two_islands");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl
            .add_gate("x", autolock_netlist::GateKind::Not, vec![a])
            .unwrap();
        let y = nl
            .add_gate("y", autolock_netlist::GateKind::Not, vec![b])
            .unwrap();
        nl.mark_output(x);
        nl.mark_output(y);
        let view = no_hidden(&nl);
        let ex = LinkFeatureExtractor::new(LinkFeatureConfig::default());
        let f = ex.extract(&view, a, y, false);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn visible_levels_respect_hidden_nodes() {
        let nl = c17();
        let g10 = nl.find("G10gat").unwrap();
        let g22 = nl.find("G22gat").unwrap();
        let all = no_hidden(&nl).levels;
        assert_eq!(all.of(nl.find("G1gat").unwrap()), 0);
        assert_eq!(all.of(g10), 1);
        assert_eq!(all.of(g22), 3);
        assert_eq!(all.max(), 3);
        // Hiding G16 shortens G22's visible level (only the G10 path remains).
        let partial = LinkView::hiding(&nl, &[nl.find("G16gat").unwrap()]).levels;
        assert_eq!(partial.of(g22), 2);
    }
}
