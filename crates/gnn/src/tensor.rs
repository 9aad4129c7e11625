//! Enclosing subgraphs as tensors: normalized adjacency + node features.

use autolock_mlcore::Matrix;
use autolock_netlist::graph::EnclosingSubgraph;
use autolock_netlist::{GateKind, Netlist};
use std::borrow::{Borrow, Cow};
use std::ops::Range;

/// An enclosing subgraph prepared for the DGCNN: node features `X` and the
/// degree-normalized adjacency `Â = D̃⁻¹(A + I)`.
///
/// The adjacency is stored in flat CSR (compressed sparse row) form — one
/// contiguous `row_ptr`/`col`/`val` triple instead of a `Vec` of per-row
/// `Vec`s — so [`SubgraphTensor::propagate`] streams through two flat arrays
/// with no pointer chasing. Together with the row-major [`Matrix`] this keeps
/// the conv hot loop (the dominant DGCNN kernel) cache-friendly, and the
/// tensor is `Send + Sync`, which is what lets per-example forward/backward
/// passes fan out across rayon threads during batch training.
#[derive(Debug, Clone)]
pub struct SubgraphTensor {
    /// `n × f` node-feature matrix.
    x: Matrix,
    /// CSR row boundaries: row `i`'s entries live at `row_ptr[i]..row_ptr[i+1]`.
    row_ptr: Vec<usize>,
    /// CSR column indices.
    col: Vec<usize>,
    /// CSR values (`Â_ij`), aligned with `col`.
    val: Vec<f64>,
}

impl SubgraphTensor {
    /// Builds the tensor for an extracted enclosing subgraph.
    ///
    /// Node features are, per node: the gate-kind one-hot
    /// ([`GateKind::NUM_CODES`] entries), the DRNL label as a one-hot clipped
    /// into `max_drnl` buckets (the same labelling MuxLink feeds its DGCNN),
    /// and the subgraph-normalized degree. The adjacency includes self-loops
    /// and is normalized by the (self-loop-augmented) degree, so each
    /// convolution averages over the closed neighbourhood.
    pub fn from_enclosing(netlist: &Netlist, sg: &EnclosingSubgraph, max_drnl: usize) -> Self {
        let n = sg.nodes.len();
        let max_drnl = max_drnl.max(1);
        let f = GateKind::NUM_CODES + max_drnl + 1;

        // Local degrees (within the subgraph).
        let mut degree = vec![0usize; n];
        for &(i, j) in &sg.edges {
            degree[i] += 1;
            degree[j] += 1;
        }
        let max_degree = degree.iter().copied().max().unwrap_or(0).max(1) as f64;

        let mut x = Matrix::zeros(n, f);
        for (idx, &node) in sg.nodes.iter().enumerate() {
            let row = x.row_mut(idx);
            row[netlist.gate(node).kind.code()] = 1.0;
            let bucket = sg.drnl[idx].min(max_drnl - 1);
            row[GateKind::NUM_CODES + bucket] = 1.0;
            row[f - 1] = degree[idx] as f64 / max_degree;
        }

        // Â = D̃⁻¹ (A + I) with D̃_ii = degree_i + 1 (self-loop included),
        // assembled straight into CSR: count entries per row, prefix-sum into
        // row_ptr, then scatter (self-loop first, then incident edges).
        let mut row_ptr = vec![0usize; n + 1];
        for (i, &d) in degree.iter().enumerate() {
            row_ptr[i + 1] = d + 1; // self-loop + incident edges
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = row_ptr[n];
        let mut col = vec![0usize; nnz];
        let mut val = vec![0.0; nnz];
        let mut cursor = row_ptr[..n].to_vec();
        for (i, c) in cursor.iter_mut().enumerate() {
            col[*c] = i;
            *c += 1;
        }
        for &(i, j) in &sg.edges {
            col[cursor[i]] = j;
            cursor[i] += 1;
            col[cursor[j]] = i;
            cursor[j] += 1;
        }
        for i in 0..n {
            let norm = 1.0 / (degree[i] as f64 + 1.0);
            for v in &mut val[row_ptr[i]..row_ptr[i + 1]] {
                *v = norm;
            }
        }
        SubgraphTensor {
            x,
            row_ptr,
            col,
            val,
        }
    }

    /// Builds a tensor directly from parts (used by tests and benchmarks);
    /// `adj[i]` lists row `i`'s `(column, Â_ij)` entries, which are packed
    /// into the internal CSR layout.
    ///
    /// # Panics
    ///
    /// Panics if `adj.len() != x.rows()` or any column index is out of range.
    pub fn from_parts(x: Matrix, adj: Vec<Vec<(usize, f64)>>) -> Self {
        let n = x.rows();
        assert_eq!(adj.len(), n, "adjacency rows must match node count");
        let nnz: usize = adj.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in &adj {
            for &(j, w) in row {
                assert!(j < n, "adjacency column {j} out of range for {n} nodes");
                col.push(j);
                val.push(w);
            }
            row_ptr.push(col.len());
        }
        SubgraphTensor {
            x,
            row_ptr,
            col,
            val,
        }
    }

    /// A copy of this tensor with the same adjacency but different node
    /// features (tests perturb features while keeping the graph fixed).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != num_nodes()`.
    pub fn with_features(&self, x: Matrix) -> Self {
        assert_eq!(x.rows(), self.num_nodes(), "feature rows must match nodes");
        SubgraphTensor {
            x,
            row_ptr: self.row_ptr.clone(),
            col: self.col.clone(),
            val: self.val.clone(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.x.rows()
    }

    /// Number of stored adjacency entries (including self-loops).
    pub fn num_entries(&self) -> usize {
        self.col.len()
    }

    /// Per-node feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.x.cols()
    }

    /// The node-feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.x
    }

    /// Row `i` of the normalized adjacency as parallel `(columns, values)`
    /// slices of the CSR storage.
    pub fn adj_row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col[span.clone()], &self.val[span])
    }

    /// The feature dimensionality produced by [`Self::from_enclosing`] for a
    /// given DRNL clip value.
    pub fn feature_dim_for(max_drnl: usize) -> usize {
        GateKind::NUM_CODES + max_drnl.max(1) + 1
    }

    /// Sparse product `Â · m`: row `i` sums its entries' terms in stored
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `m.rows() != num_nodes()`.
    pub fn propagate(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.rows(), self.num_nodes(), "propagate shape mismatch");
        let mut out = Matrix::zeros(m.rows(), m.cols());
        for i in 0..self.num_nodes() {
            let (cols, vals) = (
                &self.col[self.row_ptr[i]..self.row_ptr[i + 1]],
                &self.val[self.row_ptr[i]..self.row_ptr[i + 1]],
            );
            let dst = out.row_mut(i);
            for (&j, &w) in cols.iter().zip(vals) {
                for (d, &s) in dst.iter_mut().zip(m.row(j)) {
                    *d += w * s;
                }
            }
        }
        out
    }

    /// Sparse product with the transpose, `Âᵀ · m` (the backward direction of
    /// [`Self::propagate`]): row `j` sums its terms in increasing source row.
    ///
    /// # Panics
    ///
    /// Panics if `m.rows() != num_nodes()`.
    pub fn propagate_transpose(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.rows(), self.num_nodes(), "propagate shape mismatch");
        let mut out = Matrix::zeros(m.rows(), m.cols());
        for i in 0..self.num_nodes() {
            let span = self.row_ptr[i]..self.row_ptr[i + 1];
            for (&j, &w) in self.col[span.clone()].iter().zip(&self.val[span]) {
                let dst = out.row_mut(j);
                for (d, &s) in dst.iter_mut().zip(m.row(i)) {
                    *d += w * s;
                }
            }
        }
        out
    }
}

/// A mini-batch of subgraph tensors run as one graph: the disjoint union of
/// its parts.
///
/// The union stacks the parts' feature rows and keeps their adjacency
/// block-diagonal (each part's columns shifted by its first row), so
/// [`SubgraphTensor::propagate`] and [`SubgraphTensor::propagate_transpose`]
/// run on it unchanged. Every row keeps its own entries in its own order,
/// and every column of the transpose still receives its contributions in
/// increasing row order, all from its own block: each output entry has the
/// accumulation chain it has in its part alone.
pub(crate) struct TensorBatch<'a> {
    graph: Cow<'a, SubgraphTensor>,
    /// Part `e` owns the union's rows `offsets[e]..offsets[e + 1]`.
    offsets: Vec<usize>,
}

impl<'a> TensorBatch<'a> {
    /// A one-part batch over `graph` itself, without a copy.
    pub(crate) fn single(graph: &'a SubgraphTensor) -> Self {
        TensorBatch {
            offsets: vec![0, graph.num_nodes()],
            graph: Cow::Borrowed(graph),
        }
    }

    /// The disjoint union of `parts`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the parts' feature dimensionalities differ.
    pub(crate) fn union<T: Borrow<SubgraphTensor>>(parts: &[T]) -> Self {
        let f = parts.first().map_or(0, |p| p.borrow().feature_dim());
        let mut offsets = Vec::with_capacity(parts.len() + 1);
        offsets.push(0);
        let mut nnz = 0;
        for part in parts {
            let part = part.borrow();
            assert_eq!(
                part.feature_dim(),
                f,
                "every part of a batch needs the same feature dimensionality"
            );
            offsets.push(offsets[offsets.len() - 1] + part.num_nodes());
            nnz += part.num_entries();
        }
        let n = offsets[parts.len()];
        let mut x = Matrix::zeros(n, f);
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        for (part, &first_row) in parts.iter().zip(&offsets) {
            let part = part.borrow();
            let first_entry = col.len();
            x.data_mut()[first_row * f..(first_row + part.num_nodes()) * f]
                .copy_from_slice(part.x.data());
            val.extend_from_slice(&part.val);
            row_ptr.extend(part.row_ptr[1..].iter().map(|&p| p + first_entry));
            col.extend(part.col.iter().map(|&j| j + first_row));
        }
        let graph = SubgraphTensor {
            x,
            row_ptr,
            col,
            val,
        };
        TensorBatch {
            graph: Cow::Owned(graph),
            offsets,
        }
    }

    /// The union as one graph.
    pub(crate) fn graph(&self) -> &SubgraphTensor {
        &self.graph
    }

    /// Number of parts.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The union's rows that part `e` owns.
    pub(crate) fn rows(&self, e: usize) -> Range<usize> {
        self.offsets[e]..self.offsets[e + 1]
    }

    /// Part boundaries: part `e` owns rows `offsets[e]..offsets[e + 1]`.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_netlist::graph::CsrGraph;
    use autolock_netlist::{GateKind, Netlist};

    fn tiny() -> (Netlist, SubgraphTensor) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate("g", GateKind::And, vec![a, b]).unwrap();
        let y = nl.add_gate("y", GateKind::Not, vec![g]).unwrap();
        nl.mark_output(y);
        let sg = CsrGraph::from_netlist(&nl).enclosing_subgraph(a, g, 2, true);
        let t = SubgraphTensor::from_enclosing(&nl, &sg, 8);
        (nl, t)
    }

    #[test]
    fn features_have_expected_shape_and_content() {
        let (_, t) = tiny();
        assert_eq!(t.feature_dim(), SubgraphTensor::feature_dim_for(8));
        assert!(t.num_nodes() >= 2);
        // Each row: exactly one kind one-hot, one DRNL one-hot, bounded degree.
        for i in 0..t.num_nodes() {
            let row = t.features().row(i);
            let kind_ones: f64 = row[..GateKind::NUM_CODES].iter().sum();
            let drnl_ones: f64 = row[GateKind::NUM_CODES..GateKind::NUM_CODES + 8]
                .iter()
                .sum();
            assert_eq!(kind_ones, 1.0);
            assert_eq!(drnl_ones, 1.0);
            let deg = row[t.feature_dim() - 1];
            assert!((0.0..=1.0).contains(&deg));
        }
    }

    #[test]
    fn adjacency_rows_are_normalized() {
        let (_, t) = tiny();
        for i in 0..t.num_nodes() {
            let (cols, vals) = t.adj_row(i);
            assert_eq!(cols.len(), vals.len());
            assert!(cols.contains(&i), "row {i} must contain its self-loop");
            let total: f64 = vals.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "row sums to {total}");
        }
    }

    #[test]
    fn csr_round_trips_through_from_parts() {
        let (_, t) = tiny();
        let n = t.num_nodes();
        let adj: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let (cols, vals) = t.adj_row(i);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        let rebuilt = SubgraphTensor::from_parts(t.features().clone(), adj);
        assert_eq!(rebuilt.num_entries(), t.num_entries());
        for i in 0..n {
            assert_eq!(rebuilt.adj_row(i), t.adj_row(i));
        }
    }

    #[test]
    fn with_features_keeps_adjacency() {
        let (_, t) = tiny();
        let shifted = t.with_features(t.features().map(|v| v + 1.0));
        assert_eq!(shifted.num_entries(), t.num_entries());
        for i in 0..t.num_nodes() {
            assert_eq!(shifted.adj_row(i), t.adj_row(i));
            assert_eq!(shifted.features().get(i, 0), t.features().get(i, 0) + 1.0);
        }
    }

    #[test]
    fn propagate_matches_dense_reference() {
        let (_, t) = tiny();
        let n = t.num_nodes();
        // Dense Â.
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let (cols, vals) = t.adj_row(i);
            for (&j, &w) in cols.iter().zip(vals) {
                dense.set(i, j, dense.get(i, j) + w);
            }
        }
        let m = Matrix::from_vec(n, 2, (0..n * 2).map(|v| v as f64 * 0.3 - 1.0).collect());
        let sparse = t.propagate(&m);
        let reference = dense.matmul(&m);
        for r in 0..n {
            for c in 0..2 {
                assert!((sparse.get(r, c) - reference.get(r, c)).abs() < 1e-12);
            }
        }
        // Transpose path.
        let sparse_t = t.propagate_transpose(&m);
        let reference_t = dense.transpose().matmul(&m);
        for r in 0..n {
            for c in 0..2 {
                assert!((sparse_t.get(r, c) - reference_t.get(r, c)).abs() < 1e-12);
            }
        }
    }

    /// A connected `n`-node tensor: a ring plus seeded chords, random
    /// features, row-normalized weights.
    fn ring_with_chords(n: usize, seed: u64) -> SubgraphTensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let x = Matrix::random(n, 5, 1.0, &mut rng);
        let mut adj: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![(i, 1.0)]).collect();
        for i in 0..n {
            let j = if i % 3 == 0 {
                rng.gen_range(0..n)
            } else {
                (i + 1) % n
            };
            if j != i {
                adj[i].push((j, 1.0));
                adj[j].push((i, 1.0));
            }
        }
        for row in &mut adj {
            let norm = 1.0 / row.len() as f64;
            for e in row.iter_mut() {
                e.1 = norm * (1.0 + e.0 as f64 / 7.0);
            }
        }
        SubgraphTensor::from_parts(x, adj)
    }

    #[test]
    fn union_propagates_each_block_exactly_as_alone() {
        let parts: Vec<SubgraphTensor> = [2, 9, 40]
            .iter()
            .enumerate()
            .map(|(i, &n)| ring_with_chords(n, 30 + i as u64))
            .collect();
        let batch = TensorBatch::union(&parts);
        assert_eq!(batch.len(), 3);
        let union = batch.graph();
        assert_eq!(union.num_nodes(), 51);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for input in [union.features().clone(), union.features().map(|v| -v * 0.3)] {
            let (forward, backward) = (union.propagate(&input), union.propagate_transpose(&input));
            for (e, part) in parts.iter().enumerate() {
                let rows = batch.rows(e);
                let block = Matrix::from_vec(
                    rows.len(),
                    input.cols(),
                    input.data()[rows.start * input.cols()..rows.end * input.cols()].to_vec(),
                );
                let slice = |m: &Matrix| {
                    Matrix::from_vec(
                        rows.len(),
                        m.cols(),
                        m.data()[rows.start * m.cols()..rows.end * m.cols()].to_vec(),
                    )
                };
                assert_eq!(bits(&slice(&forward)), bits(&part.propagate(&block)));
                assert_eq!(
                    bits(&slice(&backward)),
                    bits(&part.propagate_transpose(&block))
                );
            }
        }
        let single = TensorBatch::single(&parts[1]);
        assert_eq!((single.len(), single.rows(0)), (1, 0..9));
    }
}
