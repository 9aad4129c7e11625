//! DGCNN-style graph neural network for link prediction on netlist subgraphs.
//!
//! This crate closes the main fidelity gap between this reproduction and the
//! attack model of the source paper: the published MuxLink attack (Alrahis et
//! al., DATE 2022) scores candidate MUX connections with a **Deep Graph
//! Convolutional Neural Network** (DGCNN, Zhang et al., AAAI 2018) over the
//! *enclosing subgraph* of each candidate link, whereas the seed reproduction
//! summarized those subgraphs into hand-crafted statistics for an MLP. Here
//! the learned pipeline is rebuilt from scratch on `autolock_mlcore`'s matrix
//! primitives:
//!
//! 1. **[`SubgraphTensor`]** — an enclosing subgraph
//!    ([`autolock_netlist::graph::CsrGraph::enclosing_subgraph`]) turned
//!    into a tensor: degree-normalized adjacency `Â = D̃⁻¹(A + I)` plus one
//!    node-feature row per gate (gate-kind one-hot ⊕ clipped DRNL-label one-hot ⊕ normalized
//!    degree). This mirrors MuxLink's node labelling, which feeds gate types
//!    and Double-Radius Node Labels to the DGCNN.
//! 2. **[`GraphConv`]** — spatial graph convolution
//!    `X' = tanh(Â X W + b)`, the DGCNN propagation rule. A stack of these
//!    layers is applied and their outputs concatenated channel-wise.
//! 3. **[`SortPooling`]** — DGCNN's contribution: nodes are sorted by their
//!    last convolution channel (a learned, WL-colour-like ordering) and the
//!    top-`k` rows are kept (zero-padded below `k`), producing a fixed-size
//!    representation of a variable-size graph through which gradients flow.
//! 4. **[`DenseStack`]** — a small ReLU classification head ending in one
//!    logit; [`Dgcnn::score`] applies a sigmoid for the link
//!    probability.
//! 5. **[`Dgcnn`]** — the full model with mini-batch Adam training
//!    ([`autolock_mlcore::optim`]) and backpropagation through the dense
//!    head, SortPooling and the whole conv stack. Training is deterministic
//!    for a fixed `ChaCha8Rng` seed, and **streamed**: examples are pulled
//!    from a [`GraphSource`] one mini-batch at a time
//!    ([`Dgcnn::train_source`]), so peak tensor memory is bounded by the
//!    mini-batch, not the training-set size — what lets the DGCNN backend
//!    train on ISCAS-scale netlists. Each mini-batch runs as **one graph**,
//!    the disjoint union of its examples' subgraphs: every conv layer is one
//!    propagate, one `ÂX·W` product and one `tanh` epilogue per mini-batch,
//!    and the dense head one product per layer and direction over the
//!    `batch × k·C` matrix of pooled rows. Every entry keeps its
//!    one-example accumulation chain, and parameter gradients are reduced
//!    in example order, so the result is the same bits as one example at a
//!    time. Scoring ([`Dgcnn::score_batch`]) runs the same forward pass over
//!    groups of `batch_size` graphs. The slice API ([`Dgcnn::train`]) wraps
//!    the same pipeline via [`SliceSource`].
//!
//! `autolock_attacks`' `MuxLinkBackend::Gnn` drives [`Dgcnn`] directly:
//! [`Dgcnn::train_source`] on its streamed training links, then
//! [`Dgcnn::score_batch`] on the candidate links, so MLP and GNN backends
//! can be compared head-to-head in the E-series experiments.
//!
//! # Example
//!
//! ```
//! use autolock_gnn::{Dgcnn, DgcnnConfig, SubgraphTensor};
//! use autolock_netlist::graph::CsrGraph;
//! use autolock_netlist::{GateKind, Netlist};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! // y = !(a & b): score the (a, g) link's enclosing subgraph.
//! let mut nl = Netlist::new("tiny");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate("g", GateKind::And, vec![a, b]).unwrap();
//! let y = nl.add_gate("y", GateKind::Not, vec![g]).unwrap();
//! nl.mark_output(y);
//!
//! // Hide the (a, g) link itself while extracting its neighbourhood.
//! let sg = CsrGraph::from_netlist(&nl).enclosing_subgraph(a, g, 2, true);
//! let tensor = SubgraphTensor::from_enclosing(&nl, &sg, 8);
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let model = Dgcnn::new(DgcnnConfig::for_features(tensor.feature_dim()), &mut rng);
//! let p = model.score(&tensor);
//! assert!((0.0..=1.0).contains(&p));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod conv;
mod dense;
mod model;
mod sortpool;
mod stream;
mod tensor;

pub use conv::{ConvCache, ConvGrads, GraphConv};
pub use dense::{DenseGrads, DenseStack, HeadBackward, HeadForward};
pub use model::{Dgcnn, DgcnnConfig};
pub use sortpool::{SortPoolCache, SortPoolK, SortPooling};
pub use stream::{GraphSource, SliceSource};
pub use tensor::SubgraphTensor;
