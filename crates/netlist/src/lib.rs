//! Gate-level netlist substrate for the AutoLock reproduction.
//!
//! This crate provides everything the locking schemes, attacks and the
//! evolutionary search need to reason about combinational circuits:
//!
//! * an arena-based gate-level intermediate representation ([`Netlist`],
//!   [`Gate`], [`GateKind`], [`GateId`]),
//! * a unified, format-detecting ingestion front door ([`ingest`]):
//!   `.bench` and ASCII AIGER `.aag` sources, AIG simplification, and
//!   sequential circuits with cut/unroll lowering,
//! * a parser and writer for the ISCAS-89 style `.bench` format
//!   ([`parse_bench`], [`write_bench`]),
//! * structural analysis: topological ordering, logic levels, fan-in/fan-out
//!   cones, reachability ([`topo`]),
//! * bit-parallel logic simulation (64 patterns per word, [`sim`]),
//! * graph views and enclosing-subgraph extraction used by link-prediction
//!   attacks ([`graph`]),
//! * equivalence checking helpers ([`equiv`]) and
//! * netlist statistics ([`stats`]).
//!
//! # Quick example
//!
//! ```
//! use autolock_netlist::{Netlist, GateKind};
//!
//! // Build a 2-input AND followed by an inverter: y = !(a & b)
//! let mut nl = Netlist::new("tiny");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate("g", GateKind::And, vec![a, b]).unwrap();
//! let y = nl.add_gate("y", GateKind::Not, vec![g]).unwrap();
//! nl.mark_output(y);
//! nl.validate().unwrap();
//!
//! let out = nl.evaluate(&[true, true]).unwrap();
//! assert_eq!(out, vec![false]);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod error;
mod gate;
#[allow(clippy::module_inception)]
mod netlist;
mod normalize;
mod parser;
mod writer;

pub mod equiv;
pub mod graph;
pub mod ingest;
pub mod sim;
pub mod stats;
pub mod topo;

pub use error::NetlistError;
pub use gate::{Gate, GateId, GateKind};
pub use ingest::{
    parse_auto, parse_path, CircuitFormat, IngestOptions, Ingested, SequentialCircuit,
    SequentialHandling,
};
pub use netlist::Netlist;
pub use parser::parse_bench;
pub use writer::write_bench;

/// Convenient alias for results in this crate.
pub type Result<T> = std::result::Result<T, NetlistError>;
