//! Benchmark circuit library for the AutoLock reproduction.
//!
//! The AutoLock / MuxLink / D-MUX line of work evaluates on ISCAS-85 and
//! ITC-99 gate-level benchmarks. Those netlists come from proprietary
//! synthesis flows, so this crate substitutes:
//!
//! * the real **c17** ISCAS-85 circuit (tiny, public, reproduced exactly),
//! * a documented **c432 reconstruction** from its published high-level
//!   model, embedded as `.bench` text (see [`c432_bench_text`]),
//! * a deterministic **random ISCAS-like generator** ([`generator`]) whose
//!   [`suite`] members (`s160`, `s380`, ... `"synthetic-<gate count>"`) match
//!   classic interfaces and gate counts, and
//! * **structured datapath generators** ([`structured`]): adder trees,
//!   carry-select adders, array multipliers and mux/decode control blocks
//!   composed into large members (`st1355` ... `st7552`, `xl11k`) with the
//!   realistic depth, fanout and reconvergence of the big ISCAS-85 circuits,
//! * **sequential demos** ([`sequential`]): deterministic registered
//!   circuits for the AIGER/sequential ingestion path (cut or unrolled
//!   attack targets), and AIGER **round-trip suite members** (`<base>_aig`)
//!   that re-ingest existing members through the `.aag` writer/parser.
//!
//! Every algorithm in this repository (locking, attacks, evolutionary
//! search) only looks at gate-level structure, so circuits with realistic
//! structural statistics exercise the same code paths as the published
//! benchmarks. See `README.md` in this crate for the suite map.
//!
//! ```
//! use autolock_circuits::{c17, suite, SuiteScale};
//!
//! let c17 = c17();
//! assert_eq!(c17.num_inputs(), 5);
//! assert_eq!(c17.num_outputs(), 2);
//!
//! let bench = suite::standard_suite(SuiteScale::Quick);
//! assert!(bench.iter().any(|c| c.name() == "c17"));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod sequential;
pub mod structured;
pub mod suite;

mod iscas;

pub use generator::{synth_circuit, CircuitGenerator, GeneratorConfig};
pub use iscas::{c17, c17_bench_text, c432, c432_bench_text};
pub use sequential::{sequentialize, synth_sequential};
pub use structured::{synth_structured, StructuredBlock, StructuredConfig};
pub use suite::{
    small_suite, standard_suite, structured_entries, suite_circuit, suite_entries, SuiteEntry,
    SuiteScale,
};
