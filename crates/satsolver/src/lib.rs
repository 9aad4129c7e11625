//! A from-scratch CDCL SAT solver and netlist-to-CNF encoder.
//!
//! This crate is the substrate for the oracle-guided SAT attack on logic
//! locking (crate `autolock-attacks`). It provides:
//!
//! * [`Solver`] — a conflict-driven clause-learning (CDCL) SAT solver with
//!   two-watched-literal propagation, a VSIDS activity heap for decisions,
//!   first-UIP clause learning, non-chronological backtracking, geometric
//!   restarts and incremental solving under assumptions;
//! * [`encode`] — Tseitin encoding of an [`autolock_netlist::Netlist`] into
//!   CNF, with a stable gate→variable mapping so the attack can constrain and
//!   read back key bits;
//! * [`SolverSnapshot`] — a serializable capture of the complete search
//!   state, paired with [`Solver::set_pause_granule`] so a long solve can be
//!   suspended at conflict boundaries, checkpointed to disk, and resumed
//!   bit-identically after a kill.
//!
//! ```
//! use autolock_satsolver::{Lit, Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! // (a OR b) AND (!a OR b) AND (a OR !b)  =>  a = b = true
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::pos(a), Lit::neg(b)]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(a), Some(true));
//! assert_eq!(s.value(b), Some(true));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod encode;
mod heap;
mod snapshot;
mod solver;
mod types;

pub use encode::CircuitEncoder;
pub use snapshot::SolverSnapshot;
pub use solver::{SolveBudget, SolveResult, Solver, SolverStats};
pub use types::{Lit, Var};
