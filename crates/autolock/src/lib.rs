//! AutoLock: automatic design of MUX-based logic locking with evolutionary
//! computation.
//!
//! This crate is the reproduction of the paper's core contribution: a genetic
//! algorithm that refines a D-MUX-style locked netlist until the MuxLink
//! link-prediction attack can no longer recover the key.
//!
//! The pieces map one-to-one onto Fig. 1 of the paper:
//!
//! 1. **Input** — the original netlist (ON) and the desired key length `K`
//!    ([`AutoLockConfig::key_len`]).
//! 2. **Initial population** — the netlist is locked `N` times with random
//!    D-MUX keys; each locked netlist is encoded into the genotype, a list of
//!    loci `{f_i, f_j, g_i, g_j, k}` ([`LockingGenotype`]).
//! 3. **GA loop** — selection, crossover and mutation over the genotype
//!    (operators in [`operators`]), with fitness = `1 − MuxLink accuracy`
//!    ([`MuxLinkFitness`]): lower attack accuracy means higher fitness.
//! 4. **Output** — the locked netlist (LN) decoded from the fittest genotype
//!    ([`AutoLockResult::locked`]).
//!
//! ```no_run
//! use autolock::{AutoLock, AutoLockConfig};
//! use autolock_circuits::suite_circuit;
//!
//! let original = suite_circuit("s160").unwrap();
//! let config = AutoLockConfig {
//!     key_len: 16,
//!     population_size: 10,
//!     generations: 10,
//!     ..Default::default()
//! };
//! let result = AutoLock::new(config).run(&original).unwrap();
//! println!(
//!     "MuxLink accuracy: {:.2} (D-MUX baseline) -> {:.2} (AutoLock)",
//!     result.baseline_attack_accuracy, result.final_attack_accuracy
//! );
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod cache;
mod config;
mod engine;
mod evolution;
mod fitness;
mod genotype;
pub mod operators;
mod report;

pub use cache::FitnessCache;
pub use config::AutoLockConfig;
pub use engine::AutoLock;
pub use evolution::{EvolutionJob, EvolutionOutcome, EvolutionState};
pub use fitness::{MultiObjectiveLockingFitness, MuxLinkFitness, ObjectiveKind};
pub use genotype::{genotype_hash, is_valid, random_genotype, repair_genotype, LockingGenotype};
pub use report::{AutoLockError, AutoLockResult, GenerationRecord};

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, AutoLockError>;
