//! Attack-as-a-service job engine.
//!
//! The experiment drivers in `autolock_bench` run one experiment to
//! completion in one process. This crate turns the same building blocks into
//! a *persistent* service primitive: a batch of lock/attack/evolution jobs
//! that
//!
//! * shards across `AUTOLOCK_THREADS` workers through the workspace's
//!   order-preserving [`autolock_mlcore::parallel::pooled_map`], in bounded
//!   chunks so only one chunk of job state is in flight at a time,
//! * streams one JSONL [`JobRow`] per finished job to disk (flushed per
//!   row, so a `SIGKILL` loses at most the in-flight chunk),
//! * persists per-generation [`autolock_evo::GaState`] checkpoints for
//!   evolution jobs and serde-serialized [`autolock_attacks::TrainedLinkModel`]s
//!   in a disk-backed [`ModelRegistry`] keyed by circuit + config + seed
//!   fingerprints,
//! * resumes: re-running the same job batch against the same output
//!   directory skips every job that already has a row, continues evolution
//!   jobs from their last generation checkpoint, and reuses registry
//!   models — and the final output is **bit-for-bit identical** to an
//!   uninterrupted run (pinned by this crate's tests and the CI
//!   `service-smoke` step).
//!
//! Rows carry no wall-clock fields and every budget counts work, not time
//! (SAT jobs stop on [`autolock_attacks::SatAttackConfig::max_iterations`]
//! and [`autolock_attacks::SatAttackConfig::max_propagations_per_solve`]),
//! so a row is a pure function of its job spec: neither thread count,
//! machine speed nor kill/resume boundaries can change the output.
//!
//! # Fault tolerance
//!
//! The engine is built to survive — and be *tested against* — the failure
//! modes a long-running attack service actually meets (the full matrix
//! lives in this crate's `README.md`):
//!
//! * **Mid-solve SAT checkpointing** — SAT jobs persist their complete
//!   solver state (clause database, trail, activities, budgets) every
//!   [`EngineConfig::sat_step_conflicts`] conflicts, so a `SIGKILL` inside
//!   a long miter solve resumes the *search*, bit-identically, instead of
//!   restarting the job.
//! * **Crash-consistent stores** — every checkpoint and registry entry is
//!   a length+checksum-framed record written via temp-file + atomic rename
//!   ([`CheckpointStore`]). Torn or corrupt records are detected on read,
//!   counted, moved to a quarantine directory, and recomputed — never
//!   silently used, never a panic.
//! * **Poison-job isolation** — a job that panics or hits I/O errors is
//!   retried up to [`EngineConfig::max_attempts`] times, then quarantined
//!   with a structured [`JobStatus::Error`] row carrying its attempt
//!   count; the rest of the batch is unaffected.
//! * **Deterministic fault injection** — a seeded [`FaultPlan`] threads
//!   through every I/O and execution seam, so chaos tests can inject torn
//!   writes, corrupt bytes, read errors and worker panics at exact points
//!   and assert the final stream is byte-identical to a fault-free run.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

mod engine;
mod fault;
mod job;
mod registry;
mod store;

pub use engine::{EngineConfig, JobEngine};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use job::{
    jobs_from_dir, DirJobConfig, DirJobKinds, JobKind, JobRow, JobSpec, JobStatus, LockSpec,
};
pub use registry::{ModelRegistry, RegistryLookup};
pub use store::{CheckpointStore, StoreRead};
