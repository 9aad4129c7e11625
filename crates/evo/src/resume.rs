//! The unified resumable-computation API.
//!
//! [`Resumable`] is the one shape every long computation implements — the
//! SAT attack and the AutoLock evolution job (single-population or island
//! GA) — so a driver (the service engine, a bench experiment, a test
//! harness) can persist and resume any of them without knowing what it
//! computes:
//!
//! 1. [`Resumable::init_state`] builds the in-memory working state.
//! 2. [`Resumable::step`] advances it by one bounded unit of work (a GA
//!    generation, a SAT DIP iteration) and returns `false` once done.
//! 3. Between any two steps, [`Resumable::checkpoint`] captures a
//!    serializable snapshot; [`Resumable::restore`] revives it in a fresh
//!    process, and the continued run is bit-identical to an uninterrupted
//!    one (each implementation pins this with tests).
//! 4. [`Resumable::finish`] consumes the final state into the output.

use crate::GaState;
use serde::{Deserialize, Serialize};

/// A long computation that can be advanced in bounded steps, snapshotted
/// between steps, and revived bit-identically from a snapshot.
///
/// Implementors bundle the immutable problem context (the circuit under
/// attack, the fitness function, the operators) so that drivers need nothing
/// beyond the trait: `init_state`, loop `step`, persist `checkpoint` at every
/// boundary, `finish`. The `Checkpoint` associated type is the *serializable
/// projection* of `State` — for the GA they coincide, while the SAT attack
/// strips live solver objects and rebuilds them in `restore`.
pub trait Resumable {
    /// In-memory working state between steps (may hold live, non-serializable
    /// resources such as SAT solvers).
    type State;
    /// Serializable snapshot of [`Resumable::State`], valid only at step
    /// boundaries.
    type Checkpoint: Serialize + Deserialize;
    /// Result of a completed run.
    type Output;

    /// Builds the initial state (performs the generation-0 evaluation, arms
    /// the solvers, …).
    fn init_state(&self) -> Self::State;

    /// Advances the state by one unit of work. Returns `false` (leaving the
    /// state untouched) once the computation is finished; the state is a
    /// valid checkpoint boundary after every call.
    fn step(&self, state: &mut Self::State) -> bool;

    /// `true` once no further [`Resumable::step`] will do work.
    fn is_finished(&self, state: &Self::State) -> bool;

    /// Consumes a state into the final output. Implementations may require
    /// the state to be finished (drive [`Resumable::step`] until `false`).
    fn finish(&self, state: Self::State) -> Self::Output;

    /// Captures a serializable snapshot of the state.
    fn checkpoint(&self, state: &Self::State) -> Self::Checkpoint;

    /// Revives a state from a snapshot, validating it against this job's
    /// context. Errors describe why the snapshot is unusable (wrong shape,
    /// inconsistent lengths); callers treat an error like a missing
    /// checkpoint and start fresh.
    fn restore(&self, checkpoint: Self::Checkpoint) -> Result<Self::State, String>;
}

/// Drives a [`Resumable`] from scratch to completion, invoking
/// `on_boundary` with the state after initialization and after every step —
/// persist a [`Resumable::checkpoint`] there to make the run recoverable.
pub fn run_to_completion<R: Resumable>(
    job: &R,
    mut on_boundary: impl FnMut(&R::State),
) -> R::Output {
    let mut state = job.init_state();
    on_boundary(&state);
    while job.step(&mut state) {
        on_boundary(&state);
    }
    job.finish(state)
}

/// Structural sanity checks for a restored [`GaState`], shared by the plain
/// and island GA `restore` paths. Rejecting inconsistent snapshots here turns
/// a corrupted (but parseable) checkpoint into a fresh start instead of a
/// panic deep in the selection code.
///
/// # Errors
///
/// Describes the first inconsistency: an empty population, scores that do
/// not match the population, or a history that does not match the
/// generation counter.
pub fn validate_ga_state<G>(state: &GaState<G>) -> Result<(), String> {
    if state.population.is_empty() {
        return Err("checkpoint has an empty population".into());
    }
    if state.scores.len() != state.population.len() {
        return Err(format!(
            "checkpoint scores/population length mismatch ({} vs {})",
            state.scores.len(),
            state.population.len()
        ));
    }
    if state.history.len() != state.generation + 1 {
        return Err(format!(
            "checkpoint history covers {} generations but state is at generation {}",
            state.history.len(),
            state.generation
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{initial, OneMax};
    use crate::{GaConfig, GeneticAlgorithm};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn restore_rejects_inconsistent_snapshots() {
        let ga = GeneticAlgorithm::new(GaConfig::default());
        let good = ga.init_state(initial(6, 8, 1), &OneMax, ChaCha8Rng::seed_from_u64(2));

        let mut empty = good.clone();
        empty.population.clear();
        empty.scores.clear();
        assert!(validate_ga_state(&empty)
            .unwrap_err()
            .contains("empty population"));

        let mut skewed = good.clone();
        skewed.scores.pop();
        assert!(validate_ga_state(&skewed)
            .unwrap_err()
            .contains("length mismatch"));

        let mut torn = good.clone();
        torn.generation = 5;
        assert!(validate_ga_state(&torn).unwrap_err().contains("generation"));

        assert!(validate_ga_state(&good).is_ok());
    }
}
