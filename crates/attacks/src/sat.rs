//! The oracle-guided SAT attack on logic locking.
//!
//! The SAT attack (Subramanyan, Ray, Malik — HOST 2015) assumes the attacker
//! has (a) the locked netlist and (b) a working unlocked chip used as an
//! input/output oracle. It repeatedly finds *distinguishing input patterns*
//! (DIPs) — inputs for which two different keys produce different outputs —
//! queries the oracle on them, and constrains the key space with the observed
//! responses until only functionally correct keys remain.
//!
//! This reproduction uses the original netlist as the oracle (the standard
//! substitution when no silicon is available) and the from-scratch CDCL
//! solver from `autolock-satsolver`.

use autolock_evo::Resumable;
use autolock_locking::{Key, LockedNetlist};
use autolock_netlist::{GateId, Netlist};
use autolock_satsolver::{
    CircuitEncoder, Lit, SolveBudget, SolveResult, Solver, SolverSnapshot, Var,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The per-solve propagation cap of [`SatAttackConfig::default`], so a
/// default attack on a circuit it cannot break gives up instead of running
/// unbounded. It is about a minute of solving: a traced `sat-dip` benchmark
/// run propagates about 4.3M literals per CPU second on one core of a 2-core
/// Xeon (release build).
pub const DEFAULT_MAX_PROPAGATIONS_PER_SOLVE: u64 = 300_000_000;

/// Configuration of the SAT attack.
///
/// Both budgets count work, never time, so an attack's outcome is a pure
/// function of its config and inputs: two runs on any machines stop at the
/// same search point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SatAttackConfig {
    /// Maximum number of DIP iterations before giving up.
    pub max_iterations: usize,
    /// Deterministic work cap: maximum solver propagations per individual
    /// `solve` call, enforced *inside* the CDCL loop via [`SolveBudget`], so
    /// a single hard miter solve cannot run unboundedly. `None` = unbounded.
    pub max_propagations_per_solve: Option<u64>,
    /// Optional mid-solve checkpoint granule: when set, the active solver
    /// call pauses every this-many conflicts and [`SatAttack::step`] returns,
    /// giving the caller a boundary at which the whole attack state can be
    /// serialized via [`SatAttack::checkpoint`]. Pausing never changes the
    /// search path, so results are identical with or without a granule.
    /// `None` (the default) lets each solve run to its verdict in one step.
    pub checkpoint_conflicts: Option<u64>,
}

impl Default for SatAttackConfig {
    fn default() -> Self {
        SatAttackConfig {
            max_iterations: 2000,
            max_propagations_per_solve: Some(DEFAULT_MAX_PROPAGATIONS_PER_SOLVE),
            checkpoint_conflicts: None,
        }
    }
}

/// Result of a SAT-attack run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SatAttackOutcome {
    /// Scheme that was attacked.
    pub scheme: String,
    /// Design name.
    pub design: String,
    /// Key length.
    pub key_len: usize,
    /// Whether the attack terminated with a provably correct key.
    pub success: bool,
    /// The recovered key (meaningful when `success`).
    pub recovered_key: Key,
    /// Whether the recovered key exactly equals the designer's key. The SAT
    /// attack only guarantees *functional* correctness, so this may be false
    /// even on success (another key implements the same function).
    pub exact_key_match: bool,
    /// Number of distinguishing input patterns (oracle queries) used.
    pub iterations: usize,
    /// Total wall-clock milliseconds.
    pub runtime_ms: u128,
    /// Total SAT conflicts across all solver calls.
    pub solver_conflicts: u64,
    /// `true` if the attack stopped on a budget (iteration cap or
    /// propagation cap) rather than reaching a verdict. The other counters
    /// still describe the partial run.
    pub gave_up: bool,
}

/// Which stage a stepwise SAT-attack run is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum SatPhase {
    /// Searching the miter for the next distinguishing input pattern.
    Miter,
    /// No more DIPs exist; extracting a consistent key from the key solver.
    KeyExtract,
    /// Terminal: the verdict fields are final.
    Done,
}

/// Live state of a stepwise SAT-attack run.
///
/// Mirrors the `evo::checkpoint` shape: [`SatAttack::init_state`] builds it,
/// [`SatAttack::step`] advances it one bounded unit of work at a time,
/// [`SatAttack::finish`] turns it into a [`SatAttackOutcome`]. Between steps
/// the state can be serialized with [`SatAttack::checkpoint`] and — in
/// another process, after a kill — revived with [`SatAttack::restore`],
/// continuing the run bit-identically, *including* a solve that was paused
/// mid-search via [`SatAttackConfig::checkpoint_conflicts`].
#[derive(Debug, Clone)]
pub struct SatAttackState {
    phase: SatPhase,
    iterations: usize,
    gave_up: bool,
    success: bool,
    key_bits: Vec<bool>,
    miter: Solver,
    key_solver: Solver,
    enc_a: CircuitEncoder,
    enc_b: CircuitEncoder,
    key_vars: Vec<Var>,
    // Interface caches, recomputed on restore (not checkpointed).
    pis: Vec<GateId>,
    keys: Vec<GateId>,
    outs: Vec<GateId>,
    /// Wall-clock anchor, read only to fill
    /// [`SatAttackOutcome::runtime_ms`]; it never steers the run. Restarts
    /// from zero on [`SatAttack::restore`].
    started: Instant,
}

impl SatAttackState {
    /// DIP iterations completed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `true` once the run reached its terminal phase (no `step` will do
    /// further work).
    pub fn is_finished(&self) -> bool {
        self.phase == SatPhase::Done
    }
}

/// A serializable checkpoint of a [`SatAttackState`], including both solver
/// snapshots and the gate→variable maps of the two miter circuit copies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SatAttackCheckpoint {
    phase: SatPhase,
    iterations: usize,
    gave_up: bool,
    success: bool,
    key_bits: Vec<bool>,
    miter: SolverSnapshot,
    key_solver: SolverSnapshot,
    enc_a_vars: Vec<Var>,
    enc_b_vars: Vec<Var>,
    key_vars: Vec<Var>,
}

impl SatAttackCheckpoint {
    /// DIP iterations completed when the checkpoint was taken.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// The oracle-guided SAT attack.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatAttack {
    config: SatAttackConfig,
}

impl SatAttack {
    /// Creates the attack with the given configuration.
    pub fn new(config: SatAttackConfig) -> Self {
        SatAttack { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SatAttackConfig {
        &self.config
    }

    /// Arms `solver` with the attack's per-solve propagation cap and pause
    /// granule.
    fn arm(&self, solver: &mut Solver) {
        solver.set_budget(SolveBudget {
            max_conflicts: None,
            max_propagations: self.config.max_propagations_per_solve,
        });
        solver.set_pause_granule(self.config.checkpoint_conflicts);
    }

    /// Builds the initial state of a stepwise run: the miter (two circuit
    /// copies sharing primary inputs, free keys, at least one output
    /// different) and the empty key solver.
    ///
    /// The locked netlist is validated here, once; every circuit copy the
    /// run encodes afterwards (two now, three per DIP) relies on it.
    ///
    /// # Panics
    ///
    /// Panics if the locked netlist fails validation or if the oracle and
    /// the locked netlist have incompatible interfaces (different numbers of
    /// primary inputs or outputs).
    pub fn init_state(&self, locked: &LockedNetlist, oracle: &Netlist) -> SatAttackState {
        let netlist = locked.netlist();
        netlist
            .validate()
            .expect("the SAT attack requires a valid locked netlist");
        assert_eq!(
            oracle.num_inputs(),
            netlist.num_inputs(),
            "oracle and locked netlist must have the same primary inputs"
        );
        assert_eq!(
            oracle.num_outputs(),
            netlist.num_outputs(),
            "oracle and locked netlist must have the same primary outputs"
        );

        let pis: Vec<GateId> = netlist.inputs();
        let keys: Vec<GateId> = netlist.key_inputs();
        let outs: Vec<GateId> = netlist.outputs().to_vec();

        // Miter solver: two copies (A, B) sharing primary inputs, free keys.
        let mut miter = Solver::new();
        let enc_a = CircuitEncoder::encode_validated(&mut miter, netlist);
        let enc_b = CircuitEncoder::encode_validated(&mut miter, netlist);
        for &pi in &pis {
            enc_a.assert_equal(&mut miter, pi, &enc_b, pi);
        }
        // At least one output differs: OR over per-output XOR indicators.
        let mut diff_lits = Vec::with_capacity(outs.len());
        for &o in &outs {
            let d = Lit::pos(miter.new_var());
            let a = enc_a.lit(o, true);
            let b = enc_b.lit(o, true);
            // d <-> (a xor b)
            miter.add_clause(&[!a, !b, !d]);
            miter.add_clause(&[a, b, !d]);
            miter.add_clause(&[!a, b, d]);
            miter.add_clause(&[a, !b, d]);
            diff_lits.push(d);
        }
        miter.add_clause(&diff_lits);

        // Key solver: accumulates "key must reproduce oracle behaviour on
        // every queried DIP"; its model at the end is the recovered key.
        let mut key_solver = Solver::new();
        let key_vars: Vec<Var> = keys.iter().map(|_| key_solver.new_var()).collect();

        self.arm(&mut miter);
        self.arm(&mut key_solver);

        SatAttackState {
            phase: SatPhase::Miter,
            iterations: 0,
            gave_up: false,
            success: false,
            key_bits: Vec::new(),
            miter,
            key_solver,
            enc_a,
            enc_b,
            key_vars,
            pis,
            keys,
            outs,
            started: Instant::now(),
        }
    }

    /// Serializes the complete state of a stepwise run. Call between
    /// [`SatAttack::step`]s — the returned checkpoint plus the (job-derived)
    /// locked netlist is everything [`SatAttack::restore`] needs.
    pub fn checkpoint(&self, state: &SatAttackState) -> SatAttackCheckpoint {
        SatAttackCheckpoint {
            phase: state.phase,
            iterations: state.iterations,
            gave_up: state.gave_up,
            success: state.success,
            key_bits: state.key_bits.clone(),
            miter: state.miter.snapshot(),
            key_solver: state.key_solver.snapshot(),
            enc_a_vars: state.enc_a.vars().to_vec(),
            enc_b_vars: state.enc_b.vars().to_vec(),
            key_vars: state.key_vars.clone(),
        }
    }

    /// Revives a checkpointed run against the same locked netlist,
    /// continuing bit-identically — a solve that was paused mid-search picks
    /// up at the exact conflict it stopped at, still counting against the
    /// per-solve propagation cap it was paused under.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency when the checkpoint does
    /// not structurally match `locked` (wrong circuit, torn or corrupt
    /// payload that still deserialized), or when `locked` fails validation.
    /// The caller treats that as a corrupt checkpoint: quarantine and
    /// restart from scratch, never panic.
    pub fn restore(
        &self,
        locked: &LockedNetlist,
        checkpoint: SatAttackCheckpoint,
    ) -> Result<SatAttackState, String> {
        let netlist = locked.netlist();
        netlist
            .validate()
            .map_err(|e| format!("invalid locked netlist: {e}"))?;
        let keys: Vec<GateId> = netlist.key_inputs();
        if checkpoint.key_vars.len() != keys.len() {
            return Err(format!(
                "checkpoint has {} key variables for {} key inputs",
                checkpoint.key_vars.len(),
                keys.len()
            ));
        }
        // Until key extraction the key solver takes DIP clauses, which a
        // paused solver refuses.
        if checkpoint.key_solver.is_paused() && checkpoint.phase != SatPhase::KeyExtract {
            return Err(format!("key solver paused in phase {:?}", checkpoint.phase));
        }
        let enc_a = CircuitEncoder::from_vars(netlist, checkpoint.enc_a_vars)?;
        let enc_b = CircuitEncoder::from_vars(netlist, checkpoint.enc_b_vars)?;
        let mut miter = Solver::from_snapshot(checkpoint.miter)?;
        let mut key_solver = Solver::from_snapshot(checkpoint.key_solver)?;
        let beyond =
            |vars: &[Var], solver: &Solver| vars.iter().any(|v| v.index() >= solver.num_vars());
        if beyond(enc_a.vars(), &miter)
            || beyond(enc_b.vars(), &miter)
            || beyond(&checkpoint.key_vars, &key_solver)
        {
            return Err("checkpoint variable beyond its solver snapshot".to_string());
        }
        self.arm(&mut miter);
        self.arm(&mut key_solver);
        Ok(SatAttackState {
            phase: checkpoint.phase,
            iterations: checkpoint.iterations,
            gave_up: checkpoint.gave_up,
            success: checkpoint.success,
            key_bits: checkpoint.key_bits,
            miter,
            key_solver,
            enc_a,
            enc_b,
            key_vars: checkpoint.key_vars,
            pis: netlist.inputs(),
            keys,
            outs: netlist.outputs().to_vec(),
            started: Instant::now(),
        })
    }

    /// Advances the run by one bounded unit of work: one miter solve slice
    /// (a full solve, or up to [`SatAttackConfig::checkpoint_conflicts`]
    /// conflicts of one), one DIP/oracle exchange, or one key-extraction
    /// slice. Returns `true` while more work remains — checkpoint between
    /// calls, then keep stepping. `locked` must be the netlist the state was
    /// built or restored from, which validated it.
    pub fn step(
        &self,
        state: &mut SatAttackState,
        locked: &LockedNetlist,
        oracle: &Netlist,
    ) -> bool {
        let netlist = locked.netlist();
        match state.phase {
            SatPhase::Done => false,
            SatPhase::Miter => {
                if state.iterations >= self.config.max_iterations {
                    state.gave_up = true;
                    state.phase = SatPhase::Done;
                    return false;
                }
                match state.miter.solve() {
                    // Pause boundary: no progress on the verdict, but the
                    // caller may checkpoint here.
                    SolveResult::Paused => true,
                    SolveResult::Unsat => {
                        // No more distinguishing inputs: the accumulated
                        // constraints pin a functionally correct key.
                        state.phase = SatPhase::KeyExtract;
                        true
                    }
                    SolveResult::Unknown => {
                        // Propagation cap hit mid-solve: report a partial
                        // run.
                        state.gave_up = true;
                        state.phase = SatPhase::Done;
                        false
                    }
                    SolveResult::Sat => {
                        // Extract the DIP from copy A's primary inputs.
                        let dip: Vec<bool> = state
                            .pis
                            .iter()
                            .map(|&pi| state.miter.value(state.enc_a.var(pi)).unwrap_or(false))
                            .collect();
                        // Query the oracle.
                        let response = oracle
                            .evaluate(&dip)
                            .expect("oracle evaluation with matching input count");

                        // Constrain both miter key copies and the key solver
                        // with the observed input/output behaviour.
                        for enc in [&state.enc_a, &state.enc_b] {
                            Self::add_io_constraint(
                                &mut state.miter,
                                netlist,
                                &state.pis,
                                &state.keys,
                                &state.outs,
                                state.keys.iter().map(|&k| enc.var(k)),
                                &dip,
                                &response,
                            );
                        }
                        Self::add_io_constraint(
                            &mut state.key_solver,
                            netlist,
                            &state.pis,
                            &state.keys,
                            &state.outs,
                            state.key_vars.iter().copied(),
                            &dip,
                            &response,
                        );
                        state.iterations += 1;
                        true
                    }
                }
            }
            SatPhase::KeyExtract => match state.key_solver.solve() {
                SolveResult::Paused => true,
                SolveResult::Sat => {
                    state.key_bits = state
                        .key_vars
                        .iter()
                        .map(|&v| state.key_solver.value(v).unwrap_or(false))
                        .collect();
                    state.success = true;
                    state.phase = SatPhase::Done;
                    false
                }
                SolveResult::Unknown => {
                    // Key extraction itself ran out of budget.
                    state.gave_up = true;
                    state.phase = SatPhase::Done;
                    false
                }
                SolveResult::Unsat => {
                    // Can only happen with zero iterations and an
                    // unsatisfiable circuit encoding, which validated
                    // netlists never produce.
                    state.success = state.key_vars.is_empty();
                    state.phase = SatPhase::Done;
                    false
                }
            },
        }
    }

    /// Consumes a finished state into the attack outcome, publishing the
    /// summed solver stats to the obs registry.
    ///
    /// # Panics
    ///
    /// Panics if the state has not reached its terminal phase (drive
    /// [`SatAttack::step`] until it returns `false` first).
    pub fn finish(&self, state: SatAttackState, locked: &LockedNetlist) -> SatAttackOutcome {
        assert!(
            state.is_finished(),
            "finish requires a finished state (step until it returns false)"
        );
        let (success, recovered_key) = if state.success {
            (true, Key::new(state.key_bits.clone()))
        } else {
            (false, Key::zeros(state.key_vars.len()))
        };

        // Publish the summed SolverStats of both solvers to the registry —
        // the `satsolver` layer's wiring into the shared obs surface.
        let miter_stats = state.miter.stats();
        let key_stats = state.key_solver.stats();
        autolock_obs::counter("sat.dips").add(state.iterations as u64);
        autolock_obs::counter("sat.decisions").add(miter_stats.decisions + key_stats.decisions);
        autolock_obs::counter("sat.propagations")
            .add(miter_stats.propagations + key_stats.propagations);
        autolock_obs::counter("sat.conflicts").add(miter_stats.conflicts + key_stats.conflicts);
        autolock_obs::counter("sat.restarts").add(miter_stats.restarts + key_stats.restarts);
        autolock_obs::counter("sat.learned_clauses")
            .add(miter_stats.learned_clauses + key_stats.learned_clauses);

        let exact_key_match = success && &recovered_key == locked.key();
        SatAttackOutcome {
            scheme: locked.scheme().to_string(),
            design: locked.original_name().to_string(),
            key_len: state.key_vars.len(),
            success,
            recovered_key,
            exact_key_match,
            iterations: state.iterations,
            runtime_ms: state.started.elapsed().as_millis(),
            solver_conflicts: miter_stats.conflicts + key_stats.conflicts,
            gave_up: state.gave_up,
        }
    }

    /// Runs the attack against `locked`, using `oracle` (the original,
    /// unlocked design) to answer input/output queries. Equivalent to
    /// driving [`SatAttack::step`] to completion in one call.
    ///
    /// # Panics
    ///
    /// Panics if the oracle and the locked netlist have incompatible
    /// interfaces (different numbers of primary inputs or outputs).
    pub fn attack(&self, locked: &LockedNetlist, oracle: &Netlist) -> SatAttackOutcome {
        // Write-only observability: the span/counters record the run but
        // never steer the DIP loop.
        let _span = autolock_obs::span!("attack.sat");
        let mut state = self.init_state(locked, oracle);
        while self.step(&mut state, locked, oracle) {}
        self.finish(state, locked)
    }

    /// Adds, to `solver`, a fresh copy of the validated `netlist` whose
    /// primary inputs are fixed to `dip`, whose outputs are fixed to
    /// `response`, and whose key inputs are tied, in order, to `key_vars`:
    /// the key variables of an existing miter copy, or the key solver's
    /// shared ones.
    #[allow(clippy::too_many_arguments)]
    fn add_io_constraint(
        solver: &mut Solver,
        netlist: &Netlist,
        pis: &[GateId],
        keys: &[GateId],
        outs: &[GateId],
        key_vars: impl IntoIterator<Item = Var>,
        dip: &[bool],
        response: &[bool],
    ) {
        let copy = CircuitEncoder::encode_validated(solver, netlist);
        for (&pi, &value) in pis.iter().zip(dip) {
            copy.assert_value(solver, pi, value);
        }
        for (&o, &value) in outs.iter().zip(response) {
            copy.assert_value(solver, o, value);
        }
        for (&k, v) in keys.iter().zip(key_vars) {
            let a = copy.lit(k, true);
            let b = Lit::pos(v);
            solver.add_clause(&[!a, b]);
            solver.add_clause(&[a, !b]);
        }
    }
}

/// The [`Resumable`] form of a SAT attack run: a [`SatAttack`] bundled with
/// the locked netlist and oracle it runs against, so drivers (the service
/// engine) can persist and resume it through the same trait as the GA. One
/// step is one DIP iteration (or one mid-solve pause when
/// [`SatAttackConfig::checkpoint_conflicts`] is set).
pub struct ResumableSatAttack<'a> {
    attack: &'a SatAttack,
    locked: &'a LockedNetlist,
    oracle: &'a Netlist,
}

impl<'a> ResumableSatAttack<'a> {
    /// Bundles an attack with its target and oracle.
    pub fn new(attack: &'a SatAttack, locked: &'a LockedNetlist, oracle: &'a Netlist) -> Self {
        ResumableSatAttack {
            attack,
            locked,
            oracle,
        }
    }
}

impl Resumable for ResumableSatAttack<'_> {
    type State = SatAttackState;
    type Checkpoint = SatAttackCheckpoint;
    type Output = SatAttackOutcome;

    fn init_state(&self) -> SatAttackState {
        self.attack.init_state(self.locked, self.oracle)
    }

    fn step(&self, state: &mut SatAttackState) -> bool {
        self.attack.step(state, self.locked, self.oracle)
    }

    fn is_finished(&self, state: &SatAttackState) -> bool {
        state.is_finished()
    }

    fn finish(&self, state: SatAttackState) -> SatAttackOutcome {
        self.attack.finish(state, self.locked)
    }

    fn checkpoint(&self, state: &SatAttackState) -> SatAttackCheckpoint {
        self.attack.checkpoint(state)
    }

    fn restore(&self, checkpoint: SatAttackCheckpoint) -> Result<SatAttackState, String> {
        self.attack.restore(self.locked, checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autolock_circuits::{c17, suite_circuit, synth_circuit};
    use autolock_locking::{DMuxLocking, LockingScheme, XorLocking};
    use autolock_netlist::equiv;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_recovered_key_is_functional(
        original: &Netlist,
        locked: &LockedNetlist,
        outcome: &SatAttackOutcome,
    ) {
        assert!(outcome.success, "attack should succeed: {outcome:?}");
        let equivalent = equiv::exhaustive_equivalent(
            original,
            &[],
            locked.netlist(),
            outcome.recovered_key.bits(),
        )
        .unwrap();
        assert!(equivalent, "recovered key must unlock the design");
    }

    #[test]
    fn sat_attack_breaks_xor_locking_on_c17() {
        let original = c17();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let locked = XorLocking::default().lock(&original, 4, &mut rng).unwrap();
        let outcome = SatAttack::default().attack(&locked, &original);
        assert_recovered_key_is_functional(&original, &locked, &outcome);
        assert!(outcome.iterations <= 16);
    }

    #[test]
    fn resumable_trait_run_equals_direct_attack() {
        // Driving the attack through the unified `Resumable` trait —
        // including a checkpoint/restore round-trip mid-run — must be
        // indistinguishable from `SatAttack::attack`.
        let original = synth_circuit("sat-resumable", 8, 4, 90, 21);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let locked = XorLocking::default().lock(&original, 6, &mut rng).unwrap();
        let attack = SatAttack::default();
        let direct = attack.attack(&locked, &original);

        let job = ResumableSatAttack::new(&attack, &locked, &original);
        let mut state = job.init_state();
        let mut stepped_once = false;
        while job.step(&mut state) {
            // Round-trip through the serialized checkpoint at the first
            // boundary, as the service engine would after a kill.
            if !stepped_once {
                stepped_once = true;
                let json = serde_json::to_string(&job.checkpoint(&state)).unwrap();
                let revived: SatAttackCheckpoint = serde_json::from_str(&json).unwrap();
                state = job.restore(revived).unwrap();
            }
        }
        assert!(job.is_finished(&state));
        let resumed = job.finish(state);
        assert_eq!(direct.success, resumed.success);
        assert_eq!(direct.recovered_key, resumed.recovered_key);
        assert_eq!(direct.iterations, resumed.iterations);
        assert_eq!(direct.solver_conflicts, resumed.solver_conflicts);
    }

    #[test]
    fn sat_attack_breaks_dmux_locking_on_c17() {
        let original = c17();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let locked = DMuxLocking::default().lock(&original, 3, &mut rng).unwrap();
        let outcome = SatAttack::default().attack(&locked, &original);
        assert_recovered_key_is_functional(&original, &locked, &outcome);
    }

    #[test]
    fn sat_attack_on_synthetic_circuit() {
        let original = synth_circuit("t", 8, 4, 60, 13);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let locked = DMuxLocking::default().lock(&original, 6, &mut rng).unwrap();
        let outcome = SatAttack::default().attack(&locked, &original);
        assert!(outcome.success);
        // Functional correctness via random simulation (exhaustive is 2^8 here,
        // still fine, but keep the random path exercised).
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let ok = equiv::random_equivalent(
            &original,
            &[],
            locked.netlist(),
            outcome.recovered_key.bits(),
            8,
            &mut rng,
        )
        .unwrap();
        assert!(ok);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let original = synth_circuit("t", 10, 4, 120, 17);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let locked = DMuxLocking::default()
            .lock(&original, 12, &mut rng)
            .unwrap();
        let attack = SatAttack::new(SatAttackConfig {
            max_iterations: 0,
            ..SatAttackConfig::default()
        });
        let outcome = attack.attack(&locked, &original);
        assert!(!outcome.success);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn propagation_cap_induces_deterministic_give_up() {
        // The machine-independent budget: two identical runs cut off at the
        // same search point and report identical partial stats.
        let original = suite_circuit("st6288").expect("structured suite member");
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(43);
            let locked = DMuxLocking::default()
                .lock(&original, 16, &mut rng)
                .unwrap();
            // The iteration cap is a backstop: measured release runs spend
            // millions of propagations per miter solve here, so the 20k cap
            // triggers within the first iterations either way.
            SatAttack::new(SatAttackConfig {
                max_iterations: 30,
                max_propagations_per_solve: Some(20_000),
                ..SatAttackConfig::default()
            })
            .attack(&locked, &original)
        };
        let a = run();
        let b = run();
        assert!(a.gave_up, "cap must trigger: {a:?}");
        assert!(!a.success);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.solver_conflicts, b.solver_conflicts);
        assert_eq!(a.recovered_key, b.recovered_key);
    }

    #[test]
    fn generous_budget_leaves_attack_unaffected() {
        // A budget far above what c17 needs must not change the result.
        let original = c17();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let locked = XorLocking::default().lock(&original, 4, &mut rng).unwrap();
        let outcome = SatAttack::new(SatAttackConfig {
            max_iterations: 2000,
            max_propagations_per_solve: Some(10_000_000),
            ..SatAttackConfig::default()
        })
        .attack(&locked, &original);
        assert!(outcome.success);
        assert!(!outcome.gave_up);
        assert_recovered_key_is_functional(&original, &locked, &outcome);
    }

    #[test]
    fn keyless_netlist_trivially_succeeds() {
        let original = c17();
        let locked = LockedNetlist::new(
            original.clone(),
            Key::zeros(0),
            vec![],
            "none",
            original.name(),
        )
        .unwrap();
        let outcome = SatAttack::default().attack(&locked, &original);
        assert!(outcome.success);
        assert_eq!(outcome.key_len, 0);
    }

    #[test]
    fn stepped_run_matches_monolithic_attack() {
        let original = synth_circuit("t", 8, 4, 60, 13);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let locked = DMuxLocking::default().lock(&original, 6, &mut rng).unwrap();
        let attack = SatAttack::default();
        let reference = attack.attack(&locked, &original);

        let mut state = attack.init_state(&locked, &original);
        while attack.step(&mut state, &locked, &original) {}
        let stepped = attack.finish(state, &locked);

        assert_eq!(stepped.success, reference.success);
        assert_eq!(stepped.iterations, reference.iterations);
        assert_eq!(stepped.solver_conflicts, reference.solver_conflicts);
        assert_eq!(stepped.recovered_key, reference.recovered_key);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        // Pause every single conflict, checkpoint through JSON at *every*
        // step boundary, and restore into a fresh state each time. The final
        // outcome must match an uninterrupted run exactly — the strongest
        // form of "a SIGKILL between any two steps loses nothing".
        let original = synth_circuit("t", 8, 4, 60, 13);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let locked = DMuxLocking::default().lock(&original, 6, &mut rng).unwrap();
        let attack = SatAttack::new(SatAttackConfig {
            checkpoint_conflicts: Some(1),
            ..SatAttackConfig::default()
        });
        let reference = attack.attack(&locked, &original);

        let mut state = attack.init_state(&locked, &original);
        let mut steps = 0usize;
        while attack.step(&mut state, &locked, &original) {
            let json = serde_json::to_string(&attack.checkpoint(&state)).unwrap();
            let revived: SatAttackCheckpoint = serde_json::from_str(&json).unwrap();
            state = attack.restore(&locked, revived).unwrap();
            steps += 1;
            assert!(steps < 100_000, "stepped attack must terminate");
        }
        let resumed = attack.finish(state, &locked);

        assert_eq!(resumed.success, reference.success);
        assert_eq!(resumed.iterations, reference.iterations);
        assert_eq!(resumed.solver_conflicts, reference.solver_conflicts);
        assert_eq!(resumed.recovered_key, reference.recovered_key);
        assert!(
            steps > resumed.iterations,
            "granule 1 must pause inside solves: {steps} steps, {} DIPs",
            resumed.iterations
        );
    }

    #[test]
    fn pause_granule_does_not_change_the_search() {
        // With and without a pause granule the solver must walk the same
        // path: pausing is a pure suspension, not a restart.
        let original = synth_circuit("t", 10, 4, 120, 17);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let locked = DMuxLocking::default().lock(&original, 8, &mut rng).unwrap();
        let plain = SatAttack::default().attack(&locked, &original);
        let paused = SatAttack::new(SatAttackConfig {
            checkpoint_conflicts: Some(3),
            ..SatAttackConfig::default()
        })
        .attack(&locked, &original);
        assert_eq!(paused.success, plain.success);
        assert_eq!(paused.iterations, plain.iterations);
        assert_eq!(paused.solver_conflicts, plain.solver_conflicts);
        assert_eq!(paused.recovered_key, plain.recovered_key);
    }

    /// The node at a `/`-separated path of field names and indices.
    fn node<'a>(v: &'a serde::Value, path: &str) -> &'a serde::Value {
        use serde::Value;
        path.split('/')
            .filter(|t| !t.is_empty())
            .fold(v, |v, t| match v {
                Value::Map(m) => {
                    serde::get_field(m, t).unwrap_or_else(|| panic!("no {t} in {path}"))
                }
                Value::Seq(s) => &s[t.parse::<usize>().unwrap()],
                _ => panic!("no {t} in {path}"),
            })
    }

    /// [`node`], mutably.
    fn node_mut<'a>(v: &'a mut serde::Value, path: &str) -> &'a mut serde::Value {
        use serde::Value;
        path.split('/')
            .filter(|t| !t.is_empty())
            .fold(v, |v, t| match v {
                Value::Map(m) => &mut m.iter_mut().find(|(k, _)| k == t).unwrap().1,
                Value::Seq(s) => &mut s[t.parse::<usize>().unwrap()],
                _ => panic!("no {t} in {path}"),
            })
    }

    #[test]
    fn restore_rejects_corrupt_mid_solve_checkpoints_without_panicking() {
        use serde::Value;
        // A checkpoint taken inside a miter solve, after a DIP, with at
        // least two decision levels on the trail, built as
        // `checkpoint_roundtrip_resumes_bit_identically` builds its own.
        let original = synth_circuit("t", 8, 4, 60, 13);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let locked = DMuxLocking::default().lock(&original, 6, &mut rng).unwrap();
        let attack = SatAttack::new(SatAttackConfig {
            checkpoint_conflicts: Some(1),
            ..SatAttackConfig::default()
        });
        let mut state = attack.init_state(&locked, &original);
        let good = loop {
            assert!(attack.step(&mut state, &locked, &original), "no deep pause");
            let value = attack.checkpoint(&state).to_value();
            let levels = node(&value, "/miter/trail_lim").as_seq().unwrap().len();
            let paused = *node(&value, "/miter/paused") == Value::Bool(true);
            if state.iterations > 0 && paused && levels >= 2 {
                break value;
            }
        };
        let num = |p: &str| match node(&good, p) {
            Value::UInt(n) => *n,
            other => panic!("{p} is {other:?}"),
        };
        let len = |p: &str| node(&good, p).as_seq().unwrap().len() as u128;

        // Each edit is a path and the value to put there; `None` drops the
        // array's last element instead. All but one also break the solver
        // snapshot they touch on its own.
        let mut edits: Vec<(String, Option<Value>)> = Vec::new();
        let beyond = len("/miter/assigns") + len("/key_solver/assigns");
        for s in ["/miter", "/key_solver"] {
            let (nvars, nclauses) = (len(&format!("{s}/assigns")), len(&format!("{s}/clauses")));
            let trail = len(&format!("{s}/trail"));
            let conflicts = num(&format!("{s}/stats/conflicts"));
            let mut set = |field: String, x: u128| {
                edits.push((format!("{s}/{field}"), Some(Value::UInt(x))));
            };
            set("clauses/0/0/0".into(), 2 * nvars);
            set("watches/0/0".into(), nclauses);
            set("trail/0".into(), 2 * nvars);
            set("qhead".into(), trail + 1);
            set("base_conflicts".into(), conflicts + 1);
            set("pause_mark".into(), conflicts + 1);
            let propagations = num(&format!("{s}/stats/propagations"));
            set("base_propagations".into(), propagations + 1);
            set("restart_limit".into(), 0);
            // A clause watched twice by one literal, and another not at all.
            if let Some(w) = (0..2 * nvars).find(|w| len(&format!("{s}/watches/{w}")) >= 2) {
                set(format!("watches/{w}/1"), num(&format!("{s}/watches/{w}/0")));
            }
            if trail >= 2 {
                // A variable on the trail twice; one at the wrong level.
                let last = num(&format!("{s}/trail/{}", trail - 1));
                set("trail/0".into(), last);
                set(
                    format!("level/{}", last / 2),
                    len(&format!("{s}/trail_lim")) + 1,
                );
            }
            if len(&format!("{s}/trail_lim")) > 0 {
                set("trail_lim/0".into(), trail + 1);
            }
            let arrays = "clauses watches assigns level reason trail trail_lim activity \
                          polarity model clauses/0/0";
            for field in arrays.split_whitespace() {
                edits.push((format!("{s}/{field}"), None));
            }
        }
        edits.push(("/miter/paused".into(), Some(Value::Bool(false))));
        // A key solver paused at level 0 is a sound snapshot, but not in the
        // miter phase, which still adds DIP clauses to it.
        let paused_key_solver = "/key_solver/paused";
        edits.push((paused_key_solver.into(), Some(Value::Bool(true))));
        for field in ["/enc_a_vars", "/enc_b_vars", "/key_vars"] {
            edits.push((format!("{field}/0"), Some(Value::UInt(beyond))));
            edits.push((field.into(), None));
        }

        assert!(attack
            .restore(&locked, SatAttackCheckpoint::from_value(&good).unwrap())
            .is_ok());
        for (path, edit) in edits {
            let mut bad = good.clone();
            let target = node_mut(&mut bad, &path);
            match (&edit, target) {
                (Some(x), target) => *target = x.clone(),
                (None, Value::Seq(items)) => {
                    items.pop();
                }
                (None, other) => panic!("{path} is no array: {other:?}"),
            }
            let name = format!("{path} <- {edit:?}");
            if bad == good {
                // A truncation of an empty array.
                continue;
            }
            let checkpoint = SatAttackCheckpoint::from_value(&bad)
                .unwrap_or_else(|e| panic!("{name}: edit must still deserialize: {e}"));
            assert!(
                attack.restore(&locked, checkpoint).is_err(),
                "{name}: restored"
            );
            for s in ["/miter", "/key_solver"] {
                if node(&bad, s) != node(&good, s) && path != paused_key_solver {
                    let snapshot: SolverSnapshot =
                        SolverSnapshot::from_value(node(&bad, s)).unwrap();
                    assert!(
                        Solver::from_snapshot(snapshot).is_err(),
                        "{name}: from_snapshot"
                    );
                }
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_checkpoint() {
        let original = c17();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let locked = XorLocking::default().lock(&original, 4, &mut rng).unwrap();
        let attack = SatAttack::default();
        let state = attack.init_state(&locked, &original);
        let good = attack.checkpoint(&state);

        // Wrong key arity: checkpoint from a different lock width.
        let mut wrong_keys = good.clone();
        wrong_keys.key_vars.pop();
        assert!(attack.restore(&locked, wrong_keys).is_err());

        // Wrong circuit: the other netlist has a different gate count.
        let other = synth_circuit("other", 8, 4, 60, 99);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let other_locked = XorLocking::default().lock(&other, 4, &mut rng).unwrap();
        assert!(attack.restore(&other_locked, good).is_err());
    }
}
