//! Serializable snapshots of a [`Solver`]'s complete search state.
//!
//! A [`SolverSnapshot`] captures everything a CDCL search needs to continue
//! bit-identically after a process kill: the clause database (original and
//! learnt clauses), the watch lists *in their current order* (watcher order
//! determines propagation order, which determines the rest of the search),
//! the trail with its decision levels and reasons, VSIDS activities, phase
//! saving, work counters, and the per-call pause/restart/budget bookkeeping.
//!
//! What a snapshot deliberately does **not** carry is the runtime
//! configuration that a resuming process re-arms itself: the
//! [`SolveBudget`](crate::SolveBudget) and the pause granule. Callers
//! restore those with [`Solver::set_budget`] and
//! [`Solver::set_pause_granule`] after [`Solver::from_snapshot`]. The
//! deterministic budget baselines (`base_conflicts`/`base_propagations`)
//! *are* carried, so a propagation-capped call that was paused keeps
//! counting against the same per-call baseline after resuming.
//!
//! Nor does it carry state the solver derives from what it does carry: the
//! decision heap (a function of the assignment and the activities) and the
//! conflict-analysis marks (all clear between conflicts).
//! [`Solver::from_snapshot`] rebuilds both, so the heap changed nothing in
//! the serialized format and snapshots written before it still load and
//! resume on the same search path.
//!
//! The clause database is serialized as `(literals, learnt)` pairs rather
//! than as the solver's flat literal arena, and watch lists as `usize`
//! clause indices where the solver keeps `u32`, so the format does not
//! depend on how the solver stores clauses; snapshot and restore convert
//! between the two.

use crate::heap::VarHeap;
use crate::solver::{value_in, ClauseHeader, Solver};
use crate::{Lit, SolveBudget, SolverStats};
use serde::{Deserialize, Serialize};

/// The complete serializable search state of a [`Solver`].
///
/// Produced by [`Solver::snapshot`], consumed by [`Solver::from_snapshot`].
/// Round-tripping through serde JSON is exact: `f64` activities use
/// shortest-round-trip formatting, so the restored solver makes the same
/// VSIDS decisions as the original.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverSnapshot {
    /// Clause database as `(literals, learnt)` pairs, in attachment order
    /// (clause indices in `watches`/`reason` refer to this order).
    pub(crate) clauses: Vec<(Vec<Lit>, bool)>,
    pub(crate) watches: Vec<Vec<usize>>,
    pub(crate) assigns: Vec<i8>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<Option<usize>>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    pub(crate) activity: Vec<f64>,
    pub(crate) var_inc: f64,
    pub(crate) polarity: Vec<bool>,
    pub(crate) model: Vec<i8>,
    pub(crate) ok: bool,
    pub(crate) stats: SolverStats,
    pub(crate) paused: bool,
    pub(crate) base_conflicts: u64,
    pub(crate) base_propagations: u64,
    pub(crate) conflicts_since_restart: u64,
    pub(crate) restart_limit: u64,
    pub(crate) pause_mark: u64,
}

impl SolverSnapshot {
    /// Number of variables in the snapshotted solver.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// `true` when the snapshot was taken mid-search (the solver was
    /// paused); resuming it continues the suspended solve.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Structural consistency check: every cross-index in the snapshot must
    /// be in range, and the search state must be one the solver could have
    /// produced (see `validate_search`). Returns the first
    /// problem found.
    fn validate(&self) -> Result<(), String> {
        let nvars = self.assigns.len();
        let nclauses = self.clauses.len();
        for (name, len) in [
            ("level", self.level.len()),
            ("reason", self.reason.len()),
            ("activity", self.activity.len()),
            ("polarity", self.polarity.len()),
            ("model", self.model.len()),
        ] {
            if len != nvars {
                return Err(format!(
                    "snapshot field {name} has {len} entries for {nvars} variables"
                ));
            }
        }
        if self.watches.len() != 2 * nvars {
            return Err(format!(
                "snapshot has {} watch lists for {nvars} variables",
                self.watches.len()
            ));
        }
        for ws in &self.watches {
            if let Some(&ci) = ws.iter().find(|&&ci| ci >= nclauses) {
                return Err(format!("watch refers to clause {ci} of {nclauses}"));
            }
        }
        for r in self.reason.iter().flatten() {
            if *r >= nclauses {
                return Err(format!("reason refers to clause {r} of {nclauses}"));
            }
        }
        for (ci, (lits, _)) in self.clauses.iter().enumerate() {
            // Watched clauses need two watch positions; the solver never
            // stores shorter ones.
            if lits.len() < 2 {
                return Err(format!("clause {ci} has {} literals", lits.len()));
            }
            if let Some(l) = lits.iter().find(|l| l.var().index() >= nvars) {
                return Err(format!("clause literal {l} exceeds {nvars} variables"));
            }
        }
        arena_fits(self.clauses.iter().map(|(lits, _)| lits.len()).sum())?;
        for (name, values) in [("assigns", &self.assigns), ("model", &self.model)] {
            if let Some(x) = values.iter().find(|x| !(-1..=1).contains(*x)) {
                return Err(format!("snapshot field {name} holds value {x}"));
            }
        }
        if let Some(l) = self.trail.iter().find(|l| l.var().index() >= nvars) {
            return Err(format!("trail literal {l} exceeds {nvars} variables"));
        }
        if self.qhead > self.trail.len() {
            return Err(format!(
                "qhead {} beyond trail length {}",
                self.qhead,
                self.trail.len()
            ));
        }
        if let Some(&lim) = self.trail_lim.iter().find(|&&lim| lim > self.trail.len()) {
            return Err(format!(
                "decision-level limit {lim} beyond trail length {}",
                self.trail.len()
            ));
        }
        if let Some(w) = self.trail_lim.windows(2).find(|w| w[0] > w[1]) {
            return Err(format!(
                "decision-level limits decrease: {} > {}",
                w[0], w[1]
            ));
        }
        if !self.activity.iter().all(|a| a.is_finite()) || !self.var_inc.is_finite() {
            return Err("non-finite VSIDS activity".to_string());
        }
        self.validate_search()
    }

    /// The invariants a resumed search relies on to stay in bounds, given
    /// in-range indices: the assigned variables sit on the trail once each,
    /// true, at the level their position implies; a decision opens its
    /// level; an implied literal comes first in its reason, whose other
    /// literals were falsified before it; each clause is watched by its
    /// first two literals, once each; the per-call bookkeeping does not run
    /// ahead of the counters; only a paused search sits above level 0.
    fn validate_search(&self) -> Result<(), String> {
        let mut position = vec![usize::MAX; self.assigns.len()];
        for (i, &l) in self.trail.iter().enumerate() {
            let v = l.var().index();
            let level = self.trail_lim.partition_point(|&lim| lim <= i);
            if position[v] != usize::MAX
                || self.level[v] as usize != level
                || value_in(&self.assigns, l) != 1
            {
                return Err(format!(
                    "trail literal {l} repeated, false or off its level"
                ));
            }
            position[v] = i;
        }
        if self.assigns.iter().filter(|&&a| a != 0).count() != self.trail.len() {
            return Err("an assigned variable is missing from the trail".to_string());
        }
        for (v, reason) in self.reason.iter().enumerate() {
            let sound = match *reason {
                Some(ci) => {
                    let lits = &self.clauses[ci].0;
                    position[v] != usize::MAX
                        && lits[0].var().index() == v
                        && lits[1..].iter().all(|&l| {
                            value_in(&self.assigns, l) == -1
                                && position[l.var().index()] < position[v]
                        })
                }
                None => {
                    let level = self.level[v] as usize;
                    position[v] == usize::MAX
                        || level == 0
                        || self.trail_lim[level - 1] == position[v]
                }
            };
            if !sound {
                return Err(format!("variable {v} has an unsound reason"));
            }
        }
        let mut watched = vec![0u8; self.clauses.len()];
        for (code, ws) in self.watches.iter().enumerate() {
            for &ci in ws {
                let lits = &self.clauses[ci].0;
                let bit =
                    u8::from(lits[0].code() == code) | (u8::from(lits[1].code() == code) << 1);
                if bit == 0 || watched[ci] & bit != 0 {
                    return Err(format!(
                        "clause {ci} wrongly watched by literal code {code}"
                    ));
                }
                watched[ci] |= bit;
            }
        }
        if let Some(ci) = watched.iter().position(|&w| w != 3) {
            return Err(format!("clause {ci} misses a watcher"));
        }
        if self.base_conflicts.max(self.pause_mark) > self.stats.conflicts
            || self.base_propagations > self.stats.propagations
            || self.restart_limit == 0
            || (!self.paused && !self.trail_lim.is_empty())
        {
            return Err("per-call search bookkeeping contradicts the counters".to_string());
        }
        Ok(())
    }
}

/// Clause headers address the arena with `u32` positions.
fn arena_fits(literals: usize) -> Result<(), String> {
    if u32::try_from(literals).is_err() {
        return Err(format!(
            "{literals} clause literals exceed the u32 arena positions"
        ));
    }
    Ok(())
}

impl Solver {
    /// Captures the solver's complete search state. Valid at any point the
    /// caller holds the solver — between solve calls or while a solve is
    /// suspended via [`Solver::set_pause_granule`].
    pub fn snapshot(&self) -> SolverSnapshot {
        SolverSnapshot {
            clauses: self
                .clauses
                .iter()
                .map(|h| (self.arena[h.range()].to_vec(), h.learnt))
                .collect(),
            watches: self
                .watches
                .iter()
                .map(|ws| ws.iter().map(|&ci| ci as usize).collect())
                .collect(),
            assigns: self.assigns.clone(),
            level: self.level.clone(),
            reason: self.reason.clone(),
            trail: self.trail.clone(),
            trail_lim: self.trail_lim.clone(),
            qhead: self.qhead,
            activity: self.activity.clone(),
            var_inc: self.var_inc,
            polarity: self.polarity.clone(),
            model: self.model.clone(),
            ok: self.ok,
            stats: self.stats,
            paused: self.paused,
            base_conflicts: self.base_conflicts,
            base_propagations: self.base_propagations,
            conflicts_since_restart: self.conflicts_since_restart,
            restart_limit: self.restart_limit,
            pause_mark: self.pause_mark,
        }
    }

    /// Rebuilds a solver from a snapshot, deriving the decision heap from
    /// the restored assignment and activities. The budget and pause granule
    /// are reset to their defaults (unbounded, no pausing) — re-arm them with
    /// [`Solver::set_budget`] / [`Solver::set_pause_granule`] before the
    /// next solve call; the per-call baselines carried by the snapshot keep
    /// deterministic (conflict/propagation) budgets consistent across the
    /// kill.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural inconsistency found —
    /// a snapshot deserialized from a torn or corrupt checkpoint fails here
    /// instead of panicking deep inside the search.
    pub fn from_snapshot(snapshot: SolverSnapshot) -> Result<Solver, String> {
        snapshot.validate()?;
        let nvars = snapshot.num_vars();
        let unassigned = (0..nvars).filter(|&v| snapshot.assigns[v] == 0);
        let order = VarHeap::build(&snapshot.activity, unassigned);
        let mut arena = Vec::with_capacity(snapshot.clauses.iter().map(|(l, _)| l.len()).sum());
        let clauses = snapshot
            .clauses
            .iter()
            .map(|(lits, learnt)| {
                let start = arena.len() as u32;
                arena.extend_from_slice(lits);
                ClauseHeader {
                    start,
                    len: lits.len() as u32,
                    learnt: *learnt,
                }
            })
            .collect();
        Ok(Solver {
            arena,
            clauses,
            // In range of `clauses`, whose count fits `u32` with the arena.
            watches: snapshot
                .watches
                .iter()
                .map(|ws| ws.iter().map(|&ci| ci as u32).collect())
                .collect(),
            assigns: snapshot.assigns,
            level: snapshot.level,
            reason: snapshot.reason,
            trail: snapshot.trail,
            trail_lim: snapshot.trail_lim,
            qhead: snapshot.qhead,
            activity: snapshot.activity,
            var_inc: snapshot.var_inc,
            order,
            seen: vec![false; nvars],
            learnt: Vec::new(),
            polarity: snapshot.polarity,
            model: snapshot.model,
            ok: snapshot.ok,
            stats: snapshot.stats,
            budget: SolveBudget::default(),
            paused: snapshot.paused,
            base_conflicts: snapshot.base_conflicts,
            base_propagations: snapshot.base_propagations,
            conflicts_since_restart: snapshot.conflicts_since_restart,
            restart_limit: snapshot.restart_limit,
            pause_mark: snapshot.pause_mark,
            pause_granule: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Var};

    /// The unsatisfiable pigeonhole instance used across the solver tests:
    /// hard enough to produce conflicts, restarts and learnt clauses.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            s.add_clause(&lits);
        }
        for i in 0..pigeons {
            for k in (i + 1)..pigeons {
                for (&a, &b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
                }
            }
        }
    }

    #[test]
    fn paused_solve_resumes_to_identical_result_and_stats() {
        let mut plain = Solver::new();
        pigeonhole(&mut plain, 7, 6);
        let reference = plain.solve();
        assert_eq!(reference, SolveResult::Unsat);

        let mut paced = Solver::new();
        pigeonhole(&mut paced, 7, 6);
        paced.set_pause_granule(Some(10));
        let mut pauses = 0;
        let result = loop {
            match paced.solve() {
                SolveResult::Paused => pauses += 1,
                verdict => break verdict,
            }
        };
        assert!(pauses > 0, "granule of 10 must pause a pigeonhole search");
        assert_eq!(result, reference);
        assert_eq!(paced.stats(), plain.stats(), "identical search path");
    }

    #[test]
    fn snapshot_roundtrip_mid_solve_is_bit_identical() {
        let mut plain = Solver::new();
        pigeonhole(&mut plain, 7, 6);
        assert_eq!(plain.solve(), SolveResult::Unsat);

        // Same instance, paused every 25 conflicts; at every pause the
        // solver is torn down and rebuilt from a JSON-serialized snapshot.
        let mut live = Solver::new();
        pigeonhole(&mut live, 7, 6);
        live.set_pause_granule(Some(25));
        let mut roundtrips = 0;
        let result = loop {
            match live.solve() {
                SolveResult::Paused => {
                    let json = serde_json::to_string(&live.snapshot()).unwrap();
                    let back: SolverSnapshot = serde_json::from_str(&json).unwrap();
                    assert!(back.is_paused());
                    live = Solver::from_snapshot(back).unwrap();
                    live.set_pause_granule(Some(25));
                    roundtrips += 1;
                }
                verdict => break verdict,
            }
        };
        assert!(roundtrips > 0);
        assert_eq!(result, SolveResult::Unsat);
        assert_eq!(live.stats(), plain.stats(), "identical search path");
    }

    #[test]
    fn snapshot_preserves_sat_models_and_idle_state() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1])]);
        s.add_clause(&[Lit::neg(vars[0]), Lit::pos(vars[2])]);
        s.add_clause(&[Lit::neg(vars[2]), Lit::neg(vars[3])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let model: Vec<_> = vars.iter().map(|&v| s.value(v)).collect();

        let restored = Solver::from_snapshot(s.snapshot()).unwrap();
        assert_eq!(restored.num_vars(), s.num_vars());
        assert_eq!(restored.num_clauses(), s.num_clauses());
        let restored_model: Vec<_> = vars.iter().map(|&v| restored.value(v)).collect();
        assert_eq!(restored_model, model);

        // An idle restored solver stays incremental: add a clause, re-solve.
        let mut restored = restored;
        assert!(restored.add_clause(&[Lit::neg(vars[1])]));
        assert_eq!(restored.solve(), SolveResult::Sat);
    }

    #[test]
    fn pause_interacts_correctly_with_deterministic_budgets() {
        // A propagation-capped call that pauses must cut off at the same
        // search point as the uncapped-pause reference, because the per-call
        // baselines survive the pauses.
        let run = |granule: Option<u64>| {
            let mut s = Solver::new();
            pigeonhole(&mut s, 10, 9);
            s.set_budget(crate::SolveBudget::unbounded().with_max_propagations(20_000));
            s.set_pause_granule(granule);
            let verdict = loop {
                match s.solve() {
                    SolveResult::Paused => continue,
                    verdict => break verdict,
                }
            };
            (verdict, s.stats())
        };
        let (plain_verdict, plain_stats) = run(None);
        let (paced_verdict, paced_stats) = run(Some(7));
        assert_eq!(plain_verdict, SolveResult::Unknown);
        assert_eq!(paced_verdict, SolveResult::Unknown);
        assert_eq!(plain_stats, paced_stats);
    }

    #[test]
    fn corrupt_snapshots_are_rejected_not_panicked_on() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 3);
        s.set_pause_granule(Some(1));
        assert_eq!(s.solve(), SolveResult::Paused);
        let good = s.snapshot();

        let mut bad = good.clone();
        bad.watches[0].push(usize::MAX);
        assert!(Solver::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        bad.assigns.pop();
        assert!(Solver::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        bad.qhead = usize::MAX;
        assert!(Solver::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        bad.activity[0] = f64::NAN;
        assert!(Solver::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        bad.assigns[0] = 2;
        assert!(Solver::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        bad.model[0] = -2;
        assert!(Solver::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        let v = bad.trail[0].var().index();
        bad.assigns[v] = 0;
        assert!(Solver::from_snapshot(bad).is_err());

        // A clause too short to watch, as the first clause or after others.
        for len in [0, 1] {
            for ci in [0, good.clauses.len() - 1] {
                let mut bad = good.clone();
                bad.clauses[ci].0.truncate(len);
                assert!(Solver::from_snapshot(bad).is_err());
            }
        }
        // More literals than u32 arena positions can address (too many to
        // build, so the check itself is probed).
        assert!(arena_fits(u32::MAX as usize).is_ok());
        assert!(arena_fits(u32::MAX as usize + 1).is_err());

        let mut bad = good.clone();
        assert!(bad.trail_lim.len() >= 2, "need two decision levels");
        bad.trail_lim.swap(0, 1);
        assert!(Solver::from_snapshot(bad).is_err());

        assert!(Solver::from_snapshot(good).is_ok());
    }
}
