//! The CDCL solver.

use crate::heap::VarHeap;
use crate::{Lit, Var};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it back with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
    /// The search was cut off by the active [`SolveBudget`] before reaching a
    /// verdict. The solver state stays consistent: clauses learned so far are
    /// kept and further `solve` calls (with a fresh or no budget) may still
    /// answer Sat/Unsat.
    Unknown,
    /// The search was suspended at a conflict granule set with
    /// [`Solver::set_pause_granule`]. Unlike [`SolveResult::Unknown`], the
    /// solver keeps its complete search position (trail, decision levels,
    /// watch state, per-call budget baselines); the next assumption-free
    /// `solve` call continues the identical search as if it had never
    /// stopped. No clauses may be added while paused.
    Paused,
}

/// A per-call resource budget for [`Solver::solve`].
///
/// Deadline-based services must bound a *single* solver call, not just the
/// gaps between calls: a miter solve on an ISCAS-scale circuit can run for
/// minutes, so checking wall clock only between calls lets one call blow past
/// any deadline unboundedly. The budget is consulted *inside* the CDCL loop
/// (at every conflict and periodically between decisions), so `solve` returns
/// [`SolveResult::Unknown`] within a small, bounded overshoot of the limit.
///
/// The wall-clock deadline depends on the machine; the conflict and
/// propagation budgets are deterministic (two runs on any machines cut off at
/// the same search point), which is what a reproducible-results service wants
/// for induced timeouts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Absolute wall-clock deadline; `None` = unbounded.
    pub deadline: Option<Instant>,
    /// Maximum conflicts *per solve call*; `None` = unbounded.
    pub max_conflicts: Option<u64>,
    /// Maximum propagations *per solve call*; `None` = unbounded.
    pub max_propagations: Option<u64>,
}

impl SolveBudget {
    /// No limits (the default).
    pub fn unbounded() -> Self {
        SolveBudget::default()
    }

    /// A wall-clock deadline `ms` milliseconds from now.
    pub fn with_timeout_ms(ms: u64) -> Self {
        SolveBudget {
            deadline: Instant::now().checked_add(std::time::Duration::from_millis(ms)),
            ..SolveBudget::default()
        }
    }

    /// An absolute wall-clock deadline.
    pub fn with_deadline(deadline: Instant) -> Self {
        SolveBudget {
            deadline: Some(deadline),
            ..SolveBudget::default()
        }
    }

    /// Caps propagations per call (deterministic, machine-independent).
    pub fn with_max_propagations(mut self, max: u64) -> Self {
        self.max_propagations = Some(max);
        self
    }

    /// Caps conflicts per call (deterministic, machine-independent).
    pub fn with_max_conflicts(mut self, max: u64) -> Self {
        self.max_conflicts = Some(max);
        self
    }

    /// `true` if no limit is set (the hot loop skips all checks then).
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.max_conflicts.is_none() && self.max_propagations.is_none()
    }
}

/// Counters describing the work a solver has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Number of decision literals picked.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of clauses learned.
    pub learned_clauses: u64,
    /// Number of restarts performed.
    pub restarts: u64,
}

/// Where one clause sits in [`Solver`]'s literal arena: its literals are
/// `arena[start..start + len]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClauseHeader {
    pub(crate) start: u32,
    pub(crate) len: u32,
    /// Distinguishes learnt clauses in snapshots (and future clause-database
    /// reduction policies).
    pub(crate) learnt: bool,
}

impl ClauseHeader {
    /// The clause's literal positions in the arena.
    #[inline]
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Value of `l` under `assigns`: 1 true, -1 false, 0 unassigned.
#[inline]
fn value_in(assigns: &[i8], l: Lit) -> i8 {
    let a = assigns[l.var().index()];
    if l.is_neg() {
        -a
    } else {
        a
    }
}

const UNDEF: i8 = 0;

/// A CDCL SAT solver.
///
/// See the [crate documentation](crate) for an example. The solver is
/// incremental: clauses may be added between [`Solver::solve`] calls and
/// [`Solver::solve_with_assumptions`] temporarily fixes literals without
/// permanently constraining the formula.
///
/// # Decision order
///
/// Each decision branches on the unassigned variable with the highest VSIDS
/// activity; among equal activities the lowest variable index wins. The
/// variables sit in a binary max-heap under exactly that order, so a
/// decision costs O(log n) instead of a scan over every variable, and the
/// pick is the one the scan would make. The search path — decisions,
/// propagations, learnt clauses — is part of the contract: conflict and
/// propagation budgets cut off at the same point on every machine and
/// checkpoints taken by earlier versions resume identically.
///
/// # Clause storage
///
/// The literals of every clause live back to back in one arena; a clause is
/// a `ClauseHeader` pointing into it. Adding a clause appends to the arena
/// and dropping the solver frees it in one piece, so neither costs a heap
/// allocation per clause. Watch lists hold `u32` clause indices, which the
/// arena's `u32` positions bound.
#[derive(Debug, Clone)]
pub struct Solver {
    /// The literals of all clauses, in attachment order.
    pub(crate) arena: Vec<Lit>,
    /// One header per clause; clause indices in `watches`/`reason` refer to
    /// this order.
    pub(crate) clauses: Vec<ClauseHeader>,
    /// watches[l.code()] = indices of clauses currently watching literal `l`.
    pub(crate) watches: Vec<Vec<u32>>,
    /// assigns[v] = 0 (unassigned), 1 (true), -1 (false).
    pub(crate) assigns: Vec<i8>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<Option<usize>>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    pub(crate) activity: Vec<f64>,
    pub(crate) var_inc: f64,
    /// Unassigned variables in decision order (assigned ones may linger
    /// until popped). Derived from `assigns` and `activity`.
    pub(crate) order: VarHeap,
    /// Per-variable marks of [`Solver::analyze`], all `false` between calls.
    pub(crate) seen: Vec<bool>,
    /// The clause [`Solver::analyze`] learnt last (asserting literal first).
    pub(crate) learnt: Vec<Lit>,
    pub(crate) polarity: Vec<bool>,
    pub(crate) model: Vec<i8>,
    pub(crate) ok: bool,
    pub(crate) stats: SolverStats,
    pub(crate) budget: SolveBudget,
    /// `true` while a solve is suspended mid-search (see
    /// [`Solver::set_pause_granule`]). The fields below live in the struct
    /// rather than the call frame so a paused call keeps its exact per-call
    /// bookkeeping on resume — which is what makes a resumed search replay
    /// the identical path.
    pub(crate) paused: bool,
    pub(crate) base_conflicts: u64,
    pub(crate) base_propagations: u64,
    pub(crate) conflicts_since_restart: u64,
    pub(crate) restart_limit: u64,
    pub(crate) pause_mark: u64,
    pub(crate) pause_granule: Option<u64>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::default(),
            seen: Vec::new(),
            learnt: Vec::new(),
            polarity: Vec::new(),
            model: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            budget: SolveBudget::default(),
            paused: false,
            base_conflicts: 0,
            base_propagations: 0,
            conflicts_since_restart: 0,
            restart_limit: 100,
            pause_mark: 0,
            pause_granule: None,
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Work counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Sets the budget applied to every subsequent `solve` call. Conflict and
    /// propagation limits are counted per call (against a snapshot of the
    /// stats taken when the call starts); the deadline is absolute. Pass
    /// [`SolveBudget::unbounded`] to clear.
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    /// The budget currently applied to `solve` calls.
    pub fn budget(&self) -> SolveBudget {
        self.budget
    }

    /// Requests that `solve` return [`SolveResult::Paused`] every `granule`
    /// conflicts (values below 1 are clamped to 1) instead of running to a
    /// verdict in one call, keeping the full search position so the next
    /// assumption-free `solve` continues exactly where it stopped. This is
    /// the mid-solve checkpoint boundary: between a pause and the resume the
    /// solver can be snapshotted with [`Solver::snapshot`]. Pausing never
    /// changes the search path — a paused-and-resumed run performs the
    /// identical decisions, propagations and restarts as an uninterrupted
    /// one. Pass `None` (the default) to disable pausing.
    pub fn set_pause_granule(&mut self, granule: Option<u64>) {
        self.pause_granule = granule.map(|g| g.max(1));
    }

    /// The pause granule currently in effect.
    pub fn pause_granule(&self) -> Option<u64> {
        self.pause_granule
    }

    /// `true` while a solve is suspended mid-search (the last `solve` call
    /// returned [`SolveResult::Paused`] and has not been resumed yet).
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.order.push_var(&self.activity);
        self.seen.push(false);
        self.polarity.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.model.push(UNDEF);
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> i8 {
        value_in(&self.assigns, l)
    }

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause at top level), `true` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is not at decision level 0 (it always
    /// is between `solve` calls) or if a literal references an unknown
    /// variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            !self.paused,
            "clauses cannot be added while a solve is paused"
        );
        assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        for l in lits {
            assert!(l.var().index() < self.num_vars(), "unknown variable {l}");
        }
        // Simplify in place at the end of the arena: sort, drop repeats and
        // false literals, detect tautology and satisfied clauses. Sorting
        // puts `x` (code 2v) right before `!x` (code 2v + 1), so a tautology
        // shows as a positive literal followed by its negation.
        let start = self.arena.len();
        self.arena.extend_from_slice(lits);
        self.arena[start..].sort_unstable();
        let mut kept = start;
        for i in start..self.arena.len() {
            let l = self.arena[i];
            let value = match self.arena.get(i + 1) {
                // Tautology: always satisfied.
                Some(&next) if l.is_pos() && next == !l => 1,
                // A repeat: only its last copy is judged.
                Some(&next) if next == l => continue,
                _ => self.lit_value(l),
            };
            match value {
                1 => {
                    // Satisfied (or tautological) at level 0: nothing to add.
                    self.arena.truncate(start);
                    return true;
                }
                -1 => {} // falsified at level 0: drop
                _ => {
                    self.arena[kept] = l;
                    kept += 1;
                }
            }
        }
        self.arena.truncate(kept);
        match kept - start {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                let unit = self.arena.pop().expect("one kept literal");
                self.unchecked_enqueue(unit, None);
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(start, false);
                true
            }
        }
    }

    /// Attaches the clause whose literals are `arena[start..]`.
    ///
    /// # Panics
    ///
    /// Panics if the arena would outgrow `u32` positions.
    fn attach_clause(&mut self, start: usize, learnt: bool) -> usize {
        let end = u32::try_from(self.arena.len()).expect("clause arena exceeds u32::MAX literals");
        let header = ClauseHeader {
            start: start as u32,
            len: end - start as u32,
            learnt,
        };
        debug_assert!(header.len >= 2);
        // Every clause takes at least two arena positions, so its index
        // fits `u32` as well.
        let idx = self.clauses.len();
        self.watches[self.arena[start].code()].push(idx as u32);
        self.watches[self.arena[start + 1].code()].push(idx as u32);
        self.clauses.push(header);
        if learnt {
            self.stats.learned_clauses += 1;
        }
        idx
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<usize>) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        let v = l.var().index();
        self.assigns[v] = if l.is_neg() { -1 } else { 1 };
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    ///
    /// The watch list of each falsified literal is compacted in place: `i`
    /// reads every watcher, `j` writes back the ones that stay, so the
    /// survivors keep their relative order (which fixes the order of all
    /// later propagations) without a second buffer.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let watch_code = false_lit.code();
            let mut ws = std::mem::take(&mut self.watches[watch_code]);
            let n = ws.len();
            let mut conflict = None;
            let (mut i, mut j) = (0, 0);
            while i < n {
                let ci = ws[i];
                i += 1;
                let lits = &mut self.arena[self.clauses[ci as usize].range()];
                // Make sure the falsified literal is at position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                let first = lits[0];
                let first_value = value_in(&self.assigns, first);
                if first_value == 1 {
                    ws[j] = ci;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (2..lits.len()).find(|&k| value_in(&self.assigns, lits[k]) != -1) {
                    lits.swap(1, k);
                    self.watches[lits[1].code()].push(ci);
                    continue;
                }
                // Clause is unit or conflicting.
                ws[j] = ci;
                j += 1;
                if first_value == -1 {
                    // Conflict: keep the remaining watchers and stop.
                    ws.copy_within(i..n, j);
                    j += n - i;
                    conflict = Some(ci as usize);
                    self.qhead = self.trail.len();
                    break;
                } else {
                    self.unchecked_enqueue(first, Some(ci as usize));
                }
            }
            ws.truncate(j);
            // Restore the watch list, after it anything appended to it
            // meanwhile (only a clause repeating a literal can do that).
            let appended = std::mem::replace(&mut self.watches[watch_code], ws);
            self.watches[watch_code].extend(appended);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let lim = self.trail_lim[target_level];
        for idx in (lim..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var().index();
            self.polarity[v] = self.assigns[v] == 1;
            self.assigns[v] = UNDEF;
            self.reason[v] = None;
            self.order.insert(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target_level);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rescaling can round distinct activities to equal ones, which
            // the index tie-break may order differently: re-heapify.
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v, &self.activity);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in the solver-owned `learnt` buffer and returns the
    /// backtrack level.
    ///
    /// Marks go into the solver-owned `seen` buffer; when the UIP is found
    /// only the variables of `learnt[1..]` are still marked, and exactly
    /// those are cleared again.
    fn analyze(&mut self, conflict: usize) -> usize {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // slot 0 reserved for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = conflict;
        let mut index = self.trail.len();
        let current_level = self.decision_level() as u32;

        loop {
            let skip = usize::from(p.is_some());
            // Collect literals from the current reason/conflict clause.
            for k in self.clauses[confl].range().skip(skip) {
                let q = self.arena[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to resolve on: the most recently assigned
            // literal that we've seen.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            let pv = pl.var();
            self.seen[pv.index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[pv.index()].expect("non-decision literal has a reason");
            p = Some(pl);
        }
        learnt[0] = !p.expect("at least one literal at the conflict level");
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        // Compute backtrack level: the second-highest level in the clause.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        self.learnt = learnt;
        backtrack_level
    }

    /// The next decision variable: the unassigned variable first in
    /// decision order (see [`Solver`]). Assigned variables popped on the way
    /// are dropped; `cancel_until` puts them back when they are unassigned.
    fn pick_branch_var(&mut self) -> Option<Var> {
        let pick = loop {
            match self.order.pop(&self.activity) {
                Some(v) if self.assigns[v.index()] != UNDEF => {}
                pick => break pick,
            }
        };
        #[cfg(test)]
        assert_eq!(pick, self.scan_branch_var(), "heap and scan disagree");
        pick
    }

    /// The O(vars) reference for [`Solver::pick_branch_var`]: highest
    /// activity, lowest index on ties (`>=` keeps the earlier variable).
    #[cfg(test)]
    fn scan_branch_var(&self) -> Option<Var> {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assigns[v] == UNDEF {
                match best {
                    Some((_, act)) if act >= self.activity[v] => {}
                    _ => best = Some((v, self.activity[v])),
                }
            }
        }
        best.map(|(v, _)| Var(v as u32))
    }

    /// Solves the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    ///
    /// Returns [`SolveResult::Unsat`] if no model exists that also satisfies
    /// every assumption. The solver state (clauses, learned clauses) persists
    /// across calls; the assumptions do not.
    ///
    /// With a pause granule set (see [`Solver::set_pause_granule`]) the call
    /// may also return [`SolveResult::Paused`]; the next call then resumes
    /// the suspended search.
    ///
    /// # Panics
    ///
    /// Panics when resuming a paused search with a non-empty assumption list
    /// (a paused search can only continue the assumption-free solve that was
    /// suspended).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            self.paused = false;
            return SolveResult::Unsat;
        }
        if self.paused {
            // Resuming: keep the trail, decision levels and per-call
            // counters untouched so the continued search replays the exact
            // path the uninterrupted call would have taken.
            assert!(
                assumptions.is_empty(),
                "a paused solve can only be resumed without assumptions"
            );
            self.paused = false;
        } else {
            self.conflicts_since_restart = 0;
            self.restart_limit = 100;
            // Per-call budget bookkeeping: conflict/propagation limits count
            // work done in *this* call against a snapshot of the stats. The
            // baselines live in the struct so a paused call keeps counting
            // against the same snapshot when it resumes.
            self.base_conflicts = self.stats.conflicts;
            self.base_propagations = self.stats.propagations;
            self.pause_mark = self.stats.conflicts;
        }

        // Each budget check is a couple of compares (plus one vDSO clock
        // read for the deadline), negligible next to the propagate() call
        // that follows it, so all three run on every iteration and the
        // overshoot past a limit is at most one propagation pass.
        let bounded = !self.budget.is_unbounded();

        let result = 'outer: loop {
            if bounded {
                if let Some(max) = self.budget.max_conflicts {
                    if self.stats.conflicts - self.base_conflicts >= max {
                        break 'outer SolveResult::Unknown;
                    }
                }
                if let Some(max) = self.budget.max_propagations {
                    if self.stats.propagations - self.base_propagations >= max {
                        break 'outer SolveResult::Unknown;
                    }
                }
                if let Some(deadline) = self.budget.deadline {
                    if Instant::now() >= deadline {
                        break 'outer SolveResult::Unknown;
                    }
                }
            }
            if let Some(granule) = self.pause_granule {
                if self.stats.conflicts - self.pause_mark >= granule {
                    self.pause_mark = self.stats.conflicts;
                    self.paused = true;
                    // Deliberately NOT cancel_until(0): the suspended trail
                    // and decision levels are the search position the next
                    // call continues from.
                    return SolveResult::Paused;
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                self.conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break 'outer SolveResult::Unsat;
                }
                let back_level = self.analyze(conflict);
                // Never backtrack past the assumption prefix blindly: the
                // assumption literals are re-decided by the decision loop, so
                // plain backjumping is sound.
                self.cancel_until(back_level);
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    self.unchecked_enqueue(asserting, None);
                } else {
                    let start = self.arena.len();
                    self.arena.extend_from_slice(&self.learnt);
                    let idx = self.attach_clause(start, true);
                    self.unchecked_enqueue(asserting, Some(idx));
                }
                self.decay_activities();
            } else {
                // No conflict.
                if self.conflicts_since_restart >= self.restart_limit {
                    self.conflicts_since_restart = 0;
                    self.restart_limit = (self.restart_limit as f64 * 1.5) as u64;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
                // Re-establish assumptions as the first decision levels.
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    if p.var().index() >= self.num_vars() {
                        // Unknown assumption variable: treat as free, create it.
                        self.reserve_vars(p.var().index() + 1);
                    }
                    match self.lit_value(p) {
                        1 => {
                            // Already satisfied: open a dummy level to keep the
                            // level <-> assumption-index correspondence.
                            self.trail_lim.push(self.trail.len());
                        }
                        -1 => {
                            break 'outer SolveResult::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.stats.decisions += 1;
                            self.unchecked_enqueue(p, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // All variables assigned: model found.
                        self.model.clone_from(&self.assigns);
                        #[cfg(debug_assertions)]
                        self.assert_model_satisfies_original_clauses();
                        break 'outer SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.unchecked_enqueue(Lit::new(v, phase), None);
                    }
                }
            }
        };
        // Leave the solver at level 0 so that clauses can be added afterwards.
        self.cancel_until(0);
        result
    }

    /// Checks a just-found model against every stored non-learnt clause:
    /// the solver verifies its own Sat verdicts in debug builds.
    #[cfg(debug_assertions)]
    fn assert_model_satisfies_original_clauses(&self) {
        for (ci, header) in self.clauses.iter().enumerate() {
            let lits = &self.arena[header.range()];
            assert!(
                header.learnt || lits.iter().any(|&l| value_in(&self.model, l) == 1),
                "Sat model falsifies original clause {ci}: {lits:?}"
            );
        }
    }

    /// Model value of `v` after a successful [`Solver::solve`] call.
    ///
    /// Returns `None` if the variable was never assigned in the model (cannot
    /// happen for variables that existed before the call) or if the last call
    /// was not satisfiable.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model.get(v.index()).copied().unwrap_or(UNDEF) {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    /// Returns `true` if the solver is known to be unsatisfiable regardless of
    /// assumptions (an empty clause was derived at level 0).
    pub fn is_ok(&self) -> bool {
        self.ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        assert!(!s.add_clause(&[Lit::neg(v[0])]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (a) & (!a | b) & (!b | c) => a,b,c all true
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(true));
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        xor1(&mut s, v[0], v[2]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes. p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i][j]), Lit::neg(p[k][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_3_sat() {
        let mut s = Solver::new();
        let mut p = [[Var(0); 3]; 3];
        for row in p.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1]), Lit::pos(row[2])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..3 {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i][j]), Lit::neg(p[k][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        // Each pigeon must be in at least one hole in the model.
        for row in &p {
            assert!(row.iter().any(|&v| s.value(v) == Some(true)));
        }
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        // Assuming !a forces b.
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(v[0])]),
            SolveResult::Sat
        );
        assert_eq!(s.value(v[0]), Some(false));
        assert_eq!(s.value(v[1]), Some(true));
        // Conflicting assumptions yield Unsat but don't poison the solver.
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(v[0]), Lit::neg(v[1])]),
            SolveResult::Unsat
        );
        assert!(s.is_ok());
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Progressively forbid models.
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[Lit::neg(v[1])]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[2]), Some(true));
        s.add_clause(&[Lit::neg(v[2])]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_and_duplicate_literals_handled() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert!(s.add_clause(&[Lit::pos(v[1]), Lit::pos(v[1])]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new();
        let v = lits(&mut s, 20);
        // Random-ish unsatisfiable core plus satisfiable fluff.
        for i in 0..19 {
            s.add_clause(&[Lit::pos(v[i]), Lit::pos(v[i + 1])]);
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().propagations > 0);
    }

    /// Encodes the (unsatisfiable) `pigeons`-into-`holes` pigeonhole problem,
    /// exponentially hard for CDCL once `pigeons` is around 9-10.
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
    fn propagation_budget_cuts_off_hard_instance() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 10, 9);
        s.set_budget(SolveBudget::unbounded().with_max_propagations(20_000));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // The cutoff overshoots by at most one propagation pass.
        assert!(s.stats().propagations >= 20_000);
        // Unknown must not poison the solver.
        assert!(s.is_ok());
    }

    #[test]
    fn conflict_budget_cuts_off_hard_instance() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 10, 9);
        s.set_budget(SolveBudget::unbounded().with_max_conflicts(50));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stats().conflicts, 50);
        assert!(s.is_ok());
    }

    #[test]
    fn deadline_budget_bounds_single_solve_call() {
        use std::time::{Duration, Instant};
        let mut s = Solver::new();
        // Hard enough that an unbounded solve takes far longer than the
        // deadline on any machine this runs on.
        pigeonhole(&mut s, 11, 10);
        s.set_budget(SolveBudget::with_timeout_ms(30));
        let start = Instant::now();
        let result = s.solve();
        let elapsed = start.elapsed();
        assert_eq!(result, SolveResult::Unknown);
        // Generous multiple: the assertion is "bounded", not "tight" — debug
        // builds on loaded CI runners are slow, but nowhere near the minutes
        // an unbounded solve would take.
        assert!(
            elapsed < Duration::from_millis(30 * 100),
            "deadline overshoot: {elapsed:?}"
        );
    }

    #[test]
    fn solver_stays_usable_after_unknown() {
        // Small enough to finish unbounded in milliseconds, hard enough to
        // exceed the 10-conflict budget first.
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        s.set_budget(SolveBudget::unbounded().with_max_conflicts(10));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Clauses may still be added after an Unknown (level 0 restored)...
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::pos(v)]));
        // ...and clearing the budget lets the solver finish the instance.
        s.set_budget(SolveBudget::unbounded());
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.value(v), None);
    }

    #[test]
    fn budget_counts_per_call_not_cumulative() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 3, 2);
        // Generous per-call budget: a small instance solves within it even
        // after earlier calls consumed stats.
        s.set_budget(SolveBudget::unbounded().with_max_propagations(1_000_000));
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn unbounded_budget_changes_nothing() {
        let mut bounded = Solver::new();
        let mut plain = Solver::new();
        pigeonhole(&mut bounded, 6, 5);
        pigeonhole(&mut plain, 6, 5);
        bounded.set_budget(SolveBudget::unbounded());
        assert_eq!(bounded.solve(), SolveResult::Unsat);
        assert_eq!(plain.solve(), SolveResult::Unsat);
        assert_eq!(bounded.stats(), plain.stats());
    }

    /// `pick_branch_var` asserts (in test builds) that the heap picks what
    /// the O(vars) scan picks; this drives it through many decisions: random
    /// 3-SAT near the threshold, then PHP(8, 7), whose ~4.7k conflicts push
    /// an activity past 1e100 and force a rescale.
    #[test]
    fn heap_pick_equals_scan_pick_at_every_decision() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut decisions = 0;
        for _ in 0..40 {
            let mut s = Solver::new();
            s.reserve_vars(60);
            for _ in 0..256 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| Lit::new(Var(rng.gen_range(0..60)), rng.gen_bool(0.5)))
                    .collect();
                s.add_clause(&c);
            }
            s.solve();
            decisions += s.stats().decisions;
        }
        assert!(decisions > 1000, "only {decisions} decisions");

        // Pause at every conflict to see the rescale: `var_inc` only grows
        // otherwise.
        let mut s = Solver::new();
        pigeonhole(&mut s, 8, 7);
        s.set_pause_granule(Some(1));
        let mut rescales = 0;
        let result = loop {
            let before = s.var_inc;
            match s.solve() {
                SolveResult::Paused => rescales += usize::from(s.var_inc < before),
                verdict => break verdict,
            }
        };
        assert_eq!(result, SolveResult::Unsat);
        assert!(rescales > 0, "no activity rescale in {:?}", s.stats());
    }

    /// The rescale can round distinct activities to one value (here
    /// `1e-300` underflows to 0); the tie then goes to the lower index, so
    /// the heap must be re-ordered rather than left as it was.
    #[test]
    fn rescale_ties_fall_back_to_the_lowest_index() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.activity = vec![0.0, 1e-300, 0.0, 1e-300, 0.0];
        s.order = VarHeap::build(&s.activity, 0..5);
        s.var_inc = 2e100;
        s.bump_var(v[4]);
        assert_eq!(s.activity[..4], [0.0; 4]);
        assert_eq!(s.pick_branch_var(), Some(v[4]));
        s.trail_lim.push(s.trail.len());
        s.unchecked_enqueue(Lit::pos(v[4]), None);
        assert_eq!(s.pick_branch_var(), Some(v[0]));
    }

    /// Brute-force model check used by the random CNF test below.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        for assignment in 0..(1u32 << num_vars) {
            let value = |l: Lit| {
                let bit = (assignment >> l.var().index()) & 1 == 1;
                if l.is_neg() {
                    !bit
                } else {
                    bit
                }
            };
            if clauses.iter().all(|c| c.iter().any(|&l| value(l))) {
                return true;
            }
        }
        false
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for round in 0..60 {
            let num_vars = 6;
            let num_clauses = 3 + (round % 20);
            let clauses: Vec<Vec<Lit>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = Var(rng.gen_range(0..num_vars) as u32);
                            Lit::new(v, rng.gen_bool(0.5))
                        })
                        .collect()
                })
                .collect();
            let mut s = Solver::new();
            s.reserve_vars(num_vars);
            let mut early_unsat = false;
            for c in &clauses {
                if !s.add_clause(c) {
                    early_unsat = true;
                }
            }
            let expected = brute_force_sat(num_vars, &clauses);
            let got = if early_unsat {
                false
            } else {
                s.solve() == SolveResult::Sat
            };
            assert_eq!(got, expected, "round {round}: clauses {clauses:?}");
            if got {
                // Verify the model actually satisfies every clause.
                for c in &clauses {
                    assert!(c.iter().any(|&l| {
                        let val = s.value(l.var()).unwrap();
                        if l.is_neg() {
                            !val
                        } else {
                            val
                        }
                    }));
                }
            }
        }
    }
}
