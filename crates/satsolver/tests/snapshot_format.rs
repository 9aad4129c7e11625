//! The checkpoint format of `SolverSnapshot` is pinned: a paused mid-solve
//! snapshot with learnt clauses serializes to exactly the JSON it did before
//! the solver stored its clauses in a flat arena, and resuming it finishes
//! the search on the pinned path. A change to the serialized format or to
//! the search fails here; a deliberate one re-pins the constants.

use autolock_satsolver::{Lit, SolveResult, Solver, SolverSnapshot, SolverStats};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The pigeonhole principle PHP(`pigeons`, `holes`), unsatisfiable when
/// there are more pigeons than holes.
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut solver = Solver::new();
    let vars: Vec<Vec<_>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &vars {
        let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
        solver.add_clause(&clause);
    }
    for h in 0..holes {
        for (p1, row1) in vars.iter().enumerate() {
            for row2 in &vars[p1 + 1..] {
                solver.add_clause(&[Lit::neg(row1[h]), Lit::neg(row2[h])]);
            }
        }
    }
    solver
}

/// JSON of PHP(7, 6) paused at its third 100-conflict granule: past the
/// first restart, with learnt clauses, a trail several levels deep and
/// non-trivial VSIDS activities.
fn paused_snapshot_json() -> String {
    let mut solver = pigeonhole(7, 6);
    solver.set_pause_granule(Some(100));
    for _ in 0..3 {
        assert_eq!(solver.solve(), SolveResult::Paused);
    }
    let stats = solver.stats();
    assert!(stats.learned_clauses > 0 && stats.restarts > 0, "{stats:?}");
    let snapshot = solver.snapshot();
    assert!(snapshot.is_paused());
    serde_json::to_string(&snapshot).unwrap()
}

#[test]
fn paused_snapshot_json_is_pinned_and_resumes_on_the_pinned_path() {
    let json = paused_snapshot_json();
    assert_eq!(
        (json.len(), fnv1a(json.as_bytes())),
        (SNAPSHOT_BYTES, SNAPSHOT_FNV1A),
        "SolverSnapshot JSON changed"
    );

    let snapshot: SolverSnapshot = serde_json::from_str(&json).unwrap();
    let mut resumed = Solver::from_snapshot(snapshot).unwrap();
    assert_eq!(resumed.solve(), SolveResult::Unsat);
    // The uninterrupted PHP(7, 6) path of `search_path_is_pinned`.
    assert_eq!(
        resumed.stats(),
        SolverStats {
            decisions: 956,
            propagations: 9862,
            conflicts: 806,
            learned_clauses: 802,
            restarts: 3,
        }
    );
}

/// Length and FNV-1a digest of [`paused_snapshot_json`], as computed
/// before the solver moved its clauses into a flat arena.
const SNAPSHOT_BYTES: usize = 22_170;
const SNAPSHOT_FNV1A: u64 = 0x0ee8_9fce_e03c_3b55;
