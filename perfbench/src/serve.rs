//! `serve-batch`: the job service end to end, on one engine worker (see
//! `main`). The demo trio is scanned from
//! two directories: its two quick circuits into SAT, MuxLink and evolve jobs,
//! and `st6288` into SAT and MuxLink jobs under a propagation cap so small
//! that its SAT job stops in its first solve, which is its expected
//! `timeout` row. The batch runs once cold, once more into a fresh rows file
//! against the warm model registry, and a third time as a resume over the
//! finished cold rows.

use crate::trace::{median, ratio, Tracer};
use crate::{Counters, Pass, Workload};
use autolock_bench::demo::{write_demo_circuits, write_quick_demo_circuits};
use autolock_service::{
    jobs_from_dir, DirJobConfig, DirJobKinds, EngineConfig, JobEngine, JobRow, JobSpec, JobStatus,
    LockSpec,
};
use std::io;
use std::path::{Path, PathBuf};

/// Per-solve propagation cap of the quick circuits' SAT jobs: over 51 seeds
/// they always finish under it.
const QUICK_PROPAGATIONS: u64 = 50_000;
/// Per-solve propagation cap of the `st6288` SAT job. The engine checkpoints
/// the whole SAT state after every step, so the job's time and memory grow
/// with every DIP it finds before the cap, and how many it finds depends on
/// where the seed puts the key: 0 to 5 under a 50k cap, which moved the
/// batch's CPU time by 20% across seeds. Under this cap its first solve
/// stops before a DIP on every seed tried (1-12).
const HARD_PROPAGATIONS: u64 = 2_000;
/// Key bits of every job.
const KEY_BITS: usize = 8;
/// Job that must stop on the cap.
const CAPPED_JOB: &str = "st6288";

pub struct Serve {
    /// Directories scanned into jobs, each with the job kinds it gets.
    scans: Vec<(PathBuf, DirJobConfig)>,
    runs: PathBuf,
    passes: u64,
    keys_recovered: u64,
    /// On-disk sizes after the cold run of each traced pass.
    checkpoint_bytes: Vec<f64>,
    rows_bytes: Vec<f64>,
}

pub fn setup(seed: u64, smoke: bool, work: &Path) -> Serve {
    let (quick, hard) = (work.join("quick"), work.join("hard"));
    let _ = std::fs::remove_dir_all(work);
    let config = |cap, evolve| DirJobConfig {
        lock: LockSpec::DMux { key_len: KEY_BITS },
        seed,
        max_propagations_per_solve: Some(cap),
        kinds: DirJobKinds {
            sat: true,
            muxlink: true,
            evolve,
        },
        evolve_population: 2,
        evolve_generations: 0,
        ..DirJobConfig::default()
    };
    // Evolution runs on the quick pair only, as the smallest GA the engine
    // accepts: on `st6288` each evaluation is a large attack (1.6-2.6 s per
    // batch across four seeds). The jobs seed, evaluate and checkpoint their
    // initial population and breed no generation: one generation of two
    // made two or three real evaluations depending on the seed (a child can
    // repeat a parent), which moved the pass time by 15% across seeds.
    write_quick_demo_circuits(&quick).expect("job directory is writable");
    let mut scans = vec![(quick, config(QUICK_PROPAGATIONS, true))];
    if !smoke {
        // The trio, less the quick pair scanned above.
        write_demo_circuits(&hard)
            .and_then(|()| std::fs::remove_file(hard.join("demo_a.bench")))
            .and_then(|()| std::fs::remove_file(hard.join("demo_b.bench")))
            .expect("job directory is writable");
        scans.push((hard, config(HARD_PROPAGATIONS, false)));
    }
    // Warm-up: one scan of each directory.
    for (dir, config) in &scans {
        jobs_from_dir(dir, config).expect("job directory is readable");
    }
    Serve {
        scans,
        runs: work.join("runs"),
        passes: 0,
        keys_recovered: 0,
        checkpoint_bytes: Vec::new(),
        rows_bytes: Vec::new(),
    }
}

/// A serial engine (see `main`) writing rows to `rows`, checkpoints under
/// `dir`, sharing the registry `registry`.
fn engine(dir: &Path, rows: &Path, registry: &Path) -> io::Result<JobEngine> {
    JobEngine::new(EngineConfig {
        out_path: rows.to_path_buf(),
        registry_dir: Some(registry.to_path_buf()),
        ..EngineConfig::rooted(dir, 1)
    })
}

/// Total size of the regular files under `path`.
fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Whether a row is the expected outcome of its job.
fn row_ok(row: &JobRow) -> bool {
    if row.job_id == CAPPED_JOB {
        row.status == JobStatus::Timeout
    } else {
        row.status == JobStatus::Ok
    }
}

type Rows = io::Result<Vec<JobRow>>;

impl Serve {
    /// One pass: scan, cold run, warm-registry run, resume run.
    fn batch(&mut self, dir: &Path, tr: &Tracer) -> (Rows, Rows, Rows) {
        let registry = dir.join("registry");
        let (cold_rows, warm_rows) = (dir.join("cold.jsonl"), dir.join("warm.jsonl"));
        let scan = || -> io::Result<Vec<JobSpec>> {
            let mut jobs = Vec::new();
            for (dir, config) in &self.scans {
                jobs.extend(jobs_from_dir(dir, config)?);
            }
            Ok(jobs)
        };
        let jobs = match tr.time("netlist.ingest", scan).0 {
            Ok(jobs) => jobs,
            Err(e) => return (Err(e), Ok(Vec::new()), Ok(Vec::new())),
        };
        let run = |name, sub: &str, rows: &Path| {
            tr.time(name, || engine(&dir.join(sub), rows, &registry)?.run(&jobs))
                .0
        };
        let cold = run("service.cold_run", "cold", &cold_rows);
        if tr.recording() {
            self.checkpoint_bytes
                .push(disk_bytes(&dir.join("cold").join("checkpoints")) as f64);
            self.rows_bytes.push(disk_bytes(&cold_rows) as f64);
        }
        let warm = run("service.warm_run", "warm", &warm_rows);
        let resume = run("service.resume_run", "cold", &cold_rows);
        (cold, warm, resume)
    }
}

impl Workload for Serve {
    fn pass(&mut self, tr: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let dir = self.runs.join(format!("pass{}", self.passes));
        self.passes += 1;
        tr.begin_op();
        let clock = tr.stopwatch();
        let (cold, warm, resume) = self.batch(&dir, tr);
        pass.time = clock.read();
        let _ = std::fs::remove_dir_all(&dir);
        let (cold, warm, resume) = match (cold, warm, resume) {
            (Ok(c), Ok(w), Ok(r)) => (c, w, r),
            (c, w, r) => {
                eprintln!(
                    "serve-batch: engine error: {:?}",
                    [c.err(), w.err(), r.err()]
                );
                pass.ops = 1;
                pass.failed = 1;
                return pass;
            }
        };
        // Ops are the jobs the cold and warm runs executed; each cold row
        // must be its job's expected outcome and repeat exactly in the warm
        // and resumed streams.
        for (i, row) in cold.iter().enumerate() {
            pass.ops += 2;
            let repeats = warm.get(i) == Some(row) && resume.get(i) == Some(row);
            if !(row_ok(row) && repeats) {
                eprintln!("serve-batch: unexpected row {row:?}");
                pass.failed += 2;
            }
            if row.attack == "sat" && row.success {
                self.keys_recovered += 1;
            }
        }
        if cold.len() != warm.len() || cold.len() != resume.len() || cold.is_empty() {
            eprintln!("serve-batch: row counts differ across passes");
            pass.failed = pass.ops.max(1);
            pass.ops = pass.failed;
        }
        pass
    }

    fn layers(&mut self, tr: &Tracer, counters: &Counters, _: usize) -> Vec<(&'static str, f64)> {
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        let hits = counter("service.registry.hits");
        let lookups = hits + counter("service.registry.misses");
        let m = |name: &str| median(&tr.durations(name));
        vec![
            ("netlist.ingest_s", m("netlist.ingest")),
            ("service.cold_run_s", m("service.cold_run")),
            ("service.warm_run_s", m("service.warm_run")),
            ("service.resume_run_s", m("service.resume_run")),
            ("service.registry.hit_rate", ratio(hits, lookups)),
            ("service.checkpoint_bytes", median(&self.checkpoint_bytes)),
            ("service.rows_bytes", median(&self.rows_bytes)),
        ]
    }

    fn quality(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_pass = ratio(self.keys_recovered as f64, self.passes as f64);
        vec![("sat_keys_recovered", per_pass, "count")]
    }
}
