//! The machine-readable perf-trajectory format shared by the kernel
//! benches.
//!
//! `matmul_kernels` and `gnn_kernels` both emit a `BENCH_*.json` file that
//! `.github/scripts/check_bench_regression.py` diffs against its committed
//! baseline. The schema (and the median timer feeding it) lives here once,
//! so a format change cannot silently fork between the benches and the CI
//! gate.

use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// One measured point of a perf trajectory.
#[derive(Serialize)]
pub struct BenchEntry {
    /// Operation name (e.g. `matmul`, `ensemble_train`, `gnn_train_epoch`).
    pub op: String,
    /// Workload shape (e.g. `128x128x128`, `16x40n`).
    pub dims: String,
    /// Thread count of this entry.
    pub threads: usize,
    /// Median wall clock per iteration, nanoseconds.
    pub ns_per_iter: f64,
    /// What `speedup_vs_baseline` compares against (e.g. `naive`,
    /// `threads=1`, `materialized`).
    pub baseline: String,
    /// Median ns/iter of the baseline.
    pub baseline_ns_per_iter: f64,
    /// `baseline_ns_per_iter / ns_per_iter` — > 1 means this entry beats
    /// its baseline.
    pub speedup_vs_baseline: f64,
}

impl BenchEntry {
    /// The entry for `op` at `dims` and `threads`, from the `(baseline,
    /// measured)` ns/iter pair a timing helper returns.
    pub fn new(
        op: &str,
        dims: impl Into<String>,
        threads: usize,
        baseline: &str,
        (baseline_ns, ns): (f64, f64),
    ) -> Self {
        BenchEntry {
            op: op.to_string(),
            dims: dims.into(),
            threads,
            ns_per_iter: ns,
            baseline: baseline.to_string(),
            baseline_ns_per_iter: baseline_ns,
            speedup_vs_baseline: baseline_ns / ns,
        }
    }
}

/// A `BENCH_*.json` file: which bench produced it, whether in quick (CI
/// smoke) mode, and its entries.
#[derive(Serialize)]
pub struct BenchTrajectory {
    /// Bench name (`matmul_kernels`, `gnn_kernels`).
    pub bench: String,
    /// `true` when measured under `AUTOLOCK_BENCH_QUICK`.
    pub quick: bool,
    /// The measured points.
    pub entries: Vec<BenchEntry>,
}

impl BenchTrajectory {
    /// Prints every entry and writes the trajectory to
    /// `<dir>/<file_name>`. I/O problems are reported to stderr but not
    /// fatal (a bench run should never die on a read-only results dir).
    pub fn emit(&self, dir: &Path, file_name: &str) {
        for e in &self.entries {
            println!(
                "trajectory {}/{} threads={}: {:.0} ns/iter, {:.2}x vs {}",
                e.op, e.dims, e.threads, e.ns_per_iter, e.speedup_vs_baseline, e.baseline
            );
        }
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(file_name);
        match serde_json::to_string_pretty(self) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("warning: cannot write {}: {e}", path.display());
                } else {
                    println!("(wrote {})", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize trajectory: {e}"),
        }
    }
}

/// Shortest span one timed sample covers, in ns. A sample of one
/// millisecond-long call moves by a third when one pool thread is
/// descheduled; a 10 ms sample spreads that over many calls.
const SAMPLE_NS: f64 = 10e6;

/// A routine and the number of runs one sample of it takes: as many as one
/// discarded warm-up run says it takes to span [`SAMPLE_NS`], at least one.
struct Timed<F> {
    f: F,
    iters: u32,
}

impl<F: FnMut()> Timed<F> {
    fn new(mut f: F) -> Self {
        let start = Instant::now();
        f();
        let warm_up = start.elapsed().as_nanos() as f64;
        let iters = (SAMPLE_NS / warm_up.max(1.0)).ceil().max(1.0) as u32;
        Timed { f, iters }
    }

    /// Mean ns per run over one sample.
    fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..self.iters {
            (self.f)();
        }
        start.elapsed().as_nanos() as f64 / f64::from(self.iters)
    }
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    times[times.len() / 2]
}

/// Median ns/iter of `f` over `samples` timed samples.
pub fn median_ns(samples: usize, f: impl FnMut()) -> f64 {
    let mut f = Timed::new(f);
    median((0..samples).map(|_| f.sample()).collect())
}

/// Median ns/iter of `base` and of `f` over `samples` samples each, taken
/// in alternation. A gated entry is the ratio of the two; timed side by
/// side, both see the same machine load, where two blocks timed one after
/// the other can straddle a change in it.
pub fn paired_median_ns(samples: usize, base: impl FnMut(), f: impl FnMut()) -> (f64, f64) {
    let (mut base, mut f) = (Timed::new(base), Timed::new(f));
    let (base_times, times): (Vec<f64>, Vec<f64>) =
        (0..samples).map(|_| (base.sample(), f.sample())).unzip();
    (median(base_times), median(times))
}

/// `(serial, parallel)` ns/iter of the routines `make` builds for one
/// thread and for `threads`, timed in alternation by [`paired_median_ns`].
/// At `threads = 1` the serial routine, timed alone, is both.
pub fn versus_serial<F: FnMut()>(
    samples: usize,
    threads: usize,
    make: impl Fn(usize) -> F,
) -> (f64, f64) {
    if threads == 1 {
        let ns = median_ns(samples, make(1));
        (ns, ns)
    } else {
        paired_median_ns(samples, make(1), make(threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ns_is_positive_and_ordered() {
        let ns = median_ns(5, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(ns > 0.0);
        let (short, long) = paired_median_ns(
            3,
            || {
                std::hint::black_box((0..100).sum::<u64>());
            },
            || std::thread::sleep(std::time::Duration::from_millis(2)),
        );
        assert!(0.0 < short && short < long, "{short} vs {long}");
    }

    #[test]
    fn trajectory_serializes_with_gate_keys() {
        let t = BenchTrajectory {
            bench: "test".into(),
            quick: true,
            entries: vec![BenchEntry {
                op: "op".into(),
                dims: "1x1".into(),
                threads: 1,
                ns_per_iter: 2.0,
                baseline: "naive".into(),
                baseline_ns_per_iter: 4.0,
                speedup_vs_baseline: 2.0,
            }],
        };
        let json = serde_json::to_string(&t).unwrap();
        // The exact keys check_bench_regression.py loads.
        for key in ["entries", "op", "dims", "threads", "speedup_vs_baseline"] {
            assert!(json.contains(key), "missing gate key {key}");
        }
    }
}
