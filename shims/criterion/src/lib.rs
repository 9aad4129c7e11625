//! Offline shim for the subset of `criterion` this workspace uses.
//!
//! Provides `Criterion`, benchmark groups, `Bencher::iter` /
//! `iter_batched`, and the `criterion_group!` / `criterion_main!` macros.
//! Timing is a simple mean over `sample_size` timed samples (after one
//! warm-up run) printed to stdout — adequate for relative comparisons in an
//! offline environment, with the same source-level API as real criterion so
//! the benches compile unchanged.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (the workspace uses
/// `std::hint::black_box`, but the re-export keeps the API complete).
pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost; the shim treats all sizes alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// The benchmark driver.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        println!("group {name}");
        BenchmarkGroup {
            name,
            sample_size: self.sample_size,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark(id, self.sample_size, f);
        self
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark(&format!("{}/{id}", self.name), self.sample_size, f);
        self
    }

    /// Finishes the group (marker only; statistics print per benchmark).
    pub fn finish(self) {}
}

fn run_benchmark<F: FnMut(&mut Bencher)>(id: &str, sample_size: usize, mut f: F) {
    let mut bencher = Bencher {
        elapsed: Duration::ZERO,
        iterations: 0,
    };
    // Warm-up sample (discarded).
    f(&mut bencher);
    bencher.elapsed = Duration::ZERO;
    bencher.iterations = 0;
    for _ in 0..sample_size {
        f(&mut bencher);
    }
    let per_iter = if bencher.iterations > 0 {
        bencher.elapsed / bencher.iterations as u32
    } else {
        Duration::ZERO
    };
    println!(
        "bench {id}: {:>12.3?} /iter ({} iters)",
        per_iter, bencher.iterations
    );
}

/// Times closures for one benchmark.
pub struct Bencher {
    elapsed: Duration,
    iterations: u64,
}

impl Bencher {
    /// Times repeated runs of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        black_box(routine());
        self.elapsed += start.elapsed();
        self.iterations += 1;
    }

    /// Times `routine` on fresh inputs built by `setup` (setup not timed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        self.elapsed += start.elapsed();
        self.iterations += 1;
    }
}

/// Declares a benchmark group, mirroring criterion's two macro forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_counts() {
        let mut c = Criterion::default().sample_size(3);
        let mut runs = 0;
        c.bench_function("t", |b| b.iter(|| runs += 1));
        // 1 warm-up + 3 samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn groups_and_batched_iter_work() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("g");
        let mut total = 0usize;
        group.bench_function("b", |b| {
            b.iter_batched(
                || vec![1, 2, 3],
                |v| total += v.len(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
        assert_eq!(total, 9);
    }
}
