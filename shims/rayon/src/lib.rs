//! Offline shim for the subset of `rayon` this workspace uses:
//! `slice.par_iter().map(f).collect::<Vec<_>>()`.
//!
//! Unlike a sequential stub, this actually runs the mapped closure in
//! parallel: the input is split into one contiguous chunk per available core
//! and each chunk is processed on a scoped `std::thread`. Output order is
//! preserved. There is no work stealing — fitness-evaluation workloads in
//! this workspace are uniform enough that static chunking is adequate.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::num::NonZeroUsize;

pub mod prelude {
    //! Glob-importable API surface, mirroring `rayon::prelude`.
    pub use crate::{IntoParallelRefIterator, ParMap, ParSlice};
}

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`]; `0` means
    /// "no override" (use all available cores).
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// The number of threads parallel operations use on the current thread:
/// the installed [`ThreadPool`]'s size, or the number of available cores
/// outside any pool. Mirrors `rayon::current_num_threads`.
pub fn current_num_threads() -> usize {
    let installed = POOL_THREADS.with(Cell::get);
    if installed > 0 {
        installed
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
///
/// The shim pool does not own worker threads: workers are scoped
/// `std::thread`s spawned per parallel call, so "building" a pool only
/// records the requested thread count.
#[derive(Debug, Clone, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type returned by [`ThreadPoolBuilder::build`] (the shim never
/// actually fails, but the `Result` keeps call sites source-compatible).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (all cores) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count; `0` means all available cores.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A scoped parallelism level, mirroring `rayon::ThreadPool`: parallel
/// operations run inside [`ThreadPool::install`] split work across this
/// pool's thread count instead of the machine default.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// Runs `op` with this pool's thread count governing nested parallel
    /// iterators, restoring the previous setting afterwards (panic-safe).
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|c| c.replace(self.num_threads)));
        op()
    }
}

/// Types whose references can be iterated in parallel.
pub trait IntoParallelRefIterator<'data> {
    /// Element type.
    type Item: Sync + 'data;

    /// A parallel iterator over `&Self::Item`.
    fn par_iter(&'data self) -> ParSlice<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParSlice<'data, T> {
        ParSlice { items: self }
    }
}

/// A parallel iterator over a slice.
#[derive(Debug, Clone, Copy)]
pub struct ParSlice<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Maps every element through `f` (in parallel at collect time).
    pub fn map<F, R>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// The result of [`ParSlice::map`]; evaluation happens in [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Runs the map on all elements, preserving order, and collects the
    /// results.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: From<Vec<R>>,
    {
        C::from(par_map_slice(self.items, &self.f))
    }
}

fn par_map_slice<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync>(items: &'a [T], f: &F) -> Vec<R> {
    let threads = current_num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect();
    });
    let mut out = Vec::with_capacity(items.len());
    for part in results {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_on_tiny_and_empty_inputs() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [5usize];
        let out: Vec<usize> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn thread_pool_installs_and_restores_thread_count() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let before = crate::current_num_threads();
        let inside = pool.install(crate::current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(crate::current_num_threads(), before);
        // Nested installs stack and restore correctly.
        let inner_pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let (outer, inner) = pool.install(|| {
            let inner = inner_pool.install(crate::current_num_threads);
            (crate::current_num_threads(), inner)
        });
        assert_eq!((outer, inner), (3, 2));
    }

    #[test]
    fn pool_bounded_map_matches_serial() {
        let input: Vec<usize> = (0..257).collect();
        let serial: Vec<usize> = input.iter().map(|&x| x * 3 + 1).collect();
        for n in [1usize, 2, 4, 7] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let parallel: Vec<usize> =
                pool.install(|| input.par_iter().map(|&x| x * 3 + 1).collect());
            assert_eq!(parallel, serial, "num_threads = {n}");
        }
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let input: Vec<usize> = (0..256).collect();
        let _: Vec<usize> = input
            .par_iter()
            .map(|&x| {
                ids.lock().unwrap().insert(std::thread::current().id());
                x
            })
            .collect();
        let n = ids.lock().unwrap().len();
        // On a multi-core box this is > 1; on a single-core box it must be 1.
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        assert!(n >= 1 && n <= cores.max(1));
    }
}
