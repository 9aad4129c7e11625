//! The one order-preserving pooled map every deterministic fan-out uses.
//!
//! The workspace's bit-for-bit thread-count contract (see `README.md` and
//! `crates/gnn/README.md`) rests on a single pattern: fan independent items
//! across a bounded rayon pool with slot `i` of the output always answering
//! item `i`, and keep every floating-point *reduction* serial and in fixed
//! order at the call site. This module holds the pattern once so the
//! ensemble, the attack-level fan-outs and the experiment drivers cannot
//! drift apart. It also holds the one rule for nested fan-outs (see
//! [`pooled_map`]), so no caller sets a thread count to avoid them.

use rayon::prelude::*;
use std::cell::Cell;

thread_local! {
    /// Set while this thread runs beneath a fanned-out or serial
    /// [`pooled_map`]: every fan-out started here runs inline.
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

fn nested() -> bool {
    INLINE.with(Cell::get)
}

/// Runs `f` with [`INLINE`] set, restoring the previous value on return and
/// on panic.
fn inline<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            INLINE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(INLINE.with(|c| c.replace(true)));
    f()
}

/// Order-preserving parallel map across a pool of `threads` workers
/// (`0` = all available cores, `1` = serial): `out[i]` answers `items[i]`
/// no matter which thread computed it, so any fixed-order reduction over
/// the result is identical to the serial loop.
///
/// **The nesting rule.** Only one level of a stack of fan-outs (experiment
/// repeats, islands, a GA population, one attack's ensemble or DGCNN
/// batches) runs parallel, so nested pools never multiply:
/// - a call that fans out (`threads != 1` and at least 2 items) runs each
///   item with every nested `pooled_map` and [`contiguous_parts`] inline on
///   that worker;
/// - a `threads == 1` call runs everything beneath it serially;
/// - a single item runs on the caller and passes the caller's budget
///   through unchanged, so a lone item keeps the parallelism beneath it.
///
/// Like every thread count, the rule changes wall clock only, never results.
///
/// Building the pool per call is **not** free: the vendored rayon shim's
/// `ThreadPool` owns no threads, so every parallel call spawns its scoped
/// worker threads afresh. For small batches that cost outweighs the work —
/// `MlpEnsemble::predict_batch` on 64 rows measured 0.65x of serial with 2
/// threads and 0.51x with 4.
pub fn pooled_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads == 1 || nested() {
        inline(|| items.iter().map(f).collect())
    } else if items.len() <= 1 {
        items.iter().map(f).collect()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon thread pool")
            .install(|| items.par_iter().map(|item| inline(|| f(item))).collect())
    }
}

/// Splits `items` into at most `threads` contiguous parts of near-equal
/// length (`0` = one per available core), for a pooled map over the parts
/// whose results are reduced in part order. One part where [`pooled_map`]'s
/// nesting rule would run inline; empty for empty `items`.
pub fn contiguous_parts<T>(threads: usize, items: &[T]) -> Vec<&[T]> {
    if items.is_empty() {
        return Vec::new();
    }
    let workers = match threads {
        _ if nested() => 1,
        0 => rayon::current_num_threads(),
        n => n,
    };
    items.chunks(items.len().div_ceil(workers)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// The threads a nested `pooled_map(4, …)` over 8 items runs on.
    fn inner_threads() -> Vec<ThreadId> {
        pooled_map(4, &[0u8; 8], |_| thread::current().id())
    }

    #[test]
    fn preserves_order_for_every_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8] {
            assert_eq!(pooled_map(threads, &items, |&i| i * i), expect);
        }
    }

    #[test]
    fn empty_and_singleton_batches_stay_serial() {
        let empty: Vec<u32> = Vec::new();
        assert!(pooled_map(0, &empty, |&v| v).is_empty());
        assert_eq!(pooled_map(0, &[9u32], |&v| v + 1), vec![10]);
    }

    #[test]
    fn nested_map_runs_inline_on_the_outer_worker() {
        let outer = pooled_map(2, &[0u8, 1], |_| (thread::current().id(), inner_threads()));
        for (worker, inner) in outer {
            assert!(inner.iter().all(|&id| id == worker));
        }
    }

    #[test]
    fn serial_map_keeps_nested_maps_serial() {
        let caller = thread::current().id();
        for inner in pooled_map(1, &[0u8, 1], |_| inner_threads()) {
            assert!(inner.iter().all(|&id| id == caller));
        }
    }

    #[test]
    fn singleton_map_passes_the_budget_through() {
        let caller = thread::current().id();
        let inner = pooled_map(0, &[0u8], |_| inner_threads()).remove(0);
        // The shim spawns the installed count of workers even on one core.
        assert!(inner.iter().all(|&id| id != caller));
        assert!(inner.iter().any(|&id| id != inner[0]));
    }

    #[test]
    fn nesting_flag_is_cleared_after_return_and_after_panic() {
        assert_eq!(pooled_map(1, &[1u8, 2], |&v| v), vec![1, 2]);
        assert!(!nested());
        let caught = std::panic::catch_unwind(|| {
            pooled_map(1, &[1u8, 2], |_| -> u8 { panic!("item failed") })
        });
        assert!(caught.is_err());
        assert!(!nested());
    }

    #[test]
    fn contiguous_parts_cover_items_in_order() {
        let items: Vec<usize> = (0..10).collect();
        let lens = |threads| {
            contiguous_parts(threads, &items)
                .iter()
                .map(|p| p.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(lens(1), vec![10]);
        assert_eq!(lens(3), vec![4, 4, 2]);
        assert_eq!(lens(16), vec![1; 10]);
        assert_eq!(contiguous_parts(0, &items).concat(), items);
        assert!(contiguous_parts(4, &[] as &[usize]).is_empty());
    }

    #[test]
    fn contiguous_parts_is_one_part_when_nested() {
        let items: Vec<usize> = (0..10).collect();
        let parts = pooled_map(2, &[0u8, 1], |_| contiguous_parts(4, &items).len());
        assert_eq!(parts, vec![1, 1]);
    }
}
