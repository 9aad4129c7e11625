//! The one order-preserving pooled map every deterministic fan-out uses.
//!
//! The workspace's bit-for-bit thread-count contract (see `README.md` and
//! `crates/gnn/README.md`) rests on a single pattern: fan independent items
//! across a bounded rayon pool with slot `i` of the output always answering
//! item `i`, and keep every floating-point *reduction* serial and in fixed
//! order at the call site. This module holds the pattern once so the
//! ensemble, the attack-level fan-outs and the experiment drivers cannot
//! drift apart.

use rayon::prelude::*;

/// Order-preserving parallel map across a pool of `threads` workers
/// (`0` = all available cores, `1` = serial): `out[i]` answers `items[i]`
/// no matter which thread computed it, so any fixed-order reduction over
/// the result is identical to the serial loop. Serial for `threads == 1`
/// and for singleton/empty batches (not worth a pool).
///
/// Building the pool per call is **not** free: the vendored rayon shim's
/// `ThreadPool` owns no threads, so every parallel call spawns its scoped
/// worker threads afresh. For small batches that cost outweighs the work —
/// `MlpEnsemble::predict_batch` on 64 rows measured 0.65x of serial with 2
/// threads and 0.51x with 4. One persistent pool, or a serial cut-off for
/// small batches, is the fix carried in `ROADMAP.md` ("Carried, lower
/// priority").
pub fn pooled_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if threads == 1 || items.len() <= 1 {
        items.iter().map(f).collect()
    } else {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build rayon thread pool")
            .install(|| items.par_iter().map(&f).collect())
    }
}

/// Splits `items` into at most `threads` contiguous parts of near-equal
/// length (`0` = one per available core, as [`pooled_map`] resolves it), for
/// a pooled map over the parts whose results are reduced in part order.
/// Empty for empty `items`.
pub fn contiguous_parts<T>(threads: usize, items: &[T]) -> Vec<&[T]> {
    if items.is_empty() {
        return Vec::new();
    }
    let workers = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon thread pool")
        .current_num_threads();
    items.chunks(items.len().div_ceil(workers)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
