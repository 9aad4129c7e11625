//! Structured tracing and metrics for the AutoLock workspace.
//!
//! Every other crate in this workspace answers "is the reproduction
//! correct?"; this one answers "where did the run spend its time and
//! memory?". It provides, with zero external dependencies (shim discipline):
//!
//! * **Hierarchical timed spans** — [`span()`] (or the [`span!`] macro) returns
//!   an RAII guard; nested guards on one thread build a `/`-joined path
//!   (`"attack.muxlink/gnn.train/gnn.train_epoch"`). Every exit updates a
//!   per-path aggregate and appends a [`SpanEvent`] to a per-thread buffer.
//! * **A process-wide registry** of named [`Counter`]s and [`Gauge`]s backed
//!   by relaxed atomics.
//! * **Deterministic flush** — [`drain`] merges the per-thread event buffers
//!   by a global sequence number, and exports counters, gauges and span
//!   aggregates sorted by name, so the same set of recorded operations
//!   always serializes identically.
//! * **A memory probe** ([`mem`]) generalizing the `/proc/self/status`
//!   VmHWM hack: peak RSS, current RSS, and pool-occupancy gauges.
//! * **Run manifests** ([`manifest`]) — the per-experiment provenance record
//!   (config fingerprint, suite tier, seed, threads, git describe, wall
//!   clock per top-level span) written next to a spans JSONL file.
//!
//! # Determinism contract
//!
//! Observability never perturbs results. Instrumented code takes exactly the
//! same branches and draws exactly the same RNG values whether the registry
//! is enabled, disabled, or compiled out (`noop` feature): every site is a
//! side-channel write, never an input. When the registry is disabled
//! (the default), each site costs **one relaxed atomic load** — measured
//! below 1% on the `gnn_kernels` quick bench (see `crates/obs/README.md`).
//!
//! The merged event stream is ordered by a global sequence number, so a
//! fixed set of recorded spans always flushes in one order. Which thread
//! index a worker gets, and how concurrently-exiting spans interleave, are
//! scheduling facts faithfully recorded in the trace — they never feed back
//! into any computation.
//!
//! # Example
//!
//! ```
//! autolock_obs::enable();
//! let attacks = autolock_obs::counter("doc.attacks");
//! {
//!     let _outer = autolock_obs::span!("doc.run");
//!     let _inner = autolock_obs::span!("doc.stage");
//!     attacks.incr();
//! }
//! let snap = autolock_obs::drain();
//! autolock_obs::disable();
//! assert_eq!(snap.counters, vec![("doc.attacks".to_string(), 1)]);
//! assert_eq!(snap.events.len(), 2);
//! // Inner span exits first and nests under the outer path.
//! assert_eq!(snap.events[0].path, "doc.run/doc.stage");
//! assert_eq!(snap.events[1].path, "doc.run");
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod manifest;
pub mod mem;

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::Serialize;

/// Default cap on buffered [`SpanEvent`]s per process (aggregates keep
/// counting past it; see [`set_event_cap`]).
pub const DEFAULT_EVENT_CAP: u64 = 100_000;

/// One completed span occurrence, as buffered per thread and merged at
/// [`drain`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanEvent {
    /// `/`-joined path of span names from the thread's outermost open span
    /// to this one.
    pub path: String,
    /// Nesting depth on the recording thread (`0` = outermost).
    pub depth: usize,
    /// Registration index of the recording thread (informational; assigned
    /// in first-span order).
    pub thread: u64,
    /// Global exit-order sequence number; [`drain`] sorts by it.
    pub seq: u64,
    /// Span start, nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregate statistics of every span that exited with one particular path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// `/`-joined span path.
    pub path: String,
    /// Nesting depth (`0` = top-level on its thread).
    pub depth: usize,
    /// Number of completed spans with this path.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Shortest occurrence, nanoseconds.
    pub min_ns: u64,
    /// Longest occurrence, nanoseconds.
    pub max_ns: u64,
}

/// Everything the registry accumulated, in deterministic order (counters,
/// gauges and span summaries sorted by name; events sorted by global
/// sequence number). Produced by [`drain`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Per-path span aggregates, sorted by path.
    pub spans: Vec<SpanSummary>,
    /// The merged event stream.
    pub events: Vec<SpanEvent>,
    /// Events discarded because the buffer cap was reached (the aggregates
    /// in `spans` still include them).
    pub events_dropped: u64,
}

/// A handle to a named monotone counter. Cheap to clone; writes are relaxed
/// atomic adds, skipped entirely while the registry is disabled.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n`. One relaxed load (the enabled check) when disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            if enabled() {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 under `noop`).
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A handle to a named `f64` gauge (last write wins).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// Sets the gauge. One relaxed load when disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.cell {
            if enabled() {
                cell.store(v.to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Current value (0.0 under `noop` or before any `set`).
    pub fn value(&self) -> f64 {
        self.cell
            .as_ref()
            .map_or(0.0, |c| f64::from_bits(c.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct SpanAgg {
    depth: usize,
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

struct Registry {
    enabled: AtomicBool,
    epoch: Instant,
    seq: AtomicU64,
    events_stored: AtomicU64,
    events_dropped: AtomicU64,
    event_cap: AtomicU64,
    next_thread: AtomicU64,
    counters: Mutex<HashMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<&'static str, Arc<AtomicU64>>>,
    span_aggs: Mutex<HashMap<String, SpanAgg>>,
    buffers: Mutex<Vec<Arc<Mutex<Vec<SpanEvent>>>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        seq: AtomicU64::new(0),
        events_stored: AtomicU64::new(0),
        events_dropped: AtomicU64::new(0),
        event_cap: AtomicU64::new(DEFAULT_EVENT_CAP),
        next_thread: AtomicU64::new(0),
        counters: Mutex::new(HashMap::new()),
        gauges: Mutex::new(HashMap::new()),
        span_aggs: Mutex::new(HashMap::new()),
        buffers: Mutex::new(Vec::new()),
    })
}

struct ThreadState {
    thread: u64,
    stack: Vec<&'static str>,
    buffer: Arc<Mutex<Vec<SpanEvent>>>,
}

thread_local! {
    static STATE: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

fn with_thread_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> Option<R> {
    STATE
        .try_with(|slot| {
            let mut slot = slot.borrow_mut();
            let state = slot.get_or_insert_with(|| {
                let reg = registry();
                let buffer = Arc::new(Mutex::new(Vec::new()));
                reg.buffers.lock().unwrap().push(buffer.clone());
                ThreadState {
                    thread: reg.next_thread.fetch_add(1, Ordering::Relaxed),
                    stack: Vec::new(),
                    buffer,
                }
            });
            f(state)
        })
        .ok()
}

/// Turns recording on. Off by default: library code is instrumented
/// unconditionally and pays only the disabled-site load until a driver (or a
/// test) opts in.
pub fn enable() {
    #[cfg(not(feature = "noop"))]
    registry().enabled.store(true, Ordering::Relaxed);
}

/// Turns recording off.
pub fn disable() {
    #[cfg(not(feature = "noop"))]
    registry().enabled.store(false, Ordering::Relaxed);
}

/// Whether the registry is currently recording.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "noop")]
    {
        false
    }
    #[cfg(not(feature = "noop"))]
    {
        registry().enabled.load(Ordering::Relaxed)
    }
}

/// `true` when the crate was built with the `noop` feature (instrumentation
/// compiled out).
pub const fn is_noop() -> bool {
    cfg!(feature = "noop")
}

/// The counter registered under `name` (created on first use).
pub fn counter(name: &'static str) -> Counter {
    #[cfg(feature = "noop")]
    {
        let _ = name;
        Counter { cell: None }
    }
    #[cfg(not(feature = "noop"))]
    {
        let mut map = registry().counters.lock().unwrap();
        let cell = map
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter { cell: Some(cell) }
    }
}

/// The gauge registered under `name` (created on first use).
pub fn gauge(name: &'static str) -> Gauge {
    #[cfg(feature = "noop")]
    {
        let _ = name;
        Gauge { cell: None }
    }
    #[cfg(not(feature = "noop"))]
    {
        let mut map = registry().gauges.lock().unwrap();
        let cell = map
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicU64::new(0.0f64.to_bits())))
            .clone();
        Gauge { cell: Some(cell) }
    }
}

/// Caps the number of buffered [`SpanEvent`]s (aggregates are unaffected).
/// Long evolutionary runs produce millions of span exits; the cap bounds
/// trace memory and JSONL size while [`SpanSummary`] stays exact.
pub fn set_event_cap(cap: u64) {
    #[cfg(feature = "noop")]
    let _ = cap;
    #[cfg(not(feature = "noop"))]
    registry().event_cap.store(cap, Ordering::Relaxed);
}

/// An active span; created by [`span()`], records on drop. Not `Send`: spans
/// must exit on the thread that opened them (the per-thread stack is what
/// gives events their hierarchical path).
#[must_use = "a span guard records when dropped; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

struct ActiveSpan {
    start: Instant,
    start_ns: u64,
    depth: usize,
}

/// Opens a span named `name` on the current thread. While the registry is
/// disabled this is a single relaxed load and the guard is inert.
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "noop")]
    {
        let _ = name;
        SpanGuard {
            active: None,
            _not_send: PhantomData,
        }
    }
    #[cfg(not(feature = "noop"))]
    {
        if !enabled() {
            return SpanGuard {
                active: None,
                _not_send: PhantomData,
            };
        }
        let reg = registry();
        let active = with_thread_state(|st| {
            let depth = st.stack.len();
            st.stack.push(name);
            ActiveSpan {
                start: Instant::now(),
                start_ns: reg.epoch.elapsed().as_nanos() as u64,
                depth,
            }
        });
        SpanGuard {
            active,
            _not_send: PhantomData,
        }
    }
}

/// Opens a span: `let _g = span!("attack.score_candidates");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let dur_ns = active.start.elapsed().as_nanos() as u64;
        let reg = registry();
        with_thread_state(|st| {
            // Scoped guards drop LIFO, so this span is the innermost open
            // one: its name sits at `stack[depth]`. If a caller drops guards
            // out of order (e.g. a `Vec<SpanGuard>` unwinding front-to-back)
            // an ancestor's drop already truncated the stack past us —
            // record nothing rather than panic in a destructor.
            if active.depth >= st.stack.len() {
                reg.events_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            let path = st.stack[..=active.depth].join("/");
            st.stack.truncate(active.depth);

            let mut aggs = reg.span_aggs.lock().unwrap();
            let agg = aggs.entry(path.clone()).or_insert(SpanAgg {
                depth: active.depth,
                count: 0,
                total_ns: 0,
                min_ns: u64::MAX,
                max_ns: 0,
            });
            agg.count += 1;
            agg.total_ns += dur_ns;
            agg.min_ns = agg.min_ns.min(dur_ns);
            agg.max_ns = agg.max_ns.max(dur_ns);
            drop(aggs);

            if reg.events_stored.load(Ordering::Relaxed) < reg.event_cap.load(Ordering::Relaxed) {
                reg.events_stored.fetch_add(1, Ordering::Relaxed);
                let event = SpanEvent {
                    path,
                    depth: active.depth,
                    thread: st.thread,
                    seq: reg.seq.fetch_add(1, Ordering::Relaxed),
                    start_ns: active.start_ns,
                    dur_ns,
                };
                st.buffer.lock().unwrap().push(event);
            } else {
                reg.events_dropped.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

/// Takes everything accumulated since the last [`reset`]/[`drain`] and
/// clears the registry's values (registrations survive, so existing
/// [`Counter`]/[`Gauge`] handles stay valid).
///
/// Call it from a quiescent point — after worker threads have joined and
/// with no spans open — which is where every driver naturally sits when its
/// run guard drops.
pub fn drain() -> Snapshot {
    #[cfg(feature = "noop")]
    {
        Snapshot::default()
    }
    #[cfg(not(feature = "noop"))]
    {
        let reg = registry();

        let mut counters: Vec<(String, u64)> = reg
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.swap(0, Ordering::Relaxed)))
            .collect();
        counters.sort();

        let mut gauges: Vec<(String, f64)> = reg
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, cell)| {
                (
                    name.to_string(),
                    f64::from_bits(cell.swap(0.0f64.to_bits(), Ordering::Relaxed)),
                )
            })
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));

        let mut spans: Vec<SpanSummary> = reg
            .span_aggs
            .lock()
            .unwrap()
            .drain()
            .map(|(path, agg)| SpanSummary {
                path,
                depth: agg.depth,
                count: agg.count,
                total_ns: agg.total_ns,
                min_ns: agg.min_ns,
                max_ns: agg.max_ns,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));

        let mut events: Vec<SpanEvent> = Vec::new();
        for buffer in reg.buffers.lock().unwrap().iter() {
            events.append(&mut buffer.lock().unwrap());
        }
        events.sort_by_key(|e| e.seq);

        reg.events_stored.store(0, Ordering::Relaxed);
        let events_dropped = reg.events_dropped.swap(0, Ordering::Relaxed);
        reg.seq.store(0, Ordering::Relaxed);

        Snapshot {
            counters,
            gauges,
            spans,
            events,
            events_dropped,
        }
    }
}

/// Clears all accumulated values without reading them.
pub fn reset() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global and `cargo test` threads run
    /// concurrently, so every test that enables/drains it serializes here.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_only_count_while_enabled() {
        let _l = lock();
        reset();
        let c = counter("test.enabled_gate");
        c.add(5);
        assert_eq!(c.value(), 0, "disabled registry must drop writes");
        enable();
        c.add(5);
        c.incr();
        disable();
        c.add(100);
        let snap = drain();
        assert!(snap
            .counters
            .contains(&("test.enabled_gate".to_string(), 6)));
    }

    #[test]
    fn gauges_hold_last_write() {
        let _l = lock();
        reset();
        enable();
        let g = gauge("test.gauge");
        g.set(1.5);
        g.set(-3.25);
        assert_eq!(g.value(), -3.25);
        let snap = drain();
        disable();
        assert!(snap.gauges.contains(&("test.gauge".to_string(), -3.25)));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _l = lock();
        reset();
        enable();
        for _ in 0..3 {
            let _outer = span!("test.outer");
            let _inner = span!("test.inner");
        }
        let snap = drain();
        disable();
        assert_eq!(snap.events.len(), 6);
        // Exit order: inner, outer, inner, outer, ...
        assert_eq!(snap.events[0].path, "test.outer/test.inner");
        assert_eq!(snap.events[1].path, "test.outer");
        let inner = snap
            .spans
            .iter()
            .find(|s| s.path == "test.outer/test.inner")
            .unwrap();
        assert_eq!((inner.count, inner.depth), (3, 1));
        assert!(inner.min_ns <= inner.max_ns && inner.total_ns >= inner.max_ns);
        let outer = snap.spans.iter().find(|s| s.path == "test.outer").unwrap();
        assert_eq!((outer.count, outer.depth), (3, 0));
    }

    #[test]
    fn disabled_spans_leave_no_trace() {
        let _l = lock();
        reset();
        {
            let _g = span!("test.disabled");
        }
        enable();
        let snap = drain();
        disable();
        assert!(snap.events.is_empty());
        assert!(snap.spans.iter().all(|s| s.path != "test.disabled"));
    }

    #[test]
    fn out_of_order_drop_is_lossy_but_never_panics() {
        let _l = lock();
        reset();
        enable();
        let outer = span!("test.ooo_outer");
        let inner = span!("test.ooo_inner");
        // Contract violation: the ancestor drops first. The orphaned inner
        // guard must degrade to a counted drop, not a destructor panic.
        drop(outer);
        drop(inner);
        let snap = drain();
        disable();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].path, "test.ooo_outer");
        assert_eq!(snap.events_dropped, 1);
    }

    #[test]
    fn event_cap_drops_events_but_not_aggregates() {
        let _l = lock();
        reset();
        set_event_cap(4);
        enable();
        for _ in 0..10 {
            let _g = span!("test.capped");
        }
        let snap = drain();
        disable();
        set_event_cap(DEFAULT_EVENT_CAP);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events_dropped, 6);
        let agg = snap.spans.iter().find(|s| s.path == "test.capped").unwrap();
        assert_eq!(agg.count, 10);
    }

    #[test]
    fn drain_is_deterministically_ordered_and_clearing() {
        let _l = lock();
        reset();
        enable();
        counter("test.z").incr();
        counter("test.a").incr();
        gauge("test.g").set(2.0);
        {
            let _g = span!("test.order");
        }
        let snap = drain();
        disable();
        let names: Vec<&str> = snap
            .counters
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, vec!["test.a", "test.z"], "sorted by name");
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        // A second drain starts from zero.
        enable();
        let empty = drain();
        disable();
        assert!(empty.events.is_empty());
        assert!(empty.counters.iter().all(|(_, v)| *v == 0));
    }

    #[test]
    fn cross_thread_events_merge_by_sequence() {
        let _l = lock();
        reset();
        enable();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..5 {
                        let _g = span!("test.worker");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = drain();
        disable();
        assert_eq!(snap.events.len(), 20);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<u64>>(), "dense and sorted");
        // Worker spans are top-level on their own threads.
        assert!(snap.events.iter().all(|e| e.depth == 0));
    }
}
