//! The benchmark's clocks, its own spans, and the statistics it reports.
//!
//! Every public call the benchmark makes into a layer goes through
//! [`Tracer::time`], which always returns the call's wall-clock and process
//! CPU time (untraced runs need them for the op timings) and, while
//! recording, also keeps a span: name, start, end, CPU time, parent span and
//! the id of the op it belongs to. Spans stay in memory and are written as
//! JSON lines when the run ends.
//!
//! The gated metrics are CPU times. On a shared virtual machine the
//! hypervisor takes the CPUs away from the guest at times ("steal"), and
//! wall-clock time then swings by 2x between runs of the same code; the
//! process CPU clock of a guest kernel with paravirtual time accounting
//! leaves stolen time out. What it keeps is the slowdown other guests cause
//! through the caches and cores they share with this one, which moves the
//! CPU time of the same SAT pass by up to 50% over minutes. The tracer
//! measures that slowdown with a fixed kernel of its own ([`Reference`]),
//! sampled after every outermost timed call and on request, so the
//! benchmark can report CPU times at a reference machine speed.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock of 64-bit Linux");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by all threads of this process, live and exited.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed value laid out as the C
    // `struct timespec` of 64-bit Linux (two 64-bit fields), and
    // `clock_gettime` writes exactly one such struct through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall-clock and process CPU seconds of a call or a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Elapsed wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of all threads of the process.
    pub cpu: f64,
}

/// Both clocks, read at creation, less the time the tracer spends on
/// reference samples in between (see [`Tracer::stopwatch`]).
pub struct Stopwatch<'a> {
    tracer: &'a Tracer,
    wall: Instant,
    cpu: f64,
    excluded: Times,
}

impl Stopwatch<'_> {
    /// Time since the stopwatch started, without the reference samples.
    pub fn read(&self) -> Times {
        let excluded = self.tracer.excluded.get();
        Times {
            wall: self.wall.elapsed().as_secs_f64() - (excluded.wall - self.excluded.wall),
            cpu: cpu_now() - self.cpu - (excluded.cpu - self.excluded.cpu),
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`<layer>.<call>`).
    pub name: &'static str,
    /// Id of the op the call belongs to (0 = outside any op, e.g. set-up).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, wall-clock nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, wall-clock nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Process CPU nanoseconds spent inside the call.
    pub cpu_ns: u64,
    /// Whether another span names this one as its parent.
    pub has_children: bool,
}

/// Span recorder and machine-speed sampler for one benchmark process
/// (single-threaded use).
pub struct Tracer {
    epoch: Instant,
    /// Depth of the timed calls under way.
    depth: Cell<usize>,
    reference: RefCell<Reference>,
    /// CPU seconds of every reference sort so far, in order.
    samples: RefCell<Vec<f64>>,
    /// Total time of the reference samples so far.
    excluded: Cell<Times>,
    recording: Cell<bool>,
    op: Cell<u64>,
    next_op: Cell<u64>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A tracer that is not recording.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            depth: Cell::new(0),
            reference: RefCell::new(Reference::new()),
            samples: RefCell::new(Vec::new()),
            excluded: Cell::new(Times::default()),
            recording: Cell::new(false),
            op: Cell::new(0),
            next_op: Cell::new(1),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Starts or stops keeping spans.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Whether spans are being kept.
    pub fn recording(&self) -> bool {
        self.recording.get()
    }

    /// Starts a new op: spans recorded from now on carry its id.
    pub fn begin_op(&self) {
        self.op.set(self.next_op.get());
        self.next_op.set(self.next_op.get() + 1);
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a stopwatch that leaves out the reference samples taken while
    /// it runs.
    pub fn stopwatch(&self) -> Stopwatch<'_> {
        Stopwatch {
            tracer: self,
            wall: Instant::now(),
            cpu: cpu_now(),
            excluded: self.excluded.get(),
        }
    }

    /// Takes `n` reference samples (sorts) and keeps their CPU times;
    /// returns the index of the first, for [`Tracer::slowdown_since`].
    pub fn calibrate(&self, n: usize) -> usize {
        let (start, cpu_start) = (Instant::now(), cpu_now());
        let mut samples = self.samples.borrow_mut();
        let first = samples.len();
        let mut reference = self.reference.borrow_mut();
        samples.extend((0..n).map(|_| reference.sort()));
        let e = self.excluded.get();
        self.excluded.set(Times {
            wall: e.wall + start.elapsed().as_secs_f64(),
            cpu: e.cpu + cpu_now() - cpu_start,
        });
        first
    }

    /// Machine slowdown since sample `first`: how many times slower than in
    /// a quiet period ([`SORT_CPU_S`]) the median sort ran.
    pub fn slowdown_since(&self, first: usize) -> f64 {
        ratio(median(&self.samples.borrow()[first..]), SORT_CPU_S)
    }

    /// Runs `f` as a call named `name`; returns its output and its times.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Times) {
        self.time_as(f, |_| name)
    }

    /// Like [`Tracer::time`], but the span is named from the call's output
    /// (for calls whose kind is only known once they return).
    pub fn time_as<T>(
        &self,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> (T, Times) {
        let recording = self.recording.get();
        let index = recording.then(|| {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            if let Some(p) = parent {
                spans[p].has_children = true;
            }
            spans.push(Span {
                name: "",
                op: self.op.get(),
                parent,
                start_ns: 0,
                end_ns: 0,
                cpu_ns: 0,
                has_children: false,
            });
            self.open.borrow_mut().push(spans.len() - 1);
            spans.len() - 1
        });
        self.depth.set(self.depth.get() + 1);
        let (start, cpu_start) = (Instant::now(), cpu_now());
        let out = f();
        let (end, cpu) = (Instant::now(), cpu_now() - cpu_start);
        self.depth.set(self.depth.get() - 1);
        if let Some(i) = index {
            self.open.borrow_mut().pop();
            let mut spans = self.spans.borrow_mut();
            spans[i].name = name(&out);
            spans[i].start_ns = self.nanos(start);
            spans[i].end_ns = self.nanos(end);
            spans[i].cpu_ns = (cpu * 1e9) as u64;
        }
        // After each outermost call, sample the machine's speed for a
        // share of the call's time.
        if self.depth.get() == 0 {
            let n = (SAMPLE_SHARE * cpu / SORT_CPU_S).ceil() as usize;
            self.calibrate(n.clamp(1, MAX_SAMPLES_PER_CALL));
        }
        let wall = end.duration_since(start).as_secs_f64();
        (out, Times { wall, cpu })
    }

    /// CPU seconds of every recorded span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_ns as f64 * 1e-9)
            .collect()
    }

    /// Summed CPU seconds of the recorded leaf spans (calls that made no
    /// traced call themselves) that started at or after `since_ns`.
    pub fn leaf_cpu_since(&self, since_ns: u64) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| !s.has_children && s.start_ns >= since_ns)
            .map(|s| s.cpu_ns as f64 * 1e-9)
            .sum()
    }

    /// Forgets the open spans (after a call panicked out of them).
    pub fn close_all(&self) {
        self.depth.set(0);
        self.open.borrow_mut().clear();
    }

    /// Wall-clock nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.nanos(Instant::now())
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.cpu_ns
            )?;
        }
        out.flush()
    }
}

/// Elements sorted by one reference sort: 1 MiB of `u64`.
const SORT_LEN: usize = 1 << 17;
/// CPU seconds of one reference sort on the dev box (a 2-vCPU Xeon virtual
/// machine) in a quiet period. Normalized times are CPU seconds at this
/// speed.
const SORT_CPU_S: f64 = 0.0026;
/// After each outermost timed call the tracer sorts for about this share of
/// the call's CPU time, at least once and at most [`MAX_SAMPLES_PER_CALL`]
/// times, so the samples follow the machine's speed through a pass.
const SAMPLE_SHARE: f64 = 0.05;
const MAX_SAMPLES_PER_CALL: usize = 32;

/// The machine-speed reference: the standard library's unstable sort of a
/// fixed array of pseudo-random `u64`s. It belongs to the benchmark, so no
/// change to the workspace moves it, and other guests slow it down as they
/// slow the workloads: over twelve passes of `sat-dip` (the same work each
/// time) whose CPU time varied by 10.5% (coefficient of variation), the
/// sort time measured between the cells of each pass correlated with the
/// pass time at 0.98. Kernels that slow down much more or much less than
/// the workloads do not serve: a naive `f64` matrix product slowed by 1.75x
/// where `sat-dip` slowed by 1.25x, and pointer chasing in 16 MiB or a
/// 16 MiB streaming sum barely moved.
struct Reference {
    data: Vec<u64>,
    buf: Vec<u64>,
}

impl Reference {
    /// Generates the array.
    fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let data = (0..SORT_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Reference {
            data,
            buf: vec![0; SORT_LEN],
        }
    }

    /// CPU seconds of one sort of the array.
    fn sort(&mut self) -> f64 {
        self.buf.copy_from_slice(&self.data);
        let start = cpu_now();
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        cpu_now() - start
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
