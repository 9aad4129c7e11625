//! Job descriptions ([`JobSpec`]) and result rows ([`JobRow`]).

use autolock::AutoLockConfig;
use autolock_attacks::MuxLinkConfig;
use autolock_evo::IslandConfig;
use autolock_locking::{DMuxLocking, LockedNetlist, LockingScheme, XorLocking};
use autolock_netlist::ingest::{self, CircuitFormat, IngestOptions, Ingested, SequentialHandling};
use autolock_netlist::Netlist;
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Which locking scheme a job applies before attacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LockSpec {
    /// XOR/XNOR random logic locking.
    Xor {
        /// Number of key bits.
        key_len: usize,
    },
    /// D-MUX locking (the MUX-based scheme MuxLink targets).
    DMux {
        /// Number of key bits.
        key_len: usize,
    },
}

impl LockSpec {
    /// The requested key length.
    pub fn key_len(&self) -> usize {
        match *self {
            LockSpec::Xor { key_len } | LockSpec::DMux { key_len } => key_len,
        }
    }

    /// Locks `original`, drawing key and placement from `rng`.
    pub fn apply(
        &self,
        original: &Netlist,
        rng: &mut dyn RngCore,
    ) -> Result<LockedNetlist, autolock_locking::LockError> {
        match *self {
            LockSpec::Xor { key_len } => XorLocking::default().lock(original, key_len, rng),
            LockSpec::DMux { key_len } => DMuxLocking::default().lock(original, key_len, rng),
        }
    }
}

/// What a job does with its circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobKind {
    /// Lock the circuit, then run the SAT attack against it with the
    /// original netlist as the I/O oracle.
    SatAttack {
        /// The locking applied before the attack.
        lock: LockSpec,
        /// Wall-clock deadline in milliseconds, enforced inside every solver
        /// call. Machine-dependent near the threshold; pair with a generous
        /// value and use `max_propagations_per_solve` for reproducible
        /// cutoffs.
        timeout_ms: u64,
        /// Deterministic per-solve work cap (`None` = unbounded): cuts off
        /// at the same search point on every machine, which is what makes
        /// induced-timeout rows reproducible.
        max_propagations_per_solve: Option<u64>,
        /// DIP-iteration cap.
        max_iterations: usize,
    },
    /// Lock the circuit, then run the MuxLink attack. The trained link
    /// model is cached in the engine's [`crate::ModelRegistry`] when one is
    /// configured; a registry hit skips training and produces a
    /// bit-identical row.
    MuxLinkAttack {
        /// The locking applied before the attack (D-MUX for an informative
        /// attack; XOR degrades to uninformed guessing).
        lock: LockSpec,
        /// The attack configuration. The engine forces `threads = 1` at run
        /// time (job-level parallelism happens above the attack).
        attack: autolock_attacks::MuxLinkConfig,
    },
    /// Run the AutoLock GA (D-MUX population, MuxLink-fitness evolution) on
    /// the circuit, writing a generation checkpoint after every step so a
    /// killed run resumes where it left off.
    Evolve {
        /// Number of key bits.
        key_len: usize,
        /// GA population size (≥ 2).
        population_size: usize,
        /// GA generation budget.
        generations: usize,
    },
    /// Run the AutoLock GA through the island-model engine: the population
    /// is split into ring-migrating subpopulations evolved in parallel, with
    /// a shared fingerprint-keyed fitness cache and (optionally) surrogate
    /// screening. Checkpoints per generation like [`JobKind::Evolve`], under
    /// `{id}.iga.json`; results are bit-identical for every thread count.
    EvolveIslands {
        /// Number of key bits.
        key_len: usize,
        /// Total GA population size, split across islands (≥ 2 per island).
        population_size: usize,
        /// GA generation budget (synchronous across islands).
        generations: usize,
        /// Number of islands (≥ 2).
        islands: usize,
        /// Generations between ring-migration rounds (≥ 1).
        migration_interval: usize,
        /// Individuals each island sends per migration round.
        migrants: usize,
        /// When `true`, the real fitness is the DGCNN-backend attack and a
        /// cheap MLP-backend surrogate screens each generation; when
        /// `false`, the MLP attack is the (sole) fitness, like
        /// [`JobKind::Evolve`].
        surrogate: bool,
    },
}

impl JobKind {
    /// Short, stable label used in the `attack` column of [`JobRow`]s that
    /// fail before the attack object exists (parse/lock errors).
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::SatAttack { .. } => "sat",
            JobKind::MuxLinkAttack { .. } => "muxlink",
            JobKind::Evolve { .. } | JobKind::EvolveIslands { .. } => "evolve",
        }
    }

    /// The key length the job requests.
    pub fn key_len(&self) -> usize {
        match self {
            JobKind::SatAttack { lock, .. } | JobKind::MuxLinkAttack { lock, .. } => lock.key_len(),
            JobKind::Evolve { key_len, .. } | JobKind::EvolveIslands { key_len, .. } => *key_len,
        }
    }
}

/// One job: a circuit source (self-contained, so the spec is serializable),
/// a seed, and what to do with it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job identifier; the resume protocol and checkpoint files key
    /// on it, so ids must be unique within a batch.
    pub id: String,
    /// Circuit name (used when parsing `source` and echoed in the row).
    pub circuit: String,
    /// The circuit source, `.bench` or ASCII AIGER — the engine ingests it
    /// through [`autolock_netlist::ingest::parse_auto`], which detects the
    /// format by content. Parsed at run time; a malformed source yields an
    /// `error` row rather than failing the batch.
    pub source: String,
    /// Per-job base seed: every stochastic component of the job derives
    /// from it, so the row is reproducible regardless of worker threading
    /// or kill/resume boundaries.
    pub seed: u64,
    /// How to lower a sequential source into the combinational attack
    /// target ([`SequentialHandling::Reject`] keeps the historical
    /// combinational-only behaviour and is what combinational specs use).
    pub sequential: SequentialHandling,
    /// What to do.
    pub kind: JobKind,
}

impl JobSpec {
    /// Ingests the source through the format-detecting front door
    /// ([`ingest::parse_auto`]), honouring the spec's sequential mode.
    ///
    /// # Errors
    ///
    /// Returns the parser's error for a malformed source.
    pub fn ingest(&self) -> autolock_netlist::Result<Ingested> {
        let opts = IngestOptions {
            sequential: self.sequential,
            ..IngestOptions::default()
        };
        ingest::parse_auto(&self.circuit, &self.source, &opts)
    }

    /// The [`AutoLockConfig`] an evolve job runs, seeded from the spec.
    ///
    /// Both kinds keep the AutoLock defaults (tournament selection, one-point
    /// crossover, composite mutation, D-MUX seeding) and run serially inside
    /// the job: the engine's worker pool is the parallelism level. A classic
    /// job keeps up to 2 elites and scores with the MLP-backend MuxLink
    /// attack. An island job keeps 1 elite per island, so even two-member
    /// islands keep breeding; with `surrogate` on, the DGCNN-backend attack
    /// is the real fitness and the MLP-backend attack screens each
    /// generation, both on one fitness cache.
    ///
    /// # Errors
    ///
    /// Returns a message when the job is not an evolve job, or is an island
    /// job with fewer than 2 islands. The rest of the validation is
    /// [`autolock::EvolutionJob::new`]'s.
    pub fn evolution_config(&self) -> Result<AutoLockConfig, String> {
        let base = AutoLockConfig {
            attack: MuxLinkConfig::fast().with_threads(1),
            parallel: false,
            seed: self.seed,
            ..AutoLockConfig::default()
        };
        match self.kind {
            JobKind::Evolve {
                key_len,
                population_size,
                generations,
            } => Ok(AutoLockConfig {
                key_len,
                population_size,
                generations,
                elitism: population_size.saturating_sub(1).min(2),
                ..base
            }),
            JobKind::EvolveIslands {
                key_len,
                population_size,
                generations,
                islands,
                migration_interval,
                migrants,
                surrogate,
            } => {
                if islands < 2 {
                    return Err(format!(
                        "invalid configuration: island jobs need at least 2 islands, got {islands}"
                    ));
                }
                Ok(AutoLockConfig {
                    key_len,
                    population_size,
                    generations,
                    elitism: 1,
                    islands: IslandConfig {
                        islands,
                        migration_interval,
                        migrants,
                        threads: 1,
                    },
                    attack: if surrogate {
                        MuxLinkConfig::gnn_fast().with_threads(1)
                    } else {
                        base.attack.clone()
                    },
                    surrogate: surrogate.then(|| base.attack.clone()),
                    ..base
                })
            }
            _ => Err(format!("job {} is not an evolve job", self.id)),
        }
    }
}

/// Terminal status of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// The job ran to a verdict.
    Ok,
    /// The job's attack gave up on a budget (deadline, propagation cap or
    /// iteration cap).
    Timeout,
    /// The job could not run (parse failure, locking failure, invalid
    /// parameters); `error` holds the message.
    Error,
}

/// One JSONL result row. Deliberately carries **no wall-clock fields** so a
/// resumed run's rows are bit-for-bit identical to an uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRow {
    /// The job's [`JobSpec::id`].
    pub job_id: String,
    /// Circuit name.
    pub circuit: String,
    /// Source format the circuit was ingested from (`"bench"` / `"aiger"`,
    /// the [`CircuitFormat::label`] values).
    pub format: String,
    /// Attack identity (`sat`, `muxlink`, `muxlink-gnn`, `evolve`, …).
    pub attack: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Key length attacked/evolved.
    pub key_len: usize,
    /// `true` when the attack reached a positive verdict (SAT: provably
    /// correct key; MuxLink/Evolve: ran to completion).
    pub success: bool,
    /// Key-recovery accuracy where the attack reports one (MuxLink), or the
    /// final MuxLink accuracy of the evolved locking (Evolve). `None` for
    /// SAT jobs (their verdict is functional, not per-bit).
    pub key_accuracy: Option<f64>,
    /// Work counter: SAT DIP iterations, or GA generations actually run.
    pub iterations: u64,
    /// Execution attempts consumed, reported **only** on poison-job rows —
    /// jobs that kept panicking or I/O-failing until the engine's retry
    /// budget ran out. `None` everywhere else (including jobs that succeeded
    /// on a retry), so transient faults never change row bytes.
    #[serde(default)]
    pub attempts: Option<u64>,
    /// Error message for [`JobStatus::Error`] rows.
    pub error: Option<String>,
}

/// Which job kinds [`jobs_from_dir`] emits per circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirJobKinds {
    /// Emit a SAT-attack job (id = file stem).
    pub sat: bool,
    /// Emit a MuxLink-attack job (id = `{stem}.muxlink`, D-MUX lock).
    pub muxlink: bool,
    /// Emit an AutoLock-GA job (id = `{stem}.evolve`).
    pub evolve: bool,
}

impl Default for DirJobKinds {
    /// SAT only — the historical `serve_dir` behaviour.
    fn default() -> Self {
        DirJobKinds {
            sat: true,
            muxlink: false,
            evolve: false,
        }
    }
}

/// Configuration for [`jobs_from_dir`]: which jobs to build per `.bench`
/// file, and their budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirJobConfig {
    /// Locking applied by the SAT job. MuxLink jobs always use a D-MUX lock
    /// of the same key length (XOR degrades MuxLink to uninformed guessing).
    pub lock: LockSpec,
    /// Base seed; each job's seed mixes its id into it, so adding or
    /// removing files (or enabling more kinds) never reshuffles the other
    /// jobs' draws.
    pub seed: u64,
    /// Wall-clock deadline per SAT job.
    pub timeout_ms: u64,
    /// Deterministic per-solve propagation cap (`None` = unbounded).
    pub max_propagations_per_solve: Option<u64>,
    /// DIP-iteration cap per SAT job.
    pub max_iterations: usize,
    /// Which job kinds to emit per circuit.
    pub kinds: DirJobKinds,
    /// GA population size for `evolve` jobs (≥ 2).
    pub evolve_population: usize,
    /// GA generation budget for `evolve` jobs.
    pub evolve_generations: usize,
    /// Islands for `evolve` jobs: `<= 1` emits classic [`JobKind::Evolve`]
    /// jobs; `> 1` emits [`JobKind::EvolveIslands`] jobs (migration every
    /// generation, one migrant) under the **same ids and seeds**, so
    /// enabling islands never reshuffles the other jobs' draws or rows.
    pub evolve_islands: usize,
    /// Frames for the unrolled variant of sequential circuits (≥ 1).
    /// Sequential sources produce **two** job families per configured kind —
    /// a register-cut variant under `{stem}.cut` and a time-frame-expanded
    /// one under `{stem}.u{frames}`; combinational sources keep the
    /// historical single family under the bare stem, with identical ids and
    /// seeds.
    pub unroll_frames: usize,
}

impl Default for DirJobConfig {
    fn default() -> Self {
        DirJobConfig {
            lock: LockSpec::Xor { key_len: 16 },
            seed: 0x05E4_11CE,
            timeout_ms: 60_000,
            max_propagations_per_solve: None,
            max_iterations: 2000,
            kinds: DirJobKinds::default(),
            evolve_population: 4,
            evolve_generations: 2,
            evolve_islands: 1,
            unroll_frames: 2,
        }
    }
}

/// Stable per-circuit seed: FNV-1a of the circuit name folded into the base
/// seed, so job draws depend only on (base seed, name).
fn mix_seed(base: u64, name: &str) -> u64 {
    base ^ autolock_obs::manifest::fnv1a(name.as_bytes())
}

/// Scans `dir` for circuit files — `*.bench` and ASCII AIGER `*.aag`,
/// sorted by file stem so the job order (and therefore the output row
/// order) is stable — and builds the configured job kinds per file: SAT
/// under the base id, MuxLink under `{base}.muxlink`, Evolve under
/// `{base}.evolve`.
///
/// Combinational circuits use the file stem as the base id, exactly as
/// before AIGER support existed, so existing `.bench` directories keep
/// their historical ids and seeds. A *sequential* circuit fans out into two
/// bases — `{stem}.cut` (register cut) and `{stem}.u{frames}` (time-frame
/// expansion with [`DirJobConfig::unroll_frames`]) — each carrying the
/// matching [`JobSpec::sequential`] mode.
///
/// Unreadable files and duplicate stems fail the scan; *malformed* files do
/// not — they parse at run time into `error` rows, which is what lets
/// `serve_dir` report one status row per instance and kind.
///
/// # Errors
///
/// Propagates directory-walk and file-read I/O errors; rejects two files
/// with the same stem (their job ids would collide).
pub fn jobs_from_dir(dir: &Path, config: &DirJobConfig) -> io::Result<Vec<JobSpec>> {
    let mut files: Vec<(String, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let ext = path.extension().and_then(|e| e.to_str());
        if matches!(ext, Some("bench") | Some("aag")) && path.is_file() {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                files.push((stem.to_string(), path));
            }
        }
    }
    files.sort();
    for pair in files.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "duplicate circuit stem `{}`: {} and {} would collide on job ids",
                    pair[0].0,
                    pair[0].1.display(),
                    pair[1].1.display()
                ),
            ));
        }
    }
    let mut jobs = Vec::new();
    for (name, path) in files {
        let source = std::fs::read_to_string(&path)?;
        let format = path
            .extension()
            .and_then(|e| e.to_str())
            .and_then(CircuitFormat::from_extension);
        // A parse failure here still emits jobs (under the combinational
        // base id): the engine re-parses at run time and reports the error
        // as a row instead of failing the whole scan.
        let latches = ingest::parse_sequential(&name, &source, format)
            .map(|seq| seq.num_latches())
            .unwrap_or(0);
        let variants: Vec<(String, SequentialHandling)> = if latches == 0 {
            vec![(name.clone(), SequentialHandling::Reject)]
        } else {
            vec![
                (format!("{name}.cut"), SequentialHandling::Cut),
                (
                    format!("{name}.u{}", config.unroll_frames),
                    SequentialHandling::Unroll {
                        frames: config.unroll_frames,
                    },
                ),
            ]
        };
        for (base, sequential) in variants {
            let mut push = |id: String, kind: JobKind| {
                jobs.push(JobSpec {
                    id: id.clone(),
                    circuit: name.clone(),
                    source: source.clone(),
                    seed: mix_seed(config.seed, &id),
                    sequential,
                    kind,
                });
            };
            if config.kinds.sat {
                push(
                    base.clone(),
                    JobKind::SatAttack {
                        lock: config.lock,
                        timeout_ms: config.timeout_ms,
                        max_propagations_per_solve: config.max_propagations_per_solve,
                        max_iterations: config.max_iterations,
                    },
                );
            }
            if config.kinds.muxlink {
                push(
                    format!("{base}.muxlink"),
                    JobKind::MuxLinkAttack {
                        lock: LockSpec::DMux {
                            key_len: config.lock.key_len(),
                        },
                        attack: autolock_attacks::MuxLinkConfig::fast(),
                    },
                );
            }
            if config.kinds.evolve {
                let kind = if config.evolve_islands > 1 {
                    JobKind::EvolveIslands {
                        key_len: config.lock.key_len(),
                        population_size: config.evolve_population,
                        generations: config.evolve_generations,
                        islands: config.evolve_islands,
                        migration_interval: 1,
                        migrants: 1,
                        surrogate: false,
                    }
                } else {
                    JobKind::Evolve {
                        key_len: config.lock.key_len(),
                        population_size: config.evolve_population,
                        generations: config.evolve_generations,
                    }
                };
                push(format!("{base}.evolve"), kind);
            }
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_seed_is_stable_and_name_sensitive() {
        assert_eq!(mix_seed(1, "c17"), mix_seed(1, "c17"));
        assert_ne!(mix_seed(1, "c17"), mix_seed(1, "c18"));
        assert_ne!(mix_seed(1, "c17"), mix_seed(2, "c17"));
    }

    #[test]
    fn kind_labels_and_key_lens() {
        let sat = JobKind::SatAttack {
            lock: LockSpec::Xor { key_len: 8 },
            timeout_ms: 1,
            max_propagations_per_solve: None,
            max_iterations: 1,
        };
        assert_eq!(sat.label(), "sat");
        assert_eq!(sat.key_len(), 8);
        let evolve = JobKind::Evolve {
            key_len: 4,
            population_size: 6,
            generations: 2,
        };
        assert_eq!(evolve.label(), "evolve");
        assert_eq!(evolve.key_len(), 4);
    }

    #[test]
    fn job_row_serde_round_trips() {
        let row = JobRow {
            job_id: "a".into(),
            circuit: "c17".into(),
            format: "bench".into(),
            attack: "sat".into(),
            status: JobStatus::Timeout,
            key_len: 8,
            success: false,
            key_accuracy: None,
            iterations: 3,
            attempts: None,
            error: None,
        };
        let json = serde_json::to_string(&row).unwrap();
        let back: JobRow = serde_json::from_str(&json).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn dir_kinds_default_to_sat_only() {
        let kinds = DirJobKinds::default();
        assert!(kinds.sat && !kinds.muxlink && !kinds.evolve);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("autolock_job_test_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mixed_dir_emits_stable_ids_and_sequential_variants() {
        let dir = scratch_dir("mixed");
        std::fs::write(dir.join("b1.bench"), "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        // Sequential AIGER: latch q, next = en AND q.
        std::fs::write(
            dir.join("s1.aag"),
            "aag 3 1 1 1 1\n2\n4 6\n4\n6 2 4\ni0 en\nl0 q\no0 out\nc\n",
        )
        .unwrap();
        let config = DirJobConfig {
            kinds: DirJobKinds {
                sat: true,
                muxlink: true,
                evolve: false,
            },
            ..DirJobConfig::default()
        };
        let jobs = jobs_from_dir(&dir, &config).unwrap();
        let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "b1",
                "b1.muxlink",
                "s1.cut",
                "s1.cut.muxlink",
                "s1.u2",
                "s1.u2.muxlink"
            ]
        );
        // Combinational `.bench` jobs keep the exact historical seed.
        assert_eq!(jobs[0].seed, mix_seed(config.seed, "b1"));
        assert_eq!(jobs[0].sequential, SequentialHandling::Reject);
        assert_eq!(jobs[2].sequential, SequentialHandling::Cut);
        assert_eq!(jobs[4].sequential, SequentialHandling::Unroll { frames: 2 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_only_dirs_keep_historical_job_lists() {
        let dir = scratch_dir("legacy");
        std::fs::write(dir.join("c1.bench"), "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        std::fs::write(dir.join("c2.bench"), "this is not valid\n").unwrap();
        let jobs = jobs_from_dir(&dir, &DirJobConfig::default()).unwrap();
        let ids: Vec<&str> = jobs.iter().map(|j| j.id.as_str()).collect();
        // Malformed c2 still yields a job (it becomes an error row at run
        // time), under the plain stem like before AIGER support.
        assert_eq!(ids, vec!["c1", "c2"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_stems_are_rejected() {
        let dir = scratch_dir("dup");
        std::fs::write(dir.join("x.bench"), "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        std::fs::write(dir.join("x.aag"), "aag 1 1 0 1 0\n2\n2\ni0 a\no0 y\nc\n").unwrap();
        let err = jobs_from_dir(&dir, &DirJobConfig::default()).unwrap_err();
        assert!(err.to_string().contains("duplicate circuit stem"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
