//! The job engine: sharded execution, JSONL streaming, resume, retries.

use crate::fault::{FaultKind, FaultPlan};
use crate::job::{JobKind, JobRow, JobSpec, JobStatus, LockSpec};
use crate::registry::{ModelRegistry, RegistryLookup};
use crate::store::{CheckpointStore, StoreRead};
use autolock::{AutoLockError, EvolutionJob};
use autolock_attacks::{
    netlist_fingerprint, MuxLinkAttack, MuxLinkConfig, ResumableSatAttack, SatAttack,
    SatAttackConfig,
};
use autolock_evo::Resumable;
use autolock_netlist::ingest::{CircuitFormat, SeqResolution};
use autolock_netlist::Netlist;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Configuration of a [`JobEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The JSONL result stream. Created if absent; existing rows in it are
    /// treated as already-finished jobs (the resume protocol).
    pub out_path: PathBuf,
    /// Directory for per-job checkpoints (created if absent): GA generation
    /// checkpoints and mid-solve SAT checkpoints, all framed records.
    pub checkpoint_dir: PathBuf,
    /// Where corrupt records and retry-exhausted job specs are moved for
    /// post-mortem (created if absent). Nothing in it is ever read back.
    pub quarantine_dir: PathBuf,
    /// Optional model-registry directory; when set, MuxLink jobs reuse
    /// cached trained models (bit-identical to retraining).
    pub registry_dir: Option<PathBuf>,
    /// Worker threads for the job fan-out (`0` = all cores, `1` = serial).
    /// Like every thread knob in this workspace it never changes results —
    /// callers typically pass the `AUTOLOCK_THREADS` value.
    pub threads: usize,
    /// Jobs dispatched per chunk. The engine holds at most one chunk of job
    /// results in memory and flushes rows to disk between chunks, so this
    /// bounds both peak memory and the worst-case work lost to a kill.
    pub chunk: usize,
    /// Execution attempts per job before it is declared poisoned: panicking
    /// or I/O-failing jobs are retried up to this many times total, then
    /// quarantined with a structured `error` row. Deterministic failures
    /// (parse/lock/parameter errors) are never retried. Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Mid-solve SAT checkpoint granule: SAT jobs pause their active solver
    /// call every this-many conflicts and persist the full attack state, so
    /// a kill mid-solve resumes the search (bit-identical) instead of
    /// restarting the job. `0` acts as `1`.
    pub sat_step_conflicts: u64,
    /// Deterministic fault-injection plan. [`FaultPlan::none`] in
    /// production; chaos tests arm torn writes, corrupt bytes, read errors
    /// and worker panics at named seams.
    pub faults: Arc<FaultPlan>,
}

impl EngineConfig {
    /// A configuration rooted at `dir`: rows in `dir/rows.jsonl`,
    /// checkpoints in `dir/checkpoints`, quarantine in `dir/quarantine`,
    /// registry in `dir/registry`; 3 attempts per job and a 20k-conflict
    /// SAT checkpoint granule.
    pub fn rooted(dir: &Path, threads: usize) -> Self {
        EngineConfig {
            out_path: dir.join("rows.jsonl"),
            checkpoint_dir: dir.join("checkpoints"),
            quarantine_dir: dir.join("quarantine"),
            registry_dir: Some(dir.join("registry")),
            threads,
            chunk: 8,
            max_attempts: 3,
            sat_step_conflicts: 20_000,
            faults: FaultPlan::none(),
        }
    }
}

/// A job failure, classified for the retry loop.
struct JobError {
    message: String,
    /// `true` for failures worth retrying (I/O errors, and panics are
    /// treated the same way by the caller); `false` for deterministic
    /// failures (parse/lock/parameter) that would fail identically again.
    poison: bool,
}

impl JobError {
    fn fatal(message: String) -> Self {
        JobError {
            message,
            poison: false,
        }
    }

    fn io(e: io::Error) -> Self {
        JobError {
            message: format!("io: {e}"),
            poison: true,
        }
    }
}

/// The persistence identity of one resumable job: its checkpoint name in
/// the store and the counters its resume/checkpoint events report to.
struct ResumeSite {
    name: String,
    resume_counter: &'static str,
    checkpoint_counter: &'static str,
}

/// The persistent job engine. See the crate docs for the contract; the
/// short version: `run` is restartable at any kill point and the final
/// stream is bit-for-bit independent of where (or whether) it was killed.
#[derive(Debug)]
pub struct JobEngine {
    config: EngineConfig,
    store: CheckpointStore,
    registry: Option<ModelRegistry>,
}

impl JobEngine {
    /// Creates the engine, creating the output/checkpoint/quarantine/
    /// registry directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(config: EngineConfig) -> io::Result<Self> {
        if let Some(parent) = config.out_path.parent() {
            fs::create_dir_all(parent)?;
        }
        let store = CheckpointStore::open(
            &config.checkpoint_dir,
            &config.quarantine_dir,
            config.faults.clone(),
        )?;
        let registry = match &config.registry_dir {
            Some(dir) => Some(ModelRegistry::open_with_faults(dir, config.faults.clone())?),
            None => None,
        };
        Ok(JobEngine {
            config,
            store,
            registry,
        })
    }

    /// The engine's model registry, when configured.
    pub fn registry(&self) -> Option<&ModelRegistry> {
        self.registry.as_ref()
    }

    /// The engine's checkpoint store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Runs every job in `jobs` that does not already have a row in the
    /// output stream, appending one flushed JSONL row per finished job, and
    /// finally rewrites the stream atomically in `jobs` order.
    ///
    /// Job ids must be unique within the batch. Returns the rows in `jobs`
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the result stream. Per-job failures never
    /// fail the batch — they become [`JobStatus::Error`] rows (after the
    /// configured retries, for panics and I/O errors).
    pub fn run(&self, jobs: &[JobSpec]) -> io::Result<Vec<JobRow>> {
        let _span = autolock_obs::span!("service.run");
        let mut done = read_rows(&self.config.out_path, &self.config.faults);
        autolock_obs::counter("service.jobs_resumed").add(done.len() as u64);

        // Compact the stream before appending: drops any torn final line a
        // kill may have left, and normalizes the already-done prefix to
        // batch order.
        let prefix: Vec<JobRow> = jobs
            .iter()
            .filter_map(|j| done.get(&j.id).cloned())
            .collect();
        write_rows_atomic(
            &self.config.out_path,
            &prefix,
            &self.config.faults,
            "rows.compact",
        )?;

        let pending: Vec<JobSpec> = jobs
            .iter()
            .filter(|j| !done.contains_key(&j.id))
            .cloned()
            .collect();
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.config.out_path)?;
        let mut out = BufWriter::new(file);
        for chunk in pending.chunks(self.config.chunk.max(1)) {
            let rows = autolock_mlcore::parallel::pooled_map(self.config.threads, chunk, |spec| {
                self.run_job(spec)
            });
            for row in rows {
                let mut line = serde_json::to_string(&row).expect("JobRow serializes to JSON");
                // Injected stream faults damage the line the way a kill
                // mid-append (torn) or a bad disk (corrupt) would. Byte 0 is
                // flipped for corruption so the line can never parse as a
                // different valid row.
                match self
                    .config
                    .faults
                    .check(&format!("rows.append:{}", row.job_id))
                {
                    Some(FaultKind::TornWrite) => line.truncate(line.len() / 2),
                    Some(FaultKind::CorruptBytes) => line.replace_range(0..1, "z"),
                    _ => {}
                }
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
                out.flush()?;
                autolock_obs::counter("service.jobs_completed").incr();
                done.insert(row.job_id.clone(), row);
            }
        }
        drop(out);

        let ordered: Vec<JobRow> = jobs
            .iter()
            .map(|j| {
                done.get(&j.id)
                    .cloned()
                    .expect("every job has a row after the run loop")
            })
            .collect();
        write_rows_atomic(
            &self.config.out_path,
            &ordered,
            &self.config.faults,
            "rows.finalize",
        )?;
        Ok(ordered)
    }

    /// Runs one job through the retry loop; failures become `error` rows,
    /// never panics/aborts of the batch. Panics and I/O errors are retried
    /// up to [`EngineConfig::max_attempts`] times; a job that exhausts its
    /// attempts is *poisoned*: its spec is quarantined and its row carries
    /// the attempt count. Deterministic failures are not retried and their
    /// rows carry no attempt count, so transient faults never change bytes.
    fn run_job(&self, spec: &JobSpec) -> JobRow {
        let _span = autolock_obs::span!("service.job");
        let max_attempts = u64::from(self.config.max_attempts.max(1));
        let mut attempt = 0u64;
        loop {
            attempt += 1;
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.config
                    .faults
                    .check_panic(&format!("exec:{}#{attempt}", spec.id));
                self.try_run(spec)
            }));
            let message = match result {
                Ok(Ok(row)) => return row,
                Ok(Err(err)) if !err.poison => return self.error_row(spec, None, err.message),
                Ok(Err(err)) => err.message,
                Err(panic) => format!("panic: {}", panic_message(panic.as_ref())),
            };
            if attempt < max_attempts {
                autolock_obs::counter("service.exec_retries").incr();
                continue;
            }
            // Poisoned: park the spec for post-mortem and report a
            // structured row. The quarantined copy is evidence, not state —
            // nothing ever reads it back.
            autolock_obs::counter("service.jobs_quarantined").incr();
            let spec_json = serde_json::to_string(spec).expect("JobSpec serializes to JSON");
            let _ = self
                .store
                .quarantine_bytes(&format!("{}.poison.json", spec.id), spec_json.as_bytes());
            return self.error_row(spec, Some(attempt), message);
        }
    }

    fn error_row(&self, spec: &JobSpec, attempts: Option<u64>, message: String) -> JobRow {
        JobRow {
            job_id: spec.id.clone(),
            circuit: spec.circuit.clone(),
            format: source_format(spec),
            attack: spec.kind.label().to_string(),
            status: JobStatus::Error,
            key_len: spec.kind.key_len(),
            success: false,
            key_accuracy: None,
            iterations: 0,
            attempts,
            error: Some(message),
        }
    }

    fn try_run(&self, spec: &JobSpec) -> Result<JobRow, JobError> {
        let ingested = spec
            .ingest()
            .map_err(|e| JobError::fatal(format!("parse: {e}")))?;
        autolock_obs::counter(match ingested.format {
            CircuitFormat::Bench => "service.ingest.bench",
            CircuitFormat::Aiger => "service.ingest.aiger",
        })
        .incr();
        match ingested.resolution {
            SeqResolution::Combinational => {}
            SeqResolution::Cut => autolock_obs::counter("service.ingest.cut").incr(),
            SeqResolution::Unrolled { .. } => {
                autolock_obs::counter("service.ingest.unrolled").incr()
            }
        }
        let netlist = ingested.netlist;
        match &spec.kind {
            JobKind::SatAttack {
                lock,
                timeout_ms,
                max_propagations_per_solve,
                max_iterations,
            } => self.run_sat(
                spec,
                &netlist,
                *lock,
                *timeout_ms,
                *max_propagations_per_solve,
                *max_iterations,
            ),
            JobKind::MuxLinkAttack { lock, attack } => {
                self.run_muxlink(spec, &netlist, *lock, attack)
            }
            JobKind::Evolve { .. } | JobKind::EvolveIslands { .. } => {
                self.run_evolve(spec, &netlist)
            }
        }
    }

    /// Drives any [`Resumable`] job through the engine's persistence
    /// protocol: restore the last checkpoint when a valid one exists (a
    /// parseable-but-invalid payload is quarantined and counted like any
    /// other corruption), persist a fresh checkpoint after init/restore and
    /// after every step, and finish. Because every implementation's
    /// continued run is bit-identical to an uninterrupted one, the produced
    /// output is independent of where (or whether) the previous process was
    /// killed.
    fn run_resumable<R: Resumable>(
        &self,
        job: &R,
        site: &ResumeSite,
    ) -> Result<R::Output, JobError> {
        let mut state = match self.load_resumable_checkpoint(job, &site.name)? {
            Some(state) => {
                autolock_obs::counter(site.resume_counter).incr();
                state
            }
            None => job.init_state(),
        };
        self.write_resumable_checkpoint(job, &state, site)?;
        while job.step(&mut state) {
            self.write_resumable_checkpoint(job, &state, site)?;
        }
        Ok(job.finish(state))
    }

    /// Reads and revives a [`Resumable`] checkpoint. `Ok(None)` when the job
    /// must start fresh: no checkpoint, a torn/corrupt frame (already
    /// quarantined by the store), or an intact frame whose payload fails to
    /// parse or to [`Resumable::restore`] — which is quarantined here, so
    /// corruption costs recomputation, never a panic and never a wrong row.
    fn load_resumable_checkpoint<R: Resumable>(
        &self,
        job: &R,
        name: &str,
    ) -> Result<Option<R::State>, JobError> {
        let payload = match self.store.read(name).map_err(JobError::io)? {
            StoreRead::Ok(payload) => payload,
            StoreRead::Absent | StoreRead::Corrupt => return Ok(None),
        };
        let revived = std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| serde_json::from_str::<R::Checkpoint>(text).ok())
            .and_then(|ckpt| job.restore(ckpt).ok());
        match revived {
            Some(state) => Ok(Some(state)),
            None => {
                autolock_obs::counter("service.store.corrupt").incr();
                let _ = self
                    .store
                    .quarantine_bytes(&format!("{name}.payload"), &payload);
                let _ = self.store.remove(name);
                Ok(None)
            }
        }
    }

    fn write_resumable_checkpoint<R: Resumable>(
        &self,
        job: &R,
        state: &R::State,
        site: &ResumeSite,
    ) -> Result<(), JobError> {
        let ckpt = job.checkpoint(state);
        let payload = serde_json::to_string(&ckpt).expect("checkpoint serializes to JSON");
        self.store
            .write(&site.name, payload.as_bytes())
            .map_err(JobError::io)?;
        autolock_obs::counter(site.checkpoint_counter).incr();
        Ok(())
    }

    /// The store name of a job's mid-solve SAT checkpoint.
    fn sat_checkpoint_name(job_id: &str) -> String {
        format!("{job_id}.sat.json")
    }

    fn run_sat(
        &self,
        spec: &JobSpec,
        netlist: &Netlist,
        lock: LockSpec,
        timeout_ms: u64,
        max_propagations_per_solve: Option<u64>,
        max_iterations: usize,
    ) -> Result<JobRow, JobError> {
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let locked = lock
            .apply(netlist, &mut rng)
            .map_err(|e| JobError::fatal(format!("lock: {e}")))?;
        let attack = SatAttack::new(SatAttackConfig {
            max_iterations,
            timeout_ms: u128::from(timeout_ms),
            max_propagations_per_solve,
            checkpoint_conflicts: Some(self.config.sat_step_conflicts),
        });
        // Persist the full attack state at every step boundary: after each
        // DIP/oracle exchange and — thanks to the conflict granule — *inside*
        // long miter/key solves, so a SIGKILL at any point loses at most one
        // granule of search.
        let job = ResumableSatAttack::new(&attack, &locked, netlist);
        let outcome = self.run_resumable(
            &job,
            &ResumeSite {
                name: Self::sat_checkpoint_name(&spec.id),
                resume_counter: "service.sat_resumes",
                checkpoint_counter: "service.sat_checkpoints",
            },
        )?;
        Ok(JobRow {
            job_id: spec.id.clone(),
            circuit: spec.circuit.clone(),
            format: source_format(spec),
            attack: "sat".to_string(),
            status: if outcome.gave_up {
                JobStatus::Timeout
            } else {
                JobStatus::Ok
            },
            key_len: outcome.key_len,
            success: outcome.success,
            key_accuracy: None,
            iterations: outcome.iterations as u64,
            attempts: None,
            error: None,
        })
    }

    fn run_muxlink(
        &self,
        spec: &JobSpec,
        netlist: &Netlist,
        lock: LockSpec,
        attack_config: &MuxLinkConfig,
    ) -> Result<JobRow, JobError> {
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let locked = lock
            .apply(netlist, &mut rng)
            .map_err(|e| JobError::fatal(format!("lock: {e}")))?;
        // Job-level parallelism lives above the attack (the engine's worker
        // pool), so each attack runs serially — the thread-knob precedence
        // rule from `MuxLinkConfig::threads`.
        let attack = MuxLinkAttack::new(attack_config.clone().with_threads(1));
        let model = match &self.registry {
            Some(registry) => {
                let key = ModelRegistry::model_key(
                    netlist_fingerprint(locked.netlist()),
                    attack.config(),
                    spec.seed,
                );
                // On a hit, burn the one RNG draw `train_model` would have
                // consumed to derive its training stream, so the scoring
                // draws line up and the row is bit-identical either way. A
                // corrupt entry is quarantined by `load_checked` and then
                // trains exactly like a miss — same draws, same row.
                match registry.load_checked(&key) {
                    RegistryLookup::Hit(model) => {
                        let _ = rng.next_u64();
                        *model
                    }
                    RegistryLookup::Miss | RegistryLookup::Corrupt => {
                        let model = attack.train_model(&locked, &mut rng);
                        if registry.store(&key, &model).is_err() {
                            autolock_obs::counter("service.registry.store_failures").incr();
                        }
                        model
                    }
                }
            }
            None => attack.train_model(&locked, &mut rng),
        };
        let (outcome, _scores) = attack.attack_with_model(&locked, &model, &mut rng);
        Ok(JobRow {
            job_id: spec.id.clone(),
            circuit: spec.circuit.clone(),
            format: source_format(spec),
            attack: outcome.attack.clone(),
            status: JobStatus::Ok,
            key_len: outcome.key_len,
            success: true,
            key_accuracy: Some(outcome.key_accuracy),
            iterations: 0,
            attempts: None,
            error: None,
        })
    }

    /// The store name of a job's GA checkpoint.
    fn ga_checkpoint_name(job_id: &str) -> String {
        format!("{job_id}.ga.json")
    }

    /// The path of a job's GA checkpoint.
    pub fn checkpoint_path(&self, job_id: &str) -> PathBuf {
        self.store.path(&Self::ga_checkpoint_name(job_id))
    }

    /// The store name of a job's island-GA checkpoint. Public so external
    /// drivers (the E14 bench experiment) can pre-seed a checkpoint through
    /// [`JobEngine::store`] exactly where the engine will look for it.
    pub fn island_checkpoint_name(job_id: &str) -> String {
        format!("{job_id}.iga.json")
    }

    /// Runs an evolve job ([`JobKind::Evolve`] or [`JobKind::EvolveIslands`])
    /// as an [`EvolutionJob`] through the [`Resumable`] protocol. The
    /// checkpoint (`{id}.ga.json`, or `{id}.iga.json` for island jobs)
    /// embeds the GA's RNG, so a resumed run is bit-identical to never
    /// having stopped; a torn or corrupt checkpoint is quarantined and the
    /// GA restarts from its seed — recomputation, not a panic, and the same
    /// final row. The row's `key_accuracy` is the attack accuracy of the
    /// best genotype (1 − fitness), `iterations` the number of generations
    /// actually evolved.
    fn run_evolve(&self, spec: &JobSpec, netlist: &Netlist) -> Result<JobRow, JobError> {
        let config = spec.evolution_config().map_err(JobError::fatal)?;
        let job = EvolutionJob::new(&config, netlist).map_err(|e| {
            JobError::fatal(match e {
                AutoLockError::Lock(e) => format!("lock: {e}"),
                e => e.to_string(),
            })
        })?;
        let name = match spec.kind {
            JobKind::EvolveIslands { .. } => Self::island_checkpoint_name(&spec.id),
            _ => Self::ga_checkpoint_name(&spec.id),
        };
        let outcome = self.run_resumable(
            &job,
            &ResumeSite {
                name,
                resume_counter: "service.evolve_resumes",
                checkpoint_counter: "service.evolve_checkpoints",
            },
        )?;
        let result = outcome.result;
        Ok(JobRow {
            job_id: spec.id.clone(),
            circuit: spec.circuit.clone(),
            format: source_format(spec),
            attack: "evolve".to_string(),
            status: JobStatus::Ok,
            key_len: config.key_len,
            success: true,
            key_accuracy: Some(1.0 - result.best_fitness),
            iterations: result.history.len().saturating_sub(1) as u64,
            attempts: None,
            error: None,
        })
    }
}

/// The `format` column of a spec's rows: the content sniff is exactly the
/// detection [`ingest::parse_auto`] applies, and it works even for sources
/// that later fail to parse (error rows report a format too).
fn source_format(spec: &JobSpec) -> String {
    CircuitFormat::sniff(&spec.source).label().to_string()
}

/// Best-effort human-readable payload of a caught panic.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Reads the resumable rows of an existing stream: one JSONL row per line,
/// keyed by job id. Unparseable lines (torn tails and corrupt lines a kill
/// or bad disk left) are skipped — their jobs simply rerun; duplicate ids
/// keep the first occurrence. An unreadable stream (injected `rows.read`
/// fault) degrades to an empty one: every job reruns and the stream heals.
fn read_rows(path: &Path, faults: &FaultPlan) -> HashMap<String, JobRow> {
    let mut rows = HashMap::new();
    if faults.check("rows.read") == Some(FaultKind::ReadError) {
        return rows;
    }
    let Ok(text) = fs::read_to_string(path) else {
        return rows;
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Ok(row) = serde_json::from_str::<JobRow>(line) {
            rows.entry(row.job_id.clone()).or_insert(row);
        }
    }
    rows
}

/// Atomically replaces `path` with the given rows, one JSON object per
/// line. An injected [`FaultKind::TornWrite`] at `site` simulates a kill
/// *before* the atomic rename: the rewrite silently does not happen and
/// the previous stream survives — exactly the guarantee the temp+rename
/// protocol provides under a real kill.
fn write_rows_atomic(
    path: &Path,
    rows: &[JobRow],
    faults: &FaultPlan,
    site: &str,
) -> io::Result<()> {
    if faults.check(site) == Some(FaultKind::TornWrite) {
        return Ok(());
    }
    let mut text = String::new();
    for row in rows {
        text.push_str(&serde_json::to_string(row).expect("JobRow serializes to JSON"));
        text.push('\n');
    }
    let tmp = path.with_extension("jsonl.tmp");
    fs::write(&tmp, text)?;
    fs::rename(&tmp, path)
}
