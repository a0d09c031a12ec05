//! The self-driving shard orchestrator: supervision, retry, straggler
//! re-issue and checkpoint/resume on top of the [`crate::shard`] contract.
//!
//! PR 5 made campaigns shard across processes and machines, but a human
//! ferried the files and a dead worker killed the run.  This module is
//! the control plane: [`orchestrate`] owns a [`ShardPlan`], hands each
//! shard to a worker through a [`ShardLauncher`], and supervises the
//! fleet with a small per-shard state machine
//! (`Pending → Issued → Retrying → Done`, see [`ShardState`]):
//!
//! * **Retry** — a failed attempt is retried up to a bounded budget
//!   ([`OrchestratorConfig::max_retries`]) with exponential backoff.
//! * **Straggler re-issue** — an attempt running past
//!   [`OrchestratorConfig::straggler_timeout`] gets a duplicate attempt;
//!   the first completed result wins and the loser is killed and
//!   discarded.  Because every trial is a pure function of
//!   `(spec, cell, seed)` and the merge is deterministic, retries and
//!   duplicates are always safe: any completed attempt of a shard
//!   produces the same bytes.
//! * **Checkpoint/resume** — each finished shard is atomically renamed to
//!   its canonical partial-archive name in the scratch directory.  On
//!   startup the orchestrator scans for surviving checkpoints, validates
//!   them with the same code the merge uses
//!   ([`ShardArchive::validate_for`]), and re-runs only what is missing —
//!   a killed orchestrator resumes instead of restarting.
//! * **Interim aggregates** — as shards land, per-cell success rates with
//!   95 % Wilson intervals are streamed for every newly-completed cell.
//!
//! Every supervision event is a structured [`RunEvent`].  The single
//! source of truth is the append-only JSONL **run manifest**
//! (`<spec>.manifest.jsonl`, format [`MANIFEST_FORMAT`]) next to the
//! checkpoints; the human-readable status stream (stderr in the CLI) is
//! *derived* from the same events by [`RunEvent::render`], so the two can
//! never drift apart.
//!
//! The final report is produced by [`crate::shard::merge_shard_files`]
//! streaming the checkpointed partials one at a time through per-cell
//! accumulators, so it is **byte-identical** to the in-process
//! [`crate::run_campaign`] run no matter how many failures, retries,
//! re-issues or resumes happened along the way — and the orchestrator
//! never holds more than one shard's records in memory at once.
//!
//! ## Checkpoint layout
//!
//! Everything lives flat in one scratch directory, named by the spec.
//! Partials are in the columnar wire format
//! ([`crate::columns::COLUMNS_FORMAT`], extension `.bin`):
//!
//! ```text
//! <spec>.shard-i-of-n.job.json                 shard job (input, rewritten on start)
//! <spec>.shard-i-of-n.part.bin                 checkpoint: a complete, validated partial
//! <spec>.shard-i-of-n.part.metrics.json        the checkpoint's telemetry sidecar
//! <spec>.shard-i-of-n.part.attempt-<nonce>-<k>.bin  in-flight attempt output
//! <spec>.shard-i-of-n.part.attempt-<nonce>-<k>.metrics.json  its in-flight sidecar
//! <spec>.manifest.jsonl                        append-only JSONL run manifest
//! ```
//!
//! Process workers (`repro shard-worker`) always write an `ivc-metrics-v1`
//! telemetry sidecar next to their attempt output
//! ([`crate::shard::metrics_sidecar_path`]).  The sidecar shares the
//! attempt file's fate: renamed with the checkpoint on acceptance, deleted
//! with a failed or duplicate attempt, resumed with a surviving
//! checkpoint — so after a run every partial checkpoint has a matching
//! `*.part.metrics.json` and the driver can merge them into one
//! fleet-wide metrics document.
//!
//! The canonical checkpoint name only ever holds a finished partial
//! that passed [`ShardArchive::validate_for`] — attempts write to their
//! own uniquely-named file and are renamed into place on success, so a
//! crash mid-write can never corrupt a checkpoint.

use crate::aggregate::wilson_interval;
use crate::error::{ExperimentError, Result};
use crate::grid::CampaignSpec;
use crate::shard::{
    merge_shard_files, metrics_sidecar_path, run_shard, shard_archive_file_name,
    shard_job_file_name, ShardArchive, ShardJob, ShardPlan,
};
use ivc_core::json::{u64_to_json, JsonValue};
use ivc_core::telemetry;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Environment variable carrying the attempt index to spawned workers
/// (0 for a shard's first attempt).  The `repro shard-worker` CLI reads
/// it so fault injection ([`ENV_FAULT_SHARD`]) can target first attempts
/// only.
pub const ENV_SHARD_ATTEMPT: &str = "IVC_SHARD_ATTEMPT";

/// Environment variable for CI fault injection: `IVC_FAULT_SHARD=<i>`
/// makes `repro shard-worker` exit non-zero on the **first** attempt at
/// shard `i`, so the retry path runs under a real process failure.
pub const ENV_FAULT_SHARD: &str = "IVC_FAULT_SHARD";

/// Where a shard is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Not yet issued to any worker.
    Pending,
    /// At least one attempt is in flight.
    Issued,
    /// The last attempt failed; waiting out the backoff before the next.
    Retrying,
    /// A validated partial is checkpointed; the shard is finished.
    Done,
}

/// Tuning knobs of the supervision loop.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Number of shards to partition the campaign into.  Must not exceed
    /// the campaign's job count: the orchestrator refuses plans with
    /// idle (empty) shards.
    pub num_shards: usize,
    /// Extra attempts a shard may consume after a failure before the
    /// whole run aborts (`0` = fail fast on the first worker failure).
    pub max_retries: usize,
    /// Base backoff before a retry; doubles with each consecutive
    /// failure of the same shard.
    pub retry_backoff: Duration,
    /// Re-issue a duplicate attempt when one runs longer than this
    /// (`None` = never; a shard keeps at most two attempts in flight).
    pub straggler_timeout: Option<Duration>,
    /// Cap on concurrently in-flight attempts across all shards.
    pub max_concurrent: usize,
    /// Sleep between supervision sweeps when nothing happened.
    pub poll_interval: Duration,
    /// Emit a heartbeat `progress` event when none has been emitted for
    /// this long (one is also emitted at startup and after every finished
    /// shard).
    pub progress_interval: Duration,
}

impl OrchestratorConfig {
    /// A conservative default supervision policy for `num_shards` shards:
    /// 2 retries with 500 ms base backoff, no straggler re-issue, every
    /// shard in flight at once.
    pub fn new(num_shards: usize) -> Self {
        OrchestratorConfig {
            num_shards,
            max_retries: 2,
            retry_backoff: Duration::from_millis(500),
            straggler_timeout: None,
            max_concurrent: num_shards,
            poll_interval: Duration::from_millis(25),
            progress_interval: Duration::from_secs(5),
        }
    }
}

/// The result of polling an in-flight attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptStatus {
    /// Still running.
    Running,
    /// Finished: `Ok` means the worker reported success and its partial
    /// should be at the attempt's output path; `Err` carries the failure.
    Exited(std::result::Result<(), String>),
}

/// One in-flight attempt at a shard, as seen by the supervisor.
pub trait ShardAttempt {
    /// Non-blocking status check.
    fn poll(&mut self) -> AttemptStatus;
    /// Terminates the attempt.  Polling after a kill must still report a
    /// completion that had already happened (so a duplicate that finished
    /// just as it was killed is drained, not lost).
    fn kill(&mut self);
}

/// Launches attempts at shards.  The orchestrator is agnostic about what
/// a worker is — a forked `repro shard-worker` process
/// ([`ProcessLauncher`]), an in-process thread ([`ThreadLauncher`]), or a
/// test mock — as long as a successful attempt leaves a loadable
/// [`ShardArchive`] at `out_path`.
pub trait ShardLauncher {
    /// Starts attempt number `attempt` (0-based) at `job`, whose job file
    /// has been written to `job_path`; the partial must be written to
    /// `out_path` on success.
    fn launch(
        &mut self,
        job: &ShardJob,
        job_path: &Path,
        attempt: usize,
        out_path: &Path,
    ) -> Result<Box<dyn ShardAttempt>>;
}

/// Launches each attempt as a forked worker process (normally the
/// `repro` binary re-entered through its `shard-worker` subcommand).
/// The attempt index travels in the [`ENV_SHARD_ATTEMPT`] environment
/// variable so fault injection can distinguish first attempts.
pub struct ProcessLauncher {
    worker_exe: PathBuf,
    workers_per_shard: usize,
}

impl ProcessLauncher {
    /// A launcher forking `worker_exe` with `workers_per_shard` threads
    /// per worker process.
    pub fn new(worker_exe: impl Into<PathBuf>, workers_per_shard: usize) -> Self {
        ProcessLauncher {
            worker_exe: worker_exe.into(),
            workers_per_shard: workers_per_shard.max(1),
        }
    }
}

struct ProcessAttempt {
    child: std::process::Child,
}

impl ShardAttempt for ProcessAttempt {
    fn poll(&mut self) -> AttemptStatus {
        match self.child.try_wait() {
            Ok(None) => AttemptStatus::Running,
            Ok(Some(status)) if status.success() => AttemptStatus::Exited(Ok(())),
            Ok(Some(status)) => AttemptStatus::Exited(Err(format!("worker exited with {status}"))),
            Err(e) => AttemptStatus::Exited(Err(format!("waiting for worker: {e}"))),
        }
    }

    fn kill(&mut self) {
        // Reap after the kill; `try_wait` then reports the cached status,
        // so an attempt that exited cleanly just before the kill still
        // drains as a completion.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl ShardLauncher for ProcessLauncher {
    fn launch(
        &mut self,
        job: &ShardJob,
        job_path: &Path,
        attempt: usize,
        out_path: &Path,
    ) -> Result<Box<dyn ShardAttempt>> {
        let child = std::process::Command::new(&self.worker_exe)
            .arg("shard-worker")
            .arg("--job")
            .arg(job_path)
            .arg("--out")
            .arg(out_path)
            .arg("--workers")
            .arg(self.workers_per_shard.to_string())
            .env(ENV_SHARD_ATTEMPT, attempt.to_string())
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| {
                ExperimentError::Orchestrate(format!(
                    "spawning worker for shard {}: {e}",
                    job.shard.shard_index
                ))
            })?;
        Ok(Box::new(ProcessAttempt { child }))
    }
}

/// Runs each attempt as an in-process thread calling
/// [`crate::shard::run_shard`].  Threads cannot be killed, so a
/// "killed" attempt is merely abandoned (it finishes in the background
/// and its output file is ignored) — fine for tests and single-machine
/// runs without process isolation.
pub struct ThreadLauncher {
    workers_per_shard: usize,
}

impl ThreadLauncher {
    /// A launcher running shards on `workers_per_shard` executor threads.
    pub fn new(workers_per_shard: usize) -> Self {
        ThreadLauncher {
            workers_per_shard: workers_per_shard.max(1),
        }
    }
}

struct ThreadAttempt {
    rx: std::sync::mpsc::Receiver<std::result::Result<(), String>>,
    outcome: Option<std::result::Result<(), String>>,
}

impl ShardAttempt for ThreadAttempt {
    fn poll(&mut self) -> AttemptStatus {
        if self.outcome.is_none() {
            match self.rx.try_recv() {
                Ok(result) => self.outcome = Some(result),
                Err(std::sync::mpsc::TryRecvError::Empty) => return AttemptStatus::Running,
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    self.outcome = Some(Err("worker thread died".to_string()))
                }
            }
        }
        AttemptStatus::Exited(self.outcome.clone().expect("outcome set above"))
    }

    fn kill(&mut self) {}
}

impl ShardLauncher for ThreadLauncher {
    fn launch(
        &mut self,
        job: &ShardJob,
        _job_path: &Path,
        _attempt: usize,
        out_path: &Path,
    ) -> Result<Box<dyn ShardAttempt>> {
        let job = job.clone();
        let out_path = out_path.to_path_buf();
        let workers = self.workers_per_shard;
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = run_shard(&job, workers)
                .and_then(|archive| archive.save(&out_path))
                .map_err(|e| e.to_string());
            let _ = tx.send(result);
        });
        Ok(Box::new(ThreadAttempt { rx, outcome: None }))
    }
}

/// Counters describing what the supervision loop actually did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrchestratorStats {
    /// Shards in the plan.
    pub shards: usize,
    /// Shards satisfied by checkpoints found on startup (resume).
    pub resumed: usize,
    /// Checkpoints found on startup that failed validation and were
    /// quarantined (their shards re-ran).
    pub invalid_checkpoints: usize,
    /// Attempts launched, including first attempts.
    pub launched: usize,
    /// Attempts launched because a previous attempt failed.
    pub retries: usize,
    /// Duplicate attempts issued because the running one straggled.
    pub reissues: usize,
    /// Completed results discarded because the shard was already done
    /// (the losing side of a straggler race).
    pub duplicate_results: usize,
}

/// A finished orchestrated campaign: the merged report (byte-identical
/// to the in-process run) plus the supervision counters.
#[derive(Debug, Clone)]
pub struct OrchestratorRun {
    /// The merged campaign report.
    pub report: crate::report::CampaignReport,
    /// What supervision did to get there.
    pub stats: OrchestratorStats,
}

/// Format tag of the per-run JSONL manifest (carried by the `run_start`
/// event on the manifest's first line).
pub const MANIFEST_FORMAT: &str = "ivc-run-manifest-v1";

/// The run-manifest file name an orchestrated run of `spec_name` writes
/// next to its checkpoints.
pub fn manifest_file_name(spec_name: &str) -> String {
    format!("{spec_name}.manifest.jsonl")
}

/// One structured supervision event: what the orchestrator did, when
/// (seconds since supervision started), with kind-specific fields.
///
/// Events are the single source of truth for run reporting: they are
/// appended verbatim (as JSON lines) to the run manifest, and the
/// human-readable status stream is derived from the same data by
/// [`RunEvent::render`].
#[derive(Debug, Clone)]
pub struct RunEvent {
    /// Seconds since the orchestrator started.
    pub t_s: f64,
    /// Event kind: `run_start`, `checkpoint_resumed`,
    /// `checkpoint_quarantined`, `plan_summary`, `shard_issued`,
    /// `shard_done`, `shard_failed`, `shard_retry`, `straggler_reissue`,
    /// `duplicate_discarded`, `cell_complete`, `progress`, `run_complete`
    /// or `run_failed`.
    pub kind: &'static str,
    /// Kind-specific fields, in emit order.
    pub fields: Vec<(&'static str, JsonValue)>,
}

impl RunEvent {
    fn field(&self, name: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    fn str_field(&self, name: &str) -> &str {
        self.field(name).and_then(JsonValue::as_str).unwrap_or("?")
    }

    fn u64_field(&self, name: &str) -> u64 {
        self.field(name).and_then(JsonValue::as_u64).unwrap_or(0)
    }

    fn f64_field(&self, name: &str) -> f64 {
        self.field(name).and_then(JsonValue::as_f64).unwrap_or(0.0)
    }

    /// The event as one manifest object: `t_s` and `kind` first, then the
    /// kind-specific fields.
    pub fn to_json(&self) -> JsonValue {
        let mut object = vec![
            ("t_s".to_string(), JsonValue::number(self.t_s)),
            ("kind".to_string(), JsonValue::string(self.kind)),
        ];
        object.extend(self.fields.iter().map(|(k, v)| (k.to_string(), v.clone())));
        JsonValue::Object(object)
    }

    /// The human status line for this event, derived entirely from the
    /// structured fields (no second formatting path to drift).
    pub fn render(&self) -> String {
        match self.kind {
            "run_start" => format!(
                "campaign '{}': supervising {} trial(s) in {} shard(s); manifest format {}",
                self.str_field("spec"),
                self.u64_field("trials"),
                self.u64_field("shards"),
                self.str_field("format")
            ),
            "checkpoint_resumed" => format!(
                "shard {}/{}: resumed from checkpoint ({} trial(s))",
                self.u64_field("shard"),
                self.u64_field("num_shards"),
                self.u64_field("trials")
            ),
            "checkpoint_quarantined" => format!(
                "shard {}: checkpoint rejected ({}); {} and re-running",
                self.u64_field("shard"),
                self.str_field("error"),
                match self.field("quarantine").and_then(JsonValue::as_str) {
                    Some(path) => format!("quarantined as {path}"),
                    None => "could not be quarantined".to_string(),
                }
            ),
            "plan_summary" => format!(
                "campaign '{}': {} trial(s) across {} shard(s); {} resumed, {} to run",
                self.str_field("spec"),
                self.u64_field("trials"),
                self.u64_field("shards"),
                self.u64_field("resumed"),
                self.u64_field("to_run")
            ),
            "shard_issued" => format!(
                "shard {} attempt {} issued ({} trial(s))",
                self.u64_field("shard"),
                self.u64_field("attempt"),
                self.u64_field("trials")
            ),
            "shard_done" => format!(
                "shard {}/{} done (attempt {}): {} trial(s) checkpointed [{}/{}]",
                self.u64_field("shard"),
                self.u64_field("total"),
                self.u64_field("attempt"),
                self.u64_field("trials"),
                self.u64_field("done"),
                self.u64_field("total")
            ),
            "shard_failed" => format!(
                "shard {} attempt {} failed ({}); a duplicate attempt is still running",
                self.u64_field("shard"),
                self.u64_field("attempt"),
                self.str_field("error")
            ),
            "shard_retry" => format!(
                "shard {} attempt {} failed ({}); retry {}/{} in {:.1?}",
                self.u64_field("shard"),
                self.u64_field("attempt"),
                self.str_field("error"),
                self.u64_field("retry"),
                self.u64_field("max_retries"),
                Duration::from_secs_f64(self.f64_field("backoff_s"))
            ),
            "straggler_reissue" => format!(
                "shard {} straggling past {:.1?}; re-issued as attempt {} (first completed \
                 result wins)",
                self.u64_field("shard"),
                Duration::from_secs_f64(self.f64_field("timeout_s")),
                self.u64_field("attempt")
            ),
            "duplicate_discarded" => format!(
                "shard {} attempt {}: duplicate completion discarded",
                self.u64_field("shard"),
                self.u64_field("attempt")
            ),
            "cell_complete" => format!(
                "cell {}/{} complete — {}: success {}/{} = {:.2} [95% CI {:.2}, {:.2}]",
                self.u64_field("cell"),
                self.u64_field("cells"),
                self.str_field("label"),
                self.u64_field("successes"),
                self.u64_field("trials"),
                self.f64_field("rate"),
                self.f64_field("ci_low"),
                self.f64_field("ci_high")
            ),
            "progress" => {
                let base = format!(
                    "progress: {}/{} trial(s) done",
                    self.u64_field("done"),
                    self.u64_field("total")
                );
                match self.field("eta_s").and_then(JsonValue::as_f64) {
                    Some(eta_s) => format!(
                        "{base}, {:.2} trial(s)/s, ETA {:.0}s",
                        self.f64_field("trials_per_s"),
                        eta_s
                    ),
                    None => base,
                }
            }
            "run_complete" => format!(
                "campaign '{}' complete: {} shard(s) ({} resumed), {} attempt(s) launched, \
                 {} retried, {} re-issued, {} duplicate result(s) discarded — {} trial(s) in \
                 {:.1}s ({:.2} trial(s)/s)",
                self.str_field("spec"),
                self.u64_field("shards"),
                self.u64_field("resumed"),
                self.u64_field("launched"),
                self.u64_field("retries"),
                self.u64_field("reissues"),
                self.u64_field("duplicates"),
                self.u64_field("trials_total"),
                self.f64_field("wall_s"),
                self.f64_field("trials_per_s")
            ),
            "run_failed" => format!(
                "shard {} failed {} time(s), retry budget of {} exhausted (last failure: {})",
                self.u64_field("shard"),
                self.u64_field("failures"),
                self.u64_field("max_retries"),
                self.str_field("error")
            ),
            other => other.to_string(),
        }
    }
}

/// The event sink: appends each event to the JSONL run manifest and
/// writes its derived human rendering to the caller's stream (stderr in
/// the CLI).
struct EventLog<'a> {
    start: Instant,
    stream: &'a mut dyn Write,
    manifest: Option<std::fs::File>,
}

impl EventLog<'_> {
    fn emit(&mut self, kind: &'static str, fields: Vec<(&'static str, JsonValue)>) {
        let event = RunEvent {
            t_s: self.start.elapsed().as_secs_f64(),
            kind,
            fields,
        };
        if let Some(manifest) = &mut self.manifest {
            let _ = manifest.write_all(event.to_json().to_json_string().as_bytes());
            let _ = manifest.write_all(b"\n");
        }
        let line = format!("[orchestrate +{:8.2}s] {}\n", event.t_s, event.render());
        let _ = self.stream.write_all(line.as_bytes());
        let _ = self.stream.flush();
    }
}

/// Per-shard bookkeeping of the supervision loop.
///
/// Deliberately **not** holding the shard's records: a validated partial
/// lives on disk at `checkpoint_path` until the final streaming merge.
/// Only the per-trial acceptance flags are kept (one bool per trial) so
/// the interim per-cell aggregates can stream without re-reading files.
struct Slot {
    job: ShardJob,
    job_path: PathBuf,
    checkpoint_path: PathBuf,
    state: ShardState,
    attempts_started: usize,
    failures: usize,
    /// Earliest instant the next retry may launch (backoff).
    not_before: Instant,
    /// `Some` once the shard is Done: `accepted[i]` for slot
    /// `start_job + i`.
    accepted: Option<Vec<bool>>,
}

/// One in-flight attempt.
struct Inflight {
    shard_index: usize,
    attempt: usize,
    out_path: PathBuf,
    started: Instant,
    handle: Box<dyn ShardAttempt>,
}

/// The attempt-output file name: the canonical checkpoint name plus a
/// `(run nonce, attempt)` suffix, so concurrent attempts — including
/// orphans of a killed previous orchestrator — never collide, and the
/// canonical name is only ever written by an atomic rename.
fn attempt_file_name(slot: &Slot, nonce: u32, attempt: usize) -> String {
    let base = slot
        .checkpoint_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let stem = base.strip_suffix(".bin").unwrap_or(&base);
    format!("{stem}.attempt-{nonce}-{attempt}.bin")
}

/// Runs one campaign under supervision: shards are issued to `launcher`,
/// failures retried, stragglers re-issued, finished partials checkpointed
/// into `scratch_dir`, and surviving checkpoints from a previous
/// (killed) run resumed.  Returns the merged report, byte-identical to
/// [`crate::run_campaign`] on the same spec.
pub fn orchestrate(
    spec: &CampaignSpec,
    config: &OrchestratorConfig,
    scratch_dir: &Path,
    launcher: &mut dyn ShardLauncher,
    status_stream: &mut dyn Write,
) -> Result<OrchestratorRun> {
    spec.validate()?;
    let num_jobs = spec.num_trials();
    if config.num_shards > num_jobs {
        return Err(ExperimentError::invalid(
            "shards",
            format!(
                "{} shards for a campaign of {num_jobs} trial(s) — every shard must own at \
                 least one trial (use at most {num_jobs})",
                config.num_shards
            ),
        ));
    }
    let _run_span = telemetry::span("orchestrate.run");
    let plan = ShardPlan::partition(spec, config.num_shards)?;
    std::fs::create_dir_all(scratch_dir)
        .map_err(|e| ExperimentError::Io(format!("creating {}: {e}", scratch_dir.display())))?;
    let manifest_path = scratch_dir.join(manifest_file_name(&spec.name));
    let mut status = EventLog {
        start: Instant::now(),
        stream: status_stream,
        manifest: std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&manifest_path)
            .ok(),
    };
    let nonce = std::process::id();
    let mut stats = OrchestratorStats {
        shards: plan.shards.len(),
        ..OrchestratorStats::default()
    };
    status.emit(
        "run_start",
        vec![
            ("format", JsonValue::string(MANIFEST_FORMAT)),
            ("spec", JsonValue::string(spec.name.clone())),
            ("trials", u64_to_json(num_jobs as u64)),
            ("shards", u64_to_json(plan.shards.len() as u64)),
        ],
    );

    // Write the job files and scan for checkpoints left by a previous
    // run: a valid one marks its shard Done, an invalid one is
    // quarantined and its shard re-runs.
    let now = Instant::now();
    let mut slots: Vec<Slot> = Vec::with_capacity(plan.shards.len());
    for job in plan.jobs() {
        let job_path = scratch_dir.join(shard_job_file_name(&spec.name, &job.shard));
        job.save(&job_path)?;
        let checkpoint_path = scratch_dir.join(shard_archive_file_name(&spec.name, &job.shard));
        let mut slot = Slot {
            job,
            job_path,
            checkpoint_path,
            state: ShardState::Pending,
            attempts_started: 0,
            failures: 0,
            not_before: now,
            accepted: None,
        };
        if slot.checkpoint_path.exists() {
            let loaded = ShardArchive::load(&slot.checkpoint_path).and_then(|partial| {
                partial.validate_for(&slot.job)?;
                Ok(partial)
            });
            match loaded {
                Ok(partial) => {
                    status.emit(
                        "checkpoint_resumed",
                        vec![
                            ("shard", u64_to_json(slot.job.shard.shard_index as u64)),
                            ("num_shards", u64_to_json(slot.job.shard.num_shards as u64)),
                            ("trials", u64_to_json(partial.records.len() as u64)),
                        ],
                    );
                    slot.accepted = Some(partial.records.iter().map(|r| r.accepted).collect());
                    slot.state = ShardState::Done;
                    stats.resumed += 1;
                    telemetry::add_count("orchestrate.resumed", 1);
                }
                Err(e) => {
                    stats.invalid_checkpoints += 1;
                    telemetry::add_count("orchestrate.checkpoints_quarantined", 1);
                    // The rejected checkpoint's telemetry sidecar (if any)
                    // is stale with it; the re-run writes a fresh one.
                    let _ = std::fs::remove_file(metrics_sidecar_path(&slot.checkpoint_path));
                    let quarantine = slot.checkpoint_path.with_file_name(format!(
                        "{}.invalid-{nonce}",
                        slot.checkpoint_path
                            .file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_default()
                    ));
                    let moved = std::fs::rename(&slot.checkpoint_path, &quarantine).is_ok();
                    status.emit(
                        "checkpoint_quarantined",
                        vec![
                            ("shard", u64_to_json(slot.job.shard.shard_index as u64)),
                            ("error", JsonValue::string(e.to_string())),
                            (
                                "quarantine",
                                if moved {
                                    JsonValue::string(quarantine.display().to_string())
                                } else {
                                    JsonValue::Null
                                },
                            ),
                        ],
                    );
                }
            }
        }
        slots.push(slot);
    }

    let total = slots.len();
    let mut done = slots.iter().filter(|s| s.state == ShardState::Done).count();
    status.emit(
        "plan_summary",
        vec![
            ("spec", JsonValue::string(spec.name.clone())),
            ("trials", u64_to_json(num_jobs as u64)),
            ("shards", u64_to_json(total as u64)),
            ("resumed", u64_to_json(done as u64)),
            ("to_run", u64_to_json((total - done) as u64)),
        ],
    );
    let cells = spec.cells();
    let mut reported_cells = vec![false; cells.len()];
    report_completed_cells(spec, &cells, &slots, &mut reported_cells, &mut status);

    // Progress/ETA bookkeeping: trials already covered by resumed
    // checkpoints are excluded from the throughput estimate, so the ETA
    // reflects what this run actually executes.
    let resumed_trials: usize = slots
        .iter()
        .filter(|s| s.state == ShardState::Done)
        .map(|s| s.job.shard.num_jobs())
        .sum();
    let mut done_trials = resumed_trials;
    emit_progress(&mut status, done_trials, num_jobs, resumed_trials);
    let mut last_progress = Instant::now();

    let max_concurrent = config.max_concurrent.max(1);
    let mut inflight: Vec<Inflight> = Vec::new();

    while done < total {
        let mut progressed = false;

        // 1. Poll in-flight attempts; completions checkpoint their shard
        //    and kill+drain any duplicate attempts of the same shard.
        let mut i = 0;
        while i < inflight.len() {
            let outcome = match inflight[i].handle.poll() {
                AttemptStatus::Running => {
                    i += 1;
                    continue;
                }
                AttemptStatus::Exited(outcome) => outcome,
            };
            let attempt = inflight.swap_remove(i);
            progressed = true;
            let failure = match outcome {
                Err(message) => Some(message),
                Ok(()) => {
                    if slots[attempt.shard_index].state == ShardState::Done {
                        // A duplicate landing after its shard finished:
                        // determinism makes it identical, so discard it.
                        stats.duplicate_results += 1;
                        telemetry::add_count("orchestrate.duplicates_discarded", 1);
                        let _ = std::fs::remove_file(&attempt.out_path);
                        let _ = std::fs::remove_file(metrics_sidecar_path(&attempt.out_path));
                        status.emit(
                            "duplicate_discarded",
                            vec![
                                ("shard", u64_to_json(attempt.shard_index as u64)),
                                ("attempt", u64_to_json(attempt.attempt as u64)),
                            ],
                        );
                        continue;
                    }
                    let slot = &mut slots[attempt.shard_index];
                    let loaded = ShardArchive::load(&attempt.out_path).and_then(|partial| {
                        partial.validate_for(&slot.job)?;
                        Ok(partial)
                    });
                    match loaded {
                        Ok(partial) => {
                            std::fs::rename(&attempt.out_path, &slot.checkpoint_path).map_err(
                                |e| {
                                    ExperimentError::Io(format!(
                                        "checkpointing shard {}: {e}",
                                        attempt.shard_index
                                    ))
                                },
                            )?;
                            // A process worker leaves a telemetry sidecar
                            // next to its attempt output; it follows the
                            // checkpoint (thread/mock launchers write
                            // none, so a missing sidecar is not an error
                            // here — only metrics collection cares).
                            let attempt_sidecar = metrics_sidecar_path(&attempt.out_path);
                            if attempt_sidecar.exists() {
                                let _ = std::fs::rename(
                                    &attempt_sidecar,
                                    metrics_sidecar_path(&slot.checkpoint_path),
                                );
                            }
                            slot.accepted =
                                Some(partial.records.iter().map(|r| r.accepted).collect());
                            slot.state = ShardState::Done;
                            done += 1;
                            done_trials += slot.job.shard.num_jobs();
                            telemetry::add_count("orchestrate.shards_done", 1);
                            status.emit(
                                "shard_done",
                                vec![
                                    ("shard", u64_to_json(attempt.shard_index as u64)),
                                    ("attempt", u64_to_json(attempt.attempt as u64)),
                                    ("trials", u64_to_json(slot.job.shard.num_jobs() as u64)),
                                    ("done", u64_to_json(done as u64)),
                                    ("total", u64_to_json(total as u64)),
                                ],
                            );
                            // First completed result wins: kill the
                            // duplicates, but drain one that finished in
                            // the same window.
                            let mut j = 0;
                            while j < inflight.len() {
                                if inflight[j].shard_index != attempt.shard_index {
                                    j += 1;
                                    continue;
                                }
                                let mut dup = inflight.swap_remove(j);
                                dup.handle.kill();
                                if let AttemptStatus::Exited(Ok(())) = dup.handle.poll() {
                                    stats.duplicate_results += 1;
                                    telemetry::add_count("orchestrate.duplicates_discarded", 1);
                                    status.emit(
                                        "duplicate_discarded",
                                        vec![
                                            ("shard", u64_to_json(dup.shard_index as u64)),
                                            ("attempt", u64_to_json(dup.attempt as u64)),
                                        ],
                                    );
                                }
                                let _ = std::fs::remove_file(&dup.out_path);
                                let _ = std::fs::remove_file(metrics_sidecar_path(&dup.out_path));
                            }
                            report_completed_cells(
                                spec,
                                &cells,
                                &slots,
                                &mut reported_cells,
                                &mut status,
                            );
                            emit_progress(&mut status, done_trials, num_jobs, resumed_trials);
                            last_progress = Instant::now();
                            None
                        }
                        // The worker exited 0 but its partial is missing
                        // or wrong: treat it exactly like a failure.
                        Err(e) => Some(format!("partial rejected: {e}")),
                    }
                }
            };
            if let Some(message) = failure {
                let _ = std::fs::remove_file(&attempt.out_path);
                let _ = std::fs::remove_file(metrics_sidecar_path(&attempt.out_path));
                let slot = &mut slots[attempt.shard_index];
                if slot.state == ShardState::Done {
                    continue; // a killed duplicate being reaped
                }
                slot.failures += 1;
                let others = inflight
                    .iter()
                    .any(|a| a.shard_index == attempt.shard_index);
                if slot.failures > config.max_retries && !others {
                    for a in &mut inflight {
                        a.handle.kill();
                    }
                    let event = RunEvent {
                        t_s: 0.0,
                        kind: "run_failed",
                        fields: vec![
                            ("shard", u64_to_json(attempt.shard_index as u64)),
                            ("failures", u64_to_json(slot.failures as u64)),
                            ("max_retries", u64_to_json(config.max_retries as u64)),
                            ("error", JsonValue::string(message)),
                        ],
                    };
                    let final_message = event.render();
                    status.emit("run_failed", event.fields);
                    return Err(ExperimentError::Orchestrate(final_message));
                }
                if others {
                    status.emit(
                        "shard_failed",
                        vec![
                            ("shard", u64_to_json(attempt.shard_index as u64)),
                            ("attempt", u64_to_json(attempt.attempt as u64)),
                            ("error", JsonValue::string(message)),
                        ],
                    );
                } else {
                    let exponent = (slot.failures - 1).min(6) as u32;
                    let backoff = config.retry_backoff.saturating_mul(1 << exponent);
                    slot.state = ShardState::Retrying;
                    slot.not_before = Instant::now() + backoff;
                    status.emit(
                        "shard_retry",
                        vec![
                            ("shard", u64_to_json(attempt.shard_index as u64)),
                            ("attempt", u64_to_json(attempt.attempt as u64)),
                            ("error", JsonValue::string(message)),
                            ("retry", u64_to_json(slot.failures as u64)),
                            ("max_retries", u64_to_json(config.max_retries as u64)),
                            ("backoff_s", JsonValue::number(backoff.as_secs_f64())),
                        ],
                    );
                }
            }
        }

        // 2. Straggler re-issue: a lone attempt past the deadline gets a
        //    duplicate (bounded to two in-flight attempts per shard).
        if let Some(timeout) = config.straggler_timeout {
            let now = Instant::now();
            let stragglers: Vec<usize> = inflight
                .iter()
                .filter(|a| {
                    slots[a.shard_index].state == ShardState::Issued
                        && now.duration_since(a.started) > timeout
                        && inflight
                            .iter()
                            .filter(|b| b.shard_index == a.shard_index)
                            .count()
                            == 1
                })
                .map(|a| a.shard_index)
                .collect();
            for shard_index in stragglers {
                if inflight.len() >= max_concurrent.max(2) {
                    break; // never let re-issues starve first attempts
                }
                let slot = &mut slots[shard_index];
                let attempt = slot.attempts_started;
                let out_path = scratch_dir.join(attempt_file_name(slot, nonce, attempt));
                let handle = launcher.launch(&slot.job, &slot.job_path, attempt, &out_path)?;
                slot.attempts_started += 1;
                stats.launched += 1;
                stats.reissues += 1;
                telemetry::add_count("orchestrate.launched", 1);
                telemetry::add_count("orchestrate.reissues", 1);
                status.emit(
                    "straggler_reissue",
                    vec![
                        ("shard", u64_to_json(shard_index as u64)),
                        ("attempt", u64_to_json(attempt as u64)),
                        ("timeout_s", JsonValue::number(timeout.as_secs_f64())),
                    ],
                );
                inflight.push(Inflight {
                    shard_index,
                    attempt,
                    out_path,
                    started: Instant::now(),
                    handle,
                });
                progressed = true;
            }
        }

        // 3. Issue new attempts while there is capacity.
        for (shard_index, slot) in slots.iter_mut().enumerate() {
            if inflight.len() >= max_concurrent {
                break;
            }
            let now = Instant::now();
            let eligible = match slot.state {
                ShardState::Pending => true,
                ShardState::Retrying => now >= slot.not_before,
                ShardState::Issued | ShardState::Done => false,
            };
            if !eligible {
                continue;
            }
            let retry = slot.state == ShardState::Retrying;
            let attempt = slot.attempts_started;
            let out_path = scratch_dir.join(attempt_file_name(slot, nonce, attempt));
            let handle = launcher.launch(&slot.job, &slot.job_path, attempt, &out_path)?;
            slot.attempts_started += 1;
            slot.state = ShardState::Issued;
            stats.launched += 1;
            telemetry::add_count("orchestrate.launched", 1);
            if retry {
                stats.retries += 1;
                telemetry::add_count("orchestrate.retries", 1);
            }
            status.emit(
                "shard_issued",
                vec![
                    ("shard", u64_to_json(shard_index as u64)),
                    ("attempt", u64_to_json(attempt as u64)),
                    ("trials", u64_to_json(slot.job.shard.num_jobs() as u64)),
                ],
            );
            inflight.push(Inflight {
                shard_index,
                attempt,
                out_path,
                started: Instant::now(),
                handle,
            });
            progressed = true;
        }

        // Heartbeat: long-running shards would otherwise leave the
        // manifest silent between completions.
        if last_progress.elapsed() >= config.progress_interval {
            emit_progress(&mut status, done_trials, num_jobs, resumed_trials);
            last_progress = Instant::now();
        }

        if !progressed {
            std::thread::sleep(config.poll_interval);
        }
    }

    // Stream the final merge from the checkpoint files: each partial is
    // loaded, folded into the per-cell accumulators and dropped before
    // the next one — the old gather-then-clone path held every record
    // twice.
    let checkpoint_paths: Vec<PathBuf> = slots.iter().map(|s| s.checkpoint_path.clone()).collect();
    let report = merge_shard_files(&checkpoint_paths)?;
    let wall_s = status.start.elapsed().as_secs_f64();
    let trials_per_s = if wall_s > 0.0 {
        num_jobs as f64 / wall_s
    } else {
        0.0
    };
    status.emit(
        "run_complete",
        vec![
            ("spec", JsonValue::string(spec.name.clone())),
            ("shards", u64_to_json(stats.shards as u64)),
            ("resumed", u64_to_json(stats.resumed as u64)),
            ("launched", u64_to_json(stats.launched as u64)),
            ("retries", u64_to_json(stats.retries as u64)),
            ("reissues", u64_to_json(stats.reissues as u64)),
            ("duplicates", u64_to_json(stats.duplicate_results as u64)),
            ("wall_s", JsonValue::number(wall_s)),
            ("trials_total", u64_to_json(num_jobs as u64)),
            ("trials_per_s", JsonValue::number(trials_per_s)),
        ],
    );
    Ok(OrchestratorRun { report, stats })
}

/// Emits one `progress` event: slots done over the total, plus
/// throughput and ETA once this run has completed slots of its own
/// (resumed checkpoints land instantly and would inflate the estimate,
/// so they count toward `done` but not toward the rate).
fn emit_progress(
    status: &mut EventLog<'_>,
    done_trials: usize,
    total_trials: usize,
    resumed: usize,
) {
    let elapsed = status.start.elapsed().as_secs_f64();
    let fresh = done_trials.saturating_sub(resumed);
    let mut fields = vec![
        ("done", u64_to_json(done_trials as u64)),
        ("total", u64_to_json(total_trials as u64)),
    ];
    if fresh > 0 && elapsed > 0.0 {
        let rate = fresh as f64 / elapsed;
        fields.push(("trials_per_s", JsonValue::number(rate)));
        let remaining = total_trials.saturating_sub(done_trials);
        fields.push(("eta_s", JsonValue::number(remaining as f64 / rate)));
    }
    status.emit("progress", fields);
}

/// Streams the interim aggregate for every cell that has just become
/// fully covered by Done shards: success counts with the 95 % Wilson
/// interval, computed from the checkpointed records.
fn report_completed_cells(
    spec: &CampaignSpec,
    cells: &[crate::grid::CellSpec],
    slots: &[Slot],
    reported: &mut [bool],
    status: &mut EventLog<'_>,
) {
    let trials_per_cell = spec.trials_per_cell;
    for (cell_index, cell) in cells.iter().enumerate() {
        if reported[cell_index] {
            continue;
        }
        let start = cell_index * trials_per_cell;
        let end = start + trials_per_cell;
        let covered = slots
            .iter()
            .filter(|s| s.job.shard.start_job < end && s.job.shard.end_job > start)
            .all(|s| s.state == ShardState::Done);
        if !covered {
            continue;
        }
        let mut successes = 0;
        let mut trials = 0;
        for slot in slots {
            let range = &slot.job.shard;
            let (lo, hi) = (range.start_job.max(start), range.end_job.min(end));
            if lo >= hi {
                continue;
            }
            let accepted = slot.accepted.as_ref().expect("covered shards are done");
            for slot_index in lo..hi {
                trials += 1;
                if accepted[slot_index - range.start_job] {
                    successes += 1;
                }
            }
        }
        let (ci_low, ci_high) = wilson_interval(successes, trials);
        let rate = if trials == 0 {
            0.0
        } else {
            successes as f64 / trials as f64
        };
        status.emit(
            "cell_complete",
            vec![
                ("cell", u64_to_json(cell_index as u64 + 1)),
                ("cells", u64_to_json(cells.len() as u64)),
                ("label", JsonValue::string(spec.cell_label(cell))),
                ("successes", u64_to_json(successes as u64)),
                ("trials", u64_to_json(trials as u64)),
                ("rate", JsonValue::number(rate)),
                ("ci_low", JsonValue::number(ci_low)),
                ("ci_high", JsonValue::number(ci_high)),
            ],
        );
        reported[cell_index] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TrialRecord;
    use crate::grid::DeliverySpec;
    use crate::shard::merge_shards;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    fn spec_with(cells: usize, trials_per_cell: usize) -> CampaignSpec {
        CampaignSpec {
            deliveries: (0..cells)
                .map(|i| DeliverySpec::array(format!("array {i}"), 4 + i, 40.0, 40_000.0))
                .collect(),
            trials_per_cell,
            ..CampaignSpec::new("orchestrated")
        }
    }

    /// A fabricated-but-valid partial for one shard of `spec` — records
    /// agree with their slots, so it passes `validate_for` and merges.
    fn fabricated_partial(spec: &CampaignSpec, job: &ShardJob) -> ShardArchive {
        let trials_per_cell = spec.trials_per_cell;
        ShardArchive {
            spec: spec.clone(),
            shard: job.shard,
            records: (job.shard.start_job..job.shard.end_job)
                .map(|slot| TrialRecord {
                    cell_index: slot / trials_per_cell,
                    trial_index: slot % trials_per_cell,
                    seed: spec.trial_seed(slot % trials_per_cell),
                    accepted: slot % 2 == 0,
                    word_accuracy: 0.75,
                    recognized_words: vec![],
                    bystander_spl_db: None,
                    bystander_spl_dba: None,
                    bystander_voice_spl_db: None,
                    leak_audible: None,
                    power_shortfall_w: 0.0,
                    defense_features: vec![0.0; 4],
                    detection_probability: None,
                    recording_band_summary_db: None,
                })
                .collect(),
        }
    }

    /// What a scripted mock attempt should do.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Behavior {
        /// Write the partial and exit 0 on the first poll.
        Ok,
        /// Exit non-zero on the first poll.
        Fail,
        /// Run forever (until killed).
        Hang,
        /// Run until killed, at which point the partial turns out to
        /// have completed successfully — the deterministic script of the
        /// "duplicate finished just as it was killed" race.
        OkOnKill,
    }

    struct MockAttempt {
        behavior: Behavior,
        payload: Vec<u8>,
        out_path: PathBuf,
        finished: bool,
        killed: bool,
    }

    impl ShardAttempt for MockAttempt {
        fn poll(&mut self) -> AttemptStatus {
            match self.behavior {
                Behavior::Ok => {
                    if !self.finished {
                        std::fs::write(&self.out_path, &self.payload).unwrap();
                        self.finished = true;
                    }
                    AttemptStatus::Exited(Ok(()))
                }
                Behavior::Fail => AttemptStatus::Exited(Err("scripted failure".to_string())),
                Behavior::Hang => {
                    if self.killed {
                        AttemptStatus::Exited(Err("killed".to_string()))
                    } else {
                        AttemptStatus::Running
                    }
                }
                Behavior::OkOnKill => {
                    if self.finished {
                        AttemptStatus::Exited(Ok(()))
                    } else {
                        AttemptStatus::Running
                    }
                }
            }
        }

        fn kill(&mut self) {
            self.killed = true;
            if self.behavior == Behavior::OkOnKill {
                std::fs::write(&self.out_path, &self.payload).unwrap();
                self.finished = true;
            }
        }
    }

    /// Scripted launcher: behavior per `(shard, attempt)` (default
    /// [`Behavior::Ok`]), recording every launch it was asked for.
    struct MockLauncher {
        spec: CampaignSpec,
        scripts: HashMap<(usize, usize), Behavior>,
        launches: Rc<RefCell<Vec<(usize, usize)>>>,
    }

    impl MockLauncher {
        fn new(spec: &CampaignSpec, scripts: &[((usize, usize), Behavior)]) -> Self {
            MockLauncher {
                spec: spec.clone(),
                scripts: scripts.iter().copied().collect(),
                launches: Rc::new(RefCell::new(Vec::new())),
            }
        }
    }

    impl ShardLauncher for MockLauncher {
        fn launch(
            &mut self,
            job: &ShardJob,
            _job_path: &Path,
            attempt: usize,
            out_path: &Path,
        ) -> Result<Box<dyn ShardAttempt>> {
            let key = (job.shard.shard_index, attempt);
            self.launches.borrow_mut().push(key);
            let behavior = self.scripts.get(&key).copied().unwrap_or(Behavior::Ok);
            Ok(Box::new(MockAttempt {
                behavior,
                payload: fabricated_partial(&self.spec, job).to_column_bytes(),
                out_path: out_path.to_path_buf(),
                finished: false,
                killed: false,
            }))
        }
    }

    fn test_scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ivc-orchestrate-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fast_config(num_shards: usize) -> OrchestratorConfig {
        OrchestratorConfig {
            retry_backoff: Duration::from_millis(1),
            poll_interval: Duration::from_millis(1),
            ..OrchestratorConfig::new(num_shards)
        }
    }

    /// The report an orchestrated run of the mocked campaign must equal:
    /// the merge of the fabricated partials.
    fn expected_report(spec: &CampaignSpec, num_shards: usize) -> String {
        let plan = ShardPlan::partition(spec, num_shards).unwrap();
        let partials: Vec<ShardArchive> = plan
            .jobs()
            .iter()
            .map(|job| fabricated_partial(spec, job))
            .collect();
        merge_shards(partials).unwrap().to_json_string()
    }

    #[test]
    fn healthy_shards_run_once_and_merge_byte_identically() {
        let spec = spec_with(2, 2);
        let scratch = test_scratch("healthy");
        let mut launcher = MockLauncher::new(&spec, &[]);
        let launches = Rc::clone(&launcher.launches);
        let mut status = Vec::new();
        let run = orchestrate(&spec, &fast_config(2), &scratch, &mut launcher, &mut status)
            .expect("healthy run");
        assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
        assert_eq!(run.stats.launched, 2);
        assert_eq!(run.stats.retries, 0);
        assert_eq!(run.stats.reissues, 0);
        assert_eq!(run.stats.resumed, 0);
        assert_eq!(&*launches.borrow(), &[(0, 0), (1, 0)]);
        // Checkpoints were written under the canonical names.
        for shard in &ShardPlan::partition(&spec, 2).unwrap().shards {
            assert!(scratch
                .join(shard_archive_file_name(&spec.name, shard))
                .exists());
        }
        // The interim aggregate stream reported every cell with a CI.
        let text = String::from_utf8(status).unwrap();
        assert!(text.contains("cell 1/2 complete"), "{text}");
        assert!(text.contains("cell 2/2 complete"), "{text}");
        assert!(text.contains("95% CI"), "{text}");
        // The run manifest holds the same events as structured JSONL:
        // every line parses, the first carries the format tag, and the
        // lifecycle kinds are all present.
        let manifest =
            std::fs::read_to_string(scratch.join(manifest_file_name(&spec.name))).unwrap();
        let events: Vec<JsonValue> = manifest
            .lines()
            .map(|line| JsonValue::parse(line).expect("manifest line parses"))
            .collect();
        assert_eq!(
            events[0].get("kind").and_then(JsonValue::as_str),
            Some("run_start")
        );
        assert_eq!(
            events[0].get("format").and_then(JsonValue::as_str),
            Some(MANIFEST_FORMAT)
        );
        for kind in [
            "plan_summary",
            "shard_issued",
            "shard_done",
            "cell_complete",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("kind").and_then(JsonValue::as_str) == Some(kind)),
                "manifest is missing a {kind} event"
            );
        }
        assert_eq!(
            events
                .last()
                .unwrap()
                .get("kind")
                .and_then(JsonValue::as_str),
            Some("run_complete")
        );
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn failed_shard_is_retried_and_the_bytes_still_match() {
        let spec = spec_with(2, 2);
        let scratch = test_scratch("retry");
        let mut launcher = MockLauncher::new(&spec, &[((1, 0), Behavior::Fail)]);
        let launches = Rc::clone(&launcher.launches);
        let mut status = Vec::new();
        let run = orchestrate(&spec, &fast_config(2), &scratch, &mut launcher, &mut status)
            .expect("retried run");
        assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
        assert_eq!(run.stats.retries, 1);
        assert_eq!(run.stats.launched, 3);
        assert!(launches.borrow().contains(&(1, 1)), "retry was launched");
        let text = String::from_utf8(status).unwrap();
        assert!(text.contains("retry 1/2"), "{text}");
        // The manifest records the retry as a structured event.
        let manifest =
            std::fs::read_to_string(scratch.join(manifest_file_name(&spec.name))).unwrap();
        let retry = manifest
            .lines()
            .map(|line| JsonValue::parse(line).unwrap())
            .find(|e| e.get("kind").and_then(JsonValue::as_str) == Some("shard_retry"))
            .expect("manifest records the retry");
        assert_eq!(retry.get("shard").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(retry.get("retry").and_then(JsonValue::as_u64), Some(1));
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn exhausted_retry_budget_aborts_with_the_shard_named() {
        let spec = spec_with(2, 1);
        let scratch = test_scratch("budget");
        let mut launcher =
            MockLauncher::new(&spec, &[((0, 0), Behavior::Fail), ((0, 1), Behavior::Fail)]);
        let config = OrchestratorConfig {
            max_retries: 1,
            ..fast_config(2)
        };
        let mut status = Vec::new();
        let err = orchestrate(&spec, &config, &scratch, &mut launcher, &mut status)
            .expect_err("budget exhausted");
        let message = err.to_string();
        assert!(message.contains("shard 0"), "{message}");
        assert!(message.contains("retry budget"), "{message}");
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn straggler_is_reissued_and_the_first_completed_result_wins() {
        let spec = spec_with(2, 1);
        let scratch = test_scratch("straggler");
        // Shard 0's first attempt hangs forever; the re-issue succeeds.
        let mut launcher = MockLauncher::new(&spec, &[((0, 0), Behavior::Hang)]);
        let config = OrchestratorConfig {
            straggler_timeout: Some(Duration::from_millis(20)),
            ..fast_config(2)
        };
        let mut status = Vec::new();
        let run = orchestrate(&spec, &config, &scratch, &mut launcher, &mut status)
            .expect("straggler run");
        assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
        assert_eq!(run.stats.reissues, 1);
        assert_eq!(run.stats.duplicate_results, 0);
        let text = String::from_utf8(status).unwrap();
        assert!(text.contains("straggling"), "{text}");
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn duplicate_completion_is_discarded_not_merged_twice() {
        let spec = spec_with(2, 1);
        let scratch = test_scratch("duplicate");
        // Shard 0's first attempt completes exactly as it is killed —
        // the scripted version of the duplicate-completion race.  The
        // re-issue wins; the original's result must be drained and
        // discarded, never merged twice.
        let mut launcher = MockLauncher::new(&spec, &[((0, 0), Behavior::OkOnKill)]);
        let config = OrchestratorConfig {
            straggler_timeout: Some(Duration::from_millis(20)),
            ..fast_config(2)
        };
        let mut status = Vec::new();
        let run = orchestrate(&spec, &config, &scratch, &mut launcher, &mut status)
            .expect("duplicate run");
        assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
        assert_eq!(run.stats.reissues, 1);
        assert_eq!(run.stats.duplicate_results, 1);
        // Only the canonical checkpoints remain — no stray attempt files.
        let stray: Vec<String> = std::fs::read_dir(&scratch)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".attempt-"))
            .collect();
        assert!(stray.is_empty(), "stray attempt files: {stray:?}");
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn resume_skips_valid_checkpoints_and_quarantines_corrupt_ones() {
        let spec = spec_with(2, 2);
        let scratch = test_scratch("resume");
        let plan = ShardPlan::partition(&spec, 2).unwrap();
        // Shard 0: a valid surviving checkpoint.  Shard 1: garbage.
        fabricated_partial(&spec, &plan.jobs()[0])
            .save(&scratch.join(shard_archive_file_name(&spec.name, &plan.shards[0])))
            .unwrap();
        std::fs::write(
            scratch.join(shard_archive_file_name(&spec.name, &plan.shards[1])),
            "not a partial at all",
        )
        .unwrap();
        let mut launcher = MockLauncher::new(&spec, &[]);
        let launches = Rc::clone(&launcher.launches);
        let mut status = Vec::new();
        let run = orchestrate(&spec, &fast_config(2), &scratch, &mut launcher, &mut status)
            .expect("resumed run");
        assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
        assert_eq!(run.stats.resumed, 1);
        assert_eq!(run.stats.invalid_checkpoints, 1);
        assert_eq!(
            &*launches.borrow(),
            &[(1, 0)],
            "only the shard without a valid checkpoint may run"
        );
        let text = String::from_utf8(status).unwrap();
        assert!(text.contains("resumed from checkpoint"), "{text}");
        assert!(text.contains("checkpoint rejected"), "{text}");
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn checkpoint_from_a_different_spec_is_rejected_on_resume() {
        let spec = spec_with(2, 2);
        let scratch = test_scratch("foreign");
        let plan = ShardPlan::partition(&spec, 2).unwrap();
        // A checkpoint fabricated from a *different* spec under shard 0's
        // canonical name: validate_for must reject it and the shard must
        // re-run.
        let mut foreign = spec_with(2, 2);
        foreign.name = "someone-else".to_string();
        foreign.base_seed = 99;
        let foreign_plan = ShardPlan::partition(&foreign, 2).unwrap();
        let mut partial = fabricated_partial(&foreign, &foreign_plan.jobs()[0]);
        partial.spec = foreign;
        partial
            .save(&scratch.join(shard_archive_file_name(&spec.name, &plan.shards[0])))
            .unwrap();
        let mut launcher = MockLauncher::new(&spec, &[]);
        let mut status = Vec::new();
        let run = orchestrate(&spec, &fast_config(2), &scratch, &mut launcher, &mut status)
            .expect("run after rejecting the foreign checkpoint");
        assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
        assert_eq!(run.stats.resumed, 0);
        assert_eq!(run.stats.invalid_checkpoints, 1);
        std::fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn oversharded_plans_are_refused_up_front() {
        let spec = spec_with(2, 1); // 2 jobs
        let scratch = test_scratch("overshard");
        let mut launcher = MockLauncher::new(&spec, &[]);
        let mut status = Vec::new();
        let err = orchestrate(&spec, &fast_config(5), &scratch, &mut launcher, &mut status)
            .expect_err("5 shards for 2 jobs");
        let message = err.to_string();
        assert!(message.contains("at least one trial"), "{message}");
        assert!(message.contains('2'), "{message}");
        std::fs::remove_dir_all(&scratch).ok();
    }
}
