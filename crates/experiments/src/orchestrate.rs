//! The self-driving shard orchestrator: supervision, retry, straggler
//! re-issue and checkpoint/resume on top of the [`crate::shard`] contract.
//!
//! [`orchestrate`] owns a [`ShardPlan`], hands each shard to a
//! `repro shard-worker` process through the one production launcher,
//! [`ProcessLauncher`] (the [`ShardLauncher`] trait is the seam the unit
//! tests mock), and supervises the fleet with a small per-shard state
//! machine (`Pending → Issued → Retrying → Done`, see [`ShardState`]).
//! It is the one multi-process shard runner: `repro campaign --shards N`
//! and `repro profile --shards N` run it with
//! [`OrchestratorConfig::new`]'s policy unless told otherwise.  What it
//! supervises:
//!
//! * **Retry** — a failed attempt is retried up to a bounded budget
//!   ([`OrchestratorConfig::max_retries`]) with exponential backoff.
//! * **Straggler re-issue** — an attempt running past
//!   [`OrchestratorConfig::straggler_timeout`] gets a duplicate; the first
//!   completed result wins and the loser is killed and discarded.  Every
//!   trial is a pure function of `(spec, cell, seed)`, so any completed
//!   attempt of a shard produces the same bytes.
//! * **Checkpoint/resume** — each finished shard is atomically renamed to
//!   its canonical partial-archive name.  On startup surviving checkpoints
//!   are validated with the merge's own check
//!   ([`ShardArchive::validate_for`]); only what is missing re-runs.
//! * **Interim aggregates** — per-cell success rates with 95 % Wilson
//!   intervals are streamed as cells complete.
//!
//! **Core and driver.**  The core, `Supervisor`, is a pure transition
//! function: `step(Event) -> Vec<Action>` decides what to do when a
//! checkpoint is scanned, an attempt exits, a killed attempt is drained or
//! the clock ticks.  It touches no file, clock, thread or launcher (time
//! reaches it only as the `Duration` of a tick), so its tests enumerate
//! fault orderings instead of scripting wall-clock races.  The driver,
//! [`orchestrate`], performs each `Action` and feeds back what it
//! observes.  A run that does not merge leaves through the driver's one
//! abort path, which kills, drains and discards every attempt in flight.
//! The policy is private constants next to the core: `RETRY_BACKOFF`
//! doubling per failure (at most 2^6 times), `POLL_INTERVAL` between
//! idle sweeps, a `PROGRESS_INTERVAL` heartbeat, one attempt per shard
//! plus re-issues up to `max(num_shards, 2)` attempts in all.
//!
//! Every supervision event is a structured [`RunEvent`], appended to the
//! JSONL **run manifest** (`<spec>.manifest.jsonl`, format
//! [`MANIFEST_FORMAT`]), the single source of truth: failing to write it
//! fails the run.  The status stream (stderr in the CLI) is best-effort
//! and *derived* from the same events by [`RunEvent::render`];
//! [`OrchestratorStats`] and the `orchestrate.*` counters are counted
//! from them in one place.  The final report is
//! [`crate::shard::merge_shard_files`] streaming the checkpoints through
//! the same [`crate::shard::ShardMerger`] that [`crate::run_campaign`]
//! feeds its one shard to, so it is **byte-identical** to the in-process
//! run whatever happened.
//!
//! Everything lives flat in one scratch directory, named by the spec;
//! partials are columnar ([`crate::columns::COLUMNS_FORMAT`]):
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
//! Process workers write an `ivc-metrics-v1` sidecar next to their output
//! ([`crate::shard::metrics_sidecar_path`]); it shares the attempt file's
//! fate (renamed with the checkpoint, deleted with a failed or duplicate
//! attempt).  Attempts write to their own file and are renamed into
//! place, so a crash mid-write can never corrupt a checkpoint.  Attempt
//! files under another run's nonce (left by the workers of a killed
//! orchestrator) are removed at the checkpoint scan and after the merge;
//! such a worker, still running, can write one after the last sweep.

use crate::aggregate::wilson_interval;
use crate::error::{ExperimentError, Result};
use crate::grid::CampaignSpec;
use crate::report::CampaignReport;
use crate::shard::{
    merge_shard_files, metrics_sidecar_path, shard_archive_file_name, shard_job_file_name,
    ShardArchive, ShardJob, ShardPlan,
};
use ivc_core::json::{u64_to_json, JsonValue};
use ivc_core::telemetry;
use std::fmt::Write as _;
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

/// Base backoff before a retry, doubled per consecutive failure of the
/// same shard up to `MAX_BACKOFF_DOUBLINGS` times.
const RETRY_BACKOFF: Duration = Duration::from_millis(500);
const MAX_BACKOFF_DOUBLINGS: u32 = 6;
/// The driver's sleep after a sweep in which nothing happened.
const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// A heartbeat `progress` event follows this long without one (one also
/// follows the plan summary and every finished shard).
const PROGRESS_INTERVAL: Duration = Duration::from_secs(5);

/// Where a shard is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The supervision policy.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Number of shards to partition the campaign into.  Must not exceed
    /// the campaign's job count: the orchestrator refuses plans with
    /// idle (empty) shards.
    pub num_shards: usize,
    /// Extra attempts a shard may consume after a failure before the
    /// whole run aborts (`0` = fail fast on the first worker failure).
    pub max_retries: usize,
    /// Re-issue a duplicate attempt when one runs longer than this
    /// (`None` = never; a shard keeps at most two attempts in flight).
    pub straggler_timeout: Option<Duration>,
}

impl OrchestratorConfig {
    /// A conservative default supervision policy for `num_shards` shards:
    /// 2 retries, no straggler re-issue.
    pub fn new(num_shards: usize) -> Self {
        OrchestratorConfig {
            num_shards,
            max_retries: 2,
            straggler_timeout: None,
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

/// Launches attempts at shards.  Production runs use one launcher,
/// [`ProcessLauncher`]: a forked `repro shard-worker` process per
/// attempt.  The trait is the seam the supervision tests substitute a mock
/// through; any launcher works as long as a successful attempt leaves a
/// loadable [`ShardArchive`] at `out_path`.
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
    /// The checkpoints this run's own attempts wrote, in shard order:
    /// every shard's but those resumed from an earlier run.
    pub fresh_checkpoints: Vec<PathBuf>,
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
    /// structured fields (no second formatting path to drift).  In the
    /// templates `{name}` is a field as text, `{name:N}` a number to `N`
    /// decimals and `{name:?}` seconds shown as a `Duration`.
    pub fn render(&self) -> String {
        let has = |name| self.field(name).is_some_and(|v| *v != JsonValue::Null);
        let template = match self.kind {
            "run_start" => "campaign '{spec}': supervising {trials} trial(s) in {shards} shard(s); \
                            manifest format {format}",
            "checkpoint_resumed" => {
                "shard {shard}/{num_shards}: resumed from checkpoint ({trials} trial(s))"
            }
            "checkpoint_quarantined" if has("quarantine") => {
                "shard {shard}: checkpoint rejected ({error}); quarantined as {quarantine} and \
                 re-running"
            }
            "checkpoint_quarantined" => {
                "shard {shard}: checkpoint rejected ({error}); could not be quarantined and \
                 re-running"
            }
            "plan_summary" => "campaign '{spec}': {trials} trial(s) across {shards} shard(s); \
                               {resumed} resumed, {to_run} to run",
            "shard_issued" => "shard {shard} attempt {attempt} issued ({trials} trial(s))",
            "shard_done" => "shard {shard}/{total} done (attempt {attempt}): {trials} trial(s) \
                             checkpointed [{done}/{total}]",
            "shard_failed" => "shard {shard} attempt {attempt} failed ({error}); a duplicate \
                               attempt is still running",
            "shard_retry" => "shard {shard} attempt {attempt} failed ({error}); retry \
                              {retry}/{max_retries} in {backoff_s:?}",
            "straggler_reissue" => "shard {shard} straggling past {timeout_s:?}; re-issued as \
                                    attempt {attempt} (first completed result wins)",
            "duplicate_discarded" => "shard {shard} attempt {attempt}: duplicate completion discarded",
            "cell_complete" => "cell {cell}/{cells} complete — {label}: success \
                                {successes}/{trials} = {rate:2} [95% CI {ci_low:2}, {ci_high:2}]",
            "progress" if has("eta_s") => {
                "progress: {done}/{total} trial(s) done, {trials_per_s:2} trial(s)/s, ETA {eta_s:0}s"
            }
            "progress" => "progress: {done}/{total} trial(s) done",
            "run_complete" => "campaign '{spec}' complete: {shards} shard(s) ({resumed} resumed), \
                               {launched} attempt(s) launched, {retries} retried, {reissues} \
                               re-issued, {duplicates} duplicate result(s) discarded — \
                               {trials_total} trial(s) in {wall_s:1}s ({trials_per_s:2} trial(s)/s)",
            "run_failed" => "shard {shard} failed {failures} time(s), retry budget of \
                             {max_retries} exhausted (last failure: {error})",
            other => return other.to_string(),
        };
        let mut line = String::new();
        let mut rest = template;
        while let Some((text, tail)) = rest.split_once('{') {
            let (placeholder, tail) = tail.split_once('}').expect("closed placeholder");
            let (name, format) = placeholder.split_once(':').unwrap_or((placeholder, ""));
            line.push_str(text);
            let number = self.f64_field(name);
            let _ = match (format, self.field(name).and_then(JsonValue::as_str)) {
                ("", Some(text)) => write!(line, "{text}"),
                ("", None) => write!(line, "{}", self.u64_field(name)),
                ("?", _) => write!(line, "{:.1?}", Duration::from_secs_f64(number)),
                (digits, _) => write!(line, "{:.*}", digits.parse().unwrap_or(2), number),
            };
            rest = tail;
        }
        line.push_str(rest);
        line
    }
}

/// A manifest event's fields, in order: `fields!["shard" => 3, ...]`,
/// each value a count (`usize`), a number (`f64`), text or JSON.
macro_rules! fields {
    ($($name:literal => $value:expr),* $(,)?) => {
        vec![$(($name, Field::json($value))),*]
    };
}

/// A value a manifest field can hold.
trait Field {
    fn json(self) -> JsonValue;
}

macro_rules! field {
    ($($type:ty => $to_json:expr),*) => {
        $(impl Field for $type {
            fn json(self) -> JsonValue {
                $to_json(self)
            }
        })*
    };
}

field!(usize => |n| u64_to_json(n as u64), f64 => JsonValue::number,
       String => JsonValue::string, &str => JsonValue::string, JsonValue => |v| v);

type Fields = Vec<(&'static str, JsonValue)>;

/// An attempt: `(shard index, attempt number)`.
type Id = (usize, usize);

/// What a partial read back says: its per-trial acceptance flags once it
/// validated, or why it did not.
type Flags = std::result::Result<Vec<bool>, String>;

/// What the driver observed, fed to [`Supervisor::step`].
#[derive(Debug, Clone)]
enum Event {
    /// A checkpoint left by an earlier run was scanned at start-up.
    Scanned(usize, Flags),
    /// An attempt exited: its validated partial, or the failure.
    Exited(Id, Flags),
    /// A killed attempt was drained: whether it had completed anyway.
    Drained(Id, bool),
    /// The clock reads this long since the run started.
    Tick(Duration),
}

/// What the supervisor asks of the driver, performed in order.
#[derive(Debug, Clone)]
enum Action {
    Launch(Id),
    /// Kill an attempt, then step its [`Event::Drained`].
    Kill(Id),
    /// Rename the attempt's output and sidecar to its shard's checkpoint.
    Promote(Id),
    /// Remove the attempt's output and sidecar.
    Discard(Id),
    /// Move the shard's rejected checkpoint aside, drop its sidecar, and
    /// emit `checkpoint_quarantined` with where it went.
    Quarantine(usize, String),
    /// Append a [`RunEvent`] to the manifest and the status stream.
    Emit(&'static str, Fields),
    /// Every shard is checkpointed: merge and finish.
    Merge,
    /// Abort the run with this message.
    Fail(String),
}

/// The core's view of one shard.  Deliberately **not** holding the
/// shard's records: only the per-trial acceptance flags, so the interim
/// per-cell aggregates stream without re-reading files.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Shard {
    start_job: usize,
    end_job: usize,
    state: ShardState,
    attempts_started: usize,
    failures: usize,
    /// Earliest time the next retry may launch (backoff).
    not_before: Duration,
    /// `Some` once Done: `accepted[i]` for slot `start_job + i`.
    accepted: Option<Vec<bool>>,
}

/// The pure supervision core: every decision of an orchestrated run, as a
/// transition function over [`Event`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Supervisor {
    spec_name: String,
    max_retries: usize,
    straggler_timeout: Option<Duration>,
    trials_per_cell: usize,
    cell_labels: Vec<String>,
    reported_cells: Vec<bool>,
    shards: Vec<Shard>,
    /// The attempts in flight and when each started.
    inflight: Vec<(Id, Duration)>,
    /// Whether the first tick, which closes the checkpoint scan, came.
    planned: bool,
    now: Duration,
    last_progress: Duration,
    /// Trials covered by resumed checkpoints: they count toward `done`
    /// but not toward this run's throughput.
    resumed_trials: usize,
}

impl Supervisor {
    /// A supervisor for `plan`, and its first action (`run_start`).
    fn new(
        spec: &CampaignSpec,
        plan: &ShardPlan,
        config: &OrchestratorConfig,
    ) -> (Self, Vec<Action>) {
        let cells = spec.cells();
        let shard = |range: &crate::shard::ShardRange| Shard {
            start_job: range.start_job,
            end_job: range.end_job,
            state: ShardState::Pending,
            attempts_started: 0,
            failures: 0,
            not_before: Duration::ZERO,
            accepted: None,
        };
        let start = Action::Emit(
            "run_start",
            fields!["format" => MANIFEST_FORMAT, "spec" => spec.name.as_str(),
                    "trials" => spec.num_trials(), "shards" => plan.shards.len()],
        );
        let supervisor = Supervisor {
            spec_name: spec.name.clone(),
            max_retries: config.max_retries,
            straggler_timeout: config.straggler_timeout,
            trials_per_cell: spec.trials_per_cell,
            cell_labels: cells.iter().map(|cell| spec.cell_label(cell)).collect(),
            reported_cells: vec![false; cells.len()],
            shards: plan.shards.iter().map(shard).collect(),
            inflight: Vec::new(),
            planned: false,
            now: Duration::ZERO,
            last_progress: Duration::ZERO,
            resumed_trials: 0,
        };
        (supervisor, vec![start])
    }

    fn total_trials(&self) -> usize {
        self.shards.last().map_or(0, |s| s.end_job)
    }

    fn done(&self) -> impl Iterator<Item = &Shard> {
        self.shards.iter().filter(|s| s.state == ShardState::Done)
    }

    fn done_trials(&self) -> usize {
        self.done().map(|s| s.end_job - s.start_job).sum()
    }

    fn in_flight(&self, shard: usize) -> usize {
        self.inflight
            .iter()
            .filter(|((s, _), _)| *s == shard)
            .count()
    }

    /// The transition function: the actions `event` calls for, in order.
    fn step(&mut self, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Scanned(shard, Ok(accepted)) => {
                let (n, trials) = (self.shards.len(), accepted.len());
                out.push(Action::Emit(
                    "checkpoint_resumed",
                    fields!["shard" => shard, "num_shards" => n, "trials" => trials],
                ));
                let slot = &mut self.shards[shard];
                slot.accepted = Some(accepted);
                slot.state = ShardState::Done;
            }
            Event::Scanned(shard, Err(error)) => out.push(Action::Quarantine(shard, error)),
            Event::Exited(id, outcome) if self.shards[id.0].state == ShardState::Done => {
                self.retire(id, outcome.is_ok(), &mut out)
            }
            Event::Exited(id, Ok(accepted)) => self.promote(id, accepted, &mut out),
            Event::Exited(id, Err(error)) => self.fail(id, error, &mut out),
            Event::Drained(id, completed) => self.retire(id, completed, &mut out),
            Event::Tick(now) => self.tick(now, &mut out),
        }
        out
    }

    fn launch(&mut self, shard: usize, out: &mut Vec<Action>) -> usize {
        let attempt = self.shards[shard].attempts_started;
        self.shards[shard].attempts_started += 1;
        self.inflight.push(((shard, attempt), self.now));
        out.push(Action::Launch((shard, attempt)));
        attempt
    }

    /// Takes an attempt out of flight.
    fn land(&mut self, id: Id) {
        if let Some(i) = self.inflight.iter().position(|(a, _)| *a == id) {
            self.inflight.swap_remove(i);
        }
    }

    /// The first completed result wins: checkpoint it and kill the
    /// shard's other attempts (their drain discards them).
    fn promote(&mut self, id @ (shard, attempt): Id, accepted: Vec<bool>, out: &mut Vec<Action>) {
        self.land(id);
        let slot = &mut self.shards[shard];
        slot.state = ShardState::Done;
        slot.accepted = Some(accepted);
        let trials = slot.end_job - slot.start_job;
        let (done, total) = (self.done().count(), self.shards.len());
        out.push(Action::Promote(id));
        out.push(Action::Emit(
            "shard_done",
            fields!["shard" => shard, "attempt" => attempt, "trials" => trials,
                    "done" => done, "total" => total],
        ));
        let duplicates = self.inflight.iter().filter(|((s, _), _)| *s == shard);
        out.extend(duplicates.map(|(dup, _)| Action::Kill(*dup)));
        self.report_completed_cells(out);
        self.progress(out);
    }

    /// A finished shard's other attempt is out of the race: a completed
    /// one is identical by determinism and discarded, never merged twice.
    fn retire(&mut self, id @ (shard, attempt): Id, completed: bool, out: &mut Vec<Action>) {
        self.land(id);
        if completed {
            let fields = fields!["shard" => shard, "attempt" => attempt];
            out.push(Action::Emit("duplicate_discarded", fields));
        }
        out.push(Action::Discard(id));
    }

    /// A failed attempt: wait on a duplicate still running, retry after
    /// a backoff, or abort once the budget is spent.
    fn fail(&mut self, id @ (shard, attempt): Id, error: String, out: &mut Vec<Action>) {
        self.land(id);
        out.push(Action::Discard(id));
        let others = self.in_flight(shard) > 0;
        let (now, max_retries) = (self.now, self.max_retries);
        let slot = &mut self.shards[shard];
        slot.failures += 1;
        if slot.failures > max_retries && !others {
            let fields = fields!["shard" => shard, "failures" => slot.failures,
                                 "max_retries" => max_retries, "error" => error];
            let event = RunEvent {
                t_s: 0.0,
                kind: "run_failed",
                fields,
            };
            let message = event.render();
            out.push(Action::Emit(event.kind, event.fields));
            out.push(Action::Fail(message));
        } else if others {
            let fields = fields!["shard" => shard, "attempt" => attempt, "error" => error];
            out.push(Action::Emit("shard_failed", fields));
        } else {
            let doublings = (slot.failures as u32 - 1).min(MAX_BACKOFF_DOUBLINGS);
            let backoff = RETRY_BACKOFF * (1 << doublings);
            slot.state = ShardState::Retrying;
            slot.not_before = now + backoff;
            let fields = fields!["shard" => shard, "attempt" => attempt, "error" => error,
                                 "retry" => slot.failures, "max_retries" => max_retries,
                                 "backoff_s" => backoff.as_secs_f64()];
            out.push(Action::Emit("shard_retry", fields));
        }
    }

    /// The clock: close the scan with the plan summary, then re-issue
    /// stragglers, issue what is eligible and beat the heartbeat — or
    /// merge once every shard is done.
    fn tick(&mut self, now: Duration, out: &mut Vec<Action>) {
        self.now = now;
        let n = self.shards.len();
        if !self.planned {
            self.planned = true;
            let resumed = self.done().count();
            let fields = fields!["spec" => self.spec_name.as_str(), "trials" => self.total_trials(),
                                 "shards" => n, "resumed" => resumed, "to_run" => n - resumed];
            out.push(Action::Emit("plan_summary", fields));
            self.report_completed_cells(out);
            self.resumed_trials = self.done_trials();
            self.progress(out);
        }
        if self.done().count() == n {
            out.push(Action::Merge);
            return;
        }
        // A lone attempt past the deadline gets a duplicate, as long as
        // re-issues never starve first attempts.
        if let Some(timeout) = self.straggler_timeout {
            let stragglers: Vec<usize> = (self.inflight.iter())
                .filter(|((shard, _), started)| {
                    self.shards[*shard].state == ShardState::Issued
                        && now.saturating_sub(*started) > timeout
                        && self.in_flight(*shard) == 1
                })
                .map(|((shard, _), _)| *shard)
                .collect();
            for shard in stragglers {
                if self.inflight.len() >= n.max(2) {
                    break;
                }
                let attempt = self.launch(shard, out);
                let fields = fields!["shard" => shard, "attempt" => attempt,
                                     "timeout_s" => timeout.as_secs_f64()];
                out.push(Action::Emit("straggler_reissue", fields));
            }
        }
        for shard in 0..n {
            let slot = &mut self.shards[shard];
            let eligible = match slot.state {
                ShardState::Pending => true,
                ShardState::Retrying => now >= slot.not_before,
                ShardState::Issued | ShardState::Done => false,
            };
            if self.inflight.len() >= n {
                break;
            }
            if eligible {
                slot.state = ShardState::Issued;
                let trials = slot.end_job - slot.start_job;
                let attempt = self.launch(shard, out);
                let fields = fields!["shard" => shard, "attempt" => attempt, "trials" => trials];
                out.push(Action::Emit("shard_issued", fields));
            }
        }
        if now.saturating_sub(self.last_progress) >= PROGRESS_INTERVAL {
            self.progress(out);
        }
    }

    /// One `progress` event: trials done over the total, plus throughput
    /// and ETA once this run has completed trials of its own (resumed
    /// checkpoints land instantly and would inflate the estimate).
    fn progress(&mut self, out: &mut Vec<Action>) {
        let (done, total) = (self.done_trials(), self.total_trials());
        let fresh = done - self.resumed_trials;
        let elapsed = self.now.as_secs_f64();
        let mut fields = fields!["done" => done, "total" => total];
        if fresh > 0 && elapsed > 0.0 {
            let rate = fresh as f64 / elapsed;
            let eta = (total - done) as f64 / rate;
            fields.extend(fields!["trials_per_s" => rate, "eta_s" => eta]);
        }
        out.push(Action::Emit("progress", fields));
        self.last_progress = self.now;
    }

    /// Streams the interim aggregate for every cell that has just become
    /// fully covered by Done shards: success counts with the 95 % Wilson
    /// interval, from the checkpointed acceptance flags.
    fn report_completed_cells(&mut self, out: &mut Vec<Action>) {
        for (cell, label) in self.cell_labels.iter().enumerate() {
            let (start, end) = (
                cell * self.trials_per_cell,
                (cell + 1) * self.trials_per_cell,
            );
            let overlapping =
                || (self.shards.iter()).filter(|s| s.start_job < end && s.end_job > start);
            if self.reported_cells[cell] || overlapping().any(|s| s.state != ShardState::Done) {
                continue;
            }
            let (mut trials, mut successes) = (0, 0);
            for s in overlapping() {
                let accepted = s.accepted.as_deref().expect("covered shards are done");
                let (lo, hi) = (s.start_job.max(start), s.end_job.min(end));
                trials += hi - lo;
                successes += accepted[lo - s.start_job..hi - s.start_job]
                    .iter()
                    .filter(|a| **a)
                    .count();
            }
            let (ci_low, ci_high) = wilson_interval(successes, trials);
            let rate = if trials == 0 {
                0.0
            } else {
                successes as f64 / trials as f64
            };
            out.push(Action::Emit(
                "cell_complete",
                fields!["cell" => cell + 1, "cells" => self.cell_labels.len(),
                        "label" => label.as_str(), "successes" => successes, "trials" => trials,
                        "rate" => rate, "ci_low" => ci_low, "ci_high" => ci_high],
            ));
            self.reported_cells[cell] = true;
        }
    }
}

/// The event sink: appends each event to the JSONL run manifest (an
/// error if that fails), writes its derived human rendering to the
/// caller's stream (best-effort), and is the one place the supervision
/// counters move.
struct EventLog<'a> {
    start: Instant,
    stream: &'a mut dyn Write,
    manifest: std::fs::File,
    manifest_path: PathBuf,
    stats: OrchestratorStats,
}

impl EventLog<'_> {
    fn emit(&mut self, kind: &'static str, fields: Fields) -> Result<()> {
        let t_s = self.start.elapsed().as_secs_f64();
        let event = RunEvent { t_s, kind, fields };
        self.count(&event);
        let line = format!("{}\n", event.to_json().to_json_string());
        self.manifest.write_all(line.as_bytes()).map_err(|e| {
            let path = self.manifest_path.display();
            ExperimentError::Io(format!("appending to run manifest {path}: {e}"))
        })?;
        let line = format!("[orchestrate +{t_s:8.2}s] {}\n", event.render());
        let _ = self.stream.write_all(line.as_bytes());
        let _ = self.stream.flush();
        Ok(())
    }

    fn count(&mut self, event: &RunEvent) {
        let (s, mut shards_done) = (&mut self.stats, 0);
        let launched = (&mut s.launched, "orchestrate.launched");
        let bumps = match event.kind {
            "checkpoint_resumed" => vec![(&mut s.resumed, "orchestrate.resumed")],
            "checkpoint_quarantined" => {
                vec![(
                    &mut s.invalid_checkpoints,
                    "orchestrate.checkpoints_quarantined",
                )]
            }
            // Only a retry issues a shard past its first attempt (a
            // re-issue is a `straggler_reissue`).
            "shard_issued" if event.u64_field("attempt") > 0 => {
                vec![launched, (&mut s.retries, "orchestrate.retries")]
            }
            "shard_issued" => vec![launched],
            "straggler_reissue" => vec![launched, (&mut s.reissues, "orchestrate.reissues")],
            "duplicate_discarded" => {
                vec![(&mut s.duplicate_results, "orchestrate.duplicates_discarded")]
            }
            "shard_done" => vec![(&mut shards_done, "orchestrate.shards_done")],
            _ => vec![],
        };
        for (stat, counter) in bumps {
            *stat += 1;
            telemetry::add_count(counter, 1);
        }
    }
}

/// The driver: performs the core's actions against the launcher, the
/// file system and the event log, and turns what it observes into events.
struct Driver<'a> {
    log: EventLog<'a>,
    launcher: &'a mut dyn ShardLauncher,
    /// The scratch directory holding every file of the run.
    scratch_dir: &'a Path,
    /// Each shard's job, job file and checkpoint path.
    shards: Vec<(ShardJob, PathBuf, PathBuf)>,
    /// Which shards a checkpoint found on startup satisfied.
    resumed: Vec<bool>,
    nonce: u32,
    running: Vec<(Id, Box<dyn ShardAttempt>)>,
    /// Whether this sweep saw an exit or a launch.
    progressed: bool,
}

impl Driver<'_> {
    /// The attempt-output path: the canonical checkpoint name plus a
    /// `(run nonce, attempt)` suffix, so concurrent attempts — including
    /// orphans of a killed previous orchestrator — never collide, and the
    /// canonical name is only ever written by an atomic rename.
    fn attempt_path(&self, (shard, attempt): Id) -> PathBuf {
        let checkpoint = &self.shards[shard].2;
        let name = checkpoint.file_name().unwrap_or_default().to_string_lossy();
        let stem = name.strip_suffix(".bin").unwrap_or(&name);
        checkpoint.with_file_name(format!("{stem}.attempt-{}-{attempt}.bin", self.nonce))
    }

    /// Removes the attempt outputs, and their sidecars, that a run with
    /// another nonce left behind (`<spec>.shard-*.part.attempt-*`): the
    /// orphans of a killed orchestrator's workers.  Checkpoints and their
    /// sidecars never match.  Run at the checkpoint scan and after the
    /// merge; a worker that outlived a SIGKILLed orchestrator is not this
    /// run's child, so it can still write after the second sweep.
    fn sweep_foreign_attempts(&self) {
        let Ok(entries) = std::fs::read_dir(self.scratch_dir) else {
            return;
        };
        let prefix = format!("{}.shard-", self.shards[0].0.spec.name);
        let own = format!(".part.attempt-{}-", self.nonce);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&prefix) && name.contains(".part.attempt-") && !name.contains(&own)
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// A partial's acceptance flags, once it validates against its job.
    fn validated(path: &Path, job: &ShardJob) -> Result<Vec<bool>> {
        let partial = ShardArchive::load(path)?;
        partial.validate_for(job)?;
        Ok(partial.records.iter().map(|r| r.accepted).collect())
    }

    /// Runs the campaign to its merged report; every error leaves through
    /// [`Driver::abort`] in [`orchestrate`].
    fn run(&mut self, supervisor: &mut Supervisor, start: Vec<Action>) -> Result<CampaignReport> {
        self.perform(supervisor, start)?;
        self.sweep_foreign_attempts();
        for shard in 0..self.shards.len() {
            let (job, job_path, checkpoint) = &self.shards[shard];
            job.save(job_path)?;
            if checkpoint.exists() {
                let flags = Self::validated(checkpoint, job).map_err(|e| e.to_string());
                self.resumed[shard] = flags.is_ok();
                let actions = supervisor.step(Event::Scanned(shard, flags));
                self.perform(supervisor, actions)?;
            }
        }
        loop {
            let mut i = 0;
            while i < self.running.len() {
                let AttemptStatus::Exited(outcome) = self.running[i].1.poll() else {
                    i += 1;
                    continue;
                };
                let (id, _) = self.running.swap_remove(i);
                self.progressed = true;
                // A worker that exited 0 with its partial missing or
                // wrong has failed.
                let flags = outcome.and_then(|()| {
                    Self::validated(&self.attempt_path(id), &self.shards[id.0].0)
                        .map_err(|e| format!("partial rejected: {e}"))
                });
                let actions = supervisor.step(Event::Exited(id, flags));
                self.perform(supervisor, actions)?;
            }
            let actions = supervisor.step(Event::Tick(self.log.start.elapsed()));
            if let Some(report) = self.perform(supervisor, actions)? {
                return Ok(report);
            }
            if !std::mem::take(&mut self.progressed) {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }

    /// Performs `actions` in order; a kill's drain is stepped, and its
    /// actions performed, before the next action.
    fn perform(
        &mut self,
        supervisor: &mut Supervisor,
        actions: Vec<Action>,
    ) -> Result<Option<CampaignReport>> {
        for action in actions {
            match action {
                Action::Launch(id) => {
                    let (job, job_path, _) = &self.shards[id.0];
                    let out_path = self.attempt_path(id);
                    let handle = self.launcher.launch(job, job_path, id.1, &out_path)?;
                    self.running.push((id, handle));
                    self.progressed = true;
                }
                Action::Kill(id) => {
                    let i = self.running.iter().position(|(r, _)| *r == id);
                    let (_, mut handle) = self
                        .running
                        .swap_remove(i.expect("the core kills only running attempts"));
                    handle.kill();
                    // A kill reaps: a completion that beat it still reports.
                    let completed = handle.poll() == AttemptStatus::Exited(Ok(()));
                    let actions = supervisor.step(Event::Drained(id, completed));
                    self.perform(supervisor, actions)?;
                }
                Action::Promote(id) => {
                    let (from, to) = (self.attempt_path(id), &self.shards[id.0].2);
                    std::fs::rename(&from, to).map_err(|e| {
                        self.discard(id);
                        ExperimentError::Io(format!("checkpointing shard {}: {e}", id.0))
                    })?;
                    // A process worker's telemetry sidecar follows the
                    // checkpoint (thread and mock launchers write none).
                    let sidecar = metrics_sidecar_path(&from);
                    if sidecar.exists() {
                        let _ = std::fs::rename(sidecar, metrics_sidecar_path(to));
                    }
                }
                Action::Discard(id) => self.discard(id),
                Action::Quarantine(shard, error) => {
                    // The stale sidecar goes; the re-run writes a fresh one.
                    let checkpoint = &self.shards[shard].2;
                    let _ = std::fs::remove_file(metrics_sidecar_path(checkpoint));
                    let name = checkpoint.file_name().unwrap_or_default().to_string_lossy();
                    let aside = checkpoint.with_file_name(format!("{name}.invalid-{}", self.nonce));
                    let quarantine = match std::fs::rename(checkpoint, &aside) {
                        Ok(()) => JsonValue::string(aside.display().to_string()),
                        Err(_) => JsonValue::Null,
                    };
                    let fields = fields!["shard" => shard, "error" => error,
                                         "quarantine" => quarantine];
                    self.log.emit("checkpoint_quarantined", fields)?;
                }
                Action::Emit(kind, fields) => self.log.emit(kind, fields)?,
                Action::Merge => return self.merge().map(Some),
                Action::Fail(message) => return Err(ExperimentError::Orchestrate(message)),
            }
        }
        Ok(None)
    }

    fn discard(&self, id: Id) {
        let path = self.attempt_path(id);
        let _ = std::fs::remove_file(metrics_sidecar_path(&path));
        let _ = std::fs::remove_file(path);
    }

    /// Streams the final merge from the checkpoint files (each partial is
    /// loaded, folded and dropped before the next) and closes the
    /// manifest with the run summary.
    fn merge(&mut self) -> Result<CampaignReport> {
        let checkpoints: Vec<PathBuf> = self.shards.iter().map(|(_, _, c)| c.clone()).collect();
        let report = merge_shard_files(&checkpoints)?;
        self.sweep_foreign_attempts();
        let wall_s = self.log.start.elapsed().as_secs_f64();
        let trials = report.spec.num_trials();
        let trials_per_s = if wall_s > 0.0 {
            trials as f64 / wall_s
        } else {
            0.0
        };
        let s = &self.log.stats;
        let fields = fields!["spec" => report.spec.name.as_str(), "shards" => s.shards,
                             "resumed" => s.resumed, "launched" => s.launched,
                             "retries" => s.retries, "reissues" => s.reissues,
                             "duplicates" => s.duplicate_results, "wall_s" => wall_s,
                             "trials_total" => trials, "trials_per_s" => trials_per_s];
        self.log.emit("run_complete", fields)?;
        Ok(report)
    }

    /// The one way out of a run that did not merge: kill and drain every
    /// attempt still in flight, and discard its files.
    fn abort(&mut self) {
        for (id, mut handle) in std::mem::take(&mut self.running) {
            handle.kill();
            handle.poll();
            self.discard(id);
        }
    }
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
    let manifest = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&manifest_path)
        .map_err(|e| {
            let path = manifest_path.display();
            ExperimentError::Io(format!("opening run manifest {path}: {e}"))
        })?;
    let shards = (plan.jobs().into_iter())
        .map(|job| {
            let job_path = scratch_dir.join(shard_job_file_name(&spec.name, &job.shard));
            let checkpoint = scratch_dir.join(shard_archive_file_name(&spec.name, &job.shard));
            (job, job_path, checkpoint)
        })
        .collect();
    let stats = OrchestratorStats {
        shards: plan.shards.len(),
        ..OrchestratorStats::default()
    };
    let mut driver = Driver {
        log: EventLog {
            start: Instant::now(),
            stream: status_stream,
            manifest,
            manifest_path,
            stats,
        },
        launcher,
        scratch_dir,
        resumed: vec![false; plan.shards.len()],
        shards,
        nonce: std::process::id(),
        running: Vec::new(),
        progressed: false,
    };
    let (mut supervisor, start) = Supervisor::new(spec, &plan, config);
    match driver.run(&mut supervisor, start) {
        Ok(report) => Ok(OrchestratorRun {
            report,
            stats: driver.log.stats,
            fresh_checkpoints: (driver.shards.iter().zip(&driver.resumed))
                .filter(|(_, &resumed)| !resumed)
                .map(|((_, _, checkpoint), _)| checkpoint.clone())
                .collect(),
        }),
        Err(e) => {
            driver.abort();
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::TrialRecord;
    use crate::grid::DeliverySpec;
    use crate::shard::merge_shards;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
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
        /// Run until killed, with half its partial written.
        Hang,
        /// Run until killed, at which point the partial turns out to
        /// have completed — the "duplicate finished as it was killed" race.
        OkOnKill,
        /// The launch itself fails.
        LaunchError,
    }

    type Log = Rc<RefCell<Vec<(usize, usize)>>>;

    struct MockAttempt {
        id: Id,
        behavior: Behavior,
        payload: Vec<u8>,
        out_path: PathBuf,
        kills: Log,
    }

    impl ShardAttempt for MockAttempt {
        fn poll(&mut self) -> AttemptStatus {
            match self.behavior {
                Behavior::Ok => {
                    std::fs::write(&self.out_path, &self.payload).unwrap();
                    AttemptStatus::Exited(Ok(()))
                }
                Behavior::Fail => AttemptStatus::Exited(Err("scripted failure".to_string())),
                _ => AttemptStatus::Running,
            }
        }

        fn kill(&mut self) {
            self.kills.borrow_mut().push(self.id);
            if self.behavior == Behavior::OkOnKill {
                self.behavior = Behavior::Ok;
            }
        }
    }

    /// Scripted launcher: behavior per `(shard, attempt)` (default
    /// [`Behavior::Ok`]), recording every launch and kill.
    struct MockLauncher {
        spec: CampaignSpec,
        scripts: HashMap<Id, Behavior>,
        launches: Log,
        kills: Log,
    }

    impl MockLauncher {
        fn new(spec: &CampaignSpec, scripts: &[(Id, Behavior)]) -> Self {
            MockLauncher {
                spec: spec.clone(),
                scripts: scripts.iter().copied().collect(),
                launches: Log::default(),
                kills: Log::default(),
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
            let id = (job.shard.shard_index, attempt);
            self.launches.borrow_mut().push(id);
            let behavior = self.scripts.get(&id).copied().unwrap_or(Behavior::Ok);
            let payload = fabricated_partial(&self.spec, job).to_column_bytes();
            match behavior {
                Behavior::LaunchError => {
                    return Err(ExperimentError::Orchestrate("no fork".into()))
                }
                Behavior::Hang => std::fs::write(out_path, &payload[..payload.len() / 2]).unwrap(),
                _ => {}
            }
            let (out_path, kills) = (out_path.to_path_buf(), Rc::clone(&self.kills));
            Ok(Box::new(MockAttempt {
                id,
                behavior,
                payload,
                out_path,
                kills,
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

    /// The report an orchestrated run of the mocked campaign must equal:
    /// the merge of the fabricated partials.
    fn expected_report(spec: &CampaignSpec, num_shards: usize) -> String {
        let plan = ShardPlan::partition(spec, num_shards).unwrap();
        let partials = plan
            .jobs()
            .iter()
            .map(|job| fabricated_partial(spec, job))
            .collect();
        merge_shards(partials).unwrap().to_json_string()
    }

    /// The attempt output files left in `scratch`.
    fn attempt_files(scratch: &Path) -> Vec<String> {
        let names = std::fs::read_dir(scratch)
            .unwrap()
            .map(|e| e.unwrap().file_name());
        let names = names.map(|n| n.to_string_lossy().into_owned());
        names.filter(|n| n.contains(".attempt-")).collect()
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
        // The attempt output and sidecar of a killed earlier run's worker,
        // under a nonce that is not this run's, and a checkpoint sidecar.
        let foreign = format!(
            "{}.shard-1-of-2.part.attempt-{}-0",
            spec.name,
            std::process::id().wrapping_add(1)
        );
        for name in [format!("{foreign}.bin"), format!("{foreign}.metrics.json")] {
            std::fs::write(scratch.join(name), "orphan").unwrap();
        }
        let sidecar = metrics_sidecar_path(
            &scratch.join(shard_archive_file_name(&spec.name, &plan.shards[0])),
        );
        std::fs::write(&sidecar, "{}").unwrap();
        let mut launcher = MockLauncher::new(&spec, &[]);
        let mut status = Vec::new();
        let config = OrchestratorConfig::new(2);
        let run =
            orchestrate(&spec, &config, &scratch, &mut launcher, &mut status).expect("resumed run");
        assert_eq!(attempt_files(&scratch), Vec::<String>::new());
        assert!(sidecar.exists(), "a checkpoint's sidecar is never swept");
        assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
        assert_eq!(run.stats.resumed, 1);
        assert_eq!(run.stats.invalid_checkpoints, 1);
        assert_eq!(
            &*launcher.launches.borrow(),
            &[(1, 0)],
            "only the shard without a valid checkpoint may run"
        );
        // The quarantined shard re-ran, so its checkpoint is this run's.
        assert_eq!(
            run.fresh_checkpoints,
            vec![scratch.join(shard_archive_file_name(&spec.name, &plan.shards[1]))]
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
        let config = OrchestratorConfig::new(2);
        let run = orchestrate(&spec, &config, &scratch, &mut launcher, &mut Vec::new())
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
        let config = OrchestratorConfig::new(5);
        let err = orchestrate(&spec, &config, &scratch, &mut launcher, &mut Vec::new())
            .expect_err("5 shards for 2 jobs");
        let message = err.to_string();
        assert!(message.contains("at least one trial"), "{message}");
        assert!(message.contains('2'), "{message}");
        std::fs::remove_dir_all(&scratch).ok();
    }

    /// Runs a scripted 2-shard campaign that must abort: its error, the
    /// attempts it killed, and the attempt files it left behind.
    fn aborted(script: &[(Id, Behavior)], max_retries: usize) -> (String, Vec<Id>, Vec<String>) {
        let spec = spec_with(2, 1);
        let scratch = test_scratch("abort");
        let mut launcher = MockLauncher::new(&spec, script);
        let config = OrchestratorConfig {
            max_retries,
            ..OrchestratorConfig::new(2)
        };
        let err = orchestrate(&spec, &config, &scratch, &mut launcher, &mut Vec::new())
            .expect_err("the run must abort");
        let left = attempt_files(&scratch);
        std::fs::remove_dir_all(&scratch).ok();
        (err.to_string(), launcher.kills.take(), left)
    }

    #[test]
    fn aborted_runs_kill_their_attempts_and_leave_no_attempt_files() {
        // Shard 0 hangs mid-write; shard 1's launch fails.
        let (err, killed, left) = aborted(
            &[((0, 0), Behavior::Hang), ((1, 0), Behavior::LaunchError)],
            2,
        );
        assert!(err.contains("no fork"), "{err}");
        assert_eq!((killed, left), (vec![(0, 0)], vec![]), "{err}");
        // Shard 0 spends a zero budget while shard 1 is in flight.
        let (err, killed, left) = aborted(&[((0, 0), Behavior::Fail), ((1, 0), Behavior::Hang)], 0);
        assert!(
            err.contains("shard 0") && err.contains("retry budget"),
            "{err}"
        );
        assert_eq!((killed, left), (vec![(1, 0)], vec![]), "{err}");
    }

    #[test]
    fn unwritable_manifest_fails_the_run_before_any_launch() {
        let spec = spec_with(2, 1);
        let scratch = test_scratch("manifest");
        let manifest = scratch.join(manifest_file_name(&spec.name));
        std::fs::create_dir_all(&manifest).unwrap();
        let mut launcher = MockLauncher::new(&spec, &[]);
        let config = OrchestratorConfig::new(2);
        let err = orchestrate(&spec, &config, &scratch, &mut launcher, &mut Vec::new())
            .expect_err("a directory is no manifest")
            .to_string();
        assert!(err.contains(&manifest.display().to_string()), "{err}");
        assert!(launcher.launches.borrow().is_empty());
        std::fs::remove_dir_all(&scratch).ok();
    }

    /// A supervisor in a modelled world: the attempts its driver runs,
    /// the scratch directory, and this incarnation's counts.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        supervisor: Supervisor,
        now: Duration,
        running: BTreeSet<Id>,
        /// Attempt outputs: a launched worker may have written part of
        /// its file at any time.
        attempt_files: BTreeSet<Id>,
        /// Canonical checkpoints: shard → valid.
        checkpoints: BTreeMap<usize, bool>,
        failures: Vec<usize>,
        retries: Vec<usize>,
        /// Checkpoints resumed or promoted, per shard.
        checkpointed: Vec<usize>,
        finished: bool,
    }

    /// The fixed half of the model, and every event kind the search saw.
    struct Model {
        spec: CampaignSpec,
        plan: ShardPlan,
        config: OrchestratorConfig,
        seen: RefCell<BTreeSet<&'static str>>,
    }

    impl Model {
        /// Every shard's one deterministic result.
        fn flags(&self, shard: usize) -> Vec<bool> {
            let range = &self.plan.shards[shard];
            (range.start_job..range.end_job)
                .map(|s| s % 3 == 0)
                .collect()
        }

        /// A supervisor (re)started over `checkpoints` as the driver
        /// starts one: construct, scan, first tick.
        fn boot(&self, checkpoints: BTreeMap<usize, bool>, now: Duration) -> Vec<World> {
            let n = self.plan.shards.len();
            let (supervisor, start) = Supervisor::new(&self.spec, &self.plan, &self.config);
            let world = World {
                supervisor,
                now,
                running: BTreeSet::new(),
                attempt_files: BTreeSet::new(),
                checkpoints: checkpoints.clone(),
                failures: vec![0; n],
                retries: vec![0; n],
                checkpointed: vec![0; n],
                finished: false,
            };
            let mut worlds = self.perform(world, start);
            let scans = checkpoints.iter().map(|(&shard, &valid)| {
                let flags = if valid {
                    Ok(self.flags(shard))
                } else {
                    Err(String::new())
                };
                Event::Scanned(shard, flags)
            });
            for event in scans.chain([Event::Tick(now)]) {
                worlds = worlds
                    .into_iter()
                    .flat_map(|w| self.apply(w, event.clone()))
                    .collect();
            }
            worlds
        }

        fn apply(&self, mut world: World, event: Event) -> Vec<World> {
            let actions = world.supervisor.step(event);
            self.perform(world, actions)
        }

        /// Performs `actions` in order, as the driver does; a kill
        /// branches on whether its attempt completed before it died.
        fn perform(&self, world: World, actions: Vec<Action>) -> Vec<World> {
            actions.iter().fold(vec![world], |worlds, action| {
                worlds
                    .into_iter()
                    .flat_map(|w| self.act(w, action))
                    .collect()
            })
        }

        fn act(&self, mut w: World, action: &Action) -> Vec<World> {
            let (n, max_retries) = (self.plan.shards.len(), self.config.max_retries);
            let live = |w: &World, shard| w.running.iter().filter(|r| r.0 == shard).count();
            match *action {
                Action::Launch(id) => {
                    w.running.insert(id);
                    w.attempt_files.insert(id);
                    assert!(
                        live(&w, id.0) <= 2,
                        "3 attempts at shard {} in flight",
                        id.0
                    );
                }
                Action::Kill(id) => {
                    assert!(w.running.remove(&id), "killed an attempt not running");
                    let drain = |completed| {
                        let mut w = w.clone();
                        let actions = w.supervisor.step(Event::Drained(id, completed));
                        let counted = actions.iter().any(|a| matches!(a, Action::Emit(kind, _) if *kind == "duplicate_discarded"));
                        assert_eq!(
                            counted, completed,
                            "only a drained completion is a duplicate"
                        );
                        self.perform(w, actions)
                    };
                    return [true, false].into_iter().flat_map(drain).collect();
                }
                Action::Promote(id) => {
                    assert!(w.attempt_files.remove(&id), "promoted a missing file");
                    w.checkpoints.insert(id.0, true);
                    w.checkpointed[id.0] += 1;
                    assert_eq!(w.checkpointed[id.0], 1, "shard {} checkpointed twice", id.0);
                }
                Action::Discard(id) => {
                    w.attempt_files.remove(&id);
                }
                Action::Quarantine(shard, _) => {
                    self.seen.borrow_mut().insert("checkpoint_quarantined");
                    w.checkpoints.remove(&shard);
                }
                Action::Emit(kind, ref fields) => {
                    self.seen.borrow_mut().insert(kind);
                    let event = RunEvent {
                        t_s: 0.0,
                        kind,
                        fields: fields.clone(),
                    };
                    let shard = event.u64_field("shard") as usize;
                    match kind {
                        "checkpoint_resumed" => w.checkpointed[shard] += 1,
                        "shard_issued" if event.u64_field("attempt") > 0 => {
                            w.retries[shard] += 1;
                            assert!(w.retries[shard] <= max_retries, "shard {shard} over budget");
                        }
                        "run_failed" => {
                            assert!(w.failures[shard] > max_retries, "gave up within budget");
                            assert_eq!(live(&w, shard), 0, "gave up on a running shard {shard}");
                        }
                        _ => {}
                    }
                }
                Action::Merge => {
                    // A run that was killed, resumed or fed a corrupt
                    // checkpoint ends where an uninterrupted one does.
                    let uninterrupted: BTreeMap<_, _> = (0..n).map(|s| (s, true)).collect();
                    assert_eq!(w.checkpoints, uninterrupted, "merged the wrong checkpoints");
                    assert_eq!(w.checkpointed, vec![1; n], "a shard merged twice or never");
                    for (shard, slot) in w.supervisor.shards.iter().enumerate() {
                        assert_eq!(slot.accepted, Some(self.flags(shard)));
                    }
                    assert!(w.running.is_empty() && w.attempt_files.is_empty());
                    if w.supervisor.resumed_trials > 0 {
                        self.seen.borrow_mut().insert("merged after resume");
                    }
                    w.finished = true;
                }
                Action::Fail(_) => {
                    // The driver's abort: kill, drain, discard.
                    for id in std::mem::take(&mut w.running) {
                        w.attempt_files.remove(&id);
                    }
                    assert!(
                        w.attempt_files.is_empty(),
                        "attempt files outlived the abort"
                    );
                    w.finished = true;
                }
            }
            vec![w]
        }

        /// Every fault that can come next: a running attempt completes or
        /// fails; the clock ticks, at once or past every timer; or the
        /// orchestrator is killed and rebuilt from the file system, maybe
        /// with one checkpoint corrupted meanwhile.
        fn successors(&self, world: &World) -> Vec<World> {
            let mut next = Vec::new();
            for &id in &world.running {
                for completes in [true, false] {
                    let mut w = world.clone();
                    w.running.remove(&id);
                    let outcome = if completes {
                        Ok(self.flags(id.0))
                    } else {
                        w.failures[id.0] += 1;
                        Err("worker failed".to_string())
                    };
                    next.extend(self.apply(w, Event::Exited(id, outcome)));
                }
            }
            for wait in [0, 3600] {
                let mut w = world.clone();
                w.now += Duration::from_secs(wait);
                let now = w.now;
                next.extend(self.apply(w, Event::Tick(now)));
            }
            let valid = world
                .checkpoints
                .iter()
                .filter(|c| *c.1)
                .map(|c| Some(*c.0));
            for corrupt in std::iter::once(None).chain(valid) {
                let mut checkpoints = world.checkpoints.clone();
                if let Some(shard) = corrupt {
                    checkpoints.insert(shard, false);
                }
                next.extend(self.boot(checkpoints, world.now));
            }
            next
        }
    }

    /// Breadth-first search over every ordering of completions,
    /// failures, hangs past the straggler timer, duplicates completing as
    /// they are killed, orchestrator kills and corrupt checkpoints, with
    /// the invariants of [`Model::act`] asserted at every step.
    #[test]
    fn supervisor_survives_every_fault_interleaving() {
        let started = Instant::now();
        let mut explored = 0;
        for (num_shards, depth, max_retries) in [(2, 10, 0), (2, 10, 1), (3, 7, 0), (3, 7, 1)] {
            let spec = spec_with(num_shards, 1);
            let model = Model {
                plan: ShardPlan::partition(&spec, num_shards).unwrap(),
                spec,
                config: OrchestratorConfig {
                    max_retries,
                    straggler_timeout: Some(Duration::from_secs(1)),
                    ..OrchestratorConfig::new(num_shards)
                },
                seen: RefCell::default(),
            };
            let mut frontier = model.boot(BTreeMap::new(), Duration::ZERO);
            let mut visited: HashSet<World> = frontier.iter().cloned().collect();
            for _ in 0..depth {
                let successors = frontier.iter().flat_map(|w| model.successors(w));
                frontier = successors
                    .inspect(|w| assert!(w.attempt_files.is_subset(&w.running), "stray file"))
                    .filter(|w| visited.insert(w.clone()) && !w.finished)
                    .collect();
            }
            explored += visited.len();
            let mut expected = vec![
                "checkpoint_quarantined",
                "checkpoint_resumed",
                "duplicate_discarded",
                "merged after resume",
                "run_failed",
                "shard_failed",
                "straggler_reissue",
            ];
            expected.extend((max_retries > 0).then_some("shard_retry"));
            for what in expected {
                let seen = model.seen.borrow().contains(what);
                assert!(
                    seen,
                    "{num_shards} shards, {max_retries} retries: no {what}"
                );
            }
        }
        eprintln!("explored {explored} states in {:.2?}", started.elapsed());
    }

    /// One row of the golden characterization table: a scripted mock
    /// run of `spec_with(cells, trials_per_cell)` on 2 shards.
    struct Golden {
        /// Name, cells, trials per cell, straggler timeout.
        run: (&'static str, usize, usize, Option<Duration>),
        scripts: &'static [((usize, usize), Behavior)],
        /// Checkpoints on disk before the run: `(shard, valid)`.
        seeded: &'static [(usize, bool)],
        launches: &'static [(usize, usize)],
        stats: OrchestratorStats,
        status: &'static [&'static str],
        manifest: &'static [&'static str],
    }

    /// A manifest line as the golden table records it: every field name
    /// in order, with its value unless it is a timing (`t_s`,
    /// `backoff_s`, `wall_s`, `trials_per_s`, `eta_s`), and this run's
    /// scratch directory and nonce masked.
    fn golden_projection(line: &str, scratch: &Path) -> String {
        let JsonValue::Object(fields) = JsonValue::parse(line).unwrap() else {
            panic!("manifest line is not an object: {line}");
        };
        let projected: Vec<String> = (fields.iter())
            .map(|(name, value)| match name.as_str() {
                "t_s" | "backoff_s" | "wall_s" | "trials_per_s" | "eta_s" => name.clone(),
                _ => format!("{name}={}", value.to_json_string()),
            })
            .collect();
        let nonce = format!(".invalid-{}", std::process::id());
        let line = projected.join(" ").replace(&nonce, ".invalid-<nonce>");
        line.replace(&scratch.display().to_string(), "<scratch>")
    }

    /// A 2-shard run's counters.
    const fn stats(
        launched: usize,
        retries: usize,
        reissues: usize,
        resumed: usize,
        invalid_checkpoints: usize,
        duplicate_results: usize,
    ) -> OrchestratorStats {
        let shards = 2;
        OrchestratorStats {
            shards,
            resumed,
            invalid_checkpoints,
            launched,
            retries,
            reissues,
            duplicate_results,
        }
    }

    const GOLDEN: [Golden; 4] = [
        Golden {
            run: ("healthy", 2, 2, None),
            scripts: &[],
            seeded: &[],
            launches: &[(0, 0), (1, 0)],
            stats: stats(2, 0, 0, 0, 0, 0),
            status: &["cell 1/2 complete", "cell 2/2 complete", "95% CI"],
            manifest: &[
                r#"t_s kind="run_start" format="ivc-run-manifest-v1" spec="orchestrated" trials=4 shards=2"#,
                r#"t_s kind="plan_summary" spec="orchestrated" trials=4 shards=2 resumed=0 to_run=2"#,
                r#"t_s kind="progress" done=0 total=4"#,
                r#"t_s kind="shard_issued" shard=0 attempt=0 trials=2"#,
                r#"t_s kind="shard_issued" shard=1 attempt=0 trials=2"#,
                r#"t_s kind="shard_done" shard=0 attempt=0 trials=2 done=1 total=2"#,
                r#"t_s kind="cell_complete" cell=1 cells=2 label="Android phone | array 0 | free_field | meeting_room | cmd 0 | 2 m" successes=1 trials=2 rate=0.5 ci_low=0.09453120573423071 ci_high=0.9054687942657693"#,
                r#"t_s kind="progress" done=2 total=4 trials_per_s eta_s"#,
                r#"t_s kind="shard_done" shard=1 attempt=0 trials=2 done=2 total=2"#,
                r#"t_s kind="cell_complete" cell=2 cells=2 label="Android phone | array 1 | free_field | meeting_room | cmd 0 | 2 m" successes=1 trials=2 rate=0.5 ci_low=0.09453120573423071 ci_high=0.9054687942657693"#,
                r#"t_s kind="progress" done=4 total=4 trials_per_s eta_s"#,
                r#"t_s kind="run_complete" spec="orchestrated" shards=2 resumed=0 launched=2 retries=0 reissues=0 duplicates=0 wall_s trials_total=4 trials_per_s"#,
            ],
        },
        Golden {
            run: ("retry", 2, 2, None),
            scripts: &[((1, 0), Behavior::Fail)],
            seeded: &[],
            launches: &[(0, 0), (1, 0), (1, 1)],
            stats: stats(3, 1, 0, 0, 0, 0),
            status: &["retry 1/2"],
            manifest: &[
                r#"t_s kind="run_start" format="ivc-run-manifest-v1" spec="orchestrated" trials=4 shards=2"#,
                r#"t_s kind="plan_summary" spec="orchestrated" trials=4 shards=2 resumed=0 to_run=2"#,
                r#"t_s kind="progress" done=0 total=4"#,
                r#"t_s kind="shard_issued" shard=0 attempt=0 trials=2"#,
                r#"t_s kind="shard_issued" shard=1 attempt=0 trials=2"#,
                r#"t_s kind="shard_done" shard=0 attempt=0 trials=2 done=1 total=2"#,
                r#"t_s kind="cell_complete" cell=1 cells=2 label="Android phone | array 0 | free_field | meeting_room | cmd 0 | 2 m" successes=1 trials=2 rate=0.5 ci_low=0.09453120573423071 ci_high=0.9054687942657693"#,
                r#"t_s kind="progress" done=2 total=4 trials_per_s eta_s"#,
                r#"t_s kind="shard_retry" shard=1 attempt=0 error="scripted failure" retry=1 max_retries=2 backoff_s"#,
                r#"t_s kind="shard_issued" shard=1 attempt=1 trials=2"#,
                r#"t_s kind="shard_done" shard=1 attempt=1 trials=2 done=2 total=2"#,
                r#"t_s kind="cell_complete" cell=2 cells=2 label="Android phone | array 1 | free_field | meeting_room | cmd 0 | 2 m" successes=1 trials=2 rate=0.5 ci_low=0.09453120573423071 ci_high=0.9054687942657693"#,
                r#"t_s kind="progress" done=4 total=4 trials_per_s eta_s"#,
                r#"t_s kind="run_complete" spec="orchestrated" shards=2 resumed=0 launched=3 retries=1 reissues=0 duplicates=0 wall_s trials_total=4 trials_per_s"#,
            ],
        },
        // Shard 0's first attempt hangs and completes exactly as it is
        // killed: the re-issue wins, and the original's result is drained
        // and discarded, never merged twice.
        Golden {
            run: ("straggler", 2, 1, Some(Duration::from_millis(50))),
            scripts: &[((0, 0), Behavior::OkOnKill)],
            seeded: &[],
            launches: &[(0, 0), (1, 0), (0, 1)],
            stats: stats(3, 0, 1, 0, 0, 1),
            status: &["straggling", "duplicate completion discarded"],
            manifest: &[
                r#"t_s kind="run_start" format="ivc-run-manifest-v1" spec="orchestrated" trials=2 shards=2"#,
                r#"t_s kind="plan_summary" spec="orchestrated" trials=2 shards=2 resumed=0 to_run=2"#,
                r#"t_s kind="progress" done=0 total=2"#,
                r#"t_s kind="shard_issued" shard=0 attempt=0 trials=1"#,
                r#"t_s kind="shard_issued" shard=1 attempt=0 trials=1"#,
                r#"t_s kind="shard_done" shard=1 attempt=0 trials=1 done=1 total=2"#,
                r#"t_s kind="cell_complete" cell=2 cells=2 label="Android phone | array 1 | free_field | meeting_room | cmd 0 | 2 m" successes=0 trials=1 rate=0 ci_low=0 ci_high=0.7934506856227626"#,
                r#"t_s kind="progress" done=1 total=2 trials_per_s eta_s"#,
                r#"t_s kind="straggler_reissue" shard=0 attempt=1 timeout_s=0.05"#,
                r#"t_s kind="shard_done" shard=0 attempt=1 trials=1 done=2 total=2"#,
                r#"t_s kind="duplicate_discarded" shard=0 attempt=0"#,
                r#"t_s kind="cell_complete" cell=1 cells=2 label="Android phone | array 0 | free_field | meeting_room | cmd 0 | 2 m" successes=1 trials=1 rate=1 ci_low=0.20654931437723742 ci_high=1"#,
                r#"t_s kind="progress" done=2 total=2 trials_per_s eta_s"#,
                r#"t_s kind="run_complete" spec="orchestrated" shards=2 resumed=0 launched=3 retries=0 reissues=1 duplicates=1 wall_s trials_total=2 trials_per_s"#,
            ],
        },
        // Shard 0 left a valid checkpoint, shard 1 garbage.
        Golden {
            run: ("resume", 2, 2, None),
            scripts: &[],
            seeded: &[(0, true), (1, false)],
            launches: &[(1, 0)],
            stats: stats(1, 0, 0, 1, 1, 0),
            status: &["resumed from checkpoint", "checkpoint rejected"],
            manifest: &[
                r#"t_s kind="run_start" format="ivc-run-manifest-v1" spec="orchestrated" trials=4 shards=2"#,
                r#"t_s kind="checkpoint_resumed" shard=0 num_shards=2 trials=2"#,
                r#"t_s kind="checkpoint_quarantined" shard=1 error="report decode error: <scratch>/orchestrated.shard-1-of-2.part.bin: columnar shard archive: truncated column data: needed 7021147420599021422 byte(s) at offset 8, 12 remaining" quarantine="<scratch>/orchestrated.shard-1-of-2.part.bin.invalid-<nonce>""#,
                r#"t_s kind="plan_summary" spec="orchestrated" trials=4 shards=2 resumed=1 to_run=1"#,
                r#"t_s kind="cell_complete" cell=1 cells=2 label="Android phone | array 0 | free_field | meeting_room | cmd 0 | 2 m" successes=1 trials=2 rate=0.5 ci_low=0.09453120573423071 ci_high=0.9054687942657693"#,
                r#"t_s kind="progress" done=2 total=4"#,
                r#"t_s kind="shard_issued" shard=1 attempt=0 trials=2"#,
                r#"t_s kind="shard_done" shard=1 attempt=0 trials=2 done=2 total=2"#,
                r#"t_s kind="cell_complete" cell=2 cells=2 label="Android phone | array 1 | free_field | meeting_room | cmd 0 | 2 m" successes=1 trials=2 rate=0.5 ci_low=0.09453120573423071 ci_high=0.9054687942657693"#,
                r#"t_s kind="progress" done=4 total=4 trials_per_s eta_s"#,
                r#"t_s kind="run_complete" spec="orchestrated" shards=2 resumed=1 launched=1 retries=0 reissues=0 duplicates=0 wall_s trials_total=4 trials_per_s"#,
            ],
        },
    ];

    /// Golden characterization of the supervision loop: four scripted
    /// scenarios through `orchestrate()`, each pinned to its launches,
    /// counters, merged bytes, checkpoint names, status lines and the
    /// projection of every manifest line.
    #[test]
    fn golden_scenarios_keep_their_launches_and_manifest() {
        for case in GOLDEN {
            let (name, cells, trials_per_cell, straggler_timeout) = case.run;
            let spec = spec_with(cells, trials_per_cell);
            let scratch = test_scratch(&format!("golden-{name}"));
            let plan = ShardPlan::partition(&spec, 2).unwrap();
            let checkpoint = |shard: usize| {
                scratch.join(shard_archive_file_name(&spec.name, &plan.shards[shard]))
            };
            for &(shard, valid) in case.seeded {
                let partial = fabricated_partial(&spec, &plan.jobs()[shard]);
                let bytes = if valid {
                    partial.to_column_bytes()
                } else {
                    b"not a partial at all".to_vec()
                };
                std::fs::write(checkpoint(shard), bytes).unwrap();
            }
            let mut launcher = MockLauncher::new(&spec, case.scripts);
            let config = OrchestratorConfig {
                straggler_timeout,
                ..OrchestratorConfig::new(2)
            };
            let mut status = Vec::new();
            let run = orchestrate(&spec, &config, &scratch, &mut launcher, &mut status)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(run.report.to_json_string(), expected_report(&spec, 2));
            assert_eq!(run.stats, case.stats, "{name}");
            assert_eq!(&*launcher.launches.borrow(), case.launches, "{name}");
            assert!((0..2).all(|shard| checkpoint(shard).exists()), "{name}");
            let stray: Vec<String> = std::fs::read_dir(&scratch)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.contains(".attempt-"))
                .collect();
            assert!(stray.is_empty(), "{name}: stray attempt files {stray:?}");
            let text = String::from_utf8(status).unwrap();
            for line in case.status {
                assert!(text.contains(line), "{name}: no {line:?} in\n{text}");
            }
            let manifest =
                std::fs::read_to_string(scratch.join(manifest_file_name(&spec.name))).unwrap();
            let projected: Vec<String> = manifest
                .lines()
                .map(|line| golden_projection(line, &scratch))
                .collect();
            assert_eq!(projected, case.manifest, "{name}: manifest\n{manifest}");
            std::fs::remove_dir_all(&scratch).ok();
        }
    }
}
