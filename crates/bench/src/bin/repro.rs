//! Reproduction driver: prints the rows/series of every paper table and
//! figure, and runs campaign presets through the parallel engine —
//! in-process, or sharded across supervised worker processes.
//!
//! There is one run path.  Every preset-running mode is
//! [`run_preset`] plus a printer: paper experiments (no subcommand) look
//! each id up in [`EXPERIMENTS`] and print its paper table, `campaign`
//! prints each report's summary, and `profile` prints the per-stage
//! attribution table.  The runner is in-process with `--workers`
//! threads, or, with `--shards N` (`campaign` and `profile`), the one
//! sharded mode: the supervising orchestrator over `shard-worker`
//! processes, with [`OrchestratorConfig::new`]'s retry policy unless
//! `--max-retries` says otherwise.  Telemetry collection, the fleet
//! merge of worker sidecars and the `--metrics`/`--trace` files live
//! once, in [`Telemetry`].  The
//! `shard-plan`, `shard-worker`, `shard-merge` and `export-json`
//! subcommands are the file-based spelling of the shard contract.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ivc-bench --bin repro -- all        # every experiment
//! cargo run --release -p ivc-bench --bin repro -- a2 d3      # a subset
//! IVC_FULL=1 cargo run --release -p ivc-bench --bin repro -- all   # full-fidelity sweeps
//!
//! # Campaign presets (smoke, a1-a6, b1-b3, defense, rooms, d1-d6)
//! # through the engine, in-process or sharded across supervised worker
//! # processes (retries, straggler re-issue, checkpoint/resume):
//! cargo run --release -p ivc-bench --bin repro -- campaign smoke --workers 2
//! cargo run --release -p ivc-bench --bin repro -- campaign a6 --shards 4 --workers 2
//! cargo run --release -p ivc-bench --bin repro -- campaign smoke --shards 2 --resume DIR
//!
//! # The same shard contract as standalone steps (file transfer is the
//! # only coupling, so the three can run on different machines).  Partials
//! # travel in the compact columnar format (ivc-trial-columns-v1), the one
//! # wire format; the merge streams them one at a time:
//! cargo run --release -p ivc-bench --bin repro -- shard-plan a6 --shards 4 --out-dir jobs/
//! cargo run --release -p ivc-bench --bin repro -- shard-worker --job jobs/a6-carrier-frequency.shard-0-of-4.job.json --out parts/part0.bin
//! cargo run --release -p ivc-bench --bin repro -- shard-merge --out a6.json parts/*.bin
//!
//! # Dump one partial archive as JSON for human inspection (one way only:
//! # nothing reads the JSON back):
//! cargo run --release -p ivc-bench --bin repro -- export-json parts/part0.bin --out part0.json
//!
//! # Per-stage time attribution for a preset (telemetry-instrumented run;
//! # with --shards the table covers the merged fleet of worker processes):
//! cargo run --release -p ivc-bench --bin repro -- profile a1
//! cargo run --release -p ivc-bench --bin repro -- profile smoke --shards 2
//!
//! # Flags (each mode accepts only its own; see ACCEPTED_FLAGS below):
//! #   --workers N             worker threads per process (default: all cores;
//! #                           cores / shards when sharded; 1 for profile)
//! #   --shards N              split each campaign into N shards: shard-plan writes N job
//! #                           files; campaign and profile run N supervised shard-worker
//! #                           processes
//! #   --archive DIR           write each campaign's JSON report into DIR (and, when
//! #                           sharded, its run manifest)
//! #   --max-retries N         extra attempts per failed shard (needs --shards; default 2)
//! #   --straggler-timeout S   re-issue attempts running longer than S seconds (needs
//! #                           --shards)
//! #   --resume DIR            resume from the checkpoints in DIR (needs --shards); DIR is
//! #                           left in place, checkpoints included
//! #   --metrics FILE          write span/counter metrics JSON (ivc-metrics-v1; one
//! #                           document per invocation, fleet-merged across workers
//! #                           when sharded and across presets when profiling)
//! #   --trace FILE            write a Chrome trace-event JSON (chrome://tracing /
//! #                           Perfetto); profile takes one preset with it
//! #   --job FILE / --out FILE / --out-dir DIR   shard-worker, shard-merge, export-json
//! #                           and shard-plan inputs and outputs
//! ```

use ivc_bench::*;
use ivc_core::telemetry;
use ivc_experiments::orchestrate::{OrchestratorConfig, ENV_FAULT_SHARD, ENV_SHARD_ATTEMPT};
use ivc_experiments::shard::{
    merge_shard_files, metrics_sidecar_path, run_shard, shard_job_file_name, ShardArchive,
    ShardJob, ShardPlan,
};
use ivc_experiments::{default_workers, presets, CampaignReport};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What the invocation asked the driver to do.
enum Mode {
    /// Run presets (experiment ids for [`RunKind::Experiments`]) and print
    /// what the kind asks for.
    Run(RunKind, Vec<String>),
    /// Write shard job files for presets (`--shards`, `--out-dir`).
    ShardPlanFiles(Vec<String>),
    /// Execute one shard job file (`--job`, `--out`).
    ShardWorker,
    /// Merge partial archives into a final report (`--out`, inputs).
    ShardMerge(Vec<PathBuf>),
    /// Dump one partial archive as JSON (`export-json IN --out OUT`).
    ExportJson(PathBuf),
}

/// The preset-running modes, which differ only in the runner's policy and
/// in what they print.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunKind {
    /// The paper table of each experiment id (the default mode; empty or
    /// `all` = every experiment).
    Experiments,
    /// Each report's summary (in-process, or with `--shards N` under the
    /// supervising orchestrator).
    Campaign,
    /// The per-stage time-attribution table of each preset, run with
    /// telemetry enabled (default `--workers 1`, so stage totals track
    /// wall clock; with `--shards N` the table is the merged fleet of
    /// supervised worker processes).
    Profile,
}

/// The flags each mode accepts (`experiments` is a run without a
/// subcommand).  A flag given to any other mode is an error, never
/// silently ignored.
#[rustfmt::skip]
const ACCEPTED_FLAGS: &[(&str, &[&str])] = &[
    ("experiments", &["--workers", "--archive", "--metrics", "--trace"]),
    ("campaign", &["--workers", "--shards", "--archive", "--max-retries",
                   "--straggler-timeout", "--resume", "--metrics", "--trace"]),
    ("shard-plan", &["--shards", "--out-dir"]),
    ("shard-worker", &["--workers", "--job", "--out"]),
    ("shard-merge", &["--out"]),
    ("export-json", &["--out"]),
    ("profile", &["--workers", "--shards", "--max-retries", "--straggler-timeout",
                  "--resume", "--metrics", "--trace"]),
];

/// "experiment runs and the campaign and profile subcommands": the modes
/// that accept `flag`, in words.
fn applies_to(flag: &str) -> String {
    let modes: Vec<&str> = ACCEPTED_FLAGS
        .iter()
        .filter(|(_, flags)| flags.contains(&flag))
        .map(|(mode, _)| *mode)
        .collect();
    let (runs, subcommands) = match modes.split_first() {
        Some((&"experiments", rest)) => (true, rest),
        _ => (false, &modes[..]),
    };
    let subcommands = match subcommands {
        [] => String::new(),
        [one] => format!("the {one} subcommand"),
        [init @ .., last] => format!("the {} and {last} subcommands", init.join(", ")),
    };
    match (runs, subcommands.is_empty()) {
        (true, true) => "experiment runs".to_string(),
        (true, false) => format!("experiment runs and {subcommands}"),
        (false, _) => subcommands,
    }
}

#[derive(Default)]
struct Options {
    workers: Option<usize>,
    archive: Option<PathBuf>,
    shards: Option<usize>,
    job: Option<PathBuf>,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    max_retries: Option<usize>,
    straggler_timeout: Option<f64>,
    resume: Option<PathBuf>,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
}

impl Options {
    /// `--workers`, defaulting to the machine's parallelism.
    fn worker_threads(&self) -> usize {
        self.workers.unwrap_or_else(default_workers)
    }

    /// `--workers` for each of `num_shards` concurrent worker processes,
    /// defaulting to the machine split across them (num_shards x
    /// all-cores threads would thrash, not speed up).
    fn workers_per_shard(&self, num_shards: usize) -> usize {
        self.workers
            .unwrap_or_else(|| (default_workers() / num_shards).max(1))
    }

    /// Parses `flag` and its value, taken from `args`, into the options.
    fn parse_flag<'a>(
        &mut self,
        flag: &str,
        args: &mut std::iter::Peekable<impl Iterator<Item = &'a String>>,
    ) -> Result<(), String> {
        let mut value = |wants: &str| flag_value(&mut *args, flag, wants);
        match flag {
            "--workers" => self.workers = Some(at_least_one(flag, value("a number")?)?),
            "--shards" => self.shards = Some(at_least_one(flag, value("a number")?)?),
            "--archive" => self.archive = Some(value("a directory")?.into()),
            "--job" => self.job = Some(value("a shard job file")?.into()),
            "--out" => self.out = Some(value("an output file")?.into()),
            "--out-dir" => self.out_dir = Some(value("an output directory")?.into()),
            "--max-retries" => self.max_retries = Some(count(flag, value("a number")?)?),
            "--straggler-timeout" => {
                let seconds = value("seconds")?;
                self.straggler_timeout = Some(positive(flag, seconds, "positive seconds")?);
            }
            "--resume" => self.resume = Some(value("a checkpoint directory")?.into()),
            "--metrics" => self.metrics = Some(value("an output file")?.into()),
            "--trace" => self.trace = Some(value("an output file")?.into()),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
        Ok(())
    }
}

fn count(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {flag} value '{value}'"))
}

fn at_least_one(flag: &str, value: &str) -> Result<usize, String> {
    match count(flag, value)? {
        0 => Err(format!("invalid {flag} value '{value}' (need at least 1)")),
        n => Ok(n),
    }
}

fn positive(flag: &str, value: &str, need: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(x) if x > 0.0 && x.is_finite() => Ok(x),
        Ok(_) => Err(format!("invalid {flag} value '{value}' (need {need})")),
        Err(_) => Err(format!("invalid {flag} value '{value}'")),
    }
}

/// The next token as a flag's value, rejecting another flag in that slot
/// (so `--archive --workers 2` errors instead of archiving to "--workers").
fn flag_value<'a, I: Iterator<Item = &'a String>>(
    iter: &mut std::iter::Peekable<I>,
    flag: &str,
    wants: &str,
) -> Result<&'a String, String> {
    match iter.peek() {
        Some(value) if !value.starts_with("--") => Ok(iter.next().expect("peeked")),
        _ => Err(format!("{flag} needs {wants}")),
    }
}

fn parse_args(args: &[String]) -> Result<(Mode, Options), String> {
    let mut options = Options::default();
    let mut given: Vec<&str> = Vec::new();
    let mut subcommand: Option<&str> = None;
    let mut positionals: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            name @ ("campaign" | "shard-plan" | "shard-worker" | "shard-merge" | "export-json"
            | "profile")
                if subcommand.is_none() =>
            {
                // A subcommand after positionals would silently demote
                // them (or itself) to experiment ids: refuse up front.
                if !positionals.is_empty() {
                    return Err(format!(
                        "'{name}' cannot be combined with experiment ids ({})",
                        positionals.join(", ")
                    ));
                }
                subcommand = Some(name);
            }
            other if other.starts_with("--") => {
                options.parse_flag(other, &mut iter)?;
                given.push(other);
            }
            other => positionals.push(other.to_string()),
        }
    }
    let mode_name = subcommand.unwrap_or("experiments");
    let (_, accepted) = ACCEPTED_FLAGS
        .iter()
        .find(|(mode, _)| *mode == mode_name)
        .expect("every mode has a row in ACCEPTED_FLAGS");
    for &flag in &given {
        if !accepted.contains(&flag) {
            return Err(format!("{flag} applies to {} only", applies_to(flag)));
        }
        // Supervision flags tune the orchestrator, which only `--shards`
        // starts.
        if matches!(flag, "--max-retries" | "--straggler-timeout" | "--resume")
            && options.shards.is_none()
        {
            return Err(format!("{flag} needs --shards N"));
        }
    }
    if matches!(subcommand, Some("campaign" | "shard-plan" | "profile")) && positionals.is_empty() {
        return Err(format!(
            "{mode_name} needs a preset name (available: {})",
            presets::PRESET_NAMES.join(", ")
        ));
    }
    let mode = match subcommand {
        None => Mode::Run(RunKind::Experiments, positionals),
        Some("campaign") => Mode::Run(RunKind::Campaign, positionals),
        Some("shard-plan") => {
            if options.shards.is_none() {
                return Err("shard-plan needs --shards N".to_string());
            }
            if options.out_dir.is_none() {
                return Err("shard-plan needs --out-dir DIR".to_string());
            }
            Mode::ShardPlanFiles(positionals)
        }
        Some("shard-worker") => {
            if !positionals.is_empty() {
                return Err(format!(
                    "shard-worker takes no positional arguments (got '{}')",
                    positionals.join(" ")
                ));
            }
            if options.job.is_none() {
                return Err("shard-worker needs --job FILE".to_string());
            }
            if options.out.is_none() {
                return Err("shard-worker needs --out FILE".to_string());
            }
            Mode::ShardWorker
        }
        Some("shard-merge") => {
            if options.out.is_none() {
                return Err("shard-merge needs --out FILE".to_string());
            }
            if positionals.is_empty() {
                return Err("shard-merge needs at least one partial archive".to_string());
            }
            Mode::ShardMerge(positionals.into_iter().map(PathBuf::from).collect())
        }
        Some("export-json") => {
            if options.out.is_none() {
                return Err("export-json needs --out FILE".to_string());
            }
            if positionals.len() != 1 {
                return Err(
                    "export-json needs exactly one partial archive: export-json IN --out OUT"
                        .to_string(),
                );
            }
            Mode::ExportJson(PathBuf::from(positionals.into_iter().next().expect("one")))
        }
        Some("profile") => {
            // Trace events are process-local and do not merge, so one
            // trace file holds one profiled preset.
            if positionals.len() > 1 && options.trace.is_some() {
                return Err(format!(
                    "profile --trace takes one preset (got {}: {}): trace events do not merge \
                     across presets",
                    positionals.len(),
                    positionals.join(", ")
                ));
            }
            Mode::Run(RunKind::Profile, positionals)
        }
        Some(_) => unreachable!(),
    };
    Ok((mode, options))
}

fn archive_report(report: &CampaignReport, dir: &Path) -> ivc_core::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report.spec.name));
    report.save(&path)?;
    Ok(path)
}

/// Archives every report into the `--archive` directory (when set).
/// Returns `false` if any write failed, so callers can fail the process —
/// a requested archive that was not produced must not exit 0.
#[must_use]
fn archive_all(reports: &[CampaignReport], archive: &Option<PathBuf>) -> bool {
    let Some(dir) = archive else {
        return true;
    };
    let mut ok = true;
    for report in reports {
        match archive_report(report, dir) {
            Ok(path) => println!("archived {}", path.display()),
            Err(e) => {
                eprintln!("archiving {} failed: {e}", report.spec.name);
                ok = false;
            }
        }
    }
    ok
}

/// Each report's summary table and per-curve attack ranges: what
/// `campaign` prints for a preset, whichever runner ran it.
fn campaign_summary(reports: &[CampaignReport]) -> ivc_core::Result<String> {
    let blocks: Vec<String> = reports
        .iter()
        .map(|report| {
            let mut text = format!("{}\n", report.summary_table().render());
            for curve in &report.curves {
                let range = curve.range_at_least(&curve.success_rates, 0.8);
                text += &format!(
                    "range at >= 0.8 success [{}]: {} m\n",
                    curve.label,
                    range.map_or_else(|| "-".into(), |d| format!("{d:.1}"))
                );
            }
            text
        })
        .collect();
    Ok(blocks.join("\n"))
}

/// A one-line error followed by a non-zero exit: every runtime failure
/// path of the driver funnels through here (exit 2 is reserved for
/// argument parsing).
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Runs the presets of a preset-running mode and prints each one.  The
/// experiments mode keeps going past a failed id and exits non-zero at the
/// end; the other modes stop at the first failure.
fn run(kind: RunKind, names: Vec<String>, fidelity: Fidelity, options: &Options) {
    let workers = match options.shards {
        Some(num_shards) => options.workers_per_shard(num_shards),
        // One profiling worker by default: stages then run back to back,
        // so their totals track wall clock instead of overlapping.
        None if kind == RunKind::Profile => options.workers.unwrap_or(1),
        None => options.worker_threads(),
    };
    let runner = match options.shards {
        None => Runner::InProcess { workers },
        Some(num_shards) => Runner::Orchestrated {
            config: {
                let policy = OrchestratorConfig::new(num_shards);
                OrchestratorConfig {
                    max_retries: options.max_retries.unwrap_or(policy.max_retries),
                    straggler_timeout: options.straggler_timeout.map(Duration::from_secs_f64),
                    ..policy
                }
            },
            workers,
            worker_exe: std::env::current_exe()
                .unwrap_or_else(|e| fail(format_args!("locating the shard-worker binary: {e}"))),
            // Without `--resume` the checkpoints go to a fresh directory,
            // removed on success and kept on failure (the failure message
            // names it, so the run can be resumed).  `--resume DIR` picks
            // up the checkpoints in DIR, and DIR stays its owner's.
            scratch_dir: options
                .resume
                .clone()
                .unwrap_or_else(|| unique_scratch_dir("orchestrate")),
        },
    };
    // Fail on an unwritable telemetry destination before the run.
    for path in [&options.metrics, &options.trace].into_iter().flatten() {
        ensure_parent_dir(path);
    }
    println!(
        "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {workers}{}{}\n",
        options
            .shards
            .map(|n| format!("; shards: {n}"))
            .unwrap_or_default(),
        if kind == RunKind::Profile {
            " (profiling)"
        } else {
            ""
        },
    );
    let names = match kind {
        RunKind::Experiments if names.is_empty() || names.iter().any(|n| n == "all") => EXPERIMENTS
            .iter()
            .map(|(ids, ..)| ids[0].to_string())
            .collect(),
        _ => names,
    };

    let run_start = Instant::now();
    let mut telemetry = Telemetry {
        on: kind == RunKind::Profile || options.metrics.is_some() || options.trace.is_some(),
        ..Telemetry::default()
    };
    let per_preset = kind == RunKind::Profile;
    if !per_preset {
        telemetry.begin();
    }
    let mut failed = false;
    let mut run_dirs = Vec::new();
    for (run, name) in names.iter().enumerate() {
        if per_preset {
            telemetry.begin();
        }
        let runner = own_checkpoints(&runner, run, name);
        if let Runner::Orchestrated { scratch_dir, .. } = &runner {
            run_dirs.push(scratch_dir.clone());
        }
        let ok = match run_one(kind, name, fidelity, &runner, &mut telemetry) {
            Ok((text, reports)) => {
                println!("{text}");
                archive_all(&reports, &options.archive)
            }
            Err(e) => {
                let noun = match kind {
                    RunKind::Experiments => "experiment",
                    RunKind::Profile => "profile",
                    _ => "campaign",
                };
                let kept = match &runner {
                    Runner::Orchestrated {
                        config,
                        scratch_dir,
                        ..
                    } if scratch_dir.exists() => format!(
                        " (checkpoints kept in {dir}; pick up where it stopped with \
                         `{noun} {name} --shards {} --resume {dir}`)",
                        config.num_shards,
                        dir = scratch_dir.display(),
                    ),
                    _ => String::new(),
                };
                eprintln!("{noun} {name} failed: {e}{kept}");
                false
            }
        };
        if !ok && kind != RunKind::Experiments {
            std::process::exit(1);
        }
        failed |= !ok;
    }
    if failed {
        std::process::exit(1);
    }
    if let Runner::Orchestrated { scratch_dir, .. } = &runner {
        // The structured run manifests are part of the run's record: copy
        // them into the archive directory (when one was asked for) before
        // a scratch directory of the run's own disappears.
        if let Some(dir) = &options.archive {
            for run_dir in &run_dirs {
                if let Err(e) = copy_manifests(run_dir, dir) {
                    fail(format_args!("archiving run manifests: {e}"));
                }
            }
        }
        if options.resume.is_none() {
            let _ = std::fs::remove_dir_all(scratch_dir);
        }
    }
    if telemetry.on {
        if !per_preset {
            telemetry.end().unwrap_or_else(|e| fail(e));
        }
        if let Err(e) = telemetry.write(options, run_start.elapsed()) {
            fail(e);
        }
    }
}

/// `runner` with checkpoints of its own for the `run`-th name of the
/// invocation: the first run keeps the scratch directory itself (the one
/// `--resume DIR` names), every later run gets a sub-directory of it.  So
/// a preset named twice never resumes its first run's checkpoints or
/// re-reads its telemetry sidecars, and re-running the same names with
/// `--resume DIR` finds each run's checkpoints where it left them.
fn own_checkpoints(runner: &Runner, run: usize, name: &str) -> Runner {
    let mut runner = runner.clone();
    if let Runner::Orchestrated { scratch_dir, .. } = &mut runner {
        if run > 0 {
            *scratch_dir = scratch_dir.join(format!("{run}-{name}"));
        }
    }
    runner
}

/// Runs one preset (or experiment id) on `runner` and renders what `kind`
/// prints for it, returning the text and the reports to archive.
fn run_one(
    kind: RunKind,
    name: &str,
    fidelity: Fidelity,
    runner: &Runner,
    telemetry: &mut Telemetry,
) -> ivc_core::Result<(String, Vec<CampaignReport>)> {
    let (preset, render): (&str, Renderer) = match kind {
        RunKind::Experiments => experiment(name)?,
        _ => (name, campaign_summary),
    };
    let start = Instant::now();
    let (reports, sidecars) = run_preset(preset, fidelity, runner)?;
    let wall_s = start.elapsed().as_secs_f64();
    if telemetry.on {
        telemetry.workers.extend(worker_metrics(&sidecars)?);
    }
    let text = match kind {
        RunKind::Profile => attribution_report(preset, runner, &telemetry.end()?, wall_s),
        _ => render(&reports)?,
    };
    Ok((text, reports))
}

/// The invocation's telemetry: the one place the driver collects it,
/// merges worker sidecars into the fleet document and writes `--metrics`
/// and `--trace`.  A segment runs from [`Telemetry::begin`] to
/// [`Telemetry::end`].  `profile` closes one per preset, so each
/// attribution table covers its preset alone; the other modes close one
/// for the whole run.  `--metrics` is every segment's fleet snapshot,
/// merged; `--trace` is the last segment's own events, which do not merge.
#[derive(Default)]
struct Telemetry {
    /// Whether this invocation collects at all.
    on: bool,
    /// Worker sidecars of the open segment.
    workers: Vec<telemetry::Snapshot>,
    /// The fleet snapshots of the closed segments, merged.
    fleet: Option<telemetry::Snapshot>,
    /// The last closed segment's own snapshot, trace events included.
    local: Option<telemetry::Snapshot>,
}

impl Telemetry {
    /// Opens a segment: clears the collector and starts collecting.
    fn begin(&self) {
        if self.on {
            telemetry::reset();
            telemetry::set_enabled(true);
        }
    }

    /// Closes the segment and returns its fleet snapshot: this process's
    /// merged with every worker sidecar, checked to hold the workers'
    /// stage time.
    fn end(&mut self) -> ivc_core::Result<telemetry::Snapshot> {
        telemetry::set_enabled(false);
        let local = telemetry::snapshot();
        let workers = std::mem::take(&mut self.workers);
        let fleet = if workers.is_empty() {
            local.clone()
        } else {
            merge_fleet_metrics(local.clone(), &workers)?
        };
        match &mut self.fleet {
            Some(all) => all.merge(&fleet),
            None => self.fleet = Some(fleet.clone()),
        }
        self.local = Some(local);
        Ok(fleet)
    }

    /// Writes the `--metrics` and `--trace` documents of the invocation.
    fn write(&self, options: &Options, wall: Duration) -> ivc_core::Result<()> {
        if let (Some(path), Some(fleet)) = (&options.metrics, &self.fleet) {
            write_metrics_file(path, fleet, wall.as_secs_f64())?;
            println!("metrics written to {}", path.display());
        }
        if let (Some(path), Some(local)) = (&options.trace, &self.local) {
            write_trace_file(path, local)?;
            println!("trace written to {}", path.display());
        }
        Ok(())
    }
}

/// Copies every `<spec>.manifest.jsonl` run manifest from the scratch
/// directory into the archive directory, so the structured event record
/// of an orchestrated run survives scratch cleanup.
fn copy_manifests(scratch: &Path, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(scratch)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".manifest.jsonl") {
            let to = dir.join(name);
            std::fs::copy(entry.path(), &to)?;
            println!("archived {}", to.display());
        }
    }
    Ok(())
}

fn run_shard_plan(presets_named: &[String], fidelity: Fidelity, options: &Options) {
    let num_shards = options.shards.expect("checked at parse time");
    let out_dir = options.out_dir.as_ref().expect("checked at parse time");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        fail(format_args!("creating {}: {e}", out_dir.display()));
    }
    for preset in presets_named {
        let specs = preset_specs(preset, fidelity).unwrap_or_else(|e| fail(e));
        for spec in &specs {
            let plan = match ShardPlan::partition(spec, num_shards) {
                Ok(plan) => plan,
                Err(e) => fail(format_args!("planning {}: {e}", spec.name)),
            };
            for job in plan.jobs() {
                let path = out_dir.join(shard_job_file_name(&spec.name, &job.shard));
                if let Err(e) = job.save(&path) {
                    fail(e);
                }
                println!(
                    "wrote {} ({} jobs: slots [{}, {}))",
                    path.display(),
                    job.shard.num_jobs(),
                    job.shard.start_job,
                    job.shard.end_job,
                );
            }
        }
    }
}

/// Creates the parent directory of an output file up front, so a typo'd
/// path fails before the work runs, not after minutes of computation.
fn ensure_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                fail(format_args!("creating {}: {e}", parent.display()));
            }
        }
    }
}

fn run_shard_worker(options: &Options) {
    let job_path = options.job.as_ref().expect("checked at parse time");
    let out_path = options.out.as_ref().expect("checked at parse time");
    ensure_parent_dir(out_path);
    let job = match ShardJob::load(job_path) {
        Ok(job) => job,
        Err(e) => fail(e),
    };
    // CI fault injection: `IVC_FAULT_SHARD=<i>` makes the *first* attempt
    // at shard i exit non-zero (the orchestrator stamps the attempt index
    // into IVC_SHARD_ATTEMPT; absent means attempt 0), so the retry path
    // is exercised by a real worker-process failure.
    if let Ok(value) = std::env::var(ENV_FAULT_SHARD) {
        let attempt = std::env::var(ENV_SHARD_ATTEMPT)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        if value.parse::<usize>().ok() == Some(job.shard.shard_index) && attempt == 0 {
            fail(format_args!(
                "injected fault: failing first attempt at shard {} ({ENV_FAULT_SHARD}={value})",
                job.shard.shard_index
            ));
        }
    }
    // Workers always collect telemetry: the coordinator merges the
    // sidecars into the fleet-wide metrics document, and without them a
    // sharded `--metrics` run would silently report coordinator overhead
    // only.  The sidecar is written after the archive, so a failed
    // attempt leaves neither file behind.
    telemetry::reset();
    telemetry::set_enabled(true);
    let start = std::time::Instant::now();
    let outcome = run_shard(&job, options.worker_threads());
    let wall_s = start.elapsed().as_secs_f64();
    telemetry::set_enabled(false);
    let archive = match outcome {
        Ok(archive) => archive,
        Err(e) => fail(format_args!("running shard {}: {e}", job.shard.shard_index)),
    };
    if let Err(e) = archive.save(out_path) {
        fail(e);
    }
    let snapshot = telemetry::snapshot().with_source(&format!(
        "shard-{}-of-{}",
        job.shard.shard_index, job.shard.num_shards
    ));
    if let Err(e) = write_metrics_file(&metrics_sidecar_path(out_path), &snapshot, wall_s) {
        fail(e);
    }
    println!(
        "shard {}/{} of '{}': {} trial(s) -> {}",
        job.shard.shard_index,
        job.shard.num_shards,
        job.spec.name,
        job.shard.num_jobs(),
        out_path.display(),
    );
}

fn run_shard_merge(partial_paths: &[PathBuf], options: &Options) {
    let out_path = options.out.as_ref().expect("checked at parse time");
    ensure_parent_dir(out_path);
    // Streaming merge: each columnar partial is loaded, folded into the
    // per-cell accumulators and dropped before the next — the driver
    // never holds every shard's records.
    let report = match merge_shard_files(partial_paths) {
        Ok(report) => report,
        Err(e) => fail(e),
    };
    if let Err(e) = report.save(out_path) {
        fail(e);
    }
    println!(
        "merged {} shard(s) of '{}' ({} trials) -> {}",
        partial_paths.len(),
        report.spec.name,
        report.spec.num_trials(),
        out_path.display(),
    );
}

fn run_export_json(input: &Path, options: &Options) {
    let out_path = options.out.as_ref().expect("checked at parse time");
    ensure_parent_dir(out_path);
    let archive = match ShardArchive::load(input) {
        Ok(archive) => archive,
        Err(e) => fail(e),
    };
    // Always JSON, whatever the --out file is called: that is the point
    // of the subcommand.
    if let Err(e) = std::fs::write(out_path, archive.to_json_string()) {
        fail(format_args!("writing {}: {e}", out_path.display()));
    }
    println!(
        "exported shard {}/{} of '{}' ({} trial(s)) as JSON -> {}",
        archive.shard.shard_index,
        archive.shard.num_shards,
        archive.spec.name,
        archive.records.len(),
        out_path.display(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let fidelity = Fidelity::from_env();
    match mode {
        Mode::Run(kind, names) => run(kind, names, fidelity, &options),
        // Workers are quiet children of a sharded campaign: no banner,
        // their stdout is the one summary line.
        Mode::ShardWorker => run_shard_worker(&options),
        Mode::ShardMerge(partials) => run_shard_merge(&partials, &options),
        Mode::ExportJson(input) => run_export_json(&input, &options),
        Mode::ShardPlanFiles(presets_named) => {
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); shards: {}\n",
                options.shards.unwrap_or(1)
            );
            run_shard_plan(&presets_named, fidelity, &options);
        }
    }
}
