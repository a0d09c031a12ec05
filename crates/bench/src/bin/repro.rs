//! Reproduction driver: prints the rows/series of every paper table and
//! figure, and runs campaign presets through the parallel engine —
//! in-process, or sharded across supervised worker processes.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ivc-bench --bin repro -- all        # every experiment
//! cargo run --release -p ivc-bench --bin repro -- a2 d3      # a subset
//! IVC_FULL=1 cargo run --release -p ivc-bench --bin repro -- all   # full-fidelity sweeps
//!
//! # Campaign presets (smoke, a1-a6, b1-b3, defense, rooms, d1-d6)
//! # through the engine:
//! cargo run --release -p ivc-bench --bin repro -- campaign smoke --workers 2
//! cargo run --release -p ivc-bench --bin repro -- campaign a6 --shards 4 --workers 2
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
//! # Supervised sharding: retries, straggler re-issue, checkpoint/resume.
//! cargo run --release -p ivc-bench --bin repro -- orchestrate smoke --shards 2 --workers 2
//! cargo run --release -p ivc-bench --bin repro -- orchestrate smoke --shards 2 --resume DIR
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
//! #                           files; campaign, orchestrate and profile run N supervised
//! #                           shard-worker processes (campaign and profile retry nothing)
//! #   --archive DIR           write each campaign's JSON report into DIR (and, when
//! #                           sharded, its run manifest)
//! #   --max-retries N         extra attempts per failed shard (orchestrate; default 2)
//! #   --straggler-timeout S   re-issue attempts running longer than S seconds (orchestrate)
//! #   --resume DIR            resume from the checkpoints in DIR (orchestrate)
//! #   --metrics FILE          write span/counter metrics JSON (ivc-metrics-v1;
//! #                           fleet-merged across workers when sharded)
//! #   --trace FILE            write a Chrome trace-event JSON (chrome://tracing / Perfetto)
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

/// What the invocation asked the driver to do.
enum Mode {
    /// Render paper experiments (the default; empty or `all` = everything).
    Experiments(Vec<String>),
    /// Run campaign presets through the engine (in-process, or with
    /// `--shards N` under the orchestrator with no retries).
    Campaign(Vec<String>),
    /// Write shard job files for presets (`--shards`, `--out-dir`).
    ShardPlanFiles(Vec<String>),
    /// Execute one shard job file (`--job`, `--out`).
    ShardWorker,
    /// Merge partial archives into a final report (`--out`, inputs).
    ShardMerge(Vec<PathBuf>),
    /// Dump one partial archive as JSON (`export-json IN --out OUT`).
    ExportJson(PathBuf),
    /// Run campaign presets under the supervising orchestrator
    /// (`--shards`, optional `--max-retries`/`--straggler-timeout`/
    /// `--resume`).
    Orchestrate(Vec<String>),
    /// Profile campaign presets: run with telemetry enabled and print
    /// the per-stage time-attribution table (default `--workers 1`, so
    /// stage totals track wall clock; with `--shards N` the table is the
    /// merged fleet of supervised worker processes).
    Profile(Vec<String>),
}

/// The flags each mode accepts (`experiments` is a run without a
/// subcommand).  A flag given to any other mode is an error, never
/// silently ignored.
#[rustfmt::skip]
const ACCEPTED_FLAGS: &[(&str, &[&str])] = &[
    ("experiments", &["--workers", "--archive", "--metrics", "--trace"]),
    ("campaign", &["--workers", "--shards", "--archive", "--metrics", "--trace"]),
    ("shard-plan", &["--shards", "--out-dir"]),
    ("shard-worker", &["--workers", "--job", "--out"]),
    ("shard-merge", &["--out"]),
    ("export-json", &["--out"]),
    ("orchestrate", &["--workers", "--shards", "--archive", "--max-retries",
                      "--straggler-timeout", "--resume", "--metrics", "--trace"]),
    ("profile", &["--workers", "--shards", "--metrics", "--trace"]),
];

/// "experiment runs and the campaign and orchestrate subcommands": the
/// modes that accept `flag`, in words.
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
            | "orchestrate" | "profile")
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
    for flag in given {
        if !accepted.contains(&flag) {
            return Err(format!("{flag} applies to {} only", applies_to(flag)));
        }
    }
    let mode = match subcommand {
        None => Mode::Experiments(positionals),
        Some("campaign") => {
            if positionals.is_empty() {
                return Err(format!(
                    "campaign needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
            Mode::Campaign(positionals)
        }
        Some("shard-plan") => {
            if positionals.is_empty() {
                return Err(format!(
                    "shard-plan needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
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
        Some("orchestrate") => {
            if positionals.is_empty() {
                return Err(format!(
                    "orchestrate needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
            if options.shards.is_none() {
                return Err("orchestrate needs --shards N".to_string());
            }
            Mode::Orchestrate(positionals)
        }
        Some("profile") => {
            if positionals.is_empty() {
                return Err(format!(
                    "profile needs a preset name (available: {})",
                    presets::PRESET_NAMES.join(", ")
                ));
            }
            Mode::Profile(positionals)
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

/// Prints a campaign report's summary table and per-curve attack ranges —
/// shared by the in-process and sharded campaign paths, so the two differ
/// in nothing but how the trials were executed.
fn print_reports(reports: &[CampaignReport]) {
    for report in reports {
        println!("{}", report.summary_table().render());
        for curve in &report.curves {
            println!(
                "range at >= 0.8 success [{}]: {} m",
                curve.label,
                curve
                    .range_at_success_rate(0.8)
                    .map(|d| format!("{d:.1}"))
                    .unwrap_or_else(|| "-".into())
            );
        }
        println!();
    }
}

/// A one-line error followed by a non-zero exit: every runtime failure
/// path of the driver funnels through here (exit 2 is reserved for
/// argument parsing).
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Runs campaign presets in-process on the worker pool.
fn run_campaigns(presets_named: &[String], fidelity: Fidelity, options: &Options, workers: usize) {
    for preset in presets_named {
        match run_campaign_preset(preset, fidelity, workers) {
            Ok(reports) => {
                print_reports(&reports);
                if !archive_all(&reports, &options.archive) {
                    std::process::exit(1);
                }
            }
            Err(e) => fail(format_args!("campaign {preset} failed: {e}")),
        }
    }
}

/// The `repro` binary itself, re-entered as every shard worker.
fn worker_exe() -> PathBuf {
    std::env::current_exe()
        .unwrap_or_else(|e| fail(format_args!("locating the shard-worker binary: {e}")))
}

/// Runs campaign presets under the supervising orchestrator — the one
/// multi-process runner, behind both `orchestrate` and `campaign
/// --shards` (which passes a config with no retries).  Without `--resume`
/// the checkpoints go to a fresh unique scratch directory, removed on
/// success and kept on failure (the failure message names it, so an
/// interrupted run can be resumed); with `--resume DIR` the run picks up
/// the surviving checkpoints in DIR first.  Worker telemetry sidecars
/// are collected for `--metrics` and run manifests copied into
/// `--archive` before the scratch directory disappears.
fn run_orchestrate(
    presets_named: &[String],
    fidelity: Fidelity,
    options: &Options,
    config: &OrchestratorConfig,
    worker_metrics: &mut Vec<telemetry::Snapshot>,
) {
    let num_shards = config.num_shards;
    let workers = options.workers_per_shard(num_shards);
    let exe = worker_exe();
    let scratch = options
        .resume
        .clone()
        .unwrap_or_else(|| unique_scratch_dir("orchestrate"));
    let mut stderr = std::io::stderr();
    for preset in presets_named {
        let reports = run_campaign_preset_orchestrated(
            preset,
            fidelity,
            config,
            workers,
            &exe,
            &scratch,
            &mut stderr,
        )
        .and_then(|reports| {
            // A missing sidecar is a hard error: an under-reported fleet
            // document would be worse than none.
            if options.metrics.is_some() {
                for spec in &preset_specs(preset, fidelity)? {
                    worker_metrics.extend(collect_worker_metrics(spec, num_shards, &scratch)?);
                }
            }
            Ok(reports)
        });
        match reports {
            Ok(reports) => {
                print_reports(&reports);
                if !archive_all(&reports, &options.archive) {
                    std::process::exit(1);
                }
            }
            Err(e) if scratch.exists() => fail(format_args!(
                "campaign {preset} failed: {e} (checkpoints kept in {dir}; pick up where it \
                 stopped with `orchestrate {preset} --shards {num_shards} --resume {dir}`)",
                dir = scratch.display()
            )),
            Err(e) => fail(format_args!("campaign {preset} failed: {e}")),
        }
    }
    // The structured run manifests are part of the run's record: copy
    // them into the archive directory (when one was asked for) before
    // the scratch directory disappears.
    if let Some(dir) = &options.archive {
        if let Err(e) = copy_manifests(&scratch, dir) {
            fail(format_args!("archiving run manifests: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// The orchestrator as a plain shard runner, for `campaign --shards` and
/// `profile --shards`: the first worker failure fails the run.
fn no_retries(num_shards: usize) -> OrchestratorConfig {
    OrchestratorConfig {
        max_retries: 0,
        ..OrchestratorConfig::new(num_shards)
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

    // Telemetry export: fail on an unwritable destination before the run,
    // then collect for the whole invocation and write at the end.  The
    // profile subcommand manages its own per-preset collection instead.
    let telemetry_on = options.metrics.is_some() || options.trace.is_some();
    if let Some(path) = &options.metrics {
        ensure_parent_dir(path);
    }
    if let Some(path) = &options.trace {
        ensure_parent_dir(path);
    }
    let is_profile = matches!(mode, Mode::Profile(_));
    if telemetry_on && !is_profile {
        telemetry::reset();
        telemetry::set_enabled(true);
    }
    let run_start = std::time::Instant::now();
    // Worker sidecar snapshots collected by the sharded paths, merged
    // into the fleet-wide `--metrics` document at the end of the run.
    let mut worker_metrics: Vec<telemetry::Snapshot> = Vec::new();

    match mode {
        Mode::ShardWorker => {
            // Workers are quiet children of a sharded campaign: no banner,
            // their stdout is the one summary line.
            run_shard_worker(&options);
        }
        Mode::ShardMerge(partials) => {
            run_shard_merge(&partials, &options);
        }
        Mode::ExportJson(input) => {
            run_export_json(&input, &options);
        }
        Mode::ShardPlanFiles(presets_named) => {
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); shards: {}\n",
                options.shards.unwrap_or(1)
            );
            run_shard_plan(&presets_named, fidelity, &options);
        }
        Mode::Campaign(presets_named) => match options.shards {
            None => {
                let workers = options.worker_threads();
                println!(
                    "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {workers}\n"
                );
                run_campaigns(&presets_named, fidelity, &options, workers);
            }
            Some(num_shards) => {
                println!(
                    "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {}; \
                     shards: {num_shards}\n",
                    options.workers_per_shard(num_shards)
                );
                run_orchestrate(
                    &presets_named,
                    fidelity,
                    &options,
                    &no_retries(num_shards),
                    &mut worker_metrics,
                );
            }
        },
        Mode::Orchestrate(presets_named) => {
            let num_shards = options.shards.expect("checked at parse time");
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {}; \
                 shards: {num_shards} (orchestrated)\n",
                options.workers_per_shard(num_shards)
            );
            let config = OrchestratorConfig {
                max_retries: options.max_retries.unwrap_or(2),
                straggler_timeout: options
                    .straggler_timeout
                    .map(std::time::Duration::from_secs_f64),
                ..OrchestratorConfig::new(num_shards)
            };
            run_orchestrate(
                &presets_named,
                fidelity,
                &options,
                &config,
                &mut worker_metrics,
            );
        }
        Mode::Profile(presets_named) => {
            // One worker by default: stages then run back-to-back, so
            // their totals track wall clock instead of overlapping.
            // Sharded profiles split the cores like sharded campaigns.
            let workers = match options.shards {
                Some(num_shards) => options.workers_per_shard(num_shards),
                None => options.workers.unwrap_or(1),
            };
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {workers}{} \
                 (profiling)\n",
                options
                    .shards
                    .map(|n| format!("; shards: {n}"))
                    .unwrap_or_default(),
            );
            for preset in &presets_named {
                let result = match options.shards {
                    None => profile_campaign_preset(preset, fidelity, workers),
                    Some(num_shards) => {
                        let scratch = unique_scratch_dir("profile");
                        let result = profile_campaign_preset_sharded(
                            preset,
                            fidelity,
                            &no_retries(num_shards),
                            workers,
                            &worker_exe(),
                            &scratch,
                            &mut std::io::stderr(),
                        );
                        match result {
                            Ok(profile) => {
                                let _ = std::fs::remove_dir_all(&scratch);
                                Ok(profile)
                            }
                            Err(e) if scratch.exists() => {
                                Err(format!("{e} (checkpoints kept in {})", scratch.display())
                                    .into())
                            }
                            Err(e) => Err(e),
                        }
                    }
                };
                match result {
                    Ok(profile) => {
                        println!("{}", profile.table.render());
                        println!(
                            "stages account for {:.2} s of {:.2} s wall ({:.1}%)\n",
                            profile.stage_total_s,
                            profile.wall_s,
                            100.0 * profile.stage_total_s / profile.wall_s.max(f64::EPSILON),
                        );
                        write_telemetry_files(&options, &profile.snapshot, profile.wall_s);
                    }
                    Err(e) => fail(format_args!("profile {preset} failed: {e}")),
                }
            }
        }
        Mode::Experiments(experiments) => {
            println!(
                "fidelity: {fidelity:?} (set IVC_FULL=1 for full sweeps); workers: {}\n",
                options.worker_threads()
            );
            let selected: Vec<String> =
                if experiments.is_empty() || experiments.iter().any(|a| a == "all") {
                    vec![
                        "a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3", "rooms", "d1", "d3",
                        "d4", "d5", "d6",
                    ]
                    .into_iter()
                    .map(String::from)
                    .collect()
                } else {
                    experiments
                };
            let mut archives_ok = true;
            let mut experiments_ok = true;
            for experiment in &selected {
                let result = run_one(experiment, fidelity, &options, &mut archives_ok);
                match result {
                    Ok(output) => println!("{output}"),
                    Err(e) => {
                        eprintln!("experiment {experiment} failed: {e}");
                        experiments_ok = false;
                    }
                }
            }
            if !archives_ok || !experiments_ok {
                std::process::exit(1);
            }
        }
    }

    if telemetry_on && !is_profile {
        telemetry::set_enabled(false);
        let local = telemetry::snapshot();
        let wall_s = run_start.elapsed().as_secs_f64();
        // The metrics document is fleet-wide: the coordinator's snapshot
        // merged with every worker sidecar.  The Chrome trace stays
        // process-local by design (merging drops per-event detail), so it
        // is written from the coordinator's own snapshot.
        if let Some(path) = &options.metrics {
            let fleet = if worker_metrics.is_empty() {
                local.clone()
            } else {
                match merge_fleet_metrics(local.clone(), &worker_metrics) {
                    Ok(fleet) => fleet,
                    Err(e) => fail(e),
                }
            };
            if let Err(e) = write_metrics_file(path, &fleet, wall_s) {
                fail(e);
            }
            println!("metrics written to {}", path.display());
        }
        if let Some(path) = &options.trace {
            if let Err(e) = write_trace_file(path, &local) {
                fail(e);
            }
            println!("trace written to {}", path.display());
        }
    }
}

/// Writes the `--metrics` / `--trace` documents from a snapshot — shared
/// by the whole-invocation path and the per-preset profile subcommand.
fn write_telemetry_files(options: &Options, snapshot: &telemetry::Snapshot, wall_s: f64) {
    if let Some(path) = &options.metrics {
        if let Err(e) = write_metrics_file(path, snapshot, wall_s) {
            fail(e);
        }
        println!("metrics written to {}", path.display());
    }
    if let Some(path) = &options.trace {
        if let Err(e) = write_trace_file(path, snapshot) {
            fail(e);
        }
        println!("trace written to {}", path.display());
    }
}

fn run_one(
    name: &str,
    fidelity: Fidelity,
    options: &Options,
    archives_ok: &mut bool,
) -> ivc_core::Result<String> {
    Ok(match name {
        "a1" => {
            let (table, report) = fig_a1_leakage_vs_power(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a2" => {
            let (table, series, report) =
                fig_a2_accuracy_vs_distance(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            let mut out = table.render();
            for s in series {
                out.push_str(&format!(
                    "range at >= 0.8 accuracy [{}]: {:.1} m\n",
                    s.name,
                    s.last_x_with_y_at_least(0.8).unwrap_or(0.0)
                ));
            }
            out
        }
        "a3" => {
            let (table, report) = fig_a3_accuracy_vs_speakers(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a4" => {
            let (table, report) = fig_a4_leakage_vs_speakers(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "rooms" => {
            let (table, report) = fig_rooms_sweep(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a5" => {
            let (table, report) = tab_a5_range_per_device(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "a6" => {
            let (table, report) = fig_a6_carrier_frequency(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "b1" => {
            let (table, report) = tab_b1_range_vs_power(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "b2" => {
            let (table, report) = fig_b2_spectrogram_triplet(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "b3" => {
            let (table, reports) = tab_b3_success_rate(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(&reports, &options.archive);
            table.render()
        }
        "d1" | "d2" => {
            let (table, report) = fig_d1_d2_feature_separation(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "d3" => {
            let (table, report) = fig_d3_roc(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "d4" => {
            let (table, report) = tab_d4_detection_grid(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        "d5" => {
            let (table, reports) = fig_d5_noise_robustness(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(&reports, &options.archive);
            table.render()
        }
        "d6" => {
            let (table, report) = fig_d6_adaptive_attacker(fidelity, options.worker_threads())?;
            *archives_ok &= archive_all(std::slice::from_ref(&report), &options.archive);
            table.render()
        }
        other => return Err(format!("unknown experiment id '{other}'").into()),
    })
}
