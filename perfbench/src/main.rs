//! One benchmark iteration, in a fresh process.
//!
//! ```text
//! ivc-perfbench --workload sweep|repeat|fleet --seed N [--size full|tiny]
//!               [--trace 0|1] --repro PATH --scratch DIR
//! ```
//!
//! The iteration generates the workload's `CampaignSpec` from the seed,
//! makes the separately timed set-up call (a one-trial warm-up campaign),
//! runs the timed call — `run_campaign`, or `orchestrate` over `repro
//! shard-worker` processes for `fleet` — plus the archive encode, checks
//! the archive and prints one JSON line.  With `--trace 1` it also turns on
//! the program's telemetry collector and adds the per-layer metrics, and
//! writes its spans as a Chrome trace into the scratch directory.
//! `run.py` drives the iterations and reduces them to the benchmark's
//! metrics.

mod layers;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use ivc_core::json::{u64_to_json, JsonValue};
use ivc_core::prepare_cache;
use ivc_core::telemetry::{self, Snapshot};
use ivc_experiments::shard::shard_archive_file_name;
use ivc_experiments::{
    default_workers, merge_shard_files, metrics_sidecar_path, orchestrate, run_campaign,
    CampaignReport, CampaignSpec, OrchestratorConfig, ProcessLauncher, ShardPlan,
};
use layers::{CacheDelta, FleetFacts, Inputs};
use workloads::{Size, Workload};

type Result<T> = std::result::Result<T, String>;

struct Args {
    workload: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    repro: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut size = Size::Full;
    let mut traced = false;
    let mut repro = None;
    let mut scratch = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--size" => size = Size::parse(&value).ok_or(format!("unknown size '{value}'"))?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--repro" => repro = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        size,
        traced,
        repro: repro.ok_or("--repro is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

/// The benchmark's own spans around each call into a layer, kept in memory
/// and written out with the program's trace events at the end.
struct Tracer {
    epoch: Instant,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Tracer {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .push((name, start_ns, start.elapsed().as_nanos() as u64));
        value
    }

    fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, ..)| *n == name)
            .map(|(.., dur)| *dur as f64 / 1e9)
            .sum()
    }

    fn since_epoch_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// FNV-1a, 64 bit: the digest of the archived bytes.
fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The output check: the archive parses back, carries the spec, holds a
/// record in every `(cell, trial)` slot and re-encodes to the same bytes.
/// Returns the number of slots holding a record, and the first problem.
fn check_archive(spec: &CampaignSpec, archive: &str) -> (usize, Option<String>) {
    let report = match CampaignReport::from_json_str(archive) {
        Ok(report) => report,
        Err(e) => return (0, Some(format!("archive does not parse: {e}"))),
    };
    let mut records = 0;
    for (cell_index, cell) in report.cells.iter().enumerate() {
        records += cell
            .trials
            .iter()
            .enumerate()
            .take(spec.trials_per_cell)
            .filter(|(t, r)| r.cell_index == cell_index && r.trial_index == *t)
            .count();
    }
    let problem = if report.spec != *spec {
        Some("archive carries another spec".to_string())
    } else if report.cells.len() != spec.num_cells() || records != spec.num_trials() {
        Some(format!(
            "{records} of {} slots hold a record",
            spec.num_trials()
        ))
    } else if report.to_json_string() != archive {
        Some("archive does not re-encode to the same bytes".to_string())
    } else {
        None
    };
    (records.min(spec.num_trials()), problem)
}

/// What the fleet's shard workers left behind: one metrics sidecar and one
/// checkpoint per shard.
struct FleetFiles {
    checkpoints: Vec<PathBuf>,
    sidecars: Vec<(Snapshot, f64)>,
}

fn read_fleet_files(spec: &CampaignSpec, shards: usize, dir: &Path) -> Result<FleetFiles> {
    let plan = ShardPlan::partition(spec, shards).map_err(|e| e.to_string())?;
    let mut files = FleetFiles {
        checkpoints: Vec::new(),
        sidecars: Vec::new(),
    };
    for shard in &plan.shards {
        let checkpoint = dir.join(shard_archive_file_name(&spec.name, shard));
        let sidecar = metrics_sidecar_path(&checkpoint);
        let text = std::fs::read_to_string(&sidecar)
            .map_err(|e| format!("reading {}: {e}", sidecar.display()))?;
        let doc = JsonValue::parse(&text).map_err(|e| e.to_string())?;
        let wall_s = doc.get("wall_s").and_then(JsonValue::as_f64).unwrap_or(0.0);
        let snapshot = Snapshot::from_metrics_json(&doc).map_err(|e| e.to_string())?;
        files.sidecars.push((snapshot, wall_s));
        files.checkpoints.push(checkpoint);
    }
    Ok(files)
}

/// Chrome trace of the iteration: the benchmark's spans as process 0, the
/// program's span intervals (set-up call and timed call) as process 1.
fn trace_document(tracer: &Tracer, program: &[(&Snapshot, u64)]) -> JsonValue {
    let event = |name: &str, pid: u64, tid: u64, start_ns: u64, dur_ns: u64| {
        JsonValue::Object(vec![
            ("name".to_string(), JsonValue::string(name)),
            ("ph".to_string(), JsonValue::string("X")),
            ("pid".to_string(), u64_to_json(pid)),
            ("tid".to_string(), u64_to_json(tid)),
            ("ts".to_string(), JsonValue::number(start_ns as f64 / 1e3)),
            ("dur".to_string(), JsonValue::number(dur_ns as f64 / 1e3)),
        ])
    };
    let mut events: Vec<JsonValue> = tracer
        .spans
        .iter()
        .map(|(name, start, dur)| event(name, 0, 0, *start, *dur))
        .collect();
    for (snapshot, offset_ns) in program {
        events.extend(
            snapshot
                .events
                .iter()
                .map(|(name, tid, start, dur)| event(name, 1, *tid, start + offset_ns, *dur)),
        );
    }
    JsonValue::Object(vec![("traceEvents".to_string(), JsonValue::Array(events))])
}

fn run(args: &Args) -> Result<JsonValue> {
    let workers = default_workers();
    let spec = workloads::campaign_spec(args.workload, args.seed, args.size);
    let warmup = workloads::warmup_spec(&spec);
    let fleet_dir = args.scratch.join(format!("fleet-{}", std::process::id()));
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };

    // The set-up call pays the process-wide set-up a user's campaign pays
    // before its first trial.
    telemetry::reset();
    let setup_offset_ns = tracer.since_epoch_ns();
    telemetry::set_enabled(args.traced);
    tracer
        .time("bench.setup", || run_campaign(&warmup, workers))
        .map_err(|e| format!("set-up call: {e}"))?;
    let setup_snapshot = telemetry::snapshot();

    // The timed call, with the Prepare cache cold for the workload's keys.
    telemetry::reset();
    let timed_offset_ns = tracer.since_epoch_ns();
    let before = prepare_cache::stats();
    let (report, orchestrated) = tracer
        .time("bench.campaign", || match args.workload {
            Workload::Sweep | Workload::Repeat => run_campaign(&spec, workers).map(|r| (r, None)),
            Workload::Fleet => {
                let mut launcher = ProcessLauncher::new(&args.repro, 1);
                orchestrate(
                    &spec,
                    &OrchestratorConfig::new(workers),
                    &fleet_dir,
                    &mut launcher,
                    &mut std::io::sink(),
                )
                .map(|run| (run.report, Some(run.stats)))
            }
        })
        .map_err(|e| format!("timed call: {e}"))?;
    let archive = tracer.time("bench.encode", || report.to_json_string());
    let after = prepare_cache::stats();
    let peak_rss_mb = peak_rss_mb()?;
    telemetry::set_enabled(false);
    let coordinator = telemetry::snapshot();
    drop(report);

    let (records, problem) = tracer.time("bench.check", || check_archive(&spec, &archive));
    let campaign_s = tracer.secs("bench.campaign");
    let encode_s = tracer.secs("bench.encode");
    let misses = after.misses - before.misses;
    let evictions = after.evictions - before.evictions;
    // Every miss builds, but a build whose key another worker inserted
    // first is dropped: misses minus entries added counts duplicate builds.
    let added = (after.entries + evictions as usize).saturating_sub(before.entries) as u64;
    let mut cache = CacheDelta {
        hits: after.hits - before.hits,
        misses,
        dup_builds: misses.saturating_sub(added),
        evictions,
        resident_mb: after.bytes.saturating_sub(before.bytes) as f64 / (1024.0 * 1024.0),
    };

    let mut timed = coordinator.clone();
    let mut fleet = None;
    if let Some(stats) = orchestrated {
        let files = read_fleet_files(&spec, workers, &fleet_dir)?;
        // Workers run one thread each and keep their caches to themselves:
        // their counters come from the sidecars, and neither same-process
        // duplicate builds nor resident bytes are visible from here.
        let worker_counter =
            |name: &str| -> u64 { files.sidecars.iter().map(|(s, _)| s.counter(name)).sum() };
        cache = CacheDelta {
            hits: worker_counter("executor.prepare_cache_hit"),
            misses: worker_counter("executor.prepare_cache_miss"),
            evictions: worker_counter("executor.prepare_cache_evicted"),
            dup_builds: 0,
            resident_mb: 0.0,
        };
        for (snapshot, _) in &files.sidecars {
            timed.merge(snapshot);
        }
        let merged = tracer
            .time("bench.merge", || merge_shard_files(&files.checkpoints))
            .map_err(|e| format!("re-merging the checkpoints: {e}"))?;
        if merged.to_json_string() != archive {
            return Err("re-merged checkpoints differ from the orchestrated archive".into());
        }
        let span_s =
            |s: &Snapshot, name: &str| s.span(name).map_or(0.0, |x| x.total_ns as f64 / 1e9);
        fleet = Some(FleetFacts {
            worker_setup_s: files
                .sidecars
                .iter()
                .map(|(s, _)| span_s(s, "campaign.setup") + span_s(s, "campaign.detector_train"))
                .sum(),
            slowest_shard_s: files.sidecars.iter().map(|(_, w)| *w).fold(0.0, f64::max),
            merge_s: tracer.secs("bench.merge"),
            partial_bytes: files
                .checkpoints
                .iter()
                .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
                .sum(),
            launched: stats.launched,
            shards: stats.shards,
        });
        std::fs::remove_dir_all(&fleet_dir).map_err(|e| e.to_string())?;
    }

    let timed_s = campaign_s + encode_s;
    let mut fields = vec![
        ("workload", JsonValue::string(args.workload.name())),
        ("seed", u64_to_json(args.seed)),
        ("traced", JsonValue::Bool(args.traced)),
        ("trials", u64_to_json(spec.num_trials() as u64)),
        ("records", u64_to_json(records as u64)),
        (
            "check_error",
            problem.map_or(JsonValue::Null, JsonValue::string),
        ),
        ("digest", JsonValue::string(digest(archive.as_bytes()))),
        ("setup_s", JsonValue::number(tracer.secs("bench.setup"))),
        ("timed_s", JsonValue::number(timed_s)),
        (
            "trials_per_s",
            JsonValue::number(spec.num_trials() as f64 / timed_s),
        ),
        ("peak_rss_mb", JsonValue::number(peak_rss_mb)),
        ("prepare_cache_hits", u64_to_json(cache.hits)),
        ("prepare_cache_misses", u64_to_json(cache.misses)),
        ("prepare_cache_dup_builds", u64_to_json(cache.dup_builds)),
        ("prepare_cache_evictions", u64_to_json(cache.evictions)),
        (
            "prepare_cache_resident_mb",
            JsonValue::number(cache.resident_mb),
        ),
    ];
    if args.traced {
        let layers = layers::per_layer(&Inputs {
            setup: &setup_snapshot,
            timed: &timed,
            campaign_s,
            encode_s,
            report_bytes: archive.len(),
            workers,
            cache,
            fleet,
        });
        let layers = layers
            .0
            .into_iter()
            .map(|(name, unit, value)| {
                JsonValue::Object(vec![
                    ("name".to_string(), JsonValue::string(name)),
                    ("unit".to_string(), JsonValue::string(unit)),
                    ("value".to_string(), JsonValue::number(value)),
                ])
            })
            .collect();
        fields.push(("layers", JsonValue::Array(layers)));
        let trace_path = args
            .scratch
            .join(format!("trace-{}.json", args.workload.name()));
        let document = trace_document(
            &tracer,
            &[
                (&setup_snapshot, setup_offset_ns),
                (&coordinator, timed_offset_ns),
            ],
        );
        std::fs::write(&trace_path, document.to_json_string())
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        fields.push((
            "trace_file",
            JsonValue::string(trace_path.display().to_string()),
        ));
    }
    Ok(JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ivc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("ivc-perfbench: creating {}: {e}", args.scratch.display());
        std::process::exit(1);
    }
    match run(&args) {
        Ok(line) => println!("{}", line.to_json_string()),
        Err(e) => {
            eprintln!(
                "ivc-perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            std::process::exit(1);
        }
    }
}
