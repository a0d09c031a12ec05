//! Process-level tests of `repro campaign --shards`: real forked shard
//! workers, real failures.  Whatever the orchestrator survives — an
//! injected worker fault, a SIGKILLed worker, a SIGKILLed orchestrator
//! resumed from its checkpoints — the archive must stay byte-identical
//! to the in-process `campaign smoke` run.

use ivc_core::json::JsonValue;
use ivc_experiments::orchestrate::{ENV_FAULT_SHARD, ENV_SHARD_ATTEMPT, MANIFEST_FORMAT};
use ivc_experiments::shard::{shard_job_file_name, ShardArchive, ShardPlan};
use ivc_experiments::{presets, run_campaign, CampaignSpec, DeliverySpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn repro_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A per-test scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ivc-orch-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The in-process smoke archive every orchestrated run must reproduce,
/// computed once and shared by all tests in this binary.
fn smoke_baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        run_campaign(&presets::smoke(), 2)
            .expect("in-process smoke baseline")
            .to_json_string()
    })
}

fn read_archive(dir: &Path) -> String {
    std::fs::read_to_string(dir.join("smoke.json"))
        .unwrap_or_else(|e| panic!("reading {}/smoke.json: {e}", dir.display()))
}

/// An injected first-attempt worker failure (the CI fault-injection
/// knob) is retried by the orchestrator and leaves no trace in the
/// bytes.
#[test]
fn fault_injected_worker_failure_is_retried_to_identical_bytes() {
    let scratch = scratch_dir("fault");
    let archive = scratch.join("archive");
    let output = repro_cmd()
        .args(["campaign", "smoke", "--shards", "2", "--workers", "2"])
        .args(["--archive", &archive.to_string_lossy()])
        .env(ENV_FAULT_SHARD, "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "faulted sharded campaign failed:\n{stderr}"
    );
    // Worker stderr interleaves with orchestrator status lines at
    // format-arg boundaries, so match only a single literal segment.
    assert!(
        stderr.contains("injected fault: failing first attempt at shard"),
        "the worker fault did not fire:\n{stderr}"
    );
    assert!(
        stderr.contains("retry 1/"),
        "the orchestrator did not report the retry:\n{stderr}"
    );
    assert_eq!(
        read_archive(&archive),
        smoke_baseline(),
        "the retried run changed the archive bytes"
    );
    // The structured run manifest travels with the archive, and records
    // the retry as a machine-readable event.
    let manifest_path = archive.join("smoke.manifest.jsonl");
    let manifest = std::fs::read_to_string(&manifest_path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", manifest_path.display()));
    let events: Vec<JsonValue> = manifest
        .lines()
        .map(|line| JsonValue::parse(line).unwrap_or_else(|e| panic!("bad manifest line: {e}")))
        .collect();
    assert_eq!(
        events
            .first()
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("run_start"),
        "manifest must open with run_start"
    );
    assert_eq!(
        events
            .first()
            .and_then(|e| e.get("format"))
            .and_then(JsonValue::as_str),
        Some(MANIFEST_FORMAT),
    );
    let retry = events
        .iter()
        .find(|e| e.get("kind").and_then(JsonValue::as_str) == Some("shard_retry"))
        .expect("manifest must record the injected fault's retry");
    assert_eq!(retry.get("shard").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(retry.get("retry").and_then(JsonValue::as_u64), Some(1));
    std::fs::remove_dir_all(&scratch).ok();
}

/// The one sharded mode's retry policy, the other side of the test above
/// (where the default policy retries the same injected fault to the
/// in-process bytes): `--max-retries 0` fails fast, keeps its checkpoint
/// directory and names the command that resumes it, which then finishes
/// to the in-process bytes.
#[test]
fn max_retries_0_fails_fast_and_names_its_resume_command() {
    let scratch = scratch_dir("retry-policy");
    let sharded = ["campaign", "smoke", "--shards", "2", "--workers", "1"];
    let output = repro_cmd()
        .args(sharded)
        .args(["--max-retries", "0"])
        .env(ENV_FAULT_SHARD, "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success() && !stderr.contains("retry 1/"),
        "--max-retries 0 retried:\n{stderr}"
    );
    let hint = "`campaign smoke --shards 2 --resume ";
    let kept = stderr
        .split(hint)
        .nth(1)
        .and_then(|rest| rest.split('`').next())
        .map(PathBuf::from)
        .unwrap_or_else(|| panic!("the error does not name {hint}<dir>`:\n{stderr}"));
    assert!(
        kept.is_dir(),
        "the checkpoint directory {} is gone",
        kept.display()
    );

    let resumed = scratch.join("resumed");
    let output = repro_cmd()
        .args(sharded)
        .args(["--resume", &kept.to_string_lossy()])
        .args(["--archive", &resumed.to_string_lossy()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "the named resume failed:\n{stderr}"
    );
    assert_eq!(read_archive(&resumed), smoke_baseline());
    std::fs::remove_dir_all(&kept).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

/// The tentpole acceptance path: an orchestrated run with `--metrics`
/// produces ONE fleet-wide `ivc-metrics-v1` document whose stage spans
/// aggregate every worker (provenance names them all), while the archive
/// stays byte-identical to the no-telemetry baseline — telemetry is
/// observation, never participation.
#[test]
fn orchestrated_metrics_cover_the_whole_fleet_without_touching_bytes() {
    let scratch = scratch_dir("fleet-metrics");
    let archive = scratch.join("archive");
    let metrics = scratch.join("fleet.json");
    let output = repro_cmd()
        .args(["campaign", "smoke", "--shards", "2", "--workers", "2"])
        .args(["--archive", &archive.to_string_lossy()])
        .args(["--metrics", &metrics.to_string_lossy()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "campaign --shards --metrics failed:\n{stderr}"
    );
    assert_eq!(
        read_archive(&archive),
        smoke_baseline(),
        "fleet telemetry changed the archive bytes"
    );
    // Live progress reached the status stream.
    assert!(
        stderr.contains("progress:") && stderr.contains("trial(s) done"),
        "no progress lines on stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("trial(s)/s"),
        "run_complete throughput summary missing:\n{stderr}"
    );

    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(
        doc.get("format").and_then(JsonValue::as_str),
        Some("ivc-metrics-v1")
    );
    // Smoke is 2 cells x 2 trials split across 2 shards: the merged
    // fleet document must hold all 4 spans of every pipeline stage —
    // the coordinator alone has none of them.
    let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
    for stage in ["stage.prepare", "stage.perturb", "stage.evaluate"] {
        let count = spans
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(stage))
            .and_then(|s| s.get("count"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        assert_eq!(count, 4, "fleet document is missing {stage} spans");
    }
    // Provenance names the coordinator and every shard, and each shard
    // contributed spans.
    let sources = doc
        .get("sources")
        .and_then(JsonValue::as_array)
        .expect("fleet document carries sources");
    for worker in ["shard-0-of-2", "shard-1-of-2"] {
        let spans = sources
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(worker))
            .and_then(|s| s.get("spans"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        assert!(spans > 0, "source {worker} contributed no spans");
    }
    std::fs::remove_dir_all(&scratch).ok();
}

/// A resumed run's fleet document holds the telemetry of the workers it
/// ran, not of the earlier run whose checkpoints (and sidecars) it found:
/// run twice on one `--resume` directory, the second run resumes every
/// shard and reports no worker at all.
#[test]
fn resumed_runs_do_not_count_earlier_worker_telemetry() {
    let scratch = scratch_dir("resume-metrics");
    let resume = scratch.join("resume");
    let run = |metrics: &Path| {
        let output = repro_cmd()
            .args(["campaign", "smoke", "--shards", "2", "--workers", "1"])
            .args(["--resume", &resume.to_string_lossy()])
            .args(["--metrics", &metrics.to_string_lossy()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "campaign --resume failed:\n{stderr}"
        );
        JsonValue::parse(&std::fs::read_to_string(metrics).unwrap()).unwrap()
    };
    let names = |doc: &JsonValue, member: &str| -> Vec<String> {
        (doc.get(member).and_then(JsonValue::as_array).unwrap_or(&[]))
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .map(str::to_string)
            .collect()
    };
    let first = run(&scratch.join("first.json"));
    assert!(
        names(&first, "sources")
            .iter()
            .any(|s| s.starts_with("shard-")),
        "the first run reported no worker"
    );
    assert!(names(&first, "counters").contains(&"executor.trials_completed".to_string()));
    let second = run(&scratch.join("second.json"));
    let sources = names(&second, "sources");
    assert!(
        !sources.iter().any(|s| s.starts_with("shard-")),
        "the resumed run counted the earlier run's workers: {sources:?}"
    );
    assert!(
        !names(&second, "counters").contains(&"executor.trials_completed".to_string()),
        "the resumed run counted the earlier run's trials"
    );
    std::fs::remove_dir_all(&scratch).ok();
}

/// Scans `/proc` for a live `shard-worker` process whose command line
/// mentions `marker`, returning its pid.
fn find_worker_pid(marker: &str) -> Option<u32> {
    let entries = std::fs::read_dir("/proc").ok()?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Ok(pid) = name.to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        if cmdline.contains("shard-worker") && cmdline.contains(marker) {
            return Some(pid);
        }
    }
    None
}

/// SIGKILLing a real child worker mid-shard: the orchestrator retries
/// the shard and the final archive is still byte-identical.
#[test]
fn killed_worker_is_retried_to_identical_bytes() {
    let scratch = scratch_dir("kill-worker");
    let ckpt = scratch.join("ckpt");
    let archive = scratch.join("archive");
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    let mut child = repro_cmd()
        .args(["campaign", "smoke", "--shards", "2", "--workers", "1"])
        .args(["--resume", &ckpt_str])
        .args(["--archive", &archive.to_string_lossy()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Hunt for a worker and SIGKILL it.  If the campaign outruns us the
    // kill is skipped and this degrades to a plain byte-identity check.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut killed = false;
    while Instant::now() < deadline {
        if child.try_wait().unwrap().is_some() {
            break;
        }
        if let Some(pid) = find_worker_pid(&ckpt_str) {
            let status = Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status()
                .unwrap();
            killed = status.success();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "sharded campaign failed (worker killed: {killed}):\n{stderr}"
    );
    if killed {
        assert!(
            stderr.contains("retry 1/"),
            "the killed worker was not retried:\n{stderr}"
        );
    }
    assert_eq!(
        read_archive(&archive),
        smoke_baseline(),
        "the run with a killed worker changed the archive bytes (killed: {killed})"
    );
    std::fs::remove_dir_all(&scratch).ok();
}

/// SIGKILLing the *orchestrator* mid-campaign, then resuming from its
/// checkpoint directory: the resumed run reuses surviving checkpoints
/// and the archive is byte-identical.
#[test]
fn killed_orchestrator_resumes_to_identical_bytes() {
    let scratch = scratch_dir("kill-orch");
    let ckpt = scratch.join("ckpt");
    let archive = scratch.join("archive");
    let ckpt_str = ckpt.to_string_lossy().into_owned();
    // 4 shards x 1 worker staggers completions so a kill between the
    // first and last checkpoint is likely (but not required: if the run
    // finishes first, the resume below simply re-runs nothing and the
    // byte-identity assertion still stands).
    let mut child = repro_cmd()
        .args(["campaign", "smoke", "--shards", "4", "--workers", "1"])
        .args(["--resume", &ckpt_str])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut finished_early = false;
    let mut checkpoints_at_kill = 0;
    loop {
        if child.try_wait().unwrap().is_some() {
            finished_early = true;
            break;
        }
        checkpoints_at_kill = count_checkpoints(&ckpt);
        if checkpoints_at_kill > 0 || Instant::now() >= deadline {
            child.kill().unwrap();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait().unwrap();

    let output = repro_cmd()
        .args(["campaign", "smoke", "--shards", "4", "--workers", "1"])
        .args(["--resume", &ckpt_str])
        .args(["--archive", &archive.to_string_lossy()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "resumed run failed:\n{stderr}");
    if !finished_early && checkpoints_at_kill > 0 {
        assert!(
            stderr.contains("resumed from checkpoint"),
            "{checkpoints_at_kill} checkpoint(s) survived the kill but none resumed:\n{stderr}"
        );
    }
    assert_eq!(
        read_archive(&archive),
        smoke_baseline(),
        "kill + resume changed the archive bytes (finished early: {finished_early})"
    );
    std::fs::remove_dir_all(&scratch).ok();
}

/// Canonical checkpoints in `dir` (attempt files in flight do not count).
fn count_checkpoints(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".part.bin") && !name.contains(".attempt-")
        })
        .count()
}

/// The `IVC_FAULT_SHARD` knob itself, against a bare `shard-worker`
/// process: attempt 0 of the faulted shard dies with a one-line error
/// and no output file; any later attempt (the orchestrator stamps
/// `IVC_SHARD_ATTEMPT`) runs through.
#[test]
fn fault_knob_fails_only_the_first_attempt_of_its_shard() {
    let spec = CampaignSpec {
        deliveries: vec![DeliverySpec::array(
            "4-element array, 60 W",
            4,
            60.0,
            40_000.0,
        )],
        distances_m: vec![1.0],
        trials_per_cell: 1,
        base_seed: 11,
        max_voice_duration_s: 0.7,
        ..CampaignSpec::new("fault-knob")
    };
    let scratch = scratch_dir("fault-knob");
    let plan = ShardPlan::partition(&spec, 1).unwrap();
    let job = &plan.jobs()[0];
    let job_path = scratch.join(shard_job_file_name(&spec.name, &job.shard));
    job.save(&job_path).unwrap();
    let out_path = scratch.join("part.bin");

    let output = repro_cmd()
        .args(["shard-worker", "--job", &job_path.to_string_lossy()])
        .args(["--out", &out_path.to_string_lossy()])
        .env(ENV_FAULT_SHARD, "0")
        .output()
        .unwrap();
    assert!(!output.status.success(), "attempt 0 must fail: {output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("injected fault: failing first attempt at shard 0"),
        "{stderr}"
    );
    assert_eq!(
        stderr.lines().filter(|l| !l.trim().is_empty()).count(),
        1,
        "the injected fault must be a one-line error:\n{stderr}"
    );
    assert!(!out_path.exists(), "a failed attempt must not write output");

    let output = repro_cmd()
        .args(["shard-worker", "--job", &job_path.to_string_lossy()])
        .args(["--out", &out_path.to_string_lossy()])
        .env(ENV_FAULT_SHARD, "0")
        .env(ENV_SHARD_ATTEMPT, "1")
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "attempt 1 must run through the fault knob: {output:?}"
    );
    let partial = ShardArchive::load(&out_path).unwrap();
    assert_eq!(partial.records.len(), job.shard.num_jobs());
    std::fs::remove_dir_all(&scratch).ok();
}

/// `--resume DIR` names a directory the user owns: a successful run
/// deletes nothing in it that the run did not write (a sentinel file
/// here), and leaves its checkpoints for a later resume.
#[test]
fn resume_dir_survives_a_successful_run() {
    let scratch = scratch_dir("resume-keep");
    let ckpt = scratch.join("ckpt");
    let archive = scratch.join("archive");
    std::fs::create_dir_all(&ckpt).unwrap();
    let sentinel = ckpt.join("keep.txt");
    std::fs::write(&sentinel, "not the run's").unwrap();
    let output = repro_cmd()
        .args(["campaign", "smoke", "--shards", "2", "--workers", "1"])
        .args(["--resume", &ckpt.to_string_lossy()])
        .args(["--archive", &archive.to_string_lossy()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "campaign --shards --resume failed:\n{stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(&sentinel).ok().as_deref(),
        Some("not the run's"),
        "the run deleted a file it did not write"
    );
    assert_eq!(count_checkpoints(&ckpt), 2, "the checkpoints stay in DIR");
    assert_eq!(read_archive(&archive), smoke_baseline());
    std::fs::remove_dir_all(&scratch).ok();
}
