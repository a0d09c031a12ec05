//! CLI-level tests of the `repro` binary: every bad input must exit
//! non-zero with a one-line error — never a panic — and the shard
//! subcommands must hold the file-based contract end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("running the repro binary")
}

/// Stderr of a failed run, asserted to be a single non-empty line (the
/// "one-line error" contract) that never looks like a panic.
fn one_line_error(output: &Output, context: &str) -> String {
    assert!(
        !output.status.success(),
        "{context}: expected a non-zero exit, got {:?}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        !stderr.contains("panicked"),
        "{context}: the driver panicked:\n{stderr}"
    );
    let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(
        lines.len(),
        1,
        "{context}: expected exactly one error line, got:\n{stderr}"
    );
    lines[0].to_string()
}

#[test]
fn unknown_campaign_preset_is_a_one_line_error() {
    let output = repro(&["campaign", "nonexistent-preset"]);
    let line = one_line_error(&output, "unknown preset");
    assert!(
        line.contains("unknown campaign preset 'nonexistent-preset'"),
        "{line}"
    );
    assert!(
        line.contains("smoke"),
        "error should list the presets: {line}"
    );
}

#[test]
fn unknown_experiment_id_is_a_one_line_error() {
    for (args, needle) in [
        (
            &["not-an-experiment"][..],
            "unknown experiment id 'not-an-experiment'",
        ),
        (
            &["bench-diff", "a", "b"][..],
            "unknown experiment id 'bench-diff'",
        ),
        (
            &["orchestrate", "smoke"][..],
            "unknown experiment id 'orchestrate'",
        ),
    ] {
        let output = repro(args);
        assert!(!output.status.success(), "`repro {}`", args.join(" "));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(needle), "{stderr}");
    }
}

#[test]
fn malformed_flag_values_are_one_line_errors() {
    for (args, needle) in [
        (
            &["campaign", "smoke", "--workers", "three"][..],
            "invalid --workers value 'three'",
        ),
        (
            &["campaign", "smoke", "--shards", "2.5"][..],
            "invalid --shards value '2.5'",
        ),
        (
            &["campaign", "smoke", "--shards", "0"][..],
            "invalid --shards value '0'",
        ),
        (
            &["campaign", "smoke", "--workers"][..],
            "--workers needs a number",
        ),
        (
            &["campaign", "smoke", "--workers", "0"][..],
            "invalid --workers value '0'",
        ),
        (
            &["campaign", "smoke", "--archive", "--workers", "2"][..],
            "--archive needs a directory",
        ),
        (
            &["campaign", "smoke", "--frobnicate"][..],
            "unknown flag '--frobnicate'",
        ),
        (&["campaign"][..], "campaign needs a preset name"),
        (
            &["a1", "campaign", "smoke"][..],
            "'campaign' cannot be combined with experiment ids (a1)",
        ),
        (&["a1", "--shards", "2"][..], "--shards applies to"),
        (
            &["campaign", "smoke", "--out", "x.json"][..],
            "--out applies to",
        ),
        (
            &["shard-merge", "--out", "x.json", "--archive", "d", "p.json"][..],
            "--archive applies to",
        ),
        (
            &["shard-merge", "--out", "x.json", "--workers", "8", "p.json"][..],
            "--workers applies to",
        ),
        (
            &[
                "shard-plan",
                "smoke",
                "--shards",
                "2",
                "--out-dir",
                "d",
                "--workers",
                "2",
            ][..],
            "--workers applies to",
        ),
        (&["shard-plan", "smoke"][..], "shard-plan needs --shards"),
        (
            &["shard-plan", "smoke", "--shards", "2"][..],
            "shard-plan needs --out-dir",
        ),
        (&["shard-worker"][..], "shard-worker needs --job"),
        (
            &["shard-worker", "--job", "x.json"][..],
            "shard-worker needs --out",
        ),
        (
            &["shard-merge", "--out", "x.json"][..],
            "at least one partial",
        ),
        (&["shard-merge", "a.json"][..], "shard-merge needs --out"),
        (
            &["campaign", "smoke", "--max-retries", "2"][..],
            "--max-retries needs --shards N",
        ),
        (
            &["campaign", "smoke", "--straggler-timeout", "5"][..],
            "--straggler-timeout needs --shards N",
        ),
        (
            &["campaign", "smoke", "--resume", "ckpt"][..],
            "--resume needs --shards N",
        ),
        (
            &["profile", "smoke", "--resume", "ckpt"][..],
            "--resume needs --shards N",
        ),
        (
            &["a1", "--max-retries", "2"][..],
            "--max-retries applies to",
        ),
        (
            &[
                "campaign",
                "smoke",
                "--shards",
                "2",
                "--max-retries",
                "many",
            ][..],
            "invalid --max-retries value 'many'",
        ),
        (
            &[
                "campaign",
                "smoke",
                "--shards",
                "2",
                "--straggler-timeout",
                "soon",
            ][..],
            "invalid --straggler-timeout value 'soon'",
        ),
        (
            &[
                "campaign",
                "smoke",
                "--shards",
                "2",
                "--straggler-timeout",
                "0",
            ][..],
            "invalid --straggler-timeout value '0'",
        ),
        (
            &["campaign", "smoke", "--shards", "2", "--resume"][..],
            "--resume needs a checkpoint directory",
        ),
        (&["profile"][..], "profile needs a preset name"),
        (
            &["campaign", "smoke", "--metrics"][..],
            "--metrics needs an output file",
        ),
        (
            &["campaign", "smoke", "--trace"][..],
            "--trace needs an output file",
        ),
        (
            &[
                "shard-merge",
                "--out",
                "x.json",
                "--metrics",
                "m.json",
                "p.json",
            ][..],
            "--metrics applies to",
        ),
        (
            &[
                "shard-plan",
                "smoke",
                "--shards",
                "2",
                "--out-dir",
                "d",
                "--trace",
                "t.json",
            ][..],
            "--trace applies to",
        ),
        (
            &["profile", "smoke", "--archive", "d"][..],
            "--archive applies to",
        ),
        (
            &["campaign", "smoke", "--max-regress", "10"][..],
            "unknown flag '--max-regress'",
        ),
        (&["export-json", "p.bin"][..], "export-json needs --out"),
        (
            &["export-json", "--out", "x.json"][..],
            "exactly one partial archive",
        ),
        (
            &["export-json", "a.bin", "b.bin", "--out", "x.json"][..],
            "exactly one partial archive",
        ),
    ] {
        let output = repro(args);
        let line = one_line_error(&output, &args.join(" "));
        assert!(
            line.contains(needle),
            "`repro {}`: expected '{needle}' in '{line}'",
            args.join(" ")
        );
    }
}

/// More shards than trials cannot be satisfied — every shard must own at
/// least one trial.  Both sharded subcommands refuse with a one-line
/// error before running anything (smoke has 4 trials).
#[test]
fn oversharded_runs_are_refused_with_one_line_errors() {
    for subcommand in ["campaign", "profile"] {
        let output = repro(&[subcommand, "smoke", "--shards", "64"]);
        let line = one_line_error(&output, &format!("{subcommand} oversharded"));
        assert!(
            line.contains("every shard must own at least one trial"),
            "`repro {subcommand} smoke --shards 64`: {line}"
        );
    }
}

#[test]
fn unreadable_shard_job_file_is_a_one_line_error() {
    let missing =
        std::env::temp_dir().join(format!("ivc-cli-missing-{}.job.json", std::process::id()));
    let missing_str = missing.to_string_lossy().into_owned();
    let output = repro(&["shard-worker", "--job", &missing_str, "--out", "out.json"]);
    let line = one_line_error(&output, "missing job file");
    assert!(
        line.contains("reading") && line.contains(&missing_str),
        "{line}"
    );

    // A file that exists but is not a job file fails with a decode error,
    // not a panic.
    let garbage =
        std::env::temp_dir().join(format!("ivc-cli-garbage-{}.job.json", std::process::id()));
    std::fs::write(&garbage, "not json at all").unwrap();
    let garbage_str = garbage.to_string_lossy().into_owned();
    let output = repro(&["shard-worker", "--job", &garbage_str, "--out", "out.json"]);
    std::fs::remove_file(&garbage).ok();
    let line = one_line_error(&output, "garbage job file");
    assert!(line.contains("decode"), "{line}");
}

/// A hand-edited job file is checked like a spec: an array of no
/// elements is refused, and so is a member an older format had (the
/// bystander distance is a constant).
#[test]
fn edited_shard_job_files_are_refused_with_one_line_errors() {
    let scratch = std::env::temp_dir().join(format!("ivc-cli-edited-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let dir = scratch.to_string_lossy().into_owned();
    let plan = repro(&["shard-plan", "smoke", "--shards", "1", "--out-dir", &dir]);
    assert!(plan.status.success(), "shard-plan failed: {plan:?}");
    let job = scratch.join("smoke.shard-0-of-1.job.json");
    let text = std::fs::read_to_string(&job).unwrap();
    for (from, to, expected) in [
        (
            "\"num_elements\": 6",
            "\"num_elements\": 0",
            "'array (6 elements, 60 W)': an array needs at least one element",
        ),
        (
            "\"distances_m\":",
            "\"bystander_distance_m\": 1,\n    \"distances_m\":",
            "unknown spec member 'bystander_distance_m'",
        ),
    ] {
        assert!(text.contains(from), "{from}");
        let edited = scratch.join("edited.job.json");
        std::fs::write(&edited, text.replacen(from, to, 1)).unwrap();
        let out = scratch.join("edited.part.bin");
        let output = repro(&[
            "shard-worker",
            "--job",
            &edited.to_string_lossy(),
            "--out",
            &out.to_string_lossy(),
        ]);
        let line = one_line_error(&output, expected);
        assert!(line.contains(expected), "{line}");
        assert!(!out.exists(), "a refused job wrote a partial");
    }
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn shard_merge_rejects_unreadable_partials() {
    let missing =
        std::env::temp_dir().join(format!("ivc-cli-missing-{}.part.json", std::process::id()));
    let out = std::env::temp_dir().join(format!("ivc-cli-merge-{}.json", std::process::id()));
    let output = repro(&[
        "shard-merge",
        "--out",
        &out.to_string_lossy(),
        &missing.to_string_lossy(),
    ]);
    let line = one_line_error(&output, "missing partial");
    assert!(line.contains("reading"), "{line}");
}

/// The columnar shard contract end to end at the CLI: workers write
/// columnar partials; `export-json` dumps one as the valid
/// `ivc-campaign-shard-v1` JSON document `to_json_string()` gives; and
/// `shard-merge` of the binary partials reproduces the in-process bytes.
#[test]
fn columnar_partials_export_as_json_and_merge_to_the_in_process_bytes() {
    use ivc_core::json::JsonValue;
    use ivc_experiments::shard::{ShardArchive, SHARD_FORMAT};
    let scratch = std::env::temp_dir().join(format!("ivc-cli-columnar-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let path = |name: &str| -> String { scratch.join(name).to_string_lossy().into_owned() };
    let run = |args: &[&str], context: &str| {
        let output = repro(args);
        assert!(output.status.success(), "{context} failed: {output:?}");
    };

    run(
        &[
            "shard-plan",
            "smoke",
            "--shards",
            "2",
            "--out-dir",
            &path(""),
        ],
        "shard-plan",
    );
    for shard in 0..2 {
        let job = path(&format!("smoke.shard-{shard}-of-2.job.json"));
        let bin = path(&format!("part{shard}.bin"));
        run(
            &[
                "shard-worker",
                "--job",
                &job,
                "--out",
                &bin,
                "--workers",
                "1",
            ],
            &format!("shard-worker {shard}"),
        );
        let exported = path(&format!("export{shard}.json"));
        run(
            &["export-json", &bin, "--out", &exported],
            &format!("export-json {shard}"),
        );
        let text = std::fs::read_to_string(&exported).unwrap();
        let doc = JsonValue::parse(&text).expect("export-json writes valid JSON");
        assert_eq!(
            doc.get("format").and_then(JsonValue::as_str),
            Some(SHARD_FORMAT)
        );
        let partial = ShardArchive::load(std::path::Path::new(&bin)).unwrap();
        assert_eq!(
            text,
            partial.to_json_string(),
            "export-json must write exactly to_json_string() for shard {shard}"
        );
    }
    run(
        &[
            "shard-merge",
            "--out",
            &path("merged.json"),
            &path("part0.bin"),
            &path("part1.bin"),
        ],
        "shard-merge",
    );
    let merged = std::fs::read_to_string(scratch.join("merged.json")).unwrap();
    let in_process = ivc_experiments::run_campaign(&ivc_experiments::presets::smoke(), 2)
        .unwrap()
        .to_json_string();
    assert_eq!(
        merged, in_process,
        "merged columnar partials must reproduce the in-process bytes"
    );
    std::fs::remove_dir_all(&scratch).ok();
}

/// Columnar is the only wire format: a legacy JSON partial — even a
/// complete, valid one — is a one-line decode error naming the file, with
/// no panic and no output written.
#[test]
fn shard_merge_rejects_a_legacy_json_partial() {
    use ivc_experiments::shard::{ShardArchive, ShardRange};
    use ivc_experiments::{CampaignSpec, DeliverySpec, TrialRecord};
    let spec = CampaignSpec {
        deliveries: vec![DeliverySpec::array("4 elements", 4, 40.0, 40_000.0)],
        distances_m: vec![1.0],
        trials_per_cell: 2,
        ..CampaignSpec::new("legacy-json")
    };
    let num_jobs = spec.num_trials();
    let partial = ShardArchive {
        shard: ShardRange {
            shard_index: 0,
            num_shards: 1,
            start_job: 0,
            end_job: num_jobs,
        },
        records: (0..num_jobs)
            .map(|slot| TrialRecord {
                cell_index: slot / spec.trials_per_cell,
                trial_index: slot % spec.trials_per_cell,
                seed: spec.trial_seed(slot % spec.trials_per_cell),
                accepted: true,
                word_accuracy: 1.0,
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
        spec,
    };
    let scratch = std::env::temp_dir().join(format!("ivc-cli-legacy-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let legacy = scratch.join("legacy.part.json");
    std::fs::write(&legacy, partial.to_json_string()).unwrap();
    let out = scratch.join("merged.json");
    let output = repro(&[
        "shard-merge",
        "--out",
        &out.to_string_lossy(),
        &legacy.to_string_lossy(),
    ]);
    let line = one_line_error(&output, "legacy JSON partial");
    assert!(line.contains("decode"), "{line}");
    assert!(line.contains("legacy.part.json"), "{line}");
    assert!(!out.exists(), "a failed merge must not write output");
    std::fs::remove_dir_all(&scratch).ok();
}

/// An unknown preset through `profile` is the same one-line runtime
/// error the other preset-taking subcommands give.
#[test]
fn unknown_profile_preset_is_a_one_line_error() {
    let output = repro(&["profile", "nonexistent-preset"]);
    let line = one_line_error(&output, "unknown profile preset");
    assert!(
        line.contains("unknown campaign preset 'nonexistent-preset'"),
        "{line}"
    );
}

/// Telemetry is observation, never participation: the smoke archive must
/// be byte-identical with `--metrics`/`--trace` on or off, at any worker
/// count and across forked shard workers — while the metrics document
/// parses as `ivc-metrics-v1` with non-zero span counts for all three
/// pipeline stages and the trace document holds Chrome trace events.
#[test]
fn telemetry_export_leaves_the_archive_bytes_identical() {
    use ivc_core::json::JsonValue;
    let scratch = std::env::temp_dir().join(format!("ivc-cli-telemetry-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let dir = |name: &str| -> PathBuf { scratch.join(name) };
    let run = |args: &[&str], context: &str| {
        let output = repro(args);
        assert!(output.status.success(), "{context} failed: {output:?}");
    };

    run(
        &[
            "campaign",
            "smoke",
            "--workers",
            "1",
            "--archive",
            &dir("base").to_string_lossy(),
        ],
        "baseline",
    );
    let baseline = std::fs::read_to_string(dir("base").join("smoke.json")).unwrap();

    let metrics_1 = dir("m1.json");
    run(
        &[
            "campaign",
            "smoke",
            "--workers",
            "1",
            "--metrics",
            &metrics_1.to_string_lossy(),
            "--archive",
            &dir("w1").to_string_lossy(),
        ],
        "workers 1 + metrics",
    );
    let metrics_8 = dir("m8.json");
    let trace_8 = dir("t8.json");
    run(
        &[
            "campaign",
            "smoke",
            "--workers",
            "8",
            "--metrics",
            &metrics_8.to_string_lossy(),
            "--trace",
            &trace_8.to_string_lossy(),
            "--archive",
            &dir("w8").to_string_lossy(),
        ],
        "workers 8 + metrics + trace",
    );
    let metrics_sharded = dir("ms.json");
    run(
        &[
            "campaign",
            "smoke",
            "--shards",
            "2",
            "--workers",
            "2",
            "--metrics",
            &metrics_sharded.to_string_lossy(),
            "--archive",
            &dir("sharded").to_string_lossy(),
        ],
        "shards 2 + metrics",
    );
    for flavour in ["w1", "w8", "sharded"] {
        let archived = std::fs::read_to_string(dir(flavour).join("smoke.json")).unwrap();
        assert_eq!(
            archived, baseline,
            "telemetry changed the archive bytes ({flavour})"
        );
    }

    // Every metrics document — in-process AND the fleet-merged sharded
    // one — carries all three pipeline stages with every trial counted.
    // Smoke is 2 cells x 2 trials, so each stage closed 4 spans.
    for path in [&metrics_1, &metrics_8, &metrics_sharded] {
        let doc = JsonValue::parse(&std::fs::read_to_string(path).unwrap())
            .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()));
        assert_eq!(
            doc.get("format").and_then(JsonValue::as_str),
            Some("ivc-metrics-v1")
        );
        let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
        for stage in ["stage.prepare", "stage.perturb", "stage.evaluate"] {
            let span = spans
                .iter()
                .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(stage))
                .unwrap_or_else(|| panic!("{}: no {stage} spans", path.display()));
            let count = span.get("count").and_then(JsonValue::as_u64).unwrap_or(0);
            assert_eq!(count, 4, "{}: wrong {stage} span count", path.display());
            // The percentile estimates are part of the document and sit
            // inside the observed range.
            for (p, name) in [("p50_ns", "p50"), ("p90_ns", "p90"), ("p99_ns", "p99")] {
                let value = span.get(p).and_then(JsonValue::as_u64);
                assert!(
                    value.is_some(),
                    "{}: {stage} missing {name}",
                    path.display()
                );
            }
        }
        let counters = doc.get("counters").and_then(JsonValue::as_array).unwrap();
        let trials = counters
            .iter()
            .find(|c| {
                c.get("name").and_then(JsonValue::as_str) == Some("executor.trials_completed")
            })
            .and_then(|c| c.get("value"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        assert_eq!(trials, 4, "{}: trial counter drifted", path.display());
    }
    // The sharded document is the merged fleet: provenance names the
    // coordinator and both workers, and the workers own the stage time.
    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics_sharded).unwrap()).unwrap();
    let sources = doc
        .get("sources")
        .and_then(JsonValue::as_array)
        .expect("fleet document carries sources");
    let labels: Vec<&str> = sources
        .iter()
        .filter_map(|s| s.get("name").and_then(JsonValue::as_str))
        .collect();
    for expected in ["coordinator", "shard-0-of-2", "shard-1-of-2"] {
        assert!(
            labels.contains(&expected),
            "missing source {expected}: {labels:?}"
        );
    }

    // The trace document is loadable Chrome trace-event JSON.
    let trace = JsonValue::parse(&std::fs::read_to_string(&trace_8).unwrap()).unwrap();
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    for event in events {
        assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert!(event.get("name").and_then(JsonValue::as_str).is_some());
        assert!(event.get("ts").and_then(JsonValue::as_f64).is_some());
        assert!(event.get("dur").and_then(JsonValue::as_f64).is_some());
    }

    std::fs::remove_dir_all(&scratch).ok();
}

/// `repro profile` prints the per-stage attribution table, and with one
/// worker the top-level stage totals track the run's wall clock.
#[test]
fn profile_prints_stage_attribution_covering_the_wall_clock() {
    let metrics = std::env::temp_dir().join(format!("ivc-cli-profile-{}.json", std::process::id()));
    let output = repro(&["profile", "smoke", "--metrics", &metrics.to_string_lossy()]);
    assert!(output.status.success(), "profile failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    for needle in [
        "Stage attribution",
        "stage.prepare",
        "stage.perturb",
        "stage.evaluate",
        // The smoke grid shares utterances and attack builds across
        // cells, so the prepare cache reports both hits and misses.
        "counter:executor.prepare_cache_hit",
        "counter:executor.prepare_cache_miss",
        "stages account for",
    ] {
        assert!(stdout.contains(needle), "missing '{needle}':\n{stdout}");
    }
    // "stages account for X s of Y s wall (Z%)" — the attribution must
    // cover most of the wall clock (the acceptance bar is 90%; leave
    // headroom for noisy CI machines).
    let percent: f64 = stdout
        .split("wall (")
        .nth(1)
        .and_then(|rest| rest.split('%').next())
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("no coverage footer in:\n{stdout}"));
    assert!(
        percent >= 80.0,
        "stage attribution covers only {percent}% of wall clock:\n{stdout}"
    );
    // --metrics composes with profile.
    assert!(metrics.exists(), "profile did not write --metrics");
    std::fs::remove_file(&metrics).ok();
}

/// The acceptance path end to end, through real processes and real files:
/// `campaign smoke` in-process == `campaign smoke --shards 2` (the
/// supervising orchestrator) == shard-plan → 2x shard-worker →
/// shard-merge.  All three archives must be byte-identical.
#[test]
fn sharded_smoke_campaign_reproduces_the_in_process_bytes() {
    let scratch = std::env::temp_dir().join(format!("ivc-cli-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let dir = |name: &str| -> PathBuf { scratch.join(name) };

    // 1. In-process baseline.
    let output = repro(&[
        "campaign",
        "smoke",
        "--workers",
        "2",
        "--archive",
        &dir("in-process").to_string_lossy(),
    ]);
    assert!(output.status.success(), "in-process run failed: {output:?}");
    let baseline = std::fs::read_to_string(dir("in-process").join("smoke.json")).unwrap();

    // 2. Forked shard workers behind the same subcommand.
    let output = repro(&[
        "campaign",
        "smoke",
        "--shards",
        "2",
        "--workers",
        "2",
        "--archive",
        &dir("sharded").to_string_lossy(),
    ]);
    assert!(output.status.success(), "sharded run failed: {output:?}");
    let sharded = std::fs::read_to_string(dir("sharded").join("smoke.json")).unwrap();
    assert_eq!(sharded, baseline, "--shards 2 changed the archive bytes");
    assert!(
        dir("sharded").join("smoke.manifest.jsonl").exists(),
        "a sharded campaign archives its run manifest"
    );

    // 3. The standalone file-based path: plan, run each worker, merge.
    let jobs_dir = dir("jobs");
    let output = repro(&[
        "shard-plan",
        "smoke",
        "--shards",
        "2",
        "--out-dir",
        &jobs_dir.to_string_lossy(),
    ]);
    assert!(output.status.success(), "shard-plan failed: {output:?}");
    let mut partials = Vec::new();
    for index in 0..2 {
        let job = jobs_dir.join(format!("smoke.shard-{index}-of-2.job.json"));
        assert!(job.exists(), "shard-plan did not write {}", job.display());
        let part = dir(&format!("part-{index}.bin"));
        let output = repro(&[
            "shard-worker",
            "--job",
            &job.to_string_lossy(),
            "--out",
            &part.to_string_lossy(),
        ]);
        assert!(
            output.status.success(),
            "shard-worker {index} failed: {output:?}"
        );
        partials.push(part);
    }
    let merged_path = dir("merged.json");
    let mut args: Vec<String> = vec![
        "shard-merge".to_string(),
        "--out".to_string(),
        merged_path.to_string_lossy().into_owned(),
    ];
    args.extend(partials.iter().map(|p| p.to_string_lossy().into_owned()));
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let output = repro(&arg_refs);
    assert!(output.status.success(), "shard-merge failed: {output:?}");
    let merged = std::fs::read_to_string(&merged_path).unwrap();
    assert_eq!(
        merged, baseline,
        "the file-based shard path changed the archive bytes"
    );

    // Mismatched coverage through the binary: merging the same partial
    // twice is an overlap — one-line error, non-zero exit, no output file.
    let overlap_out = dir("overlap.json");
    let overlap_out_str = overlap_out.to_string_lossy().into_owned();
    let part0 = partials[0].to_string_lossy().into_owned();
    let output = repro(&["shard-merge", "--out", &overlap_out_str, &part0, &part0]);
    let line = one_line_error(&output, "overlapping partials");
    assert!(line.contains("overlap"), "{line}");
    assert!(!overlap_out.exists(), "failed merge must not write output");

    std::fs::remove_dir_all(&scratch).ok();
}

/// `profile A B --metrics F` writes one document for the whole invocation:
/// the presets' snapshots merged, so F counts the spans of both (smoke's
/// 4 trials plus a1's 3).  Trace events do not merge, so `--trace` with
/// more than one profile preset is a one-line parse error.
#[test]
fn profile_metrics_cover_every_preset() {
    use ivc_core::json::JsonValue;
    let scratch = std::env::temp_dir().join(format!("ivc-cli-profile-2-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();
    let metrics = scratch.join("pm.json");
    let output = repro(&[
        "profile",
        "smoke",
        "a1",
        "--metrics",
        &metrics.to_string_lossy(),
    ]);
    assert!(output.status.success(), "profile failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.matches("Stage attribution").count(), 2, "{stdout}");
    let doc = JsonValue::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    let spans = doc.get("spans").and_then(JsonValue::as_array).unwrap();
    for stage in ["stage.prepare", "stage.perturb", "stage.evaluate"] {
        let count = spans
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(stage))
            .and_then(|s| s.get("count"))
            .and_then(JsonValue::as_u64);
        assert_eq!(count, Some(7), "{stage} must count both presets' trials");
    }

    let trace = scratch.join("t.json");
    let output = repro(&[
        "profile",
        "smoke",
        "a1",
        "--trace",
        &trace.to_string_lossy(),
    ]);
    let line = one_line_error(&output, "profile --trace with two presets");
    assert_eq!(output.status.code(), Some(2), "a parse error exits 2");
    assert!(line.contains("--trace takes one preset"), "{line}");
    assert!(!trace.exists(), "a refused run must write no trace");
    std::fs::remove_dir_all(&scratch).ok();
}

/// Paper experiments and campaigns share one run path: `repro a1 b3` and
/// `repro campaign a1 b3` archive the same set of files, byte for byte
/// (`b3` expands to several specs).
#[test]
fn experiment_archives_equal_campaign_archives() {
    let scratch = std::env::temp_dir().join(format!("ivc-cli-views-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let experiments = scratch.join("experiments");
    let campaigns = scratch.join("campaigns");
    for (args, dir) in [
        (&["a1", "b3"][..], &experiments),
        (&["campaign", "a1", "b3"][..], &campaigns),
    ] {
        let mut args = args.to_vec();
        let dir_arg = dir.to_string_lossy().into_owned();
        args.extend(["--workers", "2", "--archive", &dir_arg]);
        let output = repro(&args);
        assert!(
            output.status.success(),
            "`repro {}` failed: {output:?}",
            args.join(" ")
        );
    }
    let files = |dir: &PathBuf| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let names = files(&experiments);
    assert_eq!(
        names,
        files(&campaigns),
        "the two runs archived different files"
    );
    assert!(
        names.len() >= 3,
        "a1 and b3 archive at least three reports: {names:?}"
    );
    for name in &names {
        assert_eq!(
            std::fs::read(experiments.join(name)).unwrap(),
            std::fs::read(campaigns.join(name)).unwrap(),
            "{name} differs between the experiment and the campaign run"
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}

/// A preset named twice in one sharded invocation runs twice, each run in
/// checkpoints of its own: the second run neither resumes the first run's
/// checkpoints nor re-reads its telemetry sidecars.
#[test]
fn a_preset_named_twice_runs_in_checkpoints_of_its_own() {
    use ivc_core::json::JsonValue;
    let scratch = std::env::temp_dir().join(format!("ivc-cli-twice-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();

    // Two shards of one worker each overlap at most two stage-seconds per
    // wall-second, so no table may claim more than 200 % of its wall.
    let output = repro(&[
        "profile",
        "smoke",
        "smoke",
        "--shards",
        "2",
        "--workers",
        "1",
    ]);
    assert!(output.status.success(), "profile failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let coverage: Vec<f64> = stdout
        .split("wall (")
        .skip(1)
        .map(|rest| rest.split('%').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(coverage.len(), 2, "{stdout}");
    for percent in coverage {
        assert!(
            percent > 0.0 && percent <= 200.0,
            "{percent}% of wall:\n{stdout}"
        );
    }

    let counters = |names: &[&str]| {
        let path = scratch.join(format!("{}.json", names.len()));
        let mut args = vec!["campaign"];
        args.extend(names);
        let path_arg = path.to_string_lossy().into_owned();
        args.extend(["--shards", "2", "--workers", "1", "--metrics", &path_arg]);
        let output = repro(&args);
        assert!(output.status.success(), "{args:?} failed: {output:?}");
        let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let counter = |name: &str| {
            let counters = doc.get("counters").and_then(JsonValue::as_array).unwrap();
            counters
                .iter()
                .find(|c| c.get("name").and_then(JsonValue::as_str) == Some(name))
                .and_then(|c| c.get("value"))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        [
            "executor.trials_completed",
            "orchestrate.launched",
            "orchestrate.resumed",
        ]
        .map(counter)
    };
    let [once_trials, once_launched, once_resumed] = counters(&["smoke"]);
    let [twice_trials, twice_launched, twice_resumed] = counters(&["smoke", "smoke"]);
    assert_eq!(once_trials, 4);
    assert_eq!(twice_trials, 2 * once_trials);
    assert_eq!(twice_launched, 2 * once_launched);
    assert_eq!((once_resumed, twice_resumed), (0, 0));
    std::fs::remove_dir_all(&scratch).ok();
}
