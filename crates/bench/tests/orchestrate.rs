//! Orchestrator integration tests at the library level: supervising a
//! campaign through [`orchestrate`] with `repro shard-worker` processes
//! must reproduce the plain [`run_campaign`] archive byte for byte — on a
//! healthy run, and on a resume from surviving checkpoints.

use ivc_core::json::JsonValue;
use ivc_experiments::orchestrate::{
    manifest_file_name, orchestrate, OrchestratorConfig, ProcessLauncher, MANIFEST_FORMAT,
};
use ivc_experiments::shard::{run_shard, shard_archive_file_name, ShardPlan};
use ivc_experiments::{run_campaign, CampaignSpec, DeliverySpec};

/// 2 cells x 2 trials: small enough to supervise quickly, large enough
/// that 2 shards each own a whole cell.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        deliveries: vec![
            DeliverySpec::legitimate("talker 68 dB", 68.0),
            DeliverySpec::array("6-element array, 60 W", 6, 60.0, 40_000.0),
        ],
        distances_m: vec![1.0],
        trials_per_cell: 2,
        base_seed: 7,
        max_voice_duration_s: 0.7,
        ..CampaignSpec::new("orchestrated-tiny")
    }
}

fn test_scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ivc-orch-lib-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn process_orchestration_reproduces_the_in_process_bytes() {
    let spec = tiny_spec();
    let baseline = run_campaign(&spec, 2).unwrap().to_json_string();
    let scratch = test_scratch("healthy");
    let mut launcher = ProcessLauncher::new(env!("CARGO_BIN_EXE_repro"), 2);
    let mut status = Vec::new();
    let run = orchestrate(
        &spec,
        &OrchestratorConfig::new(2),
        &scratch,
        &mut launcher,
        &mut status,
    )
    .unwrap();
    assert_eq!(
        run.report.to_json_string(),
        baseline,
        "supervision changed the archive bytes"
    );
    assert_eq!(run.stats.launched, 2);
    assert_eq!(run.stats.resumed, 0);
    assert_eq!(run.stats.retries, 0);
    // The interim stream reported every cell with its Wilson interval.
    let text = String::from_utf8(status).unwrap();
    assert!(text.contains("cell 1/2 complete"), "{text}");
    assert!(text.contains("cell 2/2 complete"), "{text}");
    assert!(text.contains("[95% CI"), "{text}");
    // The structured manifest is the source those lines were rendered
    // from: JSONL, opening with run_start, closing with run_complete.
    let manifest = std::fs::read_to_string(scratch.join(manifest_file_name(&spec.name))).unwrap();
    let events: Vec<JsonValue> = manifest
        .lines()
        .map(|line| JsonValue::parse(line).unwrap())
        .collect();
    fn kind(e: &JsonValue) -> Option<&str> {
        e.get("kind").and_then(JsonValue::as_str)
    }
    assert_eq!(events.first().and_then(kind), Some("run_start"));
    assert_eq!(
        events
            .first()
            .and_then(|e| e.get("format"))
            .and_then(JsonValue::as_str),
        Some(MANIFEST_FORMAT)
    );
    assert_eq!(events.last().and_then(kind), Some("run_complete"));
    assert_eq!(
        events
            .iter()
            .filter(|e| kind(e) == Some("cell_complete"))
            .count(),
        2
    );
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn manifest_progress_stream_is_monotone_and_ends_complete() {
    let spec = tiny_spec();
    let scratch = test_scratch("progress");
    let mut launcher = ProcessLauncher::new(env!("CARGO_BIN_EXE_repro"), 2);
    let mut status = Vec::new();
    orchestrate(
        &spec,
        &OrchestratorConfig::new(2),
        &scratch,
        &mut launcher,
        &mut status,
    )
    .unwrap();
    let manifest = std::fs::read_to_string(scratch.join(manifest_file_name(&spec.name))).unwrap();
    let events: Vec<JsonValue> = manifest
        .lines()
        .map(|line| JsonValue::parse(line).unwrap())
        .collect();
    fn kind(e: &JsonValue) -> Option<&str> {
        e.get("kind").and_then(JsonValue::as_str)
    }
    fn u64_field(e: &JsonValue, name: &str) -> u64 {
        e.get(name).and_then(JsonValue::as_u64).unwrap()
    }
    // The progress stream: present, monotone in trials done, constant in
    // total, and finishing at done == total before run_complete closes
    // the manifest.
    let progress: Vec<&JsonValue> = events
        .iter()
        .filter(|e| kind(e) == Some("progress"))
        .collect();
    assert!(!progress.is_empty(), "no progress events in the manifest");
    let total = spec.num_trials() as u64;
    let mut last_done = 0;
    for event in &progress {
        let done = u64_field(event, "done");
        assert!(done >= last_done, "progress went backwards: {manifest}");
        assert!(done <= total);
        assert_eq!(u64_field(event, "total"), total);
        last_done = done;
    }
    assert_eq!(last_done, total, "progress never reached done == total");
    // A rate is always paired with an ETA (both derive from the same
    // fresh-trial throughput).
    for event in &progress {
        assert_eq!(
            event.get("trials_per_s").is_some(),
            event.get("eta_s").is_some(),
            "rate and ETA must come together: {manifest}"
        );
    }
    // run_complete closes the manifest and carries the wall/throughput
    // summary of the whole run.
    let complete = events.last().unwrap();
    assert_eq!(kind(complete), Some("run_complete"));
    assert_eq!(u64_field(complete, "trials_total"), total);
    assert!(complete.get("wall_s").and_then(JsonValue::as_f64).is_some());
    assert!(complete
        .get("trials_per_s")
        .and_then(JsonValue::as_f64)
        .is_some());
    // The rendered stream shows the same progress lines.
    let text = String::from_utf8(status).unwrap();
    assert!(text.contains("progress:"), "{text}");
    assert!(text.contains("trial(s) done"), "{text}");
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn resume_reuses_surviving_checkpoints_and_reproduces_the_bytes() {
    let spec = tiny_spec();
    let baseline = run_campaign(&spec, 2).unwrap().to_json_string();
    let scratch = test_scratch("resume");
    std::fs::create_dir_all(&scratch).unwrap();
    // Pre-seed shard 0's checkpoint exactly as a killed previous
    // orchestrator would have left it: the canonical partial on disk.
    let plan = ShardPlan::partition(&spec, 2).unwrap();
    let job = &plan.jobs()[0];
    run_shard(job, 2)
        .unwrap()
        .save(&scratch.join(shard_archive_file_name(&spec.name, &job.shard)))
        .unwrap();

    let mut launcher = ProcessLauncher::new(env!("CARGO_BIN_EXE_repro"), 2);
    let mut status = Vec::new();
    let run = orchestrate(
        &spec,
        &OrchestratorConfig::new(2),
        &scratch,
        &mut launcher,
        &mut status,
    )
    .unwrap();
    assert_eq!(run.stats.resumed, 1, "the checkpoint was not resumed");
    assert_eq!(run.stats.launched, 1, "only the missing shard should run");
    assert_eq!(
        run.report.to_json_string(),
        baseline,
        "resume changed the archive bytes"
    );
    let text = String::from_utf8(status).unwrap();
    assert!(text.contains("resumed from checkpoint"), "{text}");
    std::fs::remove_dir_all(&scratch).ok();
}
