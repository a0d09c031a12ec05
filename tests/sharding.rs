//! Shard-invariance integration tests: splitting a campaign into shards
//! — at any shard count, at any per-shard worker count, with partials
//! shipped through their on-disk wire format — must reproduce the
//! single-process archive **byte for byte**.

use inaudible_voice_commands::experiments::presets;
use inaudible_voice_commands::experiments::shard::{
    merge_shards, run_shard, ShardArchive, ShardPlan,
};
use inaudible_voice_commands::experiments::{run_campaign, CampaignSpec};

/// Runs `spec` as `num_shards` shards of `workers` threads each, shipping
/// every partial through a real file in the columnar wire format, and
/// returns the merged archive bytes.
fn sharded_archive_bytes(spec: &CampaignSpec, num_shards: usize, workers: usize) -> String {
    let plan = ShardPlan::partition(spec, num_shards).unwrap();
    let scratch = std::env::temp_dir().join(format!(
        "ivc-sharding-test-{}-{}-{num_shards}-{workers}",
        std::process::id(),
        spec.name,
    ));
    std::fs::create_dir_all(&scratch).unwrap();
    let partials: Vec<ShardArchive> = plan
        .jobs()
        .iter()
        .map(|job| {
            let archive = run_shard(job, workers).unwrap();
            let path = scratch.join(format!("shard-{}.part.bin", job.shard.shard_index));
            archive.save(&path).unwrap();
            let reloaded = ShardArchive::load(&path).unwrap();
            assert_eq!(
                reloaded, archive,
                "the wire format must round-trip the shard exactly"
            );
            reloaded
        })
        .collect();
    std::fs::remove_dir_all(&scratch).ok();
    let merged = merge_shards(partials).unwrap();
    merged.to_json_string()
}

/// The satellite contract from the issue: the `smoke` and `a6` presets
/// produce identical archives for in-process vs 2 vs 4 shards, crossed
/// with 1 vs 4 workers.  `a6` (3 jobs) crossed with 4 shards also covers
/// the more-shards-than-jobs degenerate case end to end.
#[test]
fn smoke_and_a6_archives_are_shard_and_worker_invariant() {
    for spec in [presets::smoke(), presets::a6(true)] {
        let baseline = run_campaign(&spec, 1).unwrap().to_json_string();
        assert_eq!(
            run_campaign(&spec, 4).unwrap().to_json_string(),
            baseline,
            "{}: workers alone must not change the bytes",
            spec.name
        );
        for num_shards in [2, 4] {
            for workers in [1, 4] {
                assert_eq!(
                    sharded_archive_bytes(&spec, num_shards, workers),
                    baseline,
                    "{}: {num_shards} shards x {workers} workers changed the archive",
                    spec.name
                );
            }
        }
    }
}

/// Shard boundaries that fall mid-cell (a cell's trials split across two
/// shards) must still reproduce the bytes: each shard prepares the cell
/// locally and runs only its own seed range.
#[test]
fn mid_cell_shard_boundaries_reproduce_the_bytes() {
    let spec = CampaignSpec {
        deliveries: vec![
            inaudible_voice_commands::experiments::DeliverySpec::legitimate("talker 68 dB", 68.0),
            inaudible_voice_commands::experiments::DeliverySpec::array(
                "6-element array, 60 W",
                6,
                60.0,
                40_000.0,
            ),
        ],
        trials_per_cell: 3,
        base_seed: 5,
        max_voice_duration_s: 0.7,
        ..CampaignSpec::new("mid-cell-shards")
    };
    // 2 cells x 3 trials = 6 jobs; 4 shards gives [2, 2, 1, 1] — the
    // first boundary lands inside cell 0, the second inside cell 1.
    let plan = ShardPlan::partition(&spec, 4).unwrap();
    assert!(
        plan.shards
            .iter()
            .any(|s| s.start_job % spec.trials_per_cell != 0),
        "plan must actually split a cell for this test to mean anything"
    );
    let baseline = run_campaign(&spec, 2).unwrap().to_json_string();
    assert_eq!(sharded_archive_bytes(&spec, 4, 2), baseline);
}
