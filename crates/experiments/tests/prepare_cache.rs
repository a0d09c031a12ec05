//! The prepare cache's correctness contract: archives are **byte
//! identical** with the cache on or off, warm or cold, at any worker
//! count — the cache may only change how fast a campaign runs, never a
//! single archived byte.  (That the cache keys are sound and minimal is
//! property-checked in `prepare_keys.rs`, a binary of its own so its
//! builds never race this file's exact counter assertions.)

use ivc_core::dataset::DatasetConfig;
use ivc_core::prepare_cache;
use ivc_experiments::grid::{CampaignSpec, DeliverySpec, DetectorSpec};
use ivc_experiments::run_campaign;
use ivc_room::RoomPreset;

/// A small multi-axis campaign: delivery × room, two trials per cell, so
/// the run exercises utterance, attack-build, propagation and leakage
/// caching plus the legitimate talker-variant paths — and, through
/// its one tiny detector, the cached recognizer and trained detector.
fn multi_axis_spec() -> CampaignSpec {
    CampaignSpec {
        detectors: vec![Some(DetectorSpec {
            corpus: DatasetConfig {
                // The smallest corpus that still trains (the classifier wants
                // >= 4 samples): 3 legitimate variants + 1 attack.
                distances_m: vec![1.5],
                num_speaker_variants: 3,
                command_indices: vec![0],
                max_voice_duration_s: 0.8,
            },
            ..DetectorSpec::standard(true)
        })],
        deliveries: vec![
            DeliverySpec::legitimate("legit talker", 68.0),
            DeliverySpec::array("array (4 elements, 40 W)", 4, 40.0, 40_000.0),
        ],
        rooms: vec![None, Some(RoomPreset::Office)],
        distances_m: vec![1.0],
        trials_per_cell: 2,
        max_voice_duration_s: 0.25,
        ..CampaignSpec::new("prepare-cache-identity")
    }
}

/// One test function (not several) because the cache toggle and counters
/// are process global: parallel tests would race them.
#[test]
fn archives_are_byte_identical_with_cache_on_off_warm_cold_any_workers() {
    let spec = multi_axis_spec();
    prepare_cache::clear();
    prepare_cache::set_enabled(true);

    // Cold cache: every product is a miss.
    let before = prepare_cache::stats();
    let warm1 = run_campaign(&spec, 1).expect("warm run 1").to_json_string();
    let after_first = prepare_cache::stats();
    assert!(
        after_first.misses > before.misses,
        "a cold cache must record misses"
    );

    // Fully warm cache: the same campaign re-prepares, re-enrolls and
    // re-trains nothing.
    let warm2 = run_campaign(&spec, 1).expect("warm run 2").to_json_string();
    let after_second = prepare_cache::stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "a fully warm re-run must not miss"
    );
    assert_eq!(
        after_second.entries, after_first.entries,
        "a fully warm re-run must add no entries"
    );
    assert!(
        after_second.hits > after_first.hits,
        "a fully warm re-run must hit"
    );

    // Worker count never reaches the archive, warm or not.
    let warm4 = run_campaign(&spec, 4)
        .expect("warm run, 4 workers")
        .to_json_string();

    // Cache disabled: everything rebuilt from scratch.
    prepare_cache::set_enabled(false);
    let cold = run_campaign(&spec, 2)
        .expect("cache-off run")
        .to_json_string();
    prepare_cache::set_enabled(true);

    assert_eq!(warm1, warm2, "warm re-run changed the archive");
    assert_eq!(warm1, warm4, "worker count changed the archive");
    assert_eq!(warm1, cold, "disabling the cache changed the archive");
}
