//! Integration tests of the campaign engine through the umbrella API:
//! worker-count invariance of the archived bytes, and archive round-trips
//! via the filesystem.

use inaudible_voice_commands::core::DatasetConfig;
use inaudible_voice_commands::experiments::presets;
use inaudible_voice_commands::experiments::{
    run_campaign, CampaignReport, CampaignSpec, DeliverySpec, DetectorSpec,
};

/// A minimal grid that still exercises attack trials end to end.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        deliveries: vec![DeliverySpec::array(
            "6-element array, 60 W",
            6,
            60.0,
            40_000.0,
        )],
        distances_m: vec![1.0, 2.0],
        trials_per_cell: 2,
        base_seed: 11,
        max_voice_duration_s: 0.7,
        ..CampaignSpec::new("integration-tiny")
    }
}

#[test]
fn campaign_reports_are_worker_count_invariant_and_archive_losslessly() {
    let spec = tiny_spec();
    let serial = run_campaign(&spec, 1).unwrap();
    let parallel = run_campaign(&spec, 4).unwrap();

    // The tentpole promise: same spec + seed => byte-identical archives,
    // no matter how the trials were scheduled.
    let serial_json = serial.to_json_string();
    assert_eq!(serial_json, parallel.to_json_string());

    // Repeated trials really happened and reference their seeds.
    assert_eq!(serial.cells.len(), 2);
    for cell in &serial.cells {
        assert_eq!(cell.trials.len(), 2);
        assert_eq!(cell.trials[0].seed, 11);
        assert_eq!(cell.trials[1].seed, 12);
        assert!(cell.stats.success_ci_low <= cell.stats.success_rate);
        assert!(cell.stats.success_rate <= cell.stats.success_ci_high);
    }

    // Save → load → identical report, through a real file.
    let path = std::env::temp_dir().join(format!(
        "ivc-campaign-integration-{}.json",
        std::process::id()
    ));
    serial.save(&path).unwrap();
    let loaded = CampaignReport::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, serial);
    assert_eq!(loaded.to_json_string(), serial_json);
}

#[test]
fn rooms_campaign_is_worker_count_invariant() {
    // The deterministic-output guarantee extends to the room axis: the
    // `rooms` preset's archive bytes must not depend on scheduling.  The
    // grid is the built-in preset with a trimmed distance axis and a
    // shorter voice cap so the double run stays fast.
    let spec = CampaignSpec {
        distances_m: vec![1.0, 2.0],
        max_voice_duration_s: 0.7,
        ..presets::rooms(true)
    };
    let serial = run_campaign(&spec, 1).unwrap();
    let parallel = run_campaign(&spec, 8).unwrap();
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "rooms archive bytes must not depend on the worker count"
    );
    // Every room appears in the archived cells, and the report records
    // the room per cell.
    assert_eq!(serial.cells.len(), spec.rooms.len() * 2);
    for cell in &serial.cells {
        assert!(cell.cell.coords.room_index < spec.rooms.len());
    }
    let text = serial.to_json_string();
    for token in ["anechoic", "office", "conference_room", "through_doorway"] {
        assert!(text.contains(token), "archive missing room token {token}");
    }
}

#[test]
fn shared_contexts_and_new_axes_are_worker_count_invariant() {
    // The staged executor shares PreparedCells across a cell's trials,
    // talker-variant renders across legitimate trials, and one trained
    // detector across an axis entry's cells.  None of that sharing may
    // leak scheduling into the archive: the bytes must match at any
    // worker count, with the detector axis, shadow suppression and a
    // power sweep over deliveries in play at once.
    let spec = CampaignSpec {
        detectors: vec![
            None,
            Some(DetectorSpec {
                corpus: DatasetConfig {
                    distances_m: vec![1.5],
                    num_speaker_variants: 3,
                    command_indices: vec![0],
                    max_voice_duration_s: 0.7,
                },
                ..DetectorSpec::standard(true)
            }),
        ],
        deliveries: vec![
            DeliverySpec::legitimate("talker 68 dB", 68.0),
            DeliverySpec::single_speaker("single speaker, 18.7 W @ 30 kHz", 18.7, 30_000.0)
                .with_shadow_suppression(0.5),
            DeliverySpec::single_speaker("single speaker, 10 W @ 30 kHz", 10.0, 30_000.0)
                .with_shadow_suppression(0.5),
        ],
        distances_m: vec![1.5],
        trials_per_cell: 3,
        base_seed: 6, // variants 6, 7, 0 across the three trials
        max_voice_duration_s: 0.7,
        ..CampaignSpec::new("integration-v3-axes")
    };
    let serial = run_campaign(&spec, 1).unwrap();
    let parallel = run_campaign(&spec, 8).unwrap();
    assert_eq!(
        serial.to_json_string(),
        parallel.to_json_string(),
        "v3-axis archive bytes must not depend on the worker count"
    );
    // The detector half of the grid carries probabilities, the plain half
    // does not; both halves agree on everything else (the detector only
    // *observes* trials).
    let half = serial.cells.len() / 2;
    for (plain, scored) in serial.cells.iter().zip(serial.cells[half..].iter()) {
        for (p, s) in plain.trials.iter().zip(scored.trials.iter()) {
            assert_eq!(p.detection_probability, None);
            assert!(s.detection_probability.is_some());
            assert_eq!(p.accepted, s.accepted);
            assert_eq!(p.word_accuracy, s.word_accuracy);
            assert_eq!(p.defense_features, s.defense_features);
        }
    }
}
