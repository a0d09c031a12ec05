//! Golden-archive tests: committed fixture files lock the on-disk
//! contracts (`ivc-campaign-report-v5`, the `ivc-trial-columns-v1` wire
//! format and its one-way `ivc-campaign-shard-v1` JSON dump) so a change
//! to the serialisers cannot silently reshape the bytes that ship between
//! machines.  The fixtures
//! are built from hand-written records (no trials run), so they are
//! deterministic across platforms.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! IVC_REGEN_FIXTURES=1 cargo test -p inaudible-voice-commands --test golden_archive
//! ```

use inaudible_voice_commands::experiments::columns::COLUMNS_FORMAT;
use inaudible_voice_commands::experiments::shard::{
    merge_shards, ShardArchive, ShardPlan, ShardRange,
};
use inaudible_voice_commands::experiments::{
    CampaignReport, CampaignSpec, DeliverySpec, DetectorSpec, EnvironmentPreset, TrialRecord,
};
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/{name}"))
}

/// The fixture campaign: every optional member of the format exercised —
/// detector axis, a carrier sweep over deliveries, a room, an infinite
/// voice cap (archived as null), a band summary and a large u64 seed.
fn fixture_spec() -> CampaignSpec {
    CampaignSpec {
        detectors: vec![None, Some(DetectorSpec::standard(true))],
        deliveries: vec![
            DeliverySpec::legitimate("talker 65 dB", 65.0),
            DeliverySpec::legitimate("talker 60 dB", 60.0),
            DeliverySpec::array("array (8 elements, 23.7 W)", 8, 23.7, 40_000.0)
                .with_shadow_suppression(0.25),
            DeliverySpec::array("array (8 elements, 23.7 W) @ 30 kHz", 8, 23.7, 30_000.0)
                .with_shadow_suppression(0.25),
        ],
        rooms: vec![Some(ivc_room::RoomPreset::Office)],
        environments: vec![EnvironmentPreset::WinterIndoor],
        command_indices: vec![0, 2],
        distances_m: vec![1.0, 2.5],
        trials_per_cell: 2,
        base_seed: u64::MAX - 7,
        max_voice_duration_s: f64::INFINITY,
        recording_band_summary: true,
        ..CampaignSpec::new("golden-fixture")
    }
}

/// A deterministic record for a slot: plausible values covering the
/// present/absent branches of every optional member.
fn fixture_record(spec: &CampaignSpec, cell_index: usize, trial_index: usize) -> TrialRecord {
    let cells = spec.cells();
    let coords = &cells[cell_index].coords;
    let attack = spec.deliveries[coords.delivery_index].delivery.is_attack();
    let detector = spec.detectors[coords.detector_index].is_some();
    let x = (cell_index * spec.trials_per_cell + trial_index) as f64;
    TrialRecord {
        cell_index,
        trial_index,
        seed: spec.trial_seed(trial_index),
        accepted: (cell_index + trial_index) % 2 == 0,
        word_accuracy: 1.0 / (1.0 + 0.25 * x),
        recognized_words: vec!["ok".to_string(), "google".to_string()],
        bystander_spl_db: attack.then_some(41.5 - 0.125 * x),
        bystander_spl_dba: attack.then_some(33.25 - 0.125 * x),
        bystander_voice_spl_db: attack.then_some(19.0625 - 0.125 * x),
        leak_audible: attack.then_some(cell_index % 3 == 0),
        power_shortfall_w: if cell_index % 4 == 0 { 2.5 } else { 0.0 },
        defense_features: vec![0.5 + x, -1.25, 3.0625, 0.0],
        detection_probability: detector.then_some(if attack { 0.9375 } else { 0.0625 }),
        recording_band_summary_db: Some(vec![-10.5 - x, -20.25, -30.125]),
    }
}

fn fixture_report() -> CampaignReport {
    let spec = fixture_spec();
    let cells = spec.cells();
    let mut records: Vec<TrialRecord> = Vec::new();
    for cell in &cells {
        for trial in 0..spec.trials_per_cell {
            records.push(fixture_record(&spec, cell.cell_index, trial));
        }
    }
    let shard = ShardPlan::partition(&spec, 1).unwrap().shards[0];
    merge_shards(vec![ShardArchive {
        spec,
        shard,
        records,
    }])
    .unwrap()
}

fn fixture_shard() -> ShardArchive {
    let spec = fixture_spec();
    // Shard 1 of 3 of the 32-job space: slots [11, 22) — boundaries fall
    // mid-cell on both ends, the hardest case for the slot bookkeeping.
    let shard = ShardRange {
        shard_index: 1,
        num_shards: 3,
        start_job: 11,
        end_job: 22,
    };
    let records = (shard.start_job..shard.end_job)
        .map(|slot| {
            fixture_record(
                &spec,
                slot / spec.trials_per_cell,
                slot % spec.trials_per_cell,
            )
        })
        .collect();
    ShardArchive {
        spec,
        shard,
        records,
    }
}

/// Asserts `bytes` equals the committed fixture, or rewrites the fixture
/// when `IVC_REGEN_FIXTURES=1` (for intentional format changes).
fn assert_matches_fixture(name: &str, bytes: &str) {
    let path = fixture_path(name);
    if std::env::var("IVC_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    assert_eq!(
        bytes, committed,
        "{name} drifted from the committed fixture; if the format change is \
         intentional, bump the format tag and regenerate with IVC_REGEN_FIXTURES=1"
    );
}

#[test]
fn report_fixture_is_locked_and_round_trips_byte_exactly() {
    let report = fixture_report();
    assert_matches_fixture("campaign-report-v5.json", &report.to_json_string());

    // load → save round-trips the committed file byte-exactly.
    let path = fixture_path("campaign-report-v5.json");
    let committed = std::fs::read_to_string(&path).unwrap();
    let loaded = CampaignReport::load(&path).unwrap();
    assert_eq!(loaded, report);
    assert_eq!(loaded.to_json_string(), committed);
    let resaved =
        std::env::temp_dir().join(format!("ivc-golden-report-{}.json", std::process::id()));
    loaded.save(&resaved).unwrap();
    let rewritten = std::fs::read_to_string(&resaved).unwrap();
    std::fs::remove_file(&resaved).ok();
    assert_eq!(rewritten, committed);
}

/// The JSON dump (`repro export-json`) is one way: nothing loads it back,
/// so the fixture pins its bytes only.
#[test]
fn shard_fixture_is_locked_and_round_trips_byte_exactly() {
    assert_matches_fixture("campaign-shard-v1.json", &fixture_shard().to_json_string());
}

/// The binary twin of [`assert_matches_fixture`] for columnar fixtures.
fn assert_matches_fixture_bytes(name: &str, bytes: &[u8]) {
    let path = fixture_path(name);
    if std::env::var("IVC_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
        return;
    }
    let committed =
        std::fs::read(&path).unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    assert_eq!(
        bytes, committed,
        "{name} drifted from the committed fixture; if the format change is \
         intentional, bump the format tag and regenerate with IVC_REGEN_FIXTURES=1"
    );
}

#[test]
fn trial_columns_fixture_is_locked_and_round_trips_byte_exactly() {
    let shard = fixture_shard();
    assert_matches_fixture_bytes("trial-columns-v1.bin", &shard.to_column_bytes());

    // load → save round-trips the committed file byte-exactly.
    let path = fixture_path("trial-columns-v1.bin");
    let committed = std::fs::read(&path).unwrap();
    let loaded = ShardArchive::load(&path).unwrap();
    assert_eq!(loaded, shard);
    let resaved =
        std::env::temp_dir().join(format!("ivc-golden-columns-{}.bin", std::process::id()));
    loaded.save(&resaved).unwrap();
    let rewritten = std::fs::read(&resaved).unwrap();
    std::fs::remove_file(&resaved).ok();
    assert_eq!(rewritten, committed);

    assert_eq!(ShardArchive::from_column_bytes(&committed).unwrap(), shard);
}

#[test]
fn truncated_columnar_archives_are_rejected_loudly() {
    let bytes = fixture_shard().to_column_bytes();
    // Chop at several depths: inside the tag, inside the header, inside
    // the column data and one byte short of the end.  Every cut must be
    // an error, never a silent partial read.
    for cut in [0, 4, 12, 40, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            ShardArchive::from_column_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
    // Trailing garbage is just as loud.
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(
        ShardArchive::from_column_bytes(&padded).is_err(),
        "trailing bytes must be rejected"
    );
}

#[test]
fn older_format_tags_fail_with_a_versioned_error() {
    let report_text = fixture_report().to_json_string();
    for old_tag in [
        "ivc-campaign-report-v1",
        "ivc-campaign-report-v2",
        "ivc-campaign-report-v3",
        "ivc-campaign-report-v4",
    ] {
        let aged = report_text.replace("ivc-campaign-report-v5", old_tag);
        let err = CampaignReport::from_json_str(&aged)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(old_tag) && err.contains("ivc-campaign-report-v5"),
            "error must name both the found and the expected version: {err}"
        );
    }

    // Columnar: the version tag is the first length-prefixed string, so a
    // same-length substitution ages the bytes without breaking framing.
    let mut aged_bytes = fixture_shard().to_column_bytes();
    let old_tag = b"ivc-trial-columns-v0";
    assert_eq!(old_tag.len(), COLUMNS_FORMAT.len());
    aged_bytes[8..8 + old_tag.len()].copy_from_slice(old_tag);
    let err = ShardArchive::from_column_bytes(&aged_bytes)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("ivc-trial-columns-v0") && err.contains(COLUMNS_FORMAT),
        "error must name both the found and the expected version: {err}"
    );
}
