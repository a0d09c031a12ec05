//! Property tests: campaign reports and raw JSON values survive
//! serialise → parse → serialise byte-for-byte.

use ivc_core::json::{u64_to_json, JsonValue};
use ivc_experiments::shard::{merge_shards, ShardArchive, ShardPlan};
use ivc_experiments::{CampaignReport, CampaignSpec, DeliverySpec, EnvironmentPreset, TrialRecord};
use proptest::prelude::*;

const WORDS: [&str; 6] = ["ok", "google", "alexa", "turn", "airplane", "mode"];

/// Builds a structurally valid report from fuzzed numeric inputs.
#[allow(clippy::too_many_arguments)]
fn build_report(
    base_seed: u64,
    noise_db: f64,
    n_deliveries: usize,
    n_distances: usize,
    trials_per_cell: usize,
    accuracies: &[f64],
    spls: &[f64],
    word_picks: &[usize],
) -> CampaignReport {
    let deliveries: Vec<DeliverySpec> = (0..n_deliveries)
        .map(|i| match i % 3 {
            0 => DeliverySpec::legitimate(format!("talker {i}"), 55.0 + i as f64),
            1 => DeliverySpec::single_speaker(format!("single {i}"), 1.0 + i as f64, 40_000.0),
            _ => DeliverySpec::array(format!("array {i}"), 4 + i, 30.0 * i as f64, 40_000.0),
        })
        .collect();
    let spec = CampaignSpec {
        deliveries,
        rooms: vec![None, Some(ivc_room::RoomPreset::Office)],
        environments: vec![EnvironmentPreset::MeetingRoom, EnvironmentPreset::Outdoor],
        distances_m: (0..n_distances).map(|i| 0.5 + i as f64 * 1.3).collect(),
        ambient_noise_spl_db: noise_db,
        trials_per_cell,
        base_seed,
        ..CampaignSpec::new("fuzzed")
    };
    let cells = spec.cells();
    let mut records = Vec::new();
    let mut pick = 0usize;
    for cell in &cells {
        for trial in 0..trials_per_cell {
            let accuracy = accuracies[pick % accuracies.len()];
            let spl = spls[pick % spls.len()];
            let attack = spec.deliveries[cell.coords.delivery_index]
                .delivery
                .is_attack();
            let words: Vec<String> = (0..word_picks[pick % word_picks.len()] % WORDS.len())
                .map(|w| WORDS[w].to_string())
                .collect();
            records.push(TrialRecord {
                cell_index: cell.cell_index,
                trial_index: trial,
                seed: spec.trial_seed(trial),
                accepted: accuracy > 0.5,
                word_accuracy: accuracy,
                recognized_words: words,
                bystander_spl_db: attack.then_some(spl),
                bystander_spl_dba: attack.then_some(spl - 4.2),
                bystander_voice_spl_db: attack.then_some(spl - 11.7),
                leak_audible: attack.then_some(spl > 30.0),
                power_shortfall_w: if pick % 4 == 0 { spl.abs() } else { 0.0 },
                defense_features: accuracies.iter().take(4).copied().collect(),
                detection_probability: (pick % 3 == 0).then_some(accuracy),
                recording_band_summary_db: (pick % 5 == 0)
                    .then(|| spls.iter().take(3).copied().collect()),
            });
            pick += 1;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn campaign_reports_round_trip_byte_exactly(
        base_seed in 0u64..u64::MAX,
        noise_db in 20.0f64..70.0,
        n_deliveries in 1usize..4,
        n_distances in 1usize..4,
        trials_per_cell in 1usize..4,
        accuracies in prop::collection::vec(0.0f64..1.0, 1..24),
        spls in prop::collection::vec(-40.0f64..95.0, 1..24),
        word_picks in prop::collection::vec(0usize..64, 1..24),
    ) {
        let report = build_report(
            base_seed,
            noise_db,
            n_deliveries,
            n_distances,
            trials_per_cell,
            &accuracies,
            &spls,
            &word_picks,
        );
        let text = report.to_json_string();
        let parsed = CampaignReport::from_json_str(&text)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed, &report);
        // Determinism all the way down: re-serialising the parse is
        // byte-identical to the original archive.
        prop_assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn json_numbers_and_strings_round_trip(
        numbers in prop::collection::vec(-1.0e12f64..1.0e12, 0..32),
        scale_exponents in prop::collection::vec(0i32..40, 0..32),
        seeds in prop::collection::vec(0u64..u64::MAX, 0..8),
    ) {
        // Mix magnitudes: raw values and the same values scaled far below
        // 1, where shortest-round-trip formatting matters most.
        let mut values: Vec<JsonValue> = Vec::new();
        for (i, &n) in numbers.iter().enumerate() {
            values.push(JsonValue::number(n));
            let exponent = scale_exponents.get(i % scale_exponents.len().max(1)).copied().unwrap_or(0);
            values.push(JsonValue::number(n * 10f64.powi(-exponent)));
        }
        for &s in &seeds {
            values.push(u64_to_json(s));
        }
        values.push(JsonValue::String("escape \"me\"\n\t\\ \u{1F980}".into()));
        let doc = JsonValue::Array(values);
        let compact = doc.to_json_string();
        let parsed = JsonValue::parse(&compact)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed, &doc);
        let pretty = doc.to_json_string_pretty();
        let parsed_pretty = JsonValue::parse(&pretty)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&parsed_pretty, &doc);
    }
}
