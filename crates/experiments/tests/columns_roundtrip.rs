//! Property tests of the `ivc-trial-columns-v1` wire format: a shard
//! archive with fuzzed records — every optional field flipping between
//! present and absent, f64s at arbitrary bit patterns in range — must
//! survive encode → decode exactly, and re-encoding the decode must be
//! byte-identical (the determinism the byte-identity contract rests on).

use ivc_experiments::shard::{ShardArchive, ShardRange};
use ivc_experiments::{CampaignSpec, DeliverySpec, EnvironmentPreset, TrialRecord};
use proptest::prelude::*;

const WORDS: [&str; 6] = ["ok", "google", "alexa", "turn", "airplane", "mode"];

/// Builds a structurally valid shard archive from fuzzed inputs: the
/// spec is small, the shard covers a genuine sub-range of its job space
/// (boundaries may fall mid-cell), and each record's optional members
/// are driven independently by the fuzz vectors.
#[allow(clippy::too_many_arguments)]
fn build_shard(
    base_seed: u64,
    n_deliveries: usize,
    trials_per_cell: usize,
    start_frac: f64,
    len_frac: f64,
    values: &[f64],
    picks: &[usize],
) -> ShardArchive {
    let deliveries: Vec<DeliverySpec> = (0..n_deliveries)
        .map(|i| match i % 3 {
            0 => DeliverySpec::legitimate(format!("talker {i}"), 55.0 + i as f64),
            1 => DeliverySpec::single_speaker(format!("single {i}"), 1.0 + i as f64, 40_000.0),
            _ => DeliverySpec::array(format!("array {i}"), 4 + i, 30.0 * i as f64, 40_000.0),
        })
        .collect();
    let spec = CampaignSpec {
        deliveries,
        environments: vec![EnvironmentPreset::MeetingRoom],
        distances_m: vec![1.0, 2.0],
        trials_per_cell,
        base_seed,
        ..CampaignSpec::new("columns-fuzzed")
    };
    let num_jobs = spec.num_trials();
    let start_job = ((num_jobs as f64 * start_frac) as usize).min(num_jobs - 1);
    let end_job = (start_job + 1 + ((num_jobs - start_job) as f64 * len_frac) as usize)
        .clamp(start_job + 1, num_jobs);
    let shard = ShardRange {
        shard_index: 0,
        num_shards: 1,
        start_job,
        end_job,
    };
    let records = (start_job..end_job)
        .map(|slot| {
            let value = values[slot % values.len()];
            let pick = picks[slot % picks.len()];
            let words: Vec<String> = (0..pick % WORDS.len())
                .map(|w| WORDS[w].to_string())
                .collect();
            TrialRecord {
                cell_index: slot / trials_per_cell,
                trial_index: slot % trials_per_cell,
                seed: spec.trial_seed(slot % trials_per_cell),
                accepted: pick % 2 == 0,
                word_accuracy: value.abs().min(1.0),
                recognized_words: words,
                bystander_spl_db: (pick % 3 != 0).then_some(value),
                bystander_spl_dba: (pick % 5 != 0).then_some(value - 4.25),
                bystander_voice_spl_db: (pick % 7 != 0).then_some(-value),
                leak_audible: (pick % 4 != 0).then_some(pick % 8 < 4),
                power_shortfall_w: if pick % 6 == 0 { value.abs() } else { 0.0 },
                defense_features: if pick % 9 == 0 {
                    vec![]
                } else {
                    values.iter().take(pick % 5 + 1).copied().collect()
                },
                detection_probability: (pick % 2 == 1).then_some(value.abs().min(1.0)),
                recording_band_summary_db: (pick % 3 == 1)
                    .then(|| values.iter().take(pick % 4 + 1).map(|v| -v.abs()).collect()),
            }
        })
        .collect();
    ShardArchive {
        spec,
        shard,
        records,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shard_archives_round_trip_through_columns_byte_exactly(
        base_seed in 0u64..u64::MAX,
        n_deliveries in 1usize..4,
        trials_per_cell in 1usize..4,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
        values in prop::collection::vec(-1.0e6f64..1.0e6, 1..24),
        picks in prop::collection::vec(0usize..630, 1..24),
    ) {
        let shard = build_shard(
            base_seed,
            n_deliveries,
            trials_per_cell,
            start_frac,
            len_frac,
            &values,
            &picks,
        );
        let bytes = shard.to_column_bytes();
        let decoded = ShardArchive::from_column_bytes(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&decoded, &shard);
        // Determinism all the way down: re-encoding the decode is
        // byte-identical to the original document.
        prop_assert_eq!(decoded.to_column_bytes(), bytes);
    }
}
