//! Streaming-aggregation regression tests: the per-cell accumulator must
//! reproduce the batch means bit for bit, the shard merger must
//! stream arbitrarily fine shard tilings to the same report as a bulk
//! merge, and the accumulator state must stay O(cells) — no per-trial
//! growth — which is the memory contract this PR exists to protect.

use ivc_experiments::aggregate::wilson_interval;
use ivc_experiments::shard::{merge_shards, ShardArchive, ShardMerger, ShardRange};
use ivc_experiments::{CampaignSpec, CellAccumulator, DeliverySpec, TrialRecord};

fn spec_with(trials_per_cell: usize) -> CampaignSpec {
    CampaignSpec {
        deliveries: vec![
            DeliverySpec::legitimate("talker 63 dB", 63.0),
            DeliverySpec::array("8-element array, 50 W", 8, 50.0, 40_000.0),
        ],
        distances_m: vec![1.0, 3.0],
        trials_per_cell,
        ..CampaignSpec::new("streaming-merge")
    }
}

/// A deterministic synthetic record for a slot, with deliberately messy
/// f64 values (irrational multiples, sign flips) so any reordering of the
/// floating-point sums shows up as a bit difference.
fn synthetic_record(spec: &CampaignSpec, slot: usize) -> TrialRecord {
    let trials_per_cell = spec.trials_per_cell;
    let cell_index = slot / trials_per_cell;
    let trial_index = slot % trials_per_cell;
    let x = (slot as f64 + 0.5) * std::f64::consts::PI / 7.0;
    TrialRecord {
        cell_index,
        trial_index,
        seed: spec.trial_seed(trial_index),
        accepted: slot % 3 != 1,
        word_accuracy: (x.sin() * 0.5 + 0.5).min(1.0),
        recognized_words: vec!["ok".to_string()],
        bystander_spl_db: (slot % 4 != 0).then_some(40.0 + x.cos() * 9.0),
        bystander_spl_dba: (slot % 5 != 0).then_some(31.0 - x.sin() * 3.0),
        bystander_voice_spl_db: (slot % 2 == 0).then_some(17.0 + x.fract()),
        leak_audible: (slot % 6 != 0).then_some(slot % 7 < 3),
        power_shortfall_w: if slot % 8 == 0 { x.abs() } else { 0.0 },
        defense_features: vec![x, -x, x * x],
        detection_probability: (slot % 3 == 0).then_some((x.sin().abs()).min(1.0)),
        recording_band_summary_db: (slot % 2 == 1).then(|| vec![-x, -2.0 * x, -3.0 * x]),
    }
}

fn whole_campaign_records(spec: &CampaignSpec) -> Vec<TrialRecord> {
    (0..spec.num_trials())
        .map(|slot| synthetic_record(spec, slot))
        .collect()
}

/// The accumulator's statistics must be **bit**-identical to the batch
/// means over the same records in the same order — f64 equality is not
/// enough, the byte-identity contract needs the exact bit patterns.
#[test]
fn accumulator_matches_batch_aggregation_bit_for_bit() {
    /// The batch reference: the present values summed left to right, over
    /// their count.
    fn batch_mean(values: impl Iterator<Item = Option<f64>>) -> Option<f64> {
        let (mut sum, mut count) = (0.0, 0usize);
        for value in values.flatten() {
            sum += value;
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }
    let spec = spec_with(9);
    let records = whole_campaign_records(&spec);
    for (cell, trials) in records.chunks(spec.trials_per_cell).enumerate() {
        let mut accumulator = CellAccumulator::new();
        for record in trials {
            accumulator.fold(record);
        }
        assert_eq!(accumulator.trials(), spec.trials_per_cell);
        let stats = accumulator.stats();
        let successes = trials.iter().filter(|r| r.accepted).count();
        assert_eq!(stats.successes, successes, "cell {cell}");
        assert_eq!(
            (stats.success_ci_low, stats.success_ci_high),
            wilson_interval(successes, trials.len()),
            "cell {cell}"
        );
        let mean = |value: fn(&TrialRecord) -> Option<f64>| batch_mean(trials.iter().map(value));
        for (name, streamed, batch) in [
            (
                "success rate",
                Some(stats.success_rate),
                mean(|r| Some(f64::from(u8::from(r.accepted)))),
            ),
            (
                "mean word accuracy",
                Some(stats.mean_word_accuracy),
                mean(|r| Some(r.word_accuracy)),
            ),
            (
                "mean power shortfall",
                Some(stats.mean_power_shortfall_w),
                mean(|r| Some(r.power_shortfall_w)),
            ),
            (
                "mean bystander SPL",
                stats.mean_bystander_spl_db,
                mean(|r| r.bystander_spl_db),
            ),
            (
                "mean bystander dB(A)",
                stats.mean_bystander_spl_dba,
                mean(|r| r.bystander_spl_dba),
            ),
            (
                "mean bystander voice SPL",
                stats.mean_bystander_voice_spl_db,
                mean(|r| r.bystander_voice_spl_db),
            ),
            (
                "leak-audible fraction",
                stats.leak_audible_fraction,
                mean(|r| r.leak_audible.map(|a| f64::from(u8::from(a)))),
            ),
            (
                "mean detection probability",
                stats.mean_detection_probability,
                mean(|r| r.detection_probability),
            ),
        ] {
            assert_eq!(
                streamed.map(f64::to_bits),
                batch.map(f64::to_bits),
                "cell {cell}: {name} must match in bits, not just value"
            );
        }
    }
}

/// Streaming one-slot shards through a [`ShardMerger`] — the finest
/// possible tiling, 18 partials here — must finish to the same report as
/// the bulk [`merge_shards`] of one whole-campaign partial.
#[test]
fn merger_streams_the_finest_tiling_to_the_bulk_merge_bytes() {
    let spec = spec_with(3);
    let num_jobs = spec.num_trials();

    let whole = ShardArchive {
        spec: spec.clone(),
        shard: ShardRange {
            shard_index: 0,
            num_shards: 1,
            start_job: 0,
            end_job: num_jobs,
        },
        records: whole_campaign_records(&spec),
    };
    let bulk = merge_shards(vec![whole]).unwrap();

    let mut merger = ShardMerger::new(spec.clone()).unwrap();
    for slot in 0..num_jobs {
        merger
            .absorb(ShardArchive {
                spec: spec.clone(),
                shard: ShardRange {
                    shard_index: slot,
                    num_shards: num_jobs,
                    start_job: slot,
                    end_job: slot + 1,
                },
                records: vec![synthetic_record(&spec, slot)],
            })
            .unwrap();
    }
    let streamed = merger.finish().unwrap();

    assert_eq!(streamed, bulk);
    assert_eq!(streamed.to_json_string(), bulk.to_json_string());
}

/// The memory regression this PR fixes: aggregation state must not grow
/// with the trial count.  Records are generated on the fly and folded one
/// at a time — never materialized — and after 200 000 trials the
/// accumulator still owns nothing but its fixed, heap-free struct.
#[test]
fn accumulator_state_stays_o_cells_under_many_trials() {
    const TRIALS: usize = 200_000;
    // The inline state is a small constant — no record vector hides here.
    assert!(
        std::mem::size_of::<CellAccumulator>() <= 256,
        "CellAccumulator grew past a plain running-sums struct: {} bytes",
        std::mem::size_of::<CellAccumulator>()
    );

    let spec = spec_with(TRIALS);
    let mut accumulator = CellAccumulator::new();
    for trial in 0..TRIALS {
        // Fold a freshly generated record and drop it: the only state that
        // survives the loop body is the accumulator.
        accumulator.fold(&synthetic_record(&spec, trial));
    }
    assert_eq!(accumulator.trials(), TRIALS);
    assert!(accumulator.successes() > 0 && accumulator.successes() < TRIALS);

    let stats = accumulator.stats();
    assert_eq!(stats.trials, TRIALS);
    assert!(stats.success_ci_low < stats.success_rate);
    assert!(stats.success_ci_high > stats.success_rate);
}
