//! Streaming-aggregation regression tests: the per-cell accumulator must
//! reproduce the batch statistics bit for bit, the shard merger must
//! stream arbitrarily fine shard tilings to the same report as a bulk
//! merge, and the accumulator state must stay O(cells) — no per-trial
//! growth — which is the memory contract this PR exists to protect.

use ivc_experiments::aggregate::aggregate_cells;
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
/// aggregation over the same records in the same order — f64 equality is
/// not enough, the byte-identity contract needs the exact bit patterns.
#[test]
fn accumulator_matches_batch_aggregation_bit_for_bit() {
    let spec = spec_with(9);
    let cells = spec.cells();
    let records = whole_campaign_records(&spec);

    let mut streamed = Vec::new();
    for cell in &cells {
        let mut accumulator = CellAccumulator::new();
        for trial in 0..spec.trials_per_cell {
            accumulator.fold(&records[cell.cell_index * spec.trials_per_cell + trial]);
        }
        assert_eq!(accumulator.trials(), spec.trials_per_cell);
        streamed.push(accumulator.stats());
    }

    let batch = aggregate_cells(&spec, &cells, records);
    for (cell, (streamed, batch)) in streamed.iter().zip(&batch).enumerate() {
        assert_eq!(streamed, &batch.stats, "cell {cell} stats diverged");
        let bits = |v: f64| v.to_bits();
        assert_eq!(
            bits(streamed.mean_word_accuracy),
            bits(batch.stats.mean_word_accuracy),
            "cell {cell}: mean word accuracy must match in bits, not just value"
        );
        assert_eq!(
            streamed.mean_bystander_spl_db.map(bits),
            batch.stats.mean_bystander_spl_db.map(bits),
            "cell {cell}: mean bystander SPL must match in bits"
        );
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
