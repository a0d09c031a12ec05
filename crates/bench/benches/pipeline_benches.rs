//! Criterion benches for the end-to-end trial pipeline (the unit of work
//! behind every accuracy-vs-distance point in the reproduction), the
//! microphone capture's steps, a whole quick campaign, the shard merge
//! and the columnar wire format.  These are local layer timings; the
//! end-to-end perf ledger is `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_acoustics::adc::digitize;
use ivc_acoustics::microphone::{CaptureScratch, DevicePreset};
use ivc_core::run_trial;
use ivc_core::scenario::{Delivery, Scenario};
use ivc_dsp::signal::Signal;
use ivc_experiments::shard::{merge_shards, ShardArchive, ShardPlan};
use ivc_experiments::{CampaignSpec, DeliverySpec, TrialRecord};
use ivc_speech::commands::corpus;
use ivc_speech::recognizer::Recognizer;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let command = &corpus()[0];

    let legit = Scenario {
        delivery: Delivery::Legitimate {
            talker_spl_db: 65.0,
        },
        max_voice_duration_s: 1.0,
        ..Scenario::default_attack()
    };
    group.bench_function("trial_legitimate_1s", |b| {
        b.iter(|| run_trial(command, &legit, &recognizer, None).unwrap())
    });

    let attack = Scenario {
        delivery: Delivery::ArrayUltrasound {
            num_elements: 8,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        },
        max_voice_duration_s: 1.0,
        ..Scenario::default_attack()
    };
    group.bench_function("trial_array_attack_8el_1s", |b| {
        b.iter(|| run_trial(command, &attack, &recognizer, None).unwrap())
    });

    group.finish();
}

/// The capture of a 0.6 s attack at 192 kHz (a 131 072-point transform):
/// Prepare's two per-cell products, then Perturb's per-trial steps.
fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("capture");
    group.sample_size(20);
    let mic = DevicePreset::AndroidPhone.microphone();
    let pressure = Signal::tone(40_000.0, 2.0, 0.6, 192_000.0).unwrap();
    group.bench_function("shape_path_192k_0p6s", |b| {
        b.iter(|| mic.shape_path(std::hint::black_box(&pressure)).unwrap())
    });
    let path = mic.shape_path(&pressure).unwrap();
    group.bench_function("noise_shape_131072", |b| {
        b.iter(|| {
            mic.noise_shape(std::hint::black_box(131_072), 192_000.0, Some(40.0))
                .unwrap()
        })
    });
    let noise = mic
        .noise_shape(path.transform_len(), 192_000.0, Some(40.0))
        .unwrap();
    let mut scratch = CaptureScratch::new();
    group.bench_function("noise_draw_131072", |b| {
        b.iter(|| noise.draw(std::hint::black_box(7), &mut scratch))
    });
    group.bench_function("front_end_synthesis_192k_0p6s", |b| {
        b.iter(|| {
            noise.draw(7, &mut scratch);
            let synthesized = mic.front_end_synthesis(&path, &mut scratch).unwrap();
            scratch.recycle(synthesized);
        })
    });
    noise.draw(7, &mut scratch);
    let analog = mic.analog_front_end(&path, &mut scratch).unwrap();
    group.bench_function("adc_192k_0p6s", |b| {
        b.iter(|| digitize(std::hint::black_box(&analog), mic.adc_noise_floor_dbfs, 7).unwrap())
    });
    group.finish();
}

fn bench_campaign(c: &mut Criterion) {
    // Wall clock of a whole built-in campaign through the staged
    // executor (quick a1: 3 cells x 1 trial on 4 workers).
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    let spec = ivc_experiments::presets::a1(true);
    group.bench_function("a1_quick_4_workers", |b| {
        b.iter(|| ivc_experiments::run_campaign(&spec, 4).unwrap())
    });
    group.finish();
}

/// A deterministic synthetic record for a merge bench slot: no trials are
/// run, so the numbers isolate aggregation and serialisation.
fn synthetic_record(spec: &CampaignSpec, slot: usize) -> TrialRecord {
    let x = (slot as f64 + 0.5) * 0.37;
    TrialRecord {
        cell_index: slot / spec.trials_per_cell,
        trial_index: slot % spec.trials_per_cell,
        seed: spec.trial_seed(slot % spec.trials_per_cell),
        accepted: slot % 3 != 1,
        word_accuracy: (x.sin() * 0.5 + 0.5).min(1.0),
        recognized_words: vec!["ok".to_string(), "google".to_string()],
        bystander_spl_db: Some(40.0 + x.cos()),
        bystander_spl_dba: Some(32.0 - x.sin()),
        bystander_voice_spl_db: Some(18.0 + x.fract()),
        leak_audible: Some(slot % 5 < 2),
        power_shortfall_w: 0.0,
        defense_features: vec![x, -x, x * x, 0.5],
        detection_probability: Some(x.sin().abs().min(1.0)),
        recording_band_summary_db: Some(vec![-x, -2.0 * x, -3.0 * x]),
    }
}

fn bench_merge(c: &mut Criterion) {
    // Merge throughput over synthetic partials: the streaming shard merge
    // (per-cell accumulators, records moved not cloned) and the columnar
    // wire format's encode/decode — the numbers behind the streaming
    // merge-memory fix.
    let mut group = c.benchmark_group("merge");
    group.sample_size(10);
    let spec = CampaignSpec {
        deliveries: (0..4)
            .map(|i| DeliverySpec::array(format!("array {i}"), 4 + i, 40.0, 40_000.0))
            .collect(),
        distances_m: vec![1.0, 2.0],
        trials_per_cell: 64,
        ..CampaignSpec::new("merge-bench")
    };
    let plan = ShardPlan::partition(&spec, 4).unwrap();
    let partials: Vec<ShardArchive> = plan
        .shards
        .iter()
        .map(|&shard| ShardArchive {
            spec: spec.clone(),
            shard,
            records: (shard.start_job..shard.end_job)
                .map(|slot| synthetic_record(&spec, slot))
                .collect(),
        })
        .collect();
    group.bench_function("merge_4_shards_512_trials", |b| {
        b.iter(|| merge_shards(partials.clone()).unwrap())
    });
    let one = &partials[0];
    let bytes = one.to_column_bytes();
    group.bench_function("columns_encode_128_trials", |b| {
        b.iter(|| one.to_column_bytes())
    });
    group.bench_function("columns_decode_128_trials", |b| {
        b.iter(|| ShardArchive::from_column_bytes(&bytes).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_capture,
    bench_campaign,
    bench_merge
);
criterion_main!(benches);
