//! Criterion benches for the Evaluate stage: recognition of a trial's
//! capture, the defense's feature extraction and classifier training — the
//! per-recording costs a deployed assistant and detector would pay.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_acoustics::microphone::CaptureScratch;
use ivc_core::scenario::Scenario;
use ivc_core::stages::PreparedCell;
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::features::DefenseFeatures;
use ivc_dsp::signal::Signal;
use ivc_dsp::spectrum::WelchScratch;
use ivc_speech::commands::corpus;
use ivc_speech::recognizer::{EvalScratch, Recognizer};

fn synthetic_recording() -> Signal {
    let fs = 48_000.0;
    let n = fs as usize;
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            let syllable = 0.55 + 0.45 * (2.0 * std::f64::consts::PI * 4.0 * t).sin();
            syllable
                * (0.4 * (2.0 * std::f64::consts::PI * 350.0 * t).sin()
                    + 0.3 * (2.0 * std::f64::consts::PI * 1_200.0 * t).sin())
        })
        .collect();
    Signal::new(samples, fs).unwrap()
}

/// A trial's recording in the shape the `repeat` benchmark workload
/// scores: an 8-element 40 W array at 1.5 m, its voice capped at 0.6 s,
/// through Prepare and Perturb (29 010 samples at 48 kHz).
fn repeat_capture() -> Signal {
    let scenario = Scenario {
        distance_m: 1.5,
        max_voice_duration_s: 0.6,
        ..Scenario::default_attack()
    };
    let cell = PreparedCell::prepare(&corpus()[0], &scenario, &[1]).unwrap();
    cell.perturb(1, &mut CaptureScratch::new()).unwrap()
}

fn bench_defense(c: &mut Criterion) {
    let mut group = c.benchmark_group("defense");
    group.sample_size(10);
    let rec = synthetic_recording();
    group.bench_function("feature_extraction_1s_recording", |b| {
        b.iter(|| DefenseFeatures::extract(std::hint::black_box(&rec)).unwrap())
    });
    let capture = repeat_capture();
    group.bench_function("feature_extraction_0p6s_capture", |b| {
        b.iter(|| DefenseFeatures::extract(std::hint::black_box(&capture)).unwrap())
    });
    let normalized = DefenseFeatures::normalize(&capture).unwrap();
    let mut welch = WelchScratch::new();
    group.bench_function("psd_half_0p6s_capture", |b| {
        b.iter(|| DefenseFeatures::psd_half(std::hint::black_box(&normalized), &mut welch).unwrap())
    });
    group.bench_function("shadow_half_0p6s_capture", |b| {
        b.iter(|| DefenseFeatures::shadow_half(std::hint::black_box(&normalized)).unwrap())
    });

    let samples: Vec<(Vec<f64>, bool)> = (0..60)
        .map(|i| {
            let attack = i % 2 == 0;
            let jitter = (i as f64 * 0.37).sin();
            if attack {
                (vec![-15.0 + jitter, 0.8, -9.0], true)
            } else {
                (vec![-40.0 + jitter, 0.05, -5.0], false)
            }
        })
        .collect();
    group.bench_function("logistic_regression_training_60x3", |b| {
        b.iter(|| LogisticRegression::train(std::hint::black_box(&samples)).unwrap())
    });
    group.finish();
}

fn bench_speech(c: &mut Criterion) {
    let mut group = c.benchmark_group("speech");
    group.sample_size(20);
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let capture = repeat_capture();
    let expected = corpus()[0].id;
    let mut scratch = EvalScratch::new();
    group.bench_function("recognizer_evaluate_0p6s_capture", |b| {
        b.iter(|| {
            recognizer
                .evaluate(std::hint::black_box(&capture), expected, &mut scratch)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_defense, bench_speech);
criterion_main!(benches);
