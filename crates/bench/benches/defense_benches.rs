//! Criterion benches for the defense: feature extraction and classifier
//! training, the per-recording costs a deployed detector would pay.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::features::DefenseFeatures;
use ivc_dsp::signal::Signal;

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

fn bench_defense(c: &mut Criterion) {
    let mut group = c.benchmark_group("defense");
    group.sample_size(10);
    let rec = synthetic_recording();
    group.bench_function("feature_extraction_1s_recording", |b| {
        b.iter(|| DefenseFeatures::extract(std::hint::black_box(&rec)).unwrap())
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

criterion_group!(benches, bench_defense);
criterion_main!(benches);
