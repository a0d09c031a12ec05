//! Criterion benches for attack construction: baseband preparation, the
//! single-speaker AM attack and the segmented multi-speaker attack.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_attack::baseband::{prepare_baseband, BasebandConfig};
use ivc_attack::multispeaker::MultiSpeakerAttack;
use ivc_attack::single::SingleSpeakerAttack;
use ivc_dsp::signal::Signal;

fn voice() -> Signal {
    let fs = 48_000.0;
    let mut s = Signal::tone(400.0, 0.5, 0.5, fs).unwrap();
    s.mix(&Signal::tone(1_300.0, 0.4, 0.5, fs).unwrap())
        .unwrap();
    s.mix(&Signal::tone(2_700.0, 0.3, 0.5, fs).unwrap())
        .unwrap();
    s.normalize_peak(0.5);
    s
}

fn bench_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack");
    group.sample_size(10);
    let v = voice();
    let cfg = BasebandConfig::default();

    group.bench_function("prepare_baseband_0p5s", |b| {
        b.iter(|| prepare_baseband(std::hint::black_box(&v), &cfg).unwrap())
    });
    group.bench_function("single_speaker_attack_0p5s", |b| {
        b.iter(|| {
            SingleSpeakerAttack::build(std::hint::black_box(&v), 40_000.0, 0.9, &cfg).unwrap()
        })
    });
    group.bench_function("multispeaker_attack_8el_0p5s", |b| {
        b.iter(|| {
            MultiSpeakerAttack::build(std::hint::black_box(&v), 40_000.0, 8, 56.0, 0.3, 30.0, &cfg)
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_attack);
criterion_main!(benches);
