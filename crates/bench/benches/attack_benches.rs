//! Criterion benches for attack construction: baseband preparation, the
//! single-speaker AM attack and the segmented multi-speaker attack, and
//! the bystander's leakage analysis of a `sweep`-sized field.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_acoustics::array::SpeakerArray;
use ivc_acoustics::environment::AirEnvironment;
use ivc_attack::baseband::prepare_baseband;
use ivc_attack::leakage::leakage_from_field;
use ivc_attack::multispeaker::{single_speaker_element_drives, MultiSpeakerAttack};
use ivc_attack::single::SingleSpeakerAttack;
use ivc_dsp::signal::Signal;

fn voice() -> Signal {
    voice_of(0.5)
}

fn voice_of(duration_s: f64) -> Signal {
    let fs = 48_000.0;
    let mut s = Signal::tone(400.0, 0.5, duration_s, fs).unwrap();
    s.mix(&Signal::tone(1_300.0, 0.4, duration_s, fs).unwrap())
        .unwrap();
    s.mix(&Signal::tone(2_700.0, 0.3, duration_s, fs).unwrap())
        .unwrap();
    s.normalize_peak(0.5);
    s
}

fn bench_attack(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack");
    group.sample_size(10);
    let v = voice();

    group.bench_function("prepare_baseband_0p5s", |b| {
        b.iter(|| prepare_baseband(std::hint::black_box(&v)).unwrap())
    });
    group.bench_function("single_speaker_attack_0p5s", |b| {
        b.iter(|| SingleSpeakerAttack::build(std::hint::black_box(&v), 40_000.0).unwrap())
    });
    group.bench_function("multispeaker_attack_8el_0p5s", |b| {
        b.iter(|| MultiSpeakerAttack::build(std::hint::black_box(&v), 40_000.0, 8, 56.0).unwrap())
    });

    // The analysis half of a leakage build: a single speaker's 0.6 s field
    // at the bystander, 1 m out at 192 kHz (one Welch PSD read four ways).
    let attack = SingleSpeakerAttack::build(&voice_of(0.6), 30_000.0).unwrap();
    let drives = single_speaker_element_drives(&attack, 18.7).unwrap();
    let field = SpeakerArray::new(1)
        .unwrap()
        .field_at_bystander(&drives, 1.0, &AirEnvironment::default())
        .unwrap();
    group.bench_function("leakage_from_field_192k_0p6s", |b| {
        b.iter(|| leakage_from_field(std::hint::black_box(&field), 1.0, 0.0).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_attack);
criterion_main!(benches);
