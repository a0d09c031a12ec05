//! Criterion benches for the room-acoustics hot paths: impulse-response
//! construction and full in-room propagation, from the signal and from
//! the source's half spectra.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::propagation::SourceSpectrum;
use ivc_dsp::fft::next_power_of_two;
use ivc_dsp::signal::Signal;
use ivc_room::propagate::{
    propagate_in_room, propagate_spectra_in_room, reflections_transform_len,
};
use ivc_room::RoomPreset;

fn bench_room(c: &mut Criterion) {
    let mut group = c.benchmark_group("room");
    group.sample_size(20);

    // Impulse-response construction: geometry + material curves for the
    // order-3 conference room, both receiver paths.
    let conference = RoomPreset::ConferenceRoom;
    group.bench_function("impulse_response_conference_order3", |b| {
        b.iter(|| {
            let target = conference
                .target_rir(4.0, std::hint::black_box(0.33))
                .unwrap();
            let bystander = conference.bystander_rir(1.0).unwrap();
            (target.num_taps(), bystander.num_taps())
        })
    });

    // Full multipath propagation at the size of a `sweep` room cell: a
    // 0.6 s drive at 192 kHz through the order-3 conference room's
    // 62-tap target response: forward FFT, per-bin tap response, inverse
    // FFT, on top of the direct path.
    let env = AirEnvironment::default();
    let rir = conference.target_rir(3.0, 0.33).unwrap();
    assert_eq!(rir.reflected().len(), 62);
    let drive = Signal::tone(40_000.0, 0.5, 0.6, 192_000.0).unwrap();
    group.bench_function("propagate_in_room_conference_order3", |b| {
        b.iter(|| propagate_in_room(std::hint::black_box(&drive), &rir, &env).unwrap())
    });

    // The same propagation with the source's two half spectra already
    // built, as a Prepare path reads them from the cache: the gains, the
    // tap response and the two inverse transforms.
    let (len, fs) = (drive.len(), drive.sample_rate_hz());
    let direct = SourceSpectrum::new(&drive, next_power_of_two(len)).unwrap();
    let reflections = reflections_transform_len(&rir, len, fs, &env)
        .map(|n| SourceSpectrum::new(&drive, n).unwrap());
    group.bench_function("propagate_in_room_conference_from_spectrum", |b| {
        b.iter(|| {
            propagate_spectra_in_room(
                std::hint::black_box(&direct),
                reflections.as_ref(),
                &rir,
                &env,
            )
            .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_room);
criterion_main!(benches);
