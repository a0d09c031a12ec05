//! Criterion benches for the DSP hot paths used by every experiment:
//! FFT (complex and real-input), FIR filtering, resampling and Welch PSD
//! estimation.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_dsp::complex::Complex;
use ivc_dsp::fft::{fft_in_place, fft_real_n, rfft_into};
use ivc_dsp::filter::fir::FirFilter;
use ivc_dsp::resample::upsample;
use ivc_dsp::signal::Signal;
use ivc_dsp::spectrum::welch_psd;
use ivc_dsp::window::WindowKind;

fn bench_dsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsp");
    group.sample_size(20);

    let tone = Signal::tone(1_000.0, 0.5, 0.25, 48_000.0).unwrap();
    group.bench_function("fft_real_16k", |b| {
        b.iter(|| fft_real_n(std::hint::black_box(tone.samples()), 16_384).unwrap())
    });

    // The complex kernel at the overlap-save block size of the 255-tap
    // anti-alias filter, and the real transform at the size of the
    // microphone front end's shaping of a 192 kHz capture.
    let block: Vec<Complex> = (0..1_024)
        .map(|i| Complex::new((i as f64 * 0.01).sin(), (i as f64 * 0.02).cos()))
        .collect();
    let mut work = block.clone();
    group.bench_function("fft_complex_1024", |b| {
        b.iter(|| {
            work.copy_from_slice(&block);
            fft_in_place(std::hint::black_box(&mut work), false).unwrap();
        })
    });

    let capture = Signal::tone(40_000.0, 0.5, 1.2, 192_000.0).unwrap();
    let mut half_spectrum = Vec::new();
    group.bench_function("rfft_262144", |b| {
        b.iter(|| {
            rfft_into(
                std::hint::black_box(capture.samples()),
                262_144,
                &mut half_spectrum,
            )
            .unwrap()
        })
    });

    let fir = FirFilter::low_pass(8_000.0, 48_000.0, 255, WindowKind::Hamming).unwrap();
    group.bench_function("fir_255_taps_12k_samples", |b| {
        b.iter(|| fir.filter(std::hint::black_box(tone.samples())).unwrap())
    });

    group.bench_function("upsample_4x_12k_samples", |b| {
        b.iter(|| upsample(std::hint::black_box(&tone), 4).unwrap())
    });

    group.bench_function("welch_psd_12k_samples", |b| {
        b.iter(|| {
            welch_psd(
                std::hint::black_box(tone.samples()),
                48_000.0,
                2_048,
                0.5,
                WindowKind::Hann,
            )
            .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_dsp);
criterion_main!(benches);
