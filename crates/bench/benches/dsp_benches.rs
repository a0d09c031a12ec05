//! Criterion benches for the DSP hot paths used by every experiment:
//! FFT (complex and real-input), FIR filtering, resampling, the ADC's
//! anti-alias decimation, biquad cascades and Welch PSD estimation.

use criterion::{criterion_group, criterion_main, Criterion};
use ivc_dsp::complex::Complex;
use ivc_dsp::fft::{fft_in_place, fft_real_n, rfft_into};
use ivc_dsp::filter::biquad::BiquadCascade;
use ivc_dsp::filter::fir::FirFilter;
use ivc_dsp::resample::{filter_and_resample, resample, upsample};
use ivc_dsp::signal::Signal;
use ivc_dsp::spectrum::{welch_psd, welch_psd_into, WelchScratch};
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

    // The ADC's 192 kHz → 48 kHz chain on a 0.6 s capture: the folded
    // decimator `digitize` runs, and the two full-rate passes it replaced.
    let analog = Signal::tone(1_000.0, 0.5, 0.6, 192_000.0).unwrap();
    let anti_alias =
        FirFilter::low_pass_cached(21_600.0, 192_000.0, 255, WindowKind::Blackman).unwrap();
    group.bench_function("anti_alias_folded_decimator_192k_0p6s", |b| {
        b.iter(|| {
            filter_and_resample(&anti_alias, std::hint::black_box(&analog), 48_000.0).unwrap()
        })
    });
    group.bench_function("anti_alias_two_passes_192k_0p6s", |b| {
        b.iter(|| {
            let filtered = anti_alias
                .filter_signal(std::hint::black_box(&analog))
                .unwrap();
            resample(&filtered, 48_000.0).unwrap()
        })
    });

    // A four-section Butterworth band-pass, forward and back, over a 0.6 s
    // recording.
    let recording = Signal::tone(1_000.0, 0.5, 0.6, 48_000.0).unwrap();
    let voice_band = BiquadCascade::butterworth_band_pass(300.0, 4_000.0, 4, 48_000.0).unwrap();
    group.bench_function("filtfilt_bpf4_29k_samples", |b| {
        b.iter(|| voice_band.filtfilt(std::hint::black_box(recording.samples())))
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

    // The defense features' PSD of a `repeat`-shaped capture: one
    // 16 384-sample Hann segment hopped by half over 29 010 samples, with
    // the window and frame reused from the previous call.
    let capture = Signal::tone(1_000.0, 0.5, 29_010.0 / 48_000.0, 48_000.0).unwrap();
    let mut scratch = WelchScratch::new();
    group.bench_function("welch_psd_29k_samples_16k_segment", |b| {
        b.iter(|| {
            welch_psd_into(
                std::hint::black_box(capture.samples()),
                48_000.0,
                16_384,
                0.5,
                WindowKind::Hann,
                &mut scratch,
            )
            .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_dsp);
criterion_main!(benches);
