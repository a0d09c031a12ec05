//! Property-based tests for the DSP substrate.
//!
//! These check structural invariants that must hold for *any* input, not
//! just the hand-picked cases in the unit tests: FFT round-trips and
//! Parseval's theorem, window bounds, filter stability, resampling length
//! arithmetic, envelope non-negativity and correlation bounds.

use ivc_dsp::complex::Complex;
use ivc_dsp::correlation::{autocorrelation, pearson_correlation};
use ivc_dsp::envelope::hilbert_envelope;
use ivc_dsp::fft::{fft, fft_real_n, ifft, irfft_into, next_power_of_two, rfft_into};
use ivc_dsp::filter::biquad::BiquadCascade;
use ivc_dsp::filter::fir::FirFilter;
use ivc_dsp::resample::{downsample, upsample};
use ivc_dsp::signal::Signal;
use ivc_dsp::window::WindowKind;
use proptest::prelude::*;

fn sample_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0f64..1.0, 4..max_len)
}

/// The textbook O(n²) DFT of a real signal, bins `0..=n/2`.
fn naive_dft(samples: &[f64]) -> Vec<Complex> {
    let n = samples.len();
    let phasors: Vec<Complex> = (0..n)
        .map(|m| Complex::cis(-2.0 * std::f64::consts::PI * m as f64 / n as f64))
        .collect();
    (0..=n / 2)
        .map(|k| {
            samples
                .iter()
                .enumerate()
                .fold(Complex::ZERO, |acc, (j, &x)| acc + phasors[(j * k) % n] * x)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fft_ifft_roundtrip_recovers_input(samples in sample_vec(256)) {
        let n = next_power_of_two(samples.len());
        let mut input: Vec<Complex> = samples.iter().map(|&x| Complex::from_real(x)).collect();
        input.resize(n, Complex::ZERO);
        let back = ifft(&fft(&input).unwrap()).unwrap();
        for (a, b) in input.iter().zip(back.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-9);
            prop_assert!((a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_holds_for_real_signals(samples in sample_vec(256)) {
        let n = next_power_of_two(samples.len());
        let spec = fft_real_n(&samples, n).unwrap();
        let time_energy: f64 = samples.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
    }

    #[test]
    fn real_fft_matches_naive_dft_and_round_trips(
        log2 in 0usize..13,
        pool in prop::collection::vec(-1.0f64..1.0, 4096..4097),
    ) {
        let n = 1usize << log2;
        let samples = &pool[..n];
        let mut spectrum = Vec::new();
        rfft_into(samples, n, &mut spectrum).unwrap();
        let naive = naive_dft(samples);
        prop_assert_eq!(spectrum.len(), naive.len());
        for (fast, slow) in spectrum.iter().zip(naive.iter()) {
            prop_assert!((*fast - *slow).abs() < 1e-12 * n as f64);
        }
        let mut back = Vec::new();
        irfft_into(&mut spectrum, &mut back).unwrap();
        prop_assert_eq!(back.len(), n);
        for (x, y) in samples.iter().zip(back.iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn windows_stay_within_unit_interval(n in 2usize..512, kind_idx in 0usize..5) {
        let kind = [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
            WindowKind::Bartlett,
        ][kind_idx];
        for v in kind.symmetric(n) {
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn fir_low_pass_output_is_bounded_for_bounded_input(
        samples in sample_vec(512),
        cutoff_khz in 1.0f64..10.0,
    ) {
        let fs = 48_000.0;
        let f = FirFilter::low_pass(cutoff_khz * 1_000.0, fs, 101, WindowKind::Hamming).unwrap();
        let out = f.filter(&samples).unwrap();
        prop_assert_eq!(out.len(), samples.len());
        // A windowed-sinc low-pass has modest overshoot; 2x input bound is safe.
        for y in out {
            prop_assert!(y.abs() <= 2.0);
            prop_assert!(y.is_finite());
        }
    }

    #[test]
    fn biquad_cascade_is_stable(samples in sample_vec(512), cutoff_khz in 0.5f64..8.0) {
        let fs = 48_000.0;
        let c = BiquadCascade::butterworth_low_pass(cutoff_khz * 1_000.0, 4, fs).unwrap();
        let out = c.filter(&samples);
        for y in out {
            prop_assert!(y.is_finite());
            prop_assert!(y.abs() < 100.0);
        }
    }

    #[test]
    fn upsample_then_downsample_preserves_length(samples in sample_vec(256), factor in 2usize..5) {
        let s = Signal::new(samples, 48_000.0).unwrap();
        let up = upsample(&s, factor).unwrap();
        prop_assert_eq!(up.len(), s.len() * factor);
        let down = downsample(&up, factor).unwrap();
        prop_assert_eq!(down.len(), s.len());
        prop_assert!((down.sample_rate_hz() - 48_000.0).abs() < 1e-9);
    }

    #[test]
    fn hilbert_envelope_is_nonnegative_and_bounds_signal(samples in sample_vec(256)) {
        let env = hilbert_envelope(&samples).unwrap();
        prop_assert_eq!(env.len(), samples.len());
        for e in &env {
            prop_assert!(*e >= 0.0);
            prop_assert!(e.is_finite());
        }
    }

    #[test]
    fn pearson_correlation_is_bounded(a in sample_vec(128), b in sample_vec(128)) {
        let r = pearson_correlation(&a, &b).unwrap();
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
    }

    #[test]
    fn autocorrelation_lag_zero_is_maximal(samples in sample_vec(128)) {
        let ac = autocorrelation(&samples, 32).unwrap();
        let energy: f64 = samples.iter().map(|x| x * x).sum();
        if energy > 1e-9 {
            prop_assert!((ac[0] - 1.0).abs() < 1e-9);
            for v in &ac {
                prop_assert!(v.abs() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn signal_normalisation_reaches_target(samples in sample_vec(256), target in 0.01f64..2.0) {
        let mut s = Signal::new(samples, 16_000.0).unwrap();
        if s.peak() > 0.0 {
            s.normalize_peak(target);
            prop_assert!((s.peak() - target).abs() < 1e-9);
        }
    }

    #[test]
    fn mixing_is_commutative(a in sample_vec(128), b in sample_vec(128)) {
        let sa = Signal::new(a, 8_000.0).unwrap();
        let sb = Signal::new(b, 8_000.0).unwrap();
        let ab = sa.mixed(&sb).unwrap();
        let ba = sb.mixed(&sa).unwrap();
        prop_assert_eq!(ab.len(), ba.len());
        for (x, y) in ab.samples().iter().zip(ba.samples().iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }
}
