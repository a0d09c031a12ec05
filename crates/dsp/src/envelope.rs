//! Envelope extraction and the analytic signal.
//!
//! The defense's central feature compares the *squared envelope* of the
//! voice band against the low-frequency "shadow" that non-linear
//! demodulation leaves behind, so a reliable envelope estimate matters.
//! Two estimators are provided: the Hilbert-transform analytic signal
//! (accurate, FFT-based) and a cheap rectify-and-smooth detector (what a
//! hardware envelope detector does).

use crate::complex::Complex;
use crate::error::{DspError, Result};
use crate::fft::{fft_in_place, next_power_of_two, rfft_into};
use crate::filter::biquad::BiquadCascade;
use crate::signal::Signal;

/// Computes the analytic signal of `samples` via the FFT method:
/// zero the negative frequencies, double the positive ones.
pub fn analytic_signal(samples: &[f64]) -> Result<Vec<Complex>> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "analytic_signal",
        });
    }
    let n = next_power_of_two(samples.len());
    // The forward half comes from the real transform: keep DC and Nyquist,
    // double the positive frequencies, leave the negative ones at zero.
    let mut buffer = Vec::with_capacity(n);
    rfft_into(samples, n, &mut buffer)?;
    for value in buffer.iter_mut().take(n / 2).skip(1) {
        *value = value.scale(2.0);
    }
    buffer.resize(n, Complex::ZERO);
    fft_in_place(&mut buffer, true)?;
    buffer.truncate(samples.len());
    Ok(buffer)
}

/// Amplitude envelope via the analytic signal (Hilbert method).
pub fn hilbert_envelope(samples: &[f64]) -> Result<Vec<f64>> {
    Ok(analytic_signal(samples)?
        .into_iter()
        .map(|c| c.abs())
        .collect())
}

/// Instantaneous phase of the analytic signal, in radians (not unwrapped).
pub fn instantaneous_phase(samples: &[f64]) -> Result<Vec<f64>> {
    Ok(analytic_signal(samples)?
        .into_iter()
        .map(|c| c.arg())
        .collect())
}

/// Rectify-and-smooth envelope detector: absolute value followed by a
/// low-pass filter at `cutoff_hz`.  This mirrors the behaviour of an analog
/// AM envelope detector and of the `s²` term of a non-linear microphone.
pub fn rectified_envelope(
    samples: &[f64],
    sample_rate_hz: f64,
    cutoff_hz: f64,
) -> Result<Vec<f64>> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "rectified_envelope",
        });
    }
    let rectified: Vec<f64> = samples.iter().map(|x| x.abs()).collect();
    let lpf = BiquadCascade::butterworth_low_pass(cutoff_hz, 4, sample_rate_hz)?;
    Ok(lpf.filtfilt(&rectified))
}

/// Envelope of a [`Signal`] using the Hilbert method, returned as a signal
/// at the same rate.
pub fn envelope_signal(input: &Signal) -> Result<Signal> {
    Signal::new(hilbert_envelope(input.samples())?, input.sample_rate_hz())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(analytic_signal(&[]).is_err());
        assert!(hilbert_envelope(&[]).is_err());
        assert!(rectified_envelope(&[], 48_000.0, 100.0).is_err());
    }

    #[test]
    fn envelope_of_pure_tone_is_constant() {
        let fs = 8_000.0;
        let sig = Signal::tone(1_000.0, 0.7, 0.25, fs).unwrap();
        let env = hilbert_envelope(sig.samples()).unwrap();
        // Skip edges where the FFT method has boundary effects.
        for &e in &env[200..env.len() - 200] {
            assert!((e - 0.7).abs() < 0.02, "envelope {e}");
        }
    }

    #[test]
    fn envelope_tracks_amplitude_modulation() {
        let fs = 48_000.0;
        let n = 48_000;
        let carrier = 8_000.0;
        let mod_freq = 20.0;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let m = 1.0 + 0.5 * (2.0 * std::f64::consts::PI * mod_freq * t).sin();
                m * (2.0 * std::f64::consts::PI * carrier * t).sin()
            })
            .collect();
        let env = hilbert_envelope(&x).unwrap();
        let mid = &env[4_800..43_200];
        let max = mid.iter().cloned().fold(f64::MIN, f64::max);
        let min = mid.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - 1.5).abs() < 0.05, "max {max}");
        assert!((min - 0.5).abs() < 0.05, "min {min}");
    }

    #[test]
    fn analytic_signal_real_part_matches_input() {
        let fs = 8_000.0;
        let sig = Signal::tone(500.0, 1.0, 0.1, fs).unwrap();
        let a = analytic_signal(sig.samples()).unwrap();
        for (c, &x) in a.iter().zip(sig.samples().iter()).skip(50).take(500) {
            assert!((c.re - x).abs() < 1e-6);
        }
    }

    #[test]
    fn instantaneous_phase_advances_at_tone_rate() {
        let fs = 8_000.0;
        let f = 400.0;
        let sig = Signal::tone(f, 1.0, 0.25, fs).unwrap();
        let phase = instantaneous_phase(sig.samples()).unwrap();
        // Average phase increment should be 2*pi*f/fs.
        let mut increments = Vec::new();
        for i in 501..1_500 {
            let mut d = phase[i] - phase[i - 1];
            while d < 0.0 {
                d += 2.0 * std::f64::consts::PI;
            }
            increments.push(d);
        }
        let mean: f64 = increments.iter().sum::<f64>() / increments.len() as f64;
        let expected = 2.0 * std::f64::consts::PI * f / fs;
        assert!((mean - expected).abs() / expected < 0.01);
    }

    #[test]
    fn rectified_envelope_approximates_hilbert_for_am_signal() {
        let fs = 48_000.0;
        let n = 24_000;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let m = 1.0 + 0.8 * (2.0 * std::f64::consts::PI * 15.0 * t).sin();
                m * (2.0 * std::f64::consts::PI * 6_000.0 * t).sin()
            })
            .collect();
        let rect = rectified_envelope(&x, fs, 100.0).unwrap();
        let hilb = hilbert_envelope(&x).unwrap();
        // The rectified detector reads about 2/pi of the true envelope.
        let scale = 2.0 / std::f64::consts::PI;
        let mid = 4_800..19_200;
        let mut err_acc = 0.0;
        for i in mid.clone() {
            err_acc += (rect[i] - scale * hilb[i]).abs();
        }
        let mean_err = err_acc / (mid.end - mid.start) as f64;
        assert!(mean_err < 0.1, "mean deviation {mean_err}");
    }

    #[test]
    fn envelope_signal_preserves_rate_and_length() {
        let sig = Signal::tone(1_000.0, 1.0, 0.1, 16_000.0).unwrap();
        let env = envelope_signal(&sig).unwrap();
        assert_eq!(env.len(), sig.len());
        assert_eq!(env.sample_rate_hz(), 16_000.0);
    }
}
