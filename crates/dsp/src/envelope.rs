//! Envelope extraction and the analytic signal.
//!
//! The defense's central feature compares the *squared envelope* of the
//! voice band against the low-frequency "shadow" that non-linear
//! demodulation leaves behind, so a reliable envelope estimate matters.
//! The estimator is the Hilbert-transform analytic signal (FFT-based).

use crate::complex::Complex;
use crate::error::{DspError, Result};
use crate::fft::{fft_in_place, next_power_of_two, rfft_into};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;

    #[test]
    fn validation() {
        assert!(analytic_signal(&[]).is_err());
        assert!(hilbert_envelope(&[]).is_err());
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
        let phase: Vec<f64> = analytic_signal(sig.samples())
            .unwrap()
            .into_iter()
            .map(|c| c.im.atan2(c.re))
            .collect();
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
}
