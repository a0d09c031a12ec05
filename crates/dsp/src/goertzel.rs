//! Goertzel algorithm: efficient single-bin DFT evaluation.
//!
//! Used where only a handful of frequencies matter — e.g. measuring the
//! residual carrier line in a recorded attack signal, or the power at an
//! intermodulation product — without paying for a full FFT.

use crate::error::{DspError, Result};

/// Magnitude of the DFT of `samples` evaluated at `frequency_hz`.
pub fn goertzel_magnitude(samples: &[f64], sample_rate_hz: f64, frequency_hz: f64) -> Result<f64> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "goertzel_magnitude",
        });
    }
    if !(sample_rate_hz > 0.0) {
        return Err(DspError::InvalidSampleRate { sample_rate_hz });
    }
    if frequency_hz < 0.0 || frequency_hz > sample_rate_hz / 2.0 {
        return Err(DspError::InvalidFrequency {
            frequency_hz,
            nyquist_hz: sample_rate_hz / 2.0,
        });
    }
    let n = samples.len() as f64;
    let k = (0.5 + n * frequency_hz / sample_rate_hz).floor();
    let w = 2.0 * std::f64::consts::PI * k / n;
    let coeff = 2.0 * w.cos();
    let mut s_prev = 0.0;
    let mut s_prev2 = 0.0;
    for &x in samples {
        let s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev2 * s_prev2 + s_prev * s_prev - coeff * s_prev * s_prev2;
    Ok(power.max(0.0).sqrt())
}

/// Normalised tone amplitude at `frequency_hz`: the Goertzel magnitude
/// scaled by `2 / N`, so a unit-amplitude sine at that frequency reads ≈ 1.
pub fn tone_amplitude(samples: &[f64], sample_rate_hz: f64, frequency_hz: f64) -> Result<f64> {
    let mag = goertzel_magnitude(samples, sample_rate_hz, frequency_hz)?;
    Ok(2.0 * mag / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;

    #[test]
    fn validation() {
        assert!(goertzel_magnitude(&[], 8_000.0, 100.0).is_err());
        assert!(goertzel_magnitude(&[1.0], 0.0, 100.0).is_err());
        assert!(goertzel_magnitude(&[1.0; 16], 8_000.0, 5_000.0).is_err());
        assert!(goertzel_magnitude(&[1.0; 16], 8_000.0, -1.0).is_err());
    }

    #[test]
    fn detects_present_tone_amplitude() {
        let fs = 48_000.0;
        let s = Signal::tone(1_000.0, 0.7, 0.5, fs).unwrap();
        let a = tone_amplitude(s.samples(), fs, 1_000.0).unwrap();
        assert!((a - 0.7).abs() < 0.01, "amplitude {a}");
    }

    #[test]
    fn rejects_absent_tone() {
        let fs = 48_000.0;
        let s = Signal::tone(1_000.0, 1.0, 0.5, fs).unwrap();
        let a = tone_amplitude(s.samples(), fs, 7_000.0).unwrap();
        assert!(a < 0.01, "amplitude {a}");
    }

    #[test]
    fn resolves_mixture_components() {
        let fs = 48_000.0;
        let mut s = Signal::tone(1_000.0, 0.5, 0.5, fs).unwrap();
        s.mix(&Signal::tone(3_000.0, 0.25, 0.5, fs).unwrap())
            .unwrap();
        let amps: Vec<f64> = [1_000.0, 3_000.0, 5_000.0]
            .iter()
            .map(|&f| tone_amplitude(s.samples(), fs, f).unwrap())
            .collect();
        assert!((amps[0] - 0.5).abs() < 0.02);
        assert!((amps[1] - 0.25).abs() < 0.02);
        assert!(amps[2] < 0.02);
    }

    #[test]
    fn dc_and_nyquist_edges_do_not_error() {
        let fs = 8_000.0;
        let s = vec![0.5; 800];
        assert!(goertzel_magnitude(&s, fs, 0.0).is_ok());
        assert!(goertzel_magnitude(&s, fs, 4_000.0).is_ok());
    }
}
