//! The adaptive attacker: trying to hide the non-linearity trace.
//!
//! A defence is only interesting if it survives an attacker who knows about
//! it.  The natural evasion is *shadow pre-compensation*: before modulating,
//! the attacker adds to the baseband a low-frequency component designed to
//! cancel (part of) the `m(t)²` shadow that the microphone will create.
//! This module builds such pre-compensated attacks and exposes the two
//! quantities the paper's robustness analysis needs: how much the trace
//! shrinks, and what the compensation does to the injected command itself
//! (the compensation signal eats into the modulation budget and adds
//! audible-band rumble at the victim that the recogniser must tolerate).

use ivc_dsp::envelope::hilbert_envelope;
use ivc_dsp::filter::biquad::BiquadCascade;
use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};

/// Builds the pre-compensated baseband an adaptive attacker would transmit.
///
/// `suppression` in `[0, 1]` scales the compensation: 0 is the oblivious
/// attacker, 1 subtracts the full predicted shadow.
pub fn precompensated_baseband(voice: &Signal, suppression: f64) -> Result<Signal> {
    if voice.is_empty() {
        return Err(DspError::invalid("voice", "empty signal"));
    }
    if !(0.0..=1.0).contains(&suppression) {
        return Err(DspError::invalid("suppression", "must be within [0, 1]"));
    }
    if suppression == 0.0 {
        return Ok(voice.clone());
    }
    let fs = voice.sample_rate_hz();
    // Predict the shadow: the low-frequency part of the squared envelope of
    // the voice signal (this is exactly what the microphone's square law
    // will add).
    let envelope = hilbert_envelope(voice.samples())?;
    let squared: Vec<f64> = envelope.iter().map(|e| e * e).collect();
    let lpf = BiquadCascade::butterworth_low_pass(80.0, 4, fs)?;
    let mut shadow = Signal::new(lpf.filtfilt(&squared), fs)?;
    shadow.remove_dc();
    // Scale the predicted shadow relative to the voice and subtract.
    let voice_rms = voice.rms().max(1e-12);
    let shadow_rms = shadow.rms().max(1e-12);
    let compensation = shadow.scaled(-suppression * 0.5 * voice_rms / shadow_rms);
    let mut out = voice.clone();
    out.mix(&compensation)?;
    Ok(out)
}

/// Summary of one adaptive-attack working point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountermeasureOutcome {
    /// The suppression factor the attacker applied.
    pub suppression: f64,
    /// Probability the detector assigns to "attack" for this recording.
    pub detection_probability: f64,
    /// Word accuracy the injected command still achieves at the recogniser.
    pub attack_word_accuracy: f64,
}

impl CountermeasureOutcome {
    /// `true` if the attacker simultaneously evaded the detector (probability
    /// below 0.5) and kept the command intelligible (accuracy ≥ 0.6) — the
    /// combination the paper argues is unattainable.
    pub fn attacker_wins(&self) -> bool {
        self.detection_probability < 0.5 && self.attack_word_accuracy >= 0.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::spectrum::band_power;

    fn syllabic_voice() -> Signal {
        let fs = 48_000.0;
        let n = (0.6 * fs) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let syllable = 0.55 + 0.45 * (2.0 * std::f64::consts::PI * 4.0 * t).sin();
                syllable * (2.0 * std::f64::consts::PI * 700.0 * t).sin()
            })
            .collect();
        Signal::new(samples, fs).unwrap()
    }

    #[test]
    fn validation() {
        let v = syllabic_voice();
        assert!(precompensated_baseband(&Signal::new(vec![], 48_000.0).unwrap(), 0.5).is_err());
        assert!(precompensated_baseband(&v, -0.1).is_err());
        assert!(precompensated_baseband(&v, 1.5).is_err());
    }

    #[test]
    fn zero_suppression_is_identity() {
        let v = syllabic_voice();
        let out = precompensated_baseband(&v, 0.0).unwrap();
        assert_eq!(out.samples(), v.samples());
    }

    #[test]
    fn suppression_adds_low_frequency_compensation() {
        let v = syllabic_voice();
        let compensated = precompensated_baseband(&v, 1.0).unwrap();
        let fs = v.sample_rate_hz();
        // The compensated baseband contains added energy below 80 Hz
        // (the anti-shadow), which the original lacked.
        let low_orig = band_power(v.samples(), fs, 2.0, 80.0).unwrap();
        let low_comp = band_power(compensated.samples(), fs, 2.0, 80.0).unwrap();
        assert!(
            low_comp > low_orig * 5.0,
            "orig {low_orig} vs comp {low_comp}"
        );
        // The voice band is essentially untouched.
        let voice_orig = band_power(v.samples(), fs, 600.0, 800.0).unwrap();
        let voice_comp = band_power(compensated.samples(), fs, 600.0, 800.0).unwrap();
        assert!((voice_orig - voice_comp).abs() / voice_orig < 0.05);
    }

    #[test]
    fn compensation_scales_with_suppression() {
        let v = syllabic_voice();
        let fs = v.sample_rate_hz();
        let half = precompensated_baseband(&v, 0.5).unwrap();
        let full = precompensated_baseband(&v, 1.0).unwrap();
        let low_half = band_power(half.samples(), fs, 2.0, 80.0).unwrap();
        let low_full = band_power(full.samples(), fs, 2.0, 80.0).unwrap();
        assert!(low_full > low_half * 2.0);
    }

    #[test]
    fn outcome_win_condition() {
        let win = CountermeasureOutcome {
            suppression: 0.5,
            detection_probability: 0.2,
            attack_word_accuracy: 0.8,
        };
        assert!(win.attacker_wins());
        let detected = CountermeasureOutcome {
            detection_probability: 0.9,
            ..win
        };
        assert!(!detected.attacker_wins());
        let garbled = CountermeasureOutcome {
            attack_word_accuracy: 0.3,
            ..win
        };
        assert!(!garbled.attacker_wins());
    }
}
