//! Prosody: pitch contours and speaking-rate control.
//!
//! Natural-sounding pitch is not the goal; what matters for the defense
//! evaluation is that synthesised "legitimate" speech has a realistic
//! fundamental-frequency range (85–255 Hz for adult speakers), some
//! declination over an utterance, and speaker-to-speaker variation.

use crate::error::{Result, SpeechError};

/// A pitch contour over an utterance.
#[derive(Debug, Clone, PartialEq)]
pub struct PitchContour {
    /// Base fundamental frequency in Hz.
    pub base_f0_hz: f64,
    /// Total declination over the utterance, as a fraction of base F0.
    pub declination: f64,
    /// Depth of the slow sinusoidal intonation wobble, as a fraction of F0.
    pub intonation_depth: f64,
    /// Frequency of the intonation wobble in Hz.
    pub intonation_rate_hz: f64,
}

impl PitchContour {
    /// Creates a validated contour.
    pub fn new(
        base_f0_hz: f64,
        declination: f64,
        intonation_depth: f64,
        intonation_rate_hz: f64,
    ) -> Result<Self> {
        if !(50.0..=400.0).contains(&base_f0_hz) {
            return Err(SpeechError::invalid(
                "base_f0_hz",
                format!("{base_f0_hz} outside [50, 400]"),
            ));
        }
        if !(0.0..=0.5).contains(&declination) || !(0.0..=0.5).contains(&intonation_depth) {
            return Err(SpeechError::invalid(
                "contour shape",
                "declination and intonation depth must be within [0, 0.5]",
            ));
        }
        if !(0.0..=10.0).contains(&intonation_rate_hz) {
            return Err(SpeechError::invalid(
                "intonation_rate_hz",
                "must be within [0, 10] Hz",
            ));
        }
        Ok(PitchContour {
            base_f0_hz,
            declination,
            intonation_depth,
            intonation_rate_hz,
        })
    }

    /// A typical adult male contour.
    pub fn male() -> Self {
        PitchContour::new(115.0, 0.15, 0.06, 2.3).expect("valid constants")
    }

    /// Instantaneous F0 at normalised utterance position `x` in `[0, 1]`.
    pub fn f0_at(&self, x: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        let declined = self.base_f0_hz * (1.0 - self.declination * x);
        let wobble = 1.0
            + self.intonation_depth
                * (2.0 * std::f64::consts::PI * self.intonation_rate_hz * x).sin();
        declined * wobble
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(PitchContour::new(30.0, 0.1, 0.05, 2.0).is_err());
        assert!(PitchContour::new(120.0, 0.9, 0.05, 2.0).is_err());
        assert!(PitchContour::new(120.0, 0.1, 0.05, 20.0).is_err());
        assert!(PitchContour::new(120.0, 0.1, 0.05, 2.0).is_ok());
    }

    #[test]
    fn presets_sit_in_expected_ranges() {
        let m = PitchContour::male();
        assert!(m.base_f0_hz > 85.0 && m.base_f0_hz < 155.0);
    }

    #[test]
    fn f0_declines_over_the_utterance() {
        let c = PitchContour::new(120.0, 0.2, 0.0, 0.0).unwrap();
        assert!(c.f0_at(0.0) > c.f0_at(1.0));
        assert!((c.f0_at(1.0) - 96.0).abs() < 1e-9);
        // Clamped outside [0, 1].
        assert_eq!(c.f0_at(-1.0), c.f0_at(0.0));
        assert_eq!(c.f0_at(2.0), c.f0_at(1.0));
    }

    #[test]
    fn f0_stays_within_voice_range() {
        let contour = PitchContour::male();
        for i in 0..=20 {
            let f0 = contour.f0_at(i as f64 / 20.0);
            assert!(f0 > 70.0 && f0 < 260.0, "f0 {f0}");
        }
    }
}
