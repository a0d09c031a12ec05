//! Human audibility modelling.
//!
//! The attack is only useful if a bystander (the device owner) does not hear
//! it, so the evaluation needs a stand-in for the paper's human listeners.
//! Audibility here is decided against the absolute threshold of hearing in
//! quiet (Terhardt's analytic approximation of the ISO 226 contour): a
//! signal is judged audible if its SPL within any sub-band of the audible
//! range exceeds the threshold at that band's centre frequency by a safety
//! margin.

use crate::spl::pressure_to_spl_db;
use ivc_dsp::spectrum::{welch_psd, PowerSpectrum};
use ivc_dsp::window::WindowKind;
use ivc_dsp::{DspError, Result};

/// Upper edge of human hearing used by the audibility analysis, in Hz.
pub const AUDIBLE_UPPER_HZ: f64 = 18_000.0;
/// Lower edge of human hearing used by the audibility analysis, in Hz.
pub const AUDIBLE_LOWER_HZ: f64 = 30.0;

/// Absolute threshold of hearing in quiet at `frequency_hz`, in dB SPL
/// (Terhardt 1979 approximation).  Rises very steeply above ~15 kHz, which
/// is exactly why a well-designed ultrasonic attack is inaudible.
pub fn hearing_threshold_db_spl(frequency_hz: f64) -> f64 {
    let f_khz = (frequency_hz / 1_000.0).max(0.02);
    3.64 * f_khz.powf(-0.8) - 6.5 * (-0.6 * (f_khz - 3.3).powi(2)).exp() + 1e-3 * f_khz.powi(4)
}

/// Result of an audibility analysis of a pressure waveform.
#[derive(Debug, Clone, PartialEq)]
pub struct AudibilityReport {
    /// `true` if any analysed band exceeded threshold + margin.
    pub audible: bool,
    /// The largest margin (band SPL minus threshold) over all bands, in dB.
    /// Negative values mean the signal is below threshold everywhere.
    pub worst_margin_db: f64,
    /// Centre frequency of the band with the largest margin, in Hz.
    pub worst_band_hz: f64,
    /// Overall unweighted SPL of the audible portion (30 Hz – 18 kHz), dB.
    pub audible_band_spl_db: f64,
}

/// Analyses whether a pressure waveform (pascal) would be heard by a person
/// at the point where it was measured.
///
/// `margin_db` raises the detection bar: a margin of 0 dB means "at
/// threshold", a margin of 10 dB requires the band to be clearly above
/// threshold before it is flagged.
pub fn audibility(
    pressure_samples: &[f64],
    sample_rate_hz: f64,
    margin_db: f64,
) -> Result<AudibilityReport> {
    if pressure_samples.is_empty() {
        return Err(DspError::invalid("pressure_samples", "empty waveform"));
    }
    if !(sample_rate_hz > 0.0) {
        return Err(DspError::invalid("sample_rate_hz", "must be positive"));
    }
    let psd = welch_psd(
        pressure_samples,
        sample_rate_hz,
        audibility_segment_len(pressure_samples.len()),
        0.5,
        WindowKind::Hann,
    )?;
    Ok(audibility_from_psd(&psd, sample_rate_hz, margin_db))
}

/// The Welch segment [`audibility`] asks for on `num_samples` samples (a
/// Hann window with half overlap).
pub fn audibility_segment_len(num_samples: usize) -> usize {
    num_samples.clamp(512, 8_192)
}

/// [`audibility`]'s verdict from the waveform's PSD (estimated as
/// [`audibility`] does), for callers that read one PSD several ways.
pub fn audibility_from_psd(
    psd: &PowerSpectrum,
    sample_rate_hz: f64,
    margin_db: f64,
) -> AudibilityReport {
    // Third-octave-style analysis bands across the audible range.
    let mut worst_margin = f64::NEG_INFINITY;
    let mut worst_band = AUDIBLE_LOWER_HZ;
    let mut audible_power = 0.0;
    let mut centre = AUDIBLE_LOWER_HZ * 2f64.powf(1.0 / 6.0);
    while centre < AUDIBLE_UPPER_HZ && centre < sample_rate_hz / 2.0 {
        let low = centre / 2f64.powf(1.0 / 6.0);
        let high = centre * 2f64.powf(1.0 / 6.0);
        let band_power = psd.band_power(low, high.min(sample_rate_hz / 2.0));
        audible_power += band_power;
        let band_spl = pressure_to_spl_db(band_power.max(0.0).sqrt());
        let threshold = hearing_threshold_db_spl(centre);
        let margin = band_spl - threshold;
        if margin > worst_margin {
            worst_margin = margin;
            worst_band = centre;
        }
        centre *= 2f64.powf(1.0 / 3.0);
    }
    let audible_band_spl_db = pressure_to_spl_db(audible_power.max(0.0).sqrt());
    AudibilityReport {
        audible: worst_margin > margin_db,
        worst_margin_db: worst_margin,
        worst_band_hz: worst_band,
        audible_band_spl_db,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spl::spl_db_to_pressure;
    use ivc_dsp::signal::Signal;

    fn tone_pa(freq: f64, spl_db: f64, fs: f64) -> Signal {
        let amp = spl_db_to_pressure(spl_db) * std::f64::consts::SQRT_2;
        Signal::tone(freq, amp, 0.5, fs).unwrap()
    }

    #[test]
    fn validation() {
        assert!(audibility(&[], 48_000.0, 0.0).is_err());
        assert!(audibility(&[1.0; 64], 0.0, 0.0).is_err());
    }

    #[test]
    fn threshold_has_expected_shape() {
        // Most sensitive region is 2-5 kHz, threshold near or below 0 dB SPL.
        assert!(hearing_threshold_db_spl(3_500.0) < 0.0);
        // 1 kHz threshold is a few dB SPL.
        let t1k = hearing_threshold_db_spl(1_000.0);
        assert!(t1k > 0.0 && t1k < 10.0, "t1k {t1k}");
        // Low frequencies need much more level.
        assert!(hearing_threshold_db_spl(50.0) > 35.0);
        // Near-ultrasound needs dramatically more level.
        assert!(hearing_threshold_db_spl(18_000.0) > 60.0);
        assert!(hearing_threshold_db_spl(22_000.0) > 100.0);
    }

    #[test]
    fn a_60_db_1khz_tone_is_audible() {
        let s = tone_pa(1_000.0, 60.0, 48_000.0);
        let report = audibility(s.samples(), 48_000.0, 0.0).unwrap();
        assert!(report.audible);
        assert!((report.worst_band_hz - 1_000.0).abs() < 300.0);
        assert!(report.worst_margin_db > 40.0);
    }

    #[test]
    fn a_faint_tone_is_inaudible() {
        let s = tone_pa(1_000.0, -10.0, 48_000.0);
        let report = audibility(s.samples(), 48_000.0, 0.0).unwrap();
        assert!(!report.audible, "margin {}", report.worst_margin_db);
    }

    #[test]
    fn loud_ultrasound_is_inaudible() {
        // A 40 kHz tone at 110 dB SPL carries no audible-band energy.
        let s = tone_pa(40_000.0, 110.0, 192_000.0);
        let report = audibility(s.samples(), 192_000.0, 0.0).unwrap();
        assert!(!report.audible, "margin {}", report.worst_margin_db);
        assert!(report.audible_band_spl_db < 40.0);
    }

    #[test]
    fn margin_parameter_raises_the_bar() {
        let s = tone_pa(1_000.0, 8.0, 48_000.0);
        let strict = audibility(s.samples(), 48_000.0, 0.0).unwrap();
        let lenient = audibility(s.samples(), 48_000.0, 20.0).unwrap();
        assert!(strict.audible);
        assert!(!lenient.audible);
    }

    #[test]
    fn low_frequency_rumble_below_threshold_is_not_flagged() {
        // 45 Hz at 30 dB SPL is below the ~50+ dB threshold at that frequency.
        let s = tone_pa(45.0, 30.0, 48_000.0);
        let report = audibility(s.samples(), 48_000.0, 0.0).unwrap();
        assert!(!report.audible, "margin {}", report.worst_margin_db);
    }
}
