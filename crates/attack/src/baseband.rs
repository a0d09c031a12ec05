//! Baseband preparation: turning a voice command waveform into the signal
//! that will be modulated onto the ultrasonic carrier.
//!
//! The steps follow the paper's attack algorithm: low-pass filter to 8 kHz
//! (speech recognisers keep little above that), normalise, and upsample to a
//! playback rate high enough to represent the carrier and both sidebands
//! (192 kHz or 384 kHz).

use ivc_dsp::filter::fir::FirFilter;
use ivc_dsp::resample::resample;
use ivc_dsp::signal::Signal;
use ivc_dsp::window::WindowKind;
use ivc_dsp::{DspError, Result};

/// Low-pass cutoff applied to the voice command, in Hz.
pub const CUTOFF_HZ: f64 = 8_000.0;
/// Playback sample rate of the ultrasonic signal, in Hz.
pub const PLAYBACK_RATE_HZ: f64 = 192_000.0;
/// Lowest carrier frequency that keeps the lower sideband above 20 kHz.
pub const MIN_CARRIER_HZ: f64 = 20_000.0 + CUTOFF_HZ;
/// Highest carrier frequency representable at the playback rate with the
/// upper sideband intact.
pub const MAX_CARRIER_HZ: f64 = PLAYBACK_RATE_HZ / 2.0 - CUTOFF_HZ;

/// Checks that `carrier_hz` keeps both sidebands above 20 kHz and below
/// the playback Nyquist: within [`MIN_CARRIER_HZ`, `MAX_CARRIER_HZ`].
pub(crate) fn check_carrier(carrier_hz: f64) -> Result<()> {
    if (MIN_CARRIER_HZ..=MAX_CARRIER_HZ).contains(&carrier_hz) {
        return Ok(());
    }
    Err(DspError::invalid(
        "carrier_hz",
        format!(
            "{carrier_hz} Hz outside the inaudible range [{MIN_CARRIER_HZ:.0}, \
             {MAX_CARRIER_HZ:.0}] Hz"
        ),
    ))
}

/// Prepares a voice command for ultrasonic modulation: band-limit to
/// [`CUTOFF_HZ`], remove DC, normalise the peak to 1.0 and resample to
/// [`PLAYBACK_RATE_HZ`].
pub fn prepare_baseband(voice: &Signal) -> Result<Signal> {
    if voice.is_empty() {
        return Err(DspError::invalid("voice", "empty signal"));
    }
    if voice.sample_rate_hz() < 2.0 * CUTOFF_HZ {
        return Err(DspError::invalid(
            "voice",
            "sample rate too low for the 8 kHz cutoff",
        ));
    }
    // Low-pass at the cutoff.
    let lpf = FirFilter::low_pass(CUTOFF_HZ, voice.sample_rate_hz(), 255, WindowKind::Hamming)?;
    let mut filtered = lpf.filter_signal(voice)?;
    filtered.remove_dc();
    // Upsample to the playback rate.
    let mut upsampled = resample(&filtered, PLAYBACK_RATE_HZ)?;
    upsampled.normalize_peak(1.0);
    Ok(upsampled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::spectrum::band_power;
    use ivc_speech::commands::corpus;
    use ivc_speech::synthesis::{SpeakerProfile, Synthesizer};

    #[test]
    fn validation() {
        assert!(prepare_baseband(&Signal::new(vec![], 48_000.0).unwrap()).is_err());
        let too_slow = Signal::tone(1_000.0, 0.5, 0.1, 12_000.0).unwrap();
        assert!(prepare_baseband(&too_slow).is_err());
    }

    #[test]
    fn carrier_bounds_follow_the_paper() {
        assert!((MIN_CARRIER_HZ - 28_000.0).abs() < 1e-9);
        assert!((MAX_CARRIER_HZ - 88_000.0).abs() < 1e-9);
        assert!(check_carrier(MIN_CARRIER_HZ).is_ok());
        assert!(check_carrier(MAX_CARRIER_HZ).is_ok());
        assert!(check_carrier(27_999.0).is_err());
        assert!(check_carrier(88_001.0).is_err());
    }

    #[test]
    fn output_is_band_limited_normalised_and_at_playback_rate() {
        let fs = 48_000.0;
        let mut voice = Signal::tone(1_000.0, 0.4, 0.4, fs).unwrap();
        voice
            .mix(&Signal::tone(14_000.0, 0.4, 0.4, fs).unwrap())
            .unwrap();
        let baseband = prepare_baseband(&voice).unwrap();
        assert_eq!(baseband.sample_rate_hz(), 192_000.0);
        assert!((baseband.peak() - 1.0).abs() < 1e-9);
        let kept = band_power(baseband.samples(), 192_000.0, 800.0, 1_200.0).unwrap();
        let removed = band_power(baseband.samples(), 192_000.0, 13_000.0, 15_000.0).unwrap();
        assert!(kept / removed.max(1e-18) > 1_000.0);
    }

    #[test]
    fn synthesised_command_survives_preparation() {
        let synth = Synthesizer::new(48_000.0).unwrap();
        let utt = synth
            .render(&corpus()[0], &SpeakerProfile::canonical())
            .unwrap();
        let baseband = prepare_baseband(&utt.signal).unwrap();
        assert!((baseband.duration_s() - utt.signal.duration_s()).abs() < 0.02);
        // Voice-band energy dominates.
        let voice_band = band_power(baseband.samples(), 192_000.0, 80.0, 8_000.0).unwrap();
        let above = band_power(baseband.samples(), 192_000.0, 9_000.0, 90_000.0).unwrap();
        assert!(voice_band / above.max(1e-18) > 100.0);
    }
}
