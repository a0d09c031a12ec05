//! Amplitude modulation and demodulation.
//!
//! The attack shifts a voice baseband up around an ultrasonic carrier with
//! AM; the victim microphone's second-order non-linearity then acts as a
//! square-law demodulator.  Both directions are modelled here, together with
//! a coherent (product) demodulator used for analysis.

use crate::error::{DspError, Result};
use crate::filter::biquad::BiquadCascade;
use crate::signal::Signal;

/// Parameters of an AM modulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmConfig {
    /// Carrier frequency in Hz.
    pub carrier_hz: f64,
    /// Modulation depth in `[0, 1]` for full-carrier AM.
    pub modulation_depth: f64,
    /// Initial carrier phase in radians.
    pub carrier_phase_rad: f64,
}

impl AmConfig {
    /// Creates a configuration with zero initial phase.
    pub fn new(carrier_hz: f64, modulation_depth: f64) -> Self {
        AmConfig {
            carrier_hz,
            modulation_depth,
            carrier_phase_rad: 0.0,
        }
    }
}

fn validate_carrier(carrier_hz: f64, sample_rate_hz: f64) -> Result<()> {
    if carrier_hz <= 0.0 || carrier_hz >= sample_rate_hz / 2.0 {
        return Err(DspError::InvalidFrequency {
            frequency_hz: carrier_hz,
            nyquist_hz: sample_rate_hz / 2.0,
        });
    }
    Ok(())
}

/// Full-carrier amplitude modulation:
/// `y(t) = (1 + depth * m(t)) * cos(2 pi f_c t)`.
///
/// The baseband `m` is assumed normalised to peak 1; the output is
/// normalised to peak 1 as well so that downstream power accounting is
/// explicit.
pub fn am_modulate(baseband: &Signal, config: &AmConfig) -> Result<Signal> {
    if baseband.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "am_modulate",
        });
    }
    let fs = baseband.sample_rate_hz();
    validate_carrier(config.carrier_hz, fs)?;
    if !(0.0..=1.0).contains(&config.modulation_depth) {
        return Err(DspError::invalid("modulation_depth", "must be in [0, 1]"));
    }
    let w = 2.0 * std::f64::consts::PI * config.carrier_hz / fs;
    let peak = baseband.peak().max(1e-12);
    let samples: Vec<f64> = baseband
        .samples()
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let carrier = (w * i as f64 + config.carrier_phase_rad).cos();
            (1.0 + config.modulation_depth * m / peak) * carrier
        })
        .collect();
    let mut out = Signal::new(samples, fs)?;
    out.normalize_peak(1.0);
    Ok(out)
}

/// Double-sideband suppressed-carrier modulation: `y(t) = m(t) cos(2 pi f_c t)`.
pub fn dsb_sc_modulate(baseband: &Signal, carrier_hz: f64) -> Result<Signal> {
    if baseband.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "dsb_sc_modulate",
        });
    }
    let fs = baseband.sample_rate_hz();
    validate_carrier(carrier_hz, fs)?;
    let w = 2.0 * std::f64::consts::PI * carrier_hz / fs;
    let samples: Vec<f64> = baseband
        .samples()
        .iter()
        .enumerate()
        .map(|(i, &m)| m * (w * i as f64).cos())
        .collect();
    Signal::new(samples, fs)
}

/// Square-law demodulation: the signal is squared (the dominant term of a
/// second-order non-linearity) and low-pass filtered.  This is exactly the
/// mechanism by which a victim microphone recovers the attacker's baseband,
/// and it is also the source of the defense's tell-tale `m(t)²` shadow.
pub fn square_law_demodulate(modulated: &Signal, baseband_cutoff_hz: f64) -> Result<Signal> {
    if modulated.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "square_law_demodulate",
        });
    }
    let fs = modulated.sample_rate_hz();
    if baseband_cutoff_hz <= 0.0 || baseband_cutoff_hz >= fs / 2.0 {
        return Err(DspError::InvalidFrequency {
            frequency_hz: baseband_cutoff_hz,
            nyquist_hz: fs / 2.0,
        });
    }
    let squared: Vec<f64> = modulated.samples().iter().map(|x| x * x).collect();
    let lpf = BiquadCascade::butterworth_low_pass(baseband_cutoff_hz, 6, fs)?;
    let mut out = Signal::new(lpf.filtfilt(&squared), fs)?;
    out.remove_dc();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resample::downsample;
    use crate::spectrum::band_power;

    fn baseband_tone(freq: f64, fs: f64, dur: f64) -> Signal {
        Signal::tone(freq, 1.0, dur, fs).unwrap()
    }

    #[test]
    fn validation() {
        let fs = 192_000.0;
        let m = baseband_tone(1_000.0, fs, 0.1);
        assert!(am_modulate(&m, &AmConfig::new(0.0, 0.5)).is_err());
        assert!(am_modulate(&m, &AmConfig::new(100_000.0, 0.5)).is_err());
        assert!(am_modulate(&m, &AmConfig::new(40_000.0, 1.5)).is_err());
        assert!(dsb_sc_modulate(&m, 0.0).is_err());
        assert!(square_law_demodulate(&m, 0.0).is_err());
        let empty = Signal::new(vec![], fs).unwrap();
        assert!(am_modulate(&empty, &AmConfig::new(40_000.0, 0.5)).is_err());
    }

    #[test]
    fn am_spectrum_sits_around_carrier() {
        let fs = 192_000.0;
        let m = baseband_tone(2_000.0, fs, 0.2);
        let y = am_modulate(&m, &AmConfig::new(40_000.0, 0.8)).unwrap();
        let near_carrier = band_power(y.samples(), fs, 36_000.0, 44_000.0).unwrap();
        let audible = band_power(y.samples(), fs, 100.0, 20_000.0).unwrap();
        assert!(
            near_carrier / audible > 1e4,
            "ratio {}",
            near_carrier / audible
        );
        assert!((y.peak() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dsb_sc_has_no_carrier_line() {
        let fs = 192_000.0;
        let m = baseband_tone(2_000.0, fs, 0.2);
        let y = dsb_sc_modulate(&m, 40_000.0).unwrap();
        // Carrier bin (40 kHz +- 200 Hz) should hold far less power than the
        // sidebands at 38/42 kHz.
        let carrier = band_power(y.samples(), fs, 39_800.0, 40_200.0).unwrap();
        let sideband = band_power(y.samples(), fs, 41_500.0, 42_500.0).unwrap();
        assert!(sideband / carrier.max(1e-20) > 10.0);
    }

    #[test]
    fn square_law_demodulation_recovers_am_baseband() {
        let fs = 192_000.0;
        let m = baseband_tone(1_000.0, fs, 0.2);
        let y = am_modulate(&m, &AmConfig::new(40_000.0, 0.8)).unwrap();
        let d = square_law_demodulate(&y, 8_000.0).unwrap();
        // The demodulated signal should contain a strong 1 kHz component.
        let p_tone = band_power(d.samples(), fs, 800.0, 1_200.0).unwrap();
        let p_rest = band_power(d.samples(), fs, 3_000.0, 8_000.0).unwrap();
        assert!(
            p_tone / p_rest.max(1e-20) > 10.0,
            "ratio {}",
            p_tone / p_rest
        );
    }

    #[test]
    fn square_law_demodulation_of_two_tones_creates_difference_frequency() {
        // The classic intermodulation example from the paper: 25 kHz + 30 kHz
        // in, 5 kHz out after the square law and LPF.
        let fs = 192_000.0;
        let mut x = Signal::tone(25_000.0, 0.5, 0.2, fs).unwrap();
        x.mix(&Signal::tone(30_000.0, 0.5, 0.2, fs).unwrap())
            .unwrap();
        let d = square_law_demodulate(&x, 10_000.0).unwrap();
        let p_diff = band_power(d.samples(), fs, 4_800.0, 5_200.0).unwrap();
        let p_rest = band_power(d.samples(), fs, 1_000.0, 4_000.0).unwrap();
        assert!(p_diff / p_rest.max(1e-20) > 50.0);
    }

    #[test]
    fn demodulated_baseband_survives_downsampling_to_audio_rate() {
        let fs = 192_000.0;
        let m = baseband_tone(2_000.0, fs, 0.2);
        let y = am_modulate(&m, &AmConfig::new(40_000.0, 0.8)).unwrap();
        let d = square_law_demodulate(&y, 8_000.0).unwrap();
        let audio = downsample(&d, 4).unwrap(); // 48 kHz
        let p_tone = band_power(audio.samples(), 48_000.0, 1_800.0, 2_200.0).unwrap();
        let p_total = band_power(audio.samples(), 48_000.0, 50.0, 20_000.0).unwrap();
        assert!(p_tone / p_total > 0.5, "tone fraction {}", p_tone / p_total);
    }
}
