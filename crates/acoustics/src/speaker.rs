//! The ultrasonic emitter: a piezo tweeter driven by an audio amplifier.
//!
//! The speaker model is where the *long-range attack's core problem* lives.
//! Driving a single tweeter hard enough to cover a room means pushing its
//! diaphragm into its non-linear regime, and the tweeter's own `g2·s²` term
//! then demodulates the AM ultrasound **in the air right next to the
//! attacker**, producing audible leakage that gives the attack away.  The
//! multi-speaker attack exists to break this coupling.

use crate::error::{AcousticsError, Result};
use crate::nonlinearity::Polynomial;
use crate::shaping::{one_pole_high_pass_gain, one_pole_low_pass_gain, shape_spectrum};
use crate::spl::REFERENCE_PRESSURE_PA;
use ivc_dsp::signal::Signal;

/// Model of one ultrasonic speaker (piezo horn tweeter + power amplifier).
#[derive(Debug, Clone, PartialEq)]
pub struct UltrasonicSpeaker {
    /// On-axis sensitivity: SPL at 1 m for 1 W of drive, in dB.
    pub sensitivity_db_spl_1w_1m: f64,
    /// Maximum continuous electrical drive power, in watt.
    pub max_power_w: f64,
    /// Low-frequency corner of the tweeter's response, in Hz.  Piezo horns
    /// reproduce very little below a few kilohertz, which slightly softens
    /// the audible leakage they create.
    pub low_corner_hz: f64,
    /// High-frequency corner of the usable response, in Hz.
    pub high_corner_hz: f64,
    /// Non-linearity of the diaphragm/amplifier chain, applied to the
    /// normalised excursion (1.0 = excursion at maximum rated power).
    pub nonlinearity: Polynomial,
}

impl Default for UltrasonicSpeaker {
    /// Parameters representative of a commodity piezo horn tweeter
    /// (Fostex FT17H class) driven by a consumer stereo amplifier.
    fn default() -> Self {
        UltrasonicSpeaker {
            sensitivity_db_spl_1w_1m: 96.0,
            max_power_w: 30.0,
            low_corner_hz: 4_000.0,
            high_corner_hz: 55_000.0,
            nonlinearity: Polynomial {
                g1: 1.0,
                g2: 0.08,
                g3: 0.01,
            },
        }
    }
}

impl UltrasonicSpeaker {
    /// Creates a validated speaker model.
    pub fn new(
        sensitivity_db_spl_1w_1m: f64,
        max_power_w: f64,
        low_corner_hz: f64,
        high_corner_hz: f64,
        nonlinearity: Polynomial,
    ) -> Result<Self> {
        if !(60.0..=130.0).contains(&sensitivity_db_spl_1w_1m) {
            return Err(AcousticsError::invalid(
                "sensitivity_db_spl_1w_1m",
                "must be within [60, 130] dB",
            ));
        }
        if !(max_power_w > 0.0) || !max_power_w.is_finite() {
            return Err(AcousticsError::invalid("max_power_w", "must be positive"));
        }
        if !(low_corner_hz > 0.0) || !(high_corner_hz > low_corner_hz) {
            return Err(AcousticsError::invalid(
                "corners",
                "need 0 < low_corner_hz < high_corner_hz",
            ));
        }
        Ok(UltrasonicSpeaker {
            sensitivity_db_spl_1w_1m,
            max_power_w,
            low_corner_hz,
            high_corner_hz,
            nonlinearity,
        })
    }

    /// Peak output pressure at 1 m when driven with a full-scale sine at the
    /// maximum rated power, in pascal.
    pub fn full_scale_pressure_pa(&self) -> f64 {
        let rms_at_1w = REFERENCE_PRESSURE_PA * 10f64.powf(self.sensitivity_db_spl_1w_1m / 20.0);
        let rms_at_max = rms_at_1w * self.max_power_w.sqrt();
        rms_at_max * std::f64::consts::SQRT_2
    }

    /// Magnitude response of the tweeter at `frequency_hz`.
    pub fn response_gain(&self, frequency_hz: f64) -> f64 {
        one_pole_high_pass_gain(frequency_hz, self.low_corner_hz)
            * one_pole_low_pass_gain(frequency_hz, self.high_corner_hz)
    }

    /// The dimensionless diaphragm output before frequency shaping: the
    /// drive scaled to the physical excursion implied by `power_w`, passed
    /// through the non-linearity.
    ///
    /// Exposed separately so that a [`crate::array::SpeakerArray`] can sum
    /// the per-element distorted excursions and apply the (shared, linear)
    /// response shaping once for the whole array instead of once per
    /// element — identical output, far less FFT work for large arrays.
    pub fn distorted_excursion(&self, drive: &Signal, power_w: f64) -> Result<Signal> {
        if drive.is_empty() {
            return Err(AcousticsError::invalid("drive", "empty signal"));
        }
        if !(power_w > 0.0) || !power_w.is_finite() {
            return Err(AcousticsError::invalid("power_w", "must be positive"));
        }
        if power_w > self.max_power_w * (1.0 + 1e-9) {
            return Err(AcousticsError::invalid(
                "power_w",
                format!(
                    "{power_w} W exceeds the speaker's rated {max} W",
                    max = self.max_power_w
                ),
            ));
        }
        if drive.peak() > 1.0 + 1e-9 {
            return Err(AcousticsError::invalid(
                "drive",
                format!("peak {peak} exceeds full scale", peak = drive.peak()),
            ));
        }
        // Normalised excursion: full scale at max power maps to 1.0.
        let excursion_scale = (power_w / self.max_power_w).sqrt();
        let excursion = drive.scaled(excursion_scale);
        Ok(self.nonlinearity.apply(&excursion))
    }

    /// Converts a (possibly summed) distorted excursion into pascal at 1 m
    /// on-axis by applying the tweeter's frequency response and sensitivity.
    pub fn excursion_to_pressure_at_1m(&self, distorted: &Signal) -> Result<Signal> {
        let shaped = shape_spectrum(distorted, |f| self.response_gain(f))?;
        Ok(shaped.scaled(self.full_scale_pressure_pa() / self.nonlinearity.g1))
    }

    /// Emits `drive` (a digital waveform normalised to peak ≤ 1) at
    /// electrical power `power_w`, returning the pressure waveform in pascal
    /// at 1 m on-axis.
    ///
    /// The chain is: scale the drive to the physical excursion implied by
    /// the requested power, pass it through the diaphragm non-linearity,
    /// shape it with the tweeter's frequency response, and scale to pascal.
    pub fn emit_at_1m(&self, drive: &Signal, power_w: f64) -> Result<Signal> {
        let distorted = self.distorted_excursion(drive, power_w)?;
        self.excursion_to_pressure_at_1m(&distorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spl::waveform_spl_db;
    use ivc_dsp::spectrum::band_power;

    #[test]
    fn validation() {
        let nl = Polynomial::LINEAR;
        assert!(UltrasonicSpeaker::new(40.0, 30.0, 4_000.0, 50_000.0, nl).is_err());
        assert!(UltrasonicSpeaker::new(96.0, 0.0, 4_000.0, 50_000.0, nl).is_err());
        assert!(UltrasonicSpeaker::new(96.0, 30.0, 50_000.0, 4_000.0, nl).is_err());
        let spk = UltrasonicSpeaker::default();
        let drive = Signal::tone(30_000.0, 1.0, 0.1, 192_000.0).unwrap();
        assert!(spk.emit_at_1m(&drive, 0.0).is_err());
        assert!(spk.emit_at_1m(&drive, 100.0).is_err());
        assert!(spk
            .emit_at_1m(&Signal::new(vec![], 192_000.0).unwrap(), 1.0)
            .is_err());
        let hot = drive.scaled(2.0);
        assert!(spk.emit_at_1m(&hot, 1.0).is_err());
    }

    #[test]
    fn sensitivity_sets_output_level() {
        let spk = UltrasonicSpeaker::default();
        let fs = 192_000.0;
        let drive = Signal::tone(30_000.0, 1.0, 0.3, fs).unwrap();
        // At 1 W the mid-band SPL should be close to the 96 dB sensitivity
        // (minus a fraction of a dB of response shaping).
        let out = spk.emit_at_1m(&drive, 1.0).unwrap();
        let spl = waveform_spl_db(out.samples());
        assert!((spl - 96.0).abs() < 2.0, "spl {spl}");
        // At 16 W it should be ~12 dB louder.
        let loud = spk.emit_at_1m(&drive, 16.0).unwrap();
        let spl_loud = waveform_spl_db(loud.samples());
        assert!((spl_loud - spl - 12.0).abs() < 1.0, "{spl} -> {spl_loud}");
    }

    #[test]
    fn response_attenuates_audible_band() {
        let spk = UltrasonicSpeaker::default();
        assert!(spk.response_gain(30_000.0) > 0.85);
        assert!(spk.response_gain(500.0) < 0.15);
        assert!(spk.response_gain(150_000.0) < 0.4);
    }

    #[test]
    fn hard_drive_creates_audible_intermodulation_leakage() {
        // Two ultrasonic tones 5 kHz apart: the speaker's own g2 makes a
        // 5 kHz audible tone, and it grows faster than the carrier as power
        // rises.  This is the effect that motivates the multi-speaker attack.
        let spk = UltrasonicSpeaker::default();
        let fs = 192_000.0;
        let mut drive = Signal::tone(30_000.0, 0.5, 0.3, fs).unwrap();
        drive
            .mix(&Signal::tone(35_000.0, 0.5, 0.3, fs).unwrap())
            .unwrap();
        let quiet = spk.emit_at_1m(&drive, 2.0).unwrap();
        let loud = spk.emit_at_1m(&drive, 29.0).unwrap();
        let leak_quiet = band_power(quiet.samples(), fs, 4_500.0, 5_500.0).unwrap();
        let leak_loud = band_power(loud.samples(), fs, 4_500.0, 5_500.0).unwrap();
        let carrier_quiet = band_power(quiet.samples(), fs, 29_000.0, 36_000.0).unwrap();
        let carrier_loud = band_power(loud.samples(), fs, 29_000.0, 36_000.0).unwrap();
        let carrier_gain = carrier_loud / carrier_quiet;
        let leak_gain = leak_loud / leak_quiet;
        assert!(
            leak_gain > carrier_gain * 3.0,
            "leakage should grow faster: {leak_gain} vs {carrier_gain}"
        );
    }

    #[test]
    fn linear_speaker_produces_no_leakage() {
        let spk = UltrasonicSpeaker {
            nonlinearity: Polynomial::LINEAR,
            ..UltrasonicSpeaker::default()
        };
        let fs = 192_000.0;
        let mut drive = Signal::tone(30_000.0, 0.5, 0.3, fs).unwrap();
        drive
            .mix(&Signal::tone(35_000.0, 0.5, 0.3, fs).unwrap())
            .unwrap();
        let out = spk.emit_at_1m(&drive, 29.0).unwrap();
        let leak = band_power(out.samples(), fs, 4_500.0, 5_500.0).unwrap();
        let carrier = band_power(out.samples(), fs, 29_000.0, 36_000.0).unwrap();
        assert!(leak / carrier < 1e-6, "leak fraction {}", leak / carrier);
    }

    #[test]
    fn full_scale_pressure_matches_sensitivity_arithmetic() {
        let spk = UltrasonicSpeaker::default();
        // 96 dB + 10*log10(30) ~ 110.8 dB SPL -> rms ~ 6.9 Pa, peak ~ 9.8 Pa.
        let p = spk.full_scale_pressure_pa();
        assert!(p > 8.0 && p < 12.0, "peak pressure {p}");
    }
}
