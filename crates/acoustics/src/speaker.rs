//! The ultrasonic emitter: a piezo tweeter driven by an audio amplifier.
//!
//! The speaker model is where the *long-range attack's core problem* lives.
//! Driving a single tweeter hard enough to cover a room means pushing its
//! diaphragm into its non-linear regime, and the tweeter's own `g2·s²` term
//! then demodulates the AM ultrasound **in the air right next to the
//! attacker**, producing audible leakage that gives the attack away.  The
//! multi-speaker attack exists to break this coupling.
//!
//! Every attack in the reproduction uses one tweeter model, a commodity
//! piezo horn (Fostex FT17H class) on a consumer stereo amplifier, so its
//! parameters are the constants below and the emitter is a set of free
//! functions over them.

use crate::nonlinearity::Polynomial;
use crate::shaping::{one_pole_high_pass_gain, one_pole_low_pass_gain, shape_spectrum};
use crate::spl::REFERENCE_PRESSURE_PA;
use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};

/// On-axis sensitivity: SPL at 1 m for 1 W of drive, in dB.
pub const SENSITIVITY_DB_SPL_1W_1M: f64 = 96.0;

/// Maximum continuous electrical drive power, in watt.
pub const MAX_POWER_W: f64 = 30.0;

/// Low-frequency corner of the tweeter's response, in Hz.  Piezo horns
/// reproduce very little below a few kilohertz, which slightly softens the
/// audible leakage they create.
pub const LOW_CORNER_HZ: f64 = 4_000.0;

/// High-frequency corner of the usable response, in Hz.
pub const HIGH_CORNER_HZ: f64 = 55_000.0;

/// Non-linearity of the diaphragm/amplifier chain, applied to the
/// normalised excursion (1.0 = excursion at [`MAX_POWER_W`]).
pub const NONLINEARITY: Polynomial = Polynomial {
    g1: 1.0,
    g2: 0.08,
    g3: 0.01,
};

/// Peak output pressure at 1 m when driven with a full-scale sine at
/// [`MAX_POWER_W`], in pascal.
pub fn full_scale_pressure_pa() -> f64 {
    let rms_at_1w = REFERENCE_PRESSURE_PA * 10f64.powf(SENSITIVITY_DB_SPL_1W_1M / 20.0);
    let rms_at_max = rms_at_1w * MAX_POWER_W.sqrt();
    rms_at_max * std::f64::consts::SQRT_2
}

/// Magnitude response of the tweeter at `frequency_hz`.
pub fn response_gain(frequency_hz: f64) -> f64 {
    one_pole_high_pass_gain(frequency_hz, LOW_CORNER_HZ)
        * one_pole_low_pass_gain(frequency_hz, HIGH_CORNER_HZ)
}

/// The dimensionless diaphragm output before frequency shaping: the drive
/// scaled to the physical excursion implied by `power_w`, passed through
/// the non-linearity.
///
/// Exposed separately so that a [`crate::array::SpeakerArray`] can sum the
/// per-element distorted excursions and apply the (shared, linear)
/// response shaping once for the whole array instead of once per element —
/// identical output, far less FFT work for large arrays.
pub fn distorted_excursion(drive: &Signal, power_w: f64) -> Result<Signal> {
    if drive.is_empty() {
        return Err(DspError::invalid("drive", "empty signal"));
    }
    if !(power_w > 0.0) || !power_w.is_finite() {
        return Err(DspError::invalid("power_w", "must be positive"));
    }
    if power_w > MAX_POWER_W * (1.0 + 1e-9) {
        return Err(DspError::invalid(
            "power_w",
            format!("{power_w} W exceeds the speaker's rated {MAX_POWER_W} W"),
        ));
    }
    if drive.peak() > 1.0 + 1e-9 {
        return Err(DspError::invalid(
            "drive",
            format!("peak {peak} exceeds full scale", peak = drive.peak()),
        ));
    }
    // Normalised excursion: full scale at max power maps to 1.0.
    let excursion_scale = (power_w / MAX_POWER_W).sqrt();
    let excursion = drive.scaled(excursion_scale);
    Ok(NONLINEARITY.apply(&excursion))
}

/// Converts a (possibly summed) distorted excursion into pascal at 1 m
/// on-axis by applying the tweeter's frequency response and sensitivity.
pub fn excursion_to_pressure_at_1m(distorted: &Signal) -> Result<Signal> {
    let shaped = shape_spectrum(distorted, response_gain)?;
    Ok(shaped.scaled(full_scale_pressure_pa() / NONLINEARITY.g1))
}

/// Emits `drive` (a digital waveform normalised to peak ≤ 1) at electrical
/// power `power_w`, returning the pressure waveform in pascal at 1 m
/// on-axis.
///
/// The chain is: scale the drive to the physical excursion implied by the
/// requested power, pass it through the diaphragm non-linearity, shape it
/// with the tweeter's frequency response, and scale to pascal.
pub fn emit_at_1m(drive: &Signal, power_w: f64) -> Result<Signal> {
    excursion_to_pressure_at_1m(&distorted_excursion(drive, power_w)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spl::waveform_spl_db;
    use ivc_dsp::spectrum::band_power;

    #[test]
    fn validation() {
        let drive = Signal::tone(30_000.0, 1.0, 0.1, 192_000.0).unwrap();
        assert!(emit_at_1m(&drive, 0.0).is_err());
        assert!(emit_at_1m(&drive, 100.0).is_err());
        assert!(emit_at_1m(&Signal::new(vec![], 192_000.0).unwrap(), 1.0).is_err());
        let hot = drive.scaled(2.0);
        assert!(emit_at_1m(&hot, 1.0).is_err());
    }

    #[test]
    fn sensitivity_sets_output_level() {
        let fs = 192_000.0;
        let drive = Signal::tone(30_000.0, 1.0, 0.3, fs).unwrap();
        // At 1 W the mid-band SPL should be close to the 96 dB sensitivity
        // (minus a fraction of a dB of response shaping).
        let out = emit_at_1m(&drive, 1.0).unwrap();
        let spl = waveform_spl_db(out.samples());
        assert!((spl - 96.0).abs() < 2.0, "spl {spl}");
        // At 16 W it should be ~12 dB louder.
        let loud = emit_at_1m(&drive, 16.0).unwrap();
        let spl_loud = waveform_spl_db(loud.samples());
        assert!((spl_loud - spl - 12.0).abs() < 1.0, "{spl} -> {spl_loud}");
    }

    #[test]
    fn response_attenuates_audible_band() {
        assert!(response_gain(30_000.0) > 0.85);
        assert!(response_gain(500.0) < 0.15);
        assert!(response_gain(150_000.0) < 0.4);
    }

    #[test]
    fn hard_drive_creates_audible_intermodulation_leakage() {
        // Two ultrasonic tones 5 kHz apart: the speaker's own g2 makes a
        // 5 kHz audible tone, and it grows faster than the carrier as power
        // rises.  This is the effect that motivates the multi-speaker attack.
        let fs = 192_000.0;
        let mut drive = Signal::tone(30_000.0, 0.5, 0.3, fs).unwrap();
        drive
            .mix(&Signal::tone(35_000.0, 0.5, 0.3, fs).unwrap())
            .unwrap();
        let quiet = emit_at_1m(&drive, 2.0).unwrap();
        let loud = emit_at_1m(&drive, 29.0).unwrap();
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
        // The same 29 W excursion, shaped and scaled without the
        // non-linearity: the leakage is the non-linearity's alone.
        let fs = 192_000.0;
        let mut drive = Signal::tone(30_000.0, 0.5, 0.3, fs).unwrap();
        drive
            .mix(&Signal::tone(35_000.0, 0.5, 0.3, fs).unwrap())
            .unwrap();
        let excursion = drive.scaled((29.0 / MAX_POWER_W).sqrt());
        let out = excursion_to_pressure_at_1m(&excursion).unwrap();
        let leak = band_power(out.samples(), fs, 4_500.0, 5_500.0).unwrap();
        let carrier = band_power(out.samples(), fs, 29_000.0, 36_000.0).unwrap();
        assert!(leak / carrier < 1e-6, "leak fraction {}", leak / carrier);
    }

    #[test]
    fn full_scale_pressure_matches_sensitivity_arithmetic() {
        // 96 dB + 10*log10(30) ~ 110.8 dB SPL -> rms ~ 6.9 Pa, peak ~ 9.8 Pa.
        let p = full_scale_pressure_pa();
        assert!(p > 8.0 && p < 12.0, "peak pressure {p}");
    }
}
