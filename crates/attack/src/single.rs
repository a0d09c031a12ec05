//! The baseline single-speaker attack.
//!
//! One speaker plays `n2 · (m(t)·cos(2π f_c t) + cos(2π f_c t))` — the
//! amplitude-modulated voice plus the carrier.  The victim microphone's
//! quadratic term multiplies carrier and sidebands, recovering `m(t)`.
//! This is the construction of the Song–Mittal paper and of DolphinAttack;
//! the long-range paper uses it as its baseline and shows why it cannot be
//! pushed to long range without becoming audible at the source.

use crate::baseband::{prepare_baseband, BasebandConfig};
use crate::error::{AttackError, Result};
use ivc_dsp::modulation::{am_modulate, AmConfig};
use ivc_dsp::signal::Signal;

/// A fully constructed single-speaker attack signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleSpeakerAttack {
    /// The drive waveform to feed the speaker, normalised to peak 1.
    pub drive: Signal,
    /// Carrier frequency in Hz.
    pub carrier_hz: f64,
    /// Modulation depth used.
    pub modulation_depth: f64,
    /// The prepared baseband (useful for defense-side analysis and tests).
    pub baseband: Signal,
}

impl SingleSpeakerAttack {
    /// Builds the attack signal for `voice` (any sample rate ≥ 16 kHz).
    ///
    /// `carrier_hz` must keep both sidebands above 20 kHz and below the
    /// playback Nyquist; [`BasebandConfig::minimum_carrier_hz`] and
    /// [`BasebandConfig::maximum_carrier_hz`] give the legal range.
    pub fn build(
        voice: &Signal,
        carrier_hz: f64,
        modulation_depth: f64,
        config: &BasebandConfig,
    ) -> Result<Self> {
        config.validate()?;
        if carrier_hz < config.minimum_carrier_hz() || carrier_hz > config.maximum_carrier_hz() {
            return Err(AttackError::invalid(
                "carrier_hz",
                format!(
                    "{carrier_hz} Hz outside the inaudible range [{:.0}, {:.0}] Hz",
                    config.minimum_carrier_hz(),
                    config.maximum_carrier_hz()
                ),
            ));
        }
        if !(0.1..=1.0).contains(&modulation_depth) {
            return Err(AttackError::invalid(
                "modulation_depth",
                "must be within [0.1, 1.0]",
            ));
        }
        let baseband = prepare_baseband(voice, config)?;
        // Full-carrier AM: (1 + depth*m(t)) * cos(w_c t), normalised.
        let drive = am_modulate(&baseband, &AmConfig::new(carrier_hz, modulation_depth))?;
        Ok(SingleSpeakerAttack {
            drive,
            carrier_hz,
            modulation_depth,
            baseband,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::modulation::square_law_demodulate;
    use ivc_dsp::spectrum::band_power;
    use ivc_speech::commands::corpus;
    use ivc_speech::synthesis::{SpeakerProfile, Synthesizer};

    fn voice() -> Signal {
        let synth = Synthesizer::new(48_000.0).unwrap();
        synth
            .render(&corpus()[0], &SpeakerProfile::canonical())
            .unwrap()
            .signal
    }

    #[test]
    fn validation() {
        let v = voice();
        let cfg = BasebandConfig::default();
        assert!(SingleSpeakerAttack::build(&v, 20_000.0, 0.8, &cfg).is_err());
        assert!(SingleSpeakerAttack::build(&v, 95_000.0, 0.8, &cfg).is_err());
        assert!(SingleSpeakerAttack::build(&v, 40_000.0, 0.0, &cfg).is_err());
        assert!(SingleSpeakerAttack::build(&v, 40_000.0, 0.8, &cfg).is_ok());
    }

    #[test]
    fn attack_signal_is_entirely_ultrasonic() {
        let attack =
            SingleSpeakerAttack::build(&voice(), 40_000.0, 0.8, &BasebandConfig::default())
                .unwrap();
        let fs = attack.drive.sample_rate_hz();
        assert_eq!(fs, 192_000.0);
        assert!((attack.drive.peak() - 1.0).abs() < 1e-6);
        let audible = band_power(attack.drive.samples(), fs, 50.0, 18_000.0).unwrap();
        let ultrasonic = band_power(attack.drive.samples(), fs, 30_000.0, 50_000.0).unwrap();
        assert!(
            ultrasonic / audible.max(1e-18) > 1e4,
            "ratio {}",
            ultrasonic / audible
        );
    }

    #[test]
    fn square_law_demodulation_recovers_the_voice_spectrum() {
        let v = voice();
        let attack =
            SingleSpeakerAttack::build(&v, 40_000.0, 0.9, &BasebandConfig::default()).unwrap();
        let demod = square_law_demodulate(&attack.drive, 8_000.0).unwrap();
        // The demodulated signal should correlate with the baseband's band
        // energy layout: strong voice band, nothing near 10-20 kHz.
        let fs = demod.sample_rate_hz();
        let voice_band = band_power(demod.samples(), fs, 100.0, 4_000.0).unwrap();
        let upper = band_power(demod.samples(), fs, 10_000.0, 20_000.0).unwrap();
        assert!(voice_band / upper.max(1e-18) > 100.0);
    }

    #[test]
    fn carrier_frequency_is_respected() {
        for carrier in [30_000.0, 40_000.0, 60_000.0] {
            let attack =
                SingleSpeakerAttack::build(&voice(), carrier, 0.8, &BasebandConfig::default())
                    .unwrap();
            let fs = attack.drive.sample_rate_hz();
            let at_carrier =
                band_power(attack.drive.samples(), fs, carrier - 500.0, carrier + 500.0).unwrap();
            let elsewhere = band_power(
                attack.drive.samples(),
                fs,
                carrier + 12_000.0,
                carrier + 20_000.0,
            )
            .unwrap_or(0.0);
            assert!(at_carrier > elsewhere * 100.0, "carrier {carrier}");
            assert!((attack.carrier_hz - carrier).abs() < 1e-9);
        }
    }
}
