//! Non-linearity-trace features.
//!
//! Three features are extracted from every recording, all motivated directly
//! by the physics of square-law demodulation:
//!
//! 1. **Shadow-band power ratio** — power in the sub-fundamental band
//!    (5–80 Hz) relative to the voice band (300–4000 Hz), in dB.  Acoustic
//!    speech carries essentially nothing below its fundamental; the attack's
//!    `m(t)²` term does.
//! 2. **Shadow correlation** — Pearson correlation between the low-band
//!    waveform and the low-pass-filtered *squared envelope* of the voice
//!    band.  For an attack these are the same physical quantity
//!    (`m²` appears in both); for legitimate speech the low band is
//!    unrelated rumble or noise.
//! 3. **Spectral tilt** — the slope of the recording's PSD in dB/kHz.  The
//!    demodulated attack is band-limited to the attacker's 8 kHz baseband
//!    and inherits a squared-envelope low-frequency boost, tilting the
//!    spectrum down harder than natural speech recorded through the same
//!    microphone.

use ivc_dsp::correlation::pearson_correlation;
use ivc_dsp::db::power_to_db;
use ivc_dsp::envelope::hilbert_envelope;
use ivc_dsp::filter::biquad::BiquadCascade;
use ivc_dsp::signal::Signal;
use ivc_dsp::spectrum::welch_psd;
use ivc_dsp::window::WindowKind;
use ivc_dsp::{DspError, Result};

/// The shadow band searched for the non-linearity trace, in Hz.
pub const SHADOW_BAND_HZ: (f64, f64) = (5.0, 80.0);
/// The voice band used as the reference, in Hz.
pub const VOICE_BAND_HZ: (f64, f64) = (300.0, 4_000.0);

/// A feature vector ready for classification.
pub type FeatureVector = Vec<f64>;

/// Extracted defense features for one recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseFeatures {
    /// Shadow-band to voice-band power ratio, in dB.
    pub shadow_power_ratio_db: f64,
    /// Correlation between the shadow band and the squared voice envelope.
    pub shadow_correlation: f64,
    /// Spectral tilt of the recording, in dB per kHz.
    pub spectral_tilt_db_per_khz: f64,
}

impl DefenseFeatures {
    /// Number of features.
    pub const DIMENSION: usize = 3;

    /// Names of the features, index-aligned with [`DefenseFeatures::to_vector`].
    pub const NAMES: [&'static str; 3] = [
        "shadow_power_ratio_db",
        "shadow_correlation",
        "spectral_tilt_db_per_khz",
    ];

    /// Extracts the features from a digital recording (any rate ≥ 8 kHz).
    pub fn extract(recording: &Signal) -> Result<Self> {
        if recording.is_empty() {
            return Err(DspError::invalid("recording", "empty signal"));
        }
        let fs = recording.sample_rate_hz();
        if fs < 8_000.0 {
            return Err(DspError::invalid(
                "recording",
                "sample rate must be at least 8 kHz",
            ));
        }
        // Work on a level-normalised copy so features are level-invariant.
        let mut signal = recording.clone();
        signal.remove_dc();
        signal.normalize_rms(0.1);
        let samples = signal.samples();

        // --- Feature 1: shadow-band power ratio -------------------------
        let seg = samples.len().clamp(1_024, 16_384);
        let psd = welch_psd(samples, fs, seg, 0.5, WindowKind::Hann)?;
        let shadow_power = psd.band_power(SHADOW_BAND_HZ.0, SHADOW_BAND_HZ.1);
        let voice_power = psd.band_power(VOICE_BAND_HZ.0, VOICE_BAND_HZ.1);
        let shadow_power_ratio_db = power_to_db(shadow_power.max(1e-24) / voice_power.max(1e-24));

        // --- Feature 2: shadow / squared-envelope correlation -----------
        // Low band: everything below ~80 Hz.
        let low_lpf = BiquadCascade::butterworth_low_pass(SHADOW_BAND_HZ.1, 4, fs)?;
        let high_cut = BiquadCascade::butterworth_high_pass(SHADOW_BAND_HZ.0.max(2.0), 2, fs)?;
        let shadow_track = high_cut.filtfilt(&low_lpf.filtfilt(samples));
        // Voice band envelope squared, then restricted to the same low band.
        let voice_bpf =
            BiquadCascade::butterworth_band_pass(VOICE_BAND_HZ.0, VOICE_BAND_HZ.1, 4, fs)?;
        let voice_band = voice_bpf.filtfilt(samples);
        let envelope = hilbert_envelope(&voice_band)?;
        let squared_env: Vec<f64> = envelope.iter().map(|e| e * e).collect();
        let env_low = high_cut.filtfilt(&low_lpf.filtfilt(&squared_env));
        // Trim filter edge transients before correlating.
        let trim = (fs * 0.05) as usize;
        let shadow_correlation = if shadow_track.len() > 2 * trim + 16 {
            pearson_correlation(
                &shadow_track[trim..shadow_track.len() - trim],
                &env_low[trim..env_low.len() - trim],
            )?
        } else {
            pearson_correlation(&shadow_track, &env_low)?
        };

        // --- Feature 3: spectral tilt ------------------------------------
        let spectral_tilt_db_per_khz = psd.tilt_db_per_khz();

        Ok(DefenseFeatures {
            shadow_power_ratio_db,
            shadow_correlation,
            spectral_tilt_db_per_khz,
        })
    }

    /// The features as a vector (for the classifier).
    pub fn to_vector(self) -> FeatureVector {
        vec![
            self.shadow_power_ratio_db,
            self.shadow_correlation,
            self.spectral_tilt_db_per_khz,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_acoustics::environment::AirEnvironment;
    use ivc_acoustics::microphone::DevicePreset;
    use ivc_acoustics::propagation::propagate;
    use ivc_acoustics::speaker;
    use ivc_acoustics::spl::spl_db_to_pressure;
    use ivc_attack::single::SingleSpeakerAttack;

    fn synthetic_voice() -> Signal {
        // Amplitude-modulated voice-like signal: components at 350/1200/2500
        // Hz with a 4 Hz syllabic envelope (gives the envelope² trace
        // something to correlate with).
        let fs = 48_000.0;
        let n = (0.6 * fs) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let syllable = 0.55 + 0.45 * (2.0 * std::f64::consts::PI * 4.0 * t).sin();
                syllable
                    * (0.5 * (2.0 * std::f64::consts::PI * 350.0 * t).sin()
                        + 0.35 * (2.0 * std::f64::consts::PI * 1_200.0 * t).sin()
                        + 0.2 * (2.0 * std::f64::consts::PI * 2_500.0 * t).sin())
            })
            .collect();
        let mut s = Signal::new(samples, fs).unwrap();
        s.normalize_peak(0.5);
        s
    }

    fn legit_recording() -> Signal {
        // Voice at conversational level propagated 1.5 m to the phone.
        let voice = synthetic_voice();
        let pressure =
            voice.scaled(spl_db_to_pressure(68.0) * std::f64::consts::SQRT_2 / voice.peak());
        let env = AirEnvironment::default();
        let at_mic = propagate(&pressure, 1.5, &env).unwrap();
        DevicePreset::AndroidPhone
            .microphone()
            .capture(&at_mic, 11)
            .unwrap()
    }

    fn attack_recording() -> Signal {
        let voice = synthetic_voice();
        let attack = SingleSpeakerAttack::build(&voice, 40_000.0).unwrap();
        let emitted = speaker::emit_at_1m(&attack.drive, 25.0).unwrap();
        let env = AirEnvironment::default();
        let at_mic = propagate(&emitted, 1.5, &env).unwrap();
        DevicePreset::AndroidPhone
            .microphone()
            .capture(&at_mic, 12)
            .unwrap()
    }

    #[test]
    fn validation() {
        assert!(DefenseFeatures::extract(&Signal::new(vec![], 48_000.0).unwrap()).is_err());
        assert!(
            DefenseFeatures::extract(&Signal::tone(100.0, 0.3, 0.2, 4_000.0).unwrap()).is_err()
        );
        assert_eq!(DefenseFeatures::NAMES.len(), DefenseFeatures::DIMENSION);
    }

    #[test]
    fn feature_vector_has_fixed_dimension() {
        let rec = legit_recording();
        let f = DefenseFeatures::extract(&rec).unwrap();
        assert_eq!(f.to_vector().len(), DefenseFeatures::DIMENSION);
        for v in f.to_vector() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn attack_recordings_have_stronger_shadow_band() {
        let legit = DefenseFeatures::extract(&legit_recording()).unwrap();
        let attack = DefenseFeatures::extract(&attack_recording()).unwrap();
        assert!(
            attack.shadow_power_ratio_db > legit.shadow_power_ratio_db + 6.0,
            "attack {} dB vs legit {} dB",
            attack.shadow_power_ratio_db,
            legit.shadow_power_ratio_db
        );
    }

    #[test]
    fn attack_recordings_have_higher_shadow_correlation() {
        let legit = DefenseFeatures::extract(&legit_recording()).unwrap();
        let attack = DefenseFeatures::extract(&attack_recording()).unwrap();
        assert!(
            attack.shadow_correlation > legit.shadow_correlation + 0.15,
            "attack {} vs legit {}",
            attack.shadow_correlation,
            legit.shadow_correlation
        );
    }

    #[test]
    fn features_are_level_invariant() {
        let rec = attack_recording();
        let quiet = rec.scaled(0.05);
        let a = DefenseFeatures::extract(&rec).unwrap();
        let b = DefenseFeatures::extract(&quiet).unwrap();
        assert!((a.shadow_power_ratio_db - b.shadow_power_ratio_db).abs() < 1.0);
        assert!((a.shadow_correlation - b.shadow_correlation).abs() < 0.1);
    }
}
