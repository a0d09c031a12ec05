//! Speaker-side leakage estimation.
//!
//! "Leakage" is the audible sound created *at the transmitting array* by the
//! elements' own non-linearities.  For the single-speaker attack the leakage
//! is literally an audible rendition of the injected command; for the
//! segmented attack it collapses to weak low-frequency residue.  The paper's
//! inaudibility evaluation is reproduced by estimating the leakage a
//! bystander standing near the array would hear.

use crate::error::Result;
use ivc_acoustics::array::{ElementDrive, SpeakerArray};
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::psychoacoustics::{audibility, AudibilityReport};
use ivc_acoustics::spl::{pressure_to_spl_db, waveform_spl_dba};
use ivc_dsp::spectrum::band_power;

/// Result of a leakage analysis at a bystander's position.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Psychoacoustic audibility verdict for the audible-band residue.
    pub audibility: AudibilityReport,
    /// Unweighted SPL of the audible-band (50 Hz – 18 kHz) leakage, in dB.
    pub audible_spl_db: f64,
    /// A-weighted SPL of the full leakage waveform, in dB(A).
    pub audible_spl_dba: f64,
    /// SPL of the leakage restricted to the intelligible voice band
    /// (300 Hz – 4 kHz), in dB — high values mean a bystander would not just
    /// hear *something* but could plausibly make out the command.
    pub voice_band_spl_db: f64,
    /// Distance at which the estimate was made, in metres.
    pub bystander_distance_m: f64,
}

impl LeakageReport {
    /// `true` when the leakage would be noticed by a bystander.
    pub fn is_audible(&self) -> bool {
        self.audibility.audible
    }
}

/// Estimates the leakage heard by a bystander `bystander_distance_m` from
/// the array while it plays `drives`, assuming free-field propagation.
pub fn estimate_leakage(
    array: &SpeakerArray,
    drives: &[ElementDrive],
    bystander_distance_m: f64,
    env: &AirEnvironment,
    audibility_margin_db: f64,
) -> Result<LeakageReport> {
    let field = array.field_at_bystander(drives, bystander_distance_m, env)?;
    leakage_from_field(&field, bystander_distance_m, audibility_margin_db)
}

/// Analyses an already-propagated pressure waveform at the bystander's
/// position — the back half of [`estimate_leakage`], split out so callers
/// that propagate through a room model (multipath, occlusion) can reuse
/// the psychoacoustic analysis unchanged.
pub fn leakage_from_field(
    field: &ivc_dsp::signal::Signal,
    bystander_distance_m: f64,
    audibility_margin_db: f64,
) -> Result<LeakageReport> {
    let fs = field.sample_rate_hz();
    let report = audibility(field.samples(), fs, audibility_margin_db)?;
    let audible_power = band_power(field.samples(), fs, 50.0, 18_000.0)?;
    let voice_power = band_power(field.samples(), fs, 300.0, 4_000.0)?;
    let dba = waveform_spl_dba(field.samples(), fs)?;
    Ok(LeakageReport {
        audible_spl_db: pressure_to_spl_db(audible_power.max(0.0).sqrt()),
        audible_spl_dba: dba,
        voice_band_spl_db: pressure_to_spl_db(voice_power.max(0.0).sqrt()),
        audibility: report,
        bystander_distance_m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseband::BasebandConfig;
    use crate::multispeaker::{single_speaker_element_drives, MultiSpeakerAttack};
    use crate::single::SingleSpeakerAttack;
    use ivc_acoustics::speaker::UltrasonicSpeaker;
    use ivc_dsp::signal::Signal;

    fn synthetic_voice() -> Signal {
        let fs = 48_000.0;
        let mut s = Signal::tone(400.0, 0.5, 0.4, fs).unwrap();
        s.mix(&Signal::tone(1_300.0, 0.4, 0.4, fs).unwrap())
            .unwrap();
        s.mix(&Signal::tone(2_600.0, 0.3, 0.4, fs).unwrap())
            .unwrap();
        s.normalize_peak(0.5);
        s
    }

    #[test]
    fn single_speaker_at_high_power_leaks_audibly() {
        let voice = synthetic_voice();
        let cfg = BasebandConfig::default();
        let attack = SingleSpeakerAttack::build(&voice, 40_000.0, 0.9, &cfg).unwrap();
        let array = SpeakerArray::new(UltrasonicSpeaker::default(), 1, 0.03).unwrap();
        let env = AirEnvironment::default();
        let quiet = estimate_leakage(
            &array,
            &single_speaker_element_drives(&attack, 0.5).unwrap(),
            1.0,
            &env,
            0.0,
        )
        .unwrap();
        let loud = estimate_leakage(
            &array,
            &single_speaker_element_drives(&attack, 29.0).unwrap(),
            1.0,
            &env,
            0.0,
        )
        .unwrap();
        // Leakage grows with power, and at full power it is audible.
        assert!(loud.audible_spl_db > quiet.audible_spl_db + 15.0);
        assert!(
            loud.is_audible(),
            "worst margin {}",
            loud.audibility.worst_margin_db
        );
        assert!((loud.bystander_distance_m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segmented_attack_leaks_far_less_than_single_speaker_at_equal_power() {
        let voice = synthetic_voice();
        let cfg = BasebandConfig::default();
        let total_power = 29.0;
        let env = AirEnvironment::default();

        let single = SingleSpeakerAttack::build(&voice, 40_000.0, 0.9, &cfg).unwrap();
        let single_array = SpeakerArray::new(UltrasonicSpeaker::default(), 1, 0.03).unwrap();
        let single_leak = estimate_leakage(
            &single_array,
            &single_speaker_element_drives(&single, total_power).unwrap(),
            1.0,
            &env,
            0.0,
        )
        .unwrap();

        let multi =
            MultiSpeakerAttack::build(&voice, 40_000.0, 6, total_power, 0.3, 30.0, &cfg).unwrap();
        let multi_array = SpeakerArray::new(UltrasonicSpeaker::default(), 6, 0.03).unwrap();
        let drives = multi.allocate_power(total_power, 0.3, 30.0).unwrap().drives;
        let multi_leak = estimate_leakage(&multi_array, &drives, 1.0, &env, 0.0).unwrap();

        // The headline claim: at the same total power, splitting the
        // spectrum across elements removes most of the intelligible
        // (voice-band) leakage.
        assert!(
            single_leak.voice_band_spl_db > multi_leak.voice_band_spl_db + 10.0,
            "single {} dB vs multi {} dB",
            single_leak.voice_band_spl_db,
            multi_leak.voice_band_spl_db
        );
    }

    #[test]
    fn leakage_fades_with_bystander_distance() {
        let voice = synthetic_voice();
        let cfg = BasebandConfig::default();
        let attack = SingleSpeakerAttack::build(&voice, 40_000.0, 0.9, &cfg).unwrap();
        let array = SpeakerArray::new(UltrasonicSpeaker::default(), 1, 0.03).unwrap();
        let env = AirEnvironment::default();
        let drives = single_speaker_element_drives(&attack, 20.0).unwrap();
        let near = estimate_leakage(&array, &drives, 1.0, &env, 0.0).unwrap();
        let far = estimate_leakage(&array, &drives, 4.0, &env, 0.0).unwrap();
        assert!(near.audible_spl_db > far.audible_spl_db + 8.0);
    }
}
