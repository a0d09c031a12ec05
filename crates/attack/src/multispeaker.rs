//! The long-range multi-speaker attack: segmentation plus power allocation.

use crate::baseband::{prepare_baseband, BasebandConfig};
use crate::error::{AttackError, Result};
use crate::segmentation::{segment_baseband, SegmentedDrives};
use crate::single::SingleSpeakerAttack;
use ivc_acoustics::array::ElementDrive;
use ivc_dsp::signal::Signal;

/// A fully constructed multi-speaker attack.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSpeakerAttack {
    /// The segmented drives (carrier element(s) + sideband elements).
    pub drives: SegmentedDrives,
    /// Number of array elements used (carrier + sidebands).
    pub num_elements: usize,
    /// Number of elements playing the bare carrier.  More than one when the
    /// carrier's power share exceeds a single element's rating: identical
    /// carrier elements add coherently and produce no intermodulation of
    /// their own, so this is how a big array keeps its carrier-to-sideband
    /// balance (see [`MultiSpeakerAttack::build`]).
    pub carrier_elements: usize,
    /// Carrier frequency in Hz.
    pub carrier_hz: f64,
    /// The prepared baseband (for analysis and defense experiments).
    pub baseband: Signal,
}

/// How a total electrical budget was split across the elements — including
/// what could **not** be allocated because the per-element rating bound.
/// Sweeps over large arrays (the E-A2 61-element anomaly) showed that the
/// dropped budget matters, so the allocation reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerAllocation {
    /// One drive per element: carrier element(s) first, then sidebands.
    pub drives: Vec<ElementDrive>,
    /// The budget the caller asked for, in watt.
    pub requested_total_w: f64,
    /// What was actually assigned (`requested_total_w - shortfall_w`).
    pub allocated_total_w: f64,
    /// Total power across the carrier element(s), in watt.
    pub carrier_total_w: f64,
    /// Total power across the sideband elements, in watt.
    pub sideband_total_w: f64,
    /// Budget that could not be placed on any element because every element
    /// hit its `max_element_power_w` rating, in watt.
    pub shortfall_w: f64,
}

impl MultiSpeakerAttack {
    /// Builds a multi-speaker attack for `voice` on `num_elements` array
    /// elements, balancing the carrier/sideband element split against the
    /// power budget it will be driven with.
    ///
    /// `num_elements` must be at least 2; for a single element use
    /// [`SingleSpeakerAttack`] instead — the whole point of the multi-speaker
    /// construction is that carrier and sidebands never share an element.
    ///
    /// The number of carrier elements grows with the carrier's power share
    /// (`ceil(total · fraction / max_element_power)`, at least 1 and at
    /// most `num_elements - 1`); the rest carry the spectrum slices.  With
    /// a single carrier element, a large array at high power silently
    /// breaks the attack: the carrier element saturates at
    /// `max_element_power_w` while the sideband budget keeps growing, and
    /// inside the victim microphone the `sideband × sideband` self-products
    /// (baseband-squared distortion) swamp the `carrier × sideband` voice
    /// product.  That was the root cause of the E-A2 anomaly where a
    /// 61-element / 400 W array *underperformed* a 16-element / 120 W one.
    /// Pure-tone carrier elements add coherently and create no
    /// intermodulation of their own, so the extra elements cost nothing
    /// acoustically.
    ///
    /// The budget only sizes the split; [`MultiSpeakerAttack::allocate_power`]
    /// assigns the watts.
    pub fn build(
        voice: &Signal,
        carrier_hz: f64,
        num_elements: usize,
        total_power_w: f64,
        carrier_power_fraction: f64,
        max_element_power_w: f64,
        config: &BasebandConfig,
    ) -> Result<Self> {
        validate_power_split(total_power_w, carrier_power_fraction, max_element_power_w)?;
        if num_elements < 2 {
            return Err(AttackError::invalid(
                "num_elements",
                "need at least 2 elements (1 carrier + 1 sideband); use SingleSpeakerAttack for 1",
            ));
        }
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
        let carrier_share_w = total_power_w * carrier_power_fraction;
        let carrier_elements =
            ((carrier_share_w / max_element_power_w).ceil() as usize).clamp(1, num_elements - 1);
        let baseband = prepare_baseband(voice, config)?;
        let drives = segment_baseband(
            &baseband,
            carrier_hz,
            config.cutoff_hz,
            num_elements - carrier_elements,
        )?;
        Ok(MultiSpeakerAttack {
            num_elements: carrier_elements + drives.sideband_drives.len(),
            carrier_elements,
            carrier_hz,
            drives,
            baseband,
        })
    }

    /// Splits `total_power_w` across the elements and reports exactly where
    /// every watt went — including the watts that went nowhere.
    ///
    /// The carrier share (`total · fraction`) is spread equally over the
    /// carrier element(s), clamped to `max_element_power_w` each; whatever
    /// the carrier cannot take is returned to the sideband pool.  Sideband
    /// elements split that pool equally, again clamped per element; any
    /// remainder is offered back to the carrier element(s) up to their
    /// rating.  Budget that still cannot be placed is **reported** as
    /// [`PowerAllocation::shortfall_w`] instead of being silently dropped.
    pub fn allocate_power(
        &self,
        total_power_w: f64,
        carrier_power_fraction: f64,
        max_element_power_w: f64,
    ) -> Result<PowerAllocation> {
        validate_power_split(total_power_w, carrier_power_fraction, max_element_power_w)?;
        let n_carriers = self.carrier_elements as f64;
        let n_sidebands = self.drives.sideband_drives.len() as f64;
        // Carrier share, spread over the carrier element(s) and clamped.
        let per_carrier =
            (total_power_w * carrier_power_fraction / n_carriers).min(max_element_power_w);
        let mut carrier_total = per_carrier * n_carriers;
        // Sidebands split the remainder equally, clamped per element.
        let per_sideband = ((total_power_w - carrier_total) / n_sidebands).min(max_element_power_w);
        let sideband_total = per_sideband * n_sidebands;
        // Overflow the sidebands could not take goes back to the carrier(s)
        // up to their rating; what is left after that is a true shortfall.
        let unplaced = total_power_w - carrier_total - sideband_total;
        let carrier_headroom = max_element_power_w * n_carriers - carrier_total;
        let topped_up = unplaced.min(carrier_headroom).max(0.0);
        carrier_total += topped_up;
        let per_carrier = carrier_total / n_carriers;
        let shortfall = (unplaced - topped_up).max(0.0);
        if per_carrier <= 0.0 || per_sideband <= 0.0 {
            return Err(AttackError::invalid(
                "total_power_w",
                "too little power to drive every element",
            ));
        }
        let mut drives = Vec::with_capacity(self.num_elements);
        for _ in 0..self.carrier_elements {
            drives.push(ElementDrive {
                drive: self.drives.carrier_drive.clone(),
                power_w: per_carrier,
            });
        }
        for sideband in &self.drives.sideband_drives {
            drives.push(ElementDrive {
                drive: sideband.clone(),
                power_w: per_sideband,
            });
        }
        Ok(PowerAllocation {
            drives,
            requested_total_w: total_power_w,
            allocated_total_w: total_power_w - shortfall,
            carrier_total_w: carrier_total,
            sideband_total_w: sideband_total,
            shortfall_w: shortfall,
        })
    }
}

fn validate_power_split(
    total_power_w: f64,
    carrier_power_fraction: f64,
    max_element_power_w: f64,
) -> Result<()> {
    if !(total_power_w > 0.0) || !total_power_w.is_finite() {
        return Err(AttackError::invalid("total_power_w", "must be positive"));
    }
    if !(0.05..=0.9).contains(&carrier_power_fraction) {
        return Err(AttackError::invalid(
            "carrier_power_fraction",
            "must be within [0.05, 0.9]",
        ));
    }
    if !(max_element_power_w > 0.0) || !max_element_power_w.is_finite() {
        return Err(AttackError::invalid(
            "max_element_power_w",
            "must be positive",
        ));
    }
    Ok(())
}

/// Convenience: the drive list for a *single-speaker* attack, so callers can
/// treat both attack flavours uniformly as "a list of element drives".
pub fn single_speaker_element_drives(
    attack: &SingleSpeakerAttack,
    power_w: f64,
) -> Result<Vec<ElementDrive>> {
    if !(power_w > 0.0) || !power_w.is_finite() {
        return Err(AttackError::invalid("power_w", "must be positive"));
    }
    Ok(vec![ElementDrive {
        drive: attack.drive.clone(),
        power_w,
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_acoustics::array::SpeakerArray;
    use ivc_acoustics::microphone::DevicePreset;
    use ivc_acoustics::speaker::UltrasonicSpeaker;
    use ivc_acoustics::spl::spl_db_to_pressure;
    use ivc_dsp::correlation::pearson_correlation;
    use ivc_dsp::filter::biquad::BiquadCascade;
    use ivc_dsp::resample::resample;
    use ivc_dsp::spectrum::band_power;

    fn synthetic_voice(fs: f64) -> Signal {
        let mut s = Signal::tone(400.0, 0.5, 0.4, fs).unwrap();
        s.mix(&Signal::tone(1_100.0, 0.4, 0.4, fs).unwrap())
            .unwrap();
        s.mix(&Signal::tone(2_300.0, 0.3, 0.4, fs).unwrap())
            .unwrap();
        s.normalize_peak(0.5);
        s
    }

    #[test]
    fn validation() {
        let voice = synthetic_voice(48_000.0);
        let cfg = BasebandConfig::default();
        let build = |carrier_hz, n, total_w, fraction| {
            MultiSpeakerAttack::build(&voice, carrier_hz, n, total_w, fraction, 30.0, &cfg)
        };
        assert!(build(40_000.0, 1, 10.0, 0.3).is_err());
        assert!(build(20_000.0, 4, 10.0, 0.3).is_err());
        assert!(build(40_000.0, 4, 0.0, 0.3).is_err());
        assert!(build(40_000.0, 4, 10.0, 0.99).is_err());
        let attack = build(40_000.0, 4, 10.0, 0.3).unwrap();
        assert_eq!(attack.num_elements, 4);
        assert!(attack.allocate_power(0.0, 0.3, 30.0).is_err());
        assert!(attack.allocate_power(10.0, 0.99, 30.0).is_err());
    }

    #[test]
    fn element_power_allocation_adds_up() {
        let voice = synthetic_voice(48_000.0);
        let attack = MultiSpeakerAttack::build(
            &voice,
            40_000.0,
            5,
            20.0,
            0.25,
            30.0,
            &BasebandConfig::default(),
        )
        .unwrap();
        assert_eq!(attack.carrier_elements, 1);
        let drives = attack.allocate_power(20.0, 0.25, 30.0).unwrap().drives;
        assert_eq!(drives.len(), 5);
        let total: f64 = drives.iter().map(|d| d.power_w).sum();
        assert!((total - 20.0).abs() < 1e-9);
        // Carrier element gets its requested fraction.
        assert!((drives[0].power_w - 5.0).abs() < 1e-9);
        // Per-element cap is respected.
        let capped = attack.allocate_power(200.0, 0.25, 30.0).unwrap().drives;
        assert!(capped.iter().all(|d| d.power_w <= 30.0 + 1e-9));
    }

    #[test]
    fn balanced_build_scales_carrier_elements_with_the_budget() {
        let voice = synthetic_voice(48_000.0);
        let cfg = BasebandConfig::default();
        // Small budget: one carrier element.
        let small = MultiSpeakerAttack::build(&voice, 40_000.0, 8, 60.0, 0.3, 30.0, &cfg).unwrap();
        assert_eq!(small.carrier_elements, 1);
        assert_eq!(small.num_elements, 8);
        assert_eq!(small.drives.sideband_drives.len(), 7);
        // The E-A2 anomaly configuration: 400 W * 0.3 = 120 W of carrier
        // needs four 30 W elements.
        let big = MultiSpeakerAttack::build(&voice, 40_000.0, 61, 400.0, 0.3, 30.0, &cfg).unwrap();
        assert_eq!(big.carrier_elements, 4);
        assert_eq!(big.num_elements, 61);
        assert_eq!(big.drives.sideband_drives.len(), 57);
        let allocation = big.allocate_power(400.0, 0.3, 30.0).unwrap();
        assert_eq!(allocation.drives.len(), 61);
        // The full carrier share is placed (one carrier element could take
        // only 30 of the 120 W).
        assert!((allocation.carrier_total_w - 120.0).abs() < 1e-9);
        assert!((allocation.shortfall_w).abs() < 1e-12);
        let total: f64 = allocation.drives.iter().map(|d| d.power_w).sum();
        assert!((total - 400.0).abs() < 1e-9);
        // Even a huge budget never allocates more than one carrier short of
        // the array to the carrier.
        let capped =
            MultiSpeakerAttack::build(&voice, 40_000.0, 4, 900.0, 0.9, 30.0, &cfg).unwrap();
        assert_eq!(capped.carrier_elements, 3);
        assert!(MultiSpeakerAttack::build(&voice, 40_000.0, 1, 60.0, 0.3, 30.0, &cfg).is_err());
    }

    #[test]
    fn allocation_reports_shortfall_instead_of_dropping_budget() {
        let voice = synthetic_voice(48_000.0);
        // 200 W * 0.25 = 50 W of carrier takes two 30 W elements.
        let attack = MultiSpeakerAttack::build(
            &voice,
            40_000.0,
            4,
            200.0,
            0.25,
            30.0,
            &BasebandConfig::default(),
        )
        .unwrap();
        assert_eq!(attack.carrier_elements, 2);
        // 4 elements rated 30 W each can place at most 120 W.
        let allocation = attack.allocate_power(200.0, 0.25, 30.0).unwrap();
        assert!((allocation.allocated_total_w - 120.0).abs() < 1e-9);
        assert!((allocation.shortfall_w - 80.0).abs() < 1e-9);
        assert!(allocation.drives.iter().all(|d| d.power_w <= 30.0 + 1e-9));
        // The carriers' 50 W share is topped up by 10 W to their rating
        // before budget is declared lost.
        assert!((allocation.carrier_total_w - 60.0).abs() < 1e-9);
        assert!((allocation.sideband_total_w - 60.0).abs() < 1e-9);
        // Within the placeable range nothing is lost and the report matches
        // the request.
        let fits = attack.allocate_power(20.0, 0.25, 30.0).unwrap();
        assert!(fits.shortfall_w.abs() < 1e-12);
        assert!((fits.allocated_total_w - 20.0).abs() < 1e-9);
        assert!((fits.requested_total_w - 20.0).abs() < 1e-9);
        assert!((fits.carrier_total_w - 5.0).abs() < 1e-9);
        assert!((fits.sideband_total_w - 15.0).abs() < 1e-9);
    }

    #[test]
    fn single_speaker_helper() {
        let voice = synthetic_voice(48_000.0);
        let single =
            SingleSpeakerAttack::build(&voice, 40_000.0, 0.8, &BasebandConfig::default()).unwrap();
        let drives = single_speaker_element_drives(&single, 12.0).unwrap();
        assert_eq!(drives.len(), 1);
        assert!((drives[0].power_w - 12.0).abs() < 1e-12);
        assert!(single_speaker_element_drives(&single, 0.0).is_err());
    }

    #[test]
    fn end_to_end_multispeaker_attack_reconstructs_voice_at_the_microphone() {
        // The decisive property: the array's field contains (almost) no
        // audible voice, yet the non-linear microphone's recording does.
        let fs = 192_000.0;
        let voice = synthetic_voice(48_000.0);
        let attack = MultiSpeakerAttack::build(
            &voice,
            40_000.0,
            5,
            60.0,
            0.3,
            30.0,
            &BasebandConfig::default(),
        )
        .unwrap();
        let array = SpeakerArray::new(UltrasonicSpeaker::default(), 8, 0.03).unwrap();
        let drives = attack.allocate_power(60.0, 0.3, 30.0).unwrap().drives;
        let env = ivc_acoustics::environment::AirEnvironment::default();
        let field = array.field_at_target(&drives, 2.0, &env).unwrap();

        // (a) the in-air field carries essentially no audible voice energy
        //     relative to its ultrasonic content;
        let audible_in_air = band_power(field.samples(), fs, 200.0, 4_000.0).unwrap();
        let ultrasonic_in_air = band_power(field.samples(), fs, 30_000.0, 50_000.0).unwrap();
        assert!(
            audible_in_air / ultrasonic_in_air < 1e-4,
            "audible fraction in air {}",
            audible_in_air / ultrasonic_in_air
        );

        // (b) the microphone recording contains the voice components.
        let mic = DevicePreset::AndroidPhone.microphone();
        let recording = mic.capture(&field, 3).unwrap();
        let rec_fs = recording.sample_rate_hz();
        let voice_band = band_power(recording.samples(), rec_fs, 300.0, 3_000.0).unwrap();
        let quiet_band = band_power(recording.samples(), rec_fs, 8_000.0, 18_000.0).unwrap();
        assert!(
            voice_band / quiet_band > 20.0,
            "voice/quiet {}",
            voice_band / quiet_band
        );

        // (c) and that recording correlates with the original voice waveform
        //     (band-limited comparison at a common rate).
        let reference = resample(&voice, rec_fs).unwrap();
        let lpf = BiquadCascade::butterworth_low_pass(4_000.0, 4, rec_fs).unwrap();
        let rec_lp = Signal::new(lpf.filtfilt(recording.samples()), rec_fs).unwrap();
        let ref_lp = Signal::new(lpf.filtfilt(reference.samples()), rec_fs).unwrap();
        // Align coarsely: use the overlapping central second.
        let rec_mid = rec_lp.slice_seconds(0.1, 0.35);
        let ref_mid = ref_lp.slice_seconds(0.1, 0.35);
        let (_, peak) = ivc_dsp::correlation::best_alignment(
            ref_mid.samples(),
            rec_mid.samples(),
            (0.02 * rec_fs) as usize,
        )
        .unwrap();
        assert!(peak.abs() > 0.3, "correlation {peak}");
        let _ = pearson_correlation(ref_mid.samples(), rec_mid.samples()).unwrap();
        let _ = spl_db_to_pressure(0.0);
    }
}
