//! An array of ultrasonic speakers, each playing its own drive signal.
//!
//! The array is the attack's delivery vehicle: the attacker splits the
//! modulated command across the elements so that no single element carries
//! both the carrier and a wide sideband slice.  Because air is (to an
//! excellent approximation at these levels) linear, the slices only
//! recombine inside the victim microphone's non-linearity.
//!
//! Two observation points matter and are both modelled:
//!
//! * the **target** microphone, far away on the array's axis, and
//! * a **bystander** standing near the array, whose ears would pick up any
//!   audible leakage created by the elements' own non-linearities.

use crate::environment::AirEnvironment;
use crate::propagation::{propagate, propagate_from_aperture};
use crate::speaker;
use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};

/// Spacing between adjacent elements in metres: the tweeters sit side by
/// side.  It sets the aperture, and through it the beam's collimation.
pub const ELEMENT_SPACING_M: f64 = 0.03;

/// An array of identical [`speaker`] elements, [`ELEMENT_SPACING_M`] apart.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeakerArray {
    num_elements: usize,
}

/// What each element of the array should play and at what power.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementDrive {
    /// Drive waveform, normalised to peak ≤ 1.
    pub drive: Signal,
    /// Electrical power for this element, in watt.
    pub power_w: f64,
}

impl SpeakerArray {
    /// Creates an array of `num_elements` tweeters.
    pub fn new(num_elements: usize) -> Result<Self> {
        if num_elements == 0 {
            return Err(DspError::invalid("num_elements", "must be at least 1"));
        }
        let array = SpeakerArray { num_elements };
        // Propagation models apertures up to 10 m; enforce the bound here so
        // that any array that can be constructed can also be propagated
        // (`field_at_target` would otherwise fail late).
        let aperture_m = array.aperture_m();
        if aperture_m > 10.0 {
            return Err(DspError::invalid(
                "num_elements",
                format!("aperture {aperture_m:.2} m exceeds the supported 10 m"),
            ));
        }
        Ok(array)
    }

    /// Physical aperture (length) of the array in metres.
    pub fn aperture_m(&self) -> f64 {
        ELEMENT_SPACING_M * (self.num_elements - 1) as f64
    }

    /// Combined pressure waveform at 1 m on-axis: the per-element emissions
    /// (each including that element's own non-linearity) summed coherently.
    ///
    /// The number of drives must not exceed the number of elements; unused
    /// elements stay silent.
    pub fn emitted_field_at_1m(&self, drives: &[ElementDrive]) -> Result<Signal> {
        if drives.is_empty() {
            return Err(DspError::invalid("drives", "no element drives provided"));
        }
        if drives.len() > self.num_elements {
            return Err(DspError::invalid(
                "drives",
                format!(
                    "{} drives for an array of {} elements",
                    drives.len(),
                    self.num_elements
                ),
            ));
        }
        // Each element applies its own non-linearity to its own drive; the
        // frequency response and pascal scaling are shared and linear, so
        // they are applied once to the summed excursion (identical result,
        // one FFT instead of one per element).
        let mut total: Option<Signal> = None;
        for d in drives {
            let distorted = speaker::distorted_excursion(&d.drive, d.power_w)?;
            match &mut total {
                None => total = Some(distorted),
                Some(t) => t.mix(&distorted)?,
            }
        }
        speaker::excursion_to_pressure_at_1m(&total.expect("at least one drive"))
    }

    /// Pressure waveform arriving at a target `distance_m` away on-axis.
    ///
    /// The array's aperture matters here: at ultrasonic wavelengths a
    /// multi-element array is many wavelengths across, so its on-axis beam
    /// stays collimated out to the aperture's Rayleigh distance before the
    /// spherical `1/r` decay starts (see
    /// [`crate::propagation::rayleigh_distance_m`]).  This collimation — not
    /// raw power — is what turns the array into a *long-range* attack.
    pub fn field_at_target(
        &self,
        drives: &[ElementDrive],
        distance_m: f64,
        env: &AirEnvironment,
    ) -> Result<Signal> {
        let near = self.emitted_field_at_1m(drives)?;
        propagate_from_aperture(&near, distance_m, self.aperture_m(), env)
    }

    /// Pressure waveform at a bystander standing `distance_m` from the array
    /// (for audibility analysis of the leakage).
    ///
    /// The bystander stands *off-axis* (next to the rig, not down the beam),
    /// so the collimation gain of [`SpeakerArray::field_at_target`] does not
    /// apply and the field decays as from a point source.
    pub fn field_at_bystander(
        &self,
        drives: &[ElementDrive],
        distance_m: f64,
        env: &AirEnvironment,
    ) -> Result<Signal> {
        let near = self.emitted_field_at_1m(drives)?;
        propagate(&near, distance_m, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spl::waveform_spl_db;
    use ivc_dsp::spectrum::band_power;

    fn drive_tone(freq: f64, fs: f64) -> Signal {
        Signal::tone(freq, 1.0, 0.3, fs).unwrap()
    }

    #[test]
    fn validation() {
        assert!(SpeakerArray::new(0).is_err());
        // Aperture (spacing x (n-1)) beyond the propagation model's 10 m
        // bound is rejected at construction, not at field_at_target time:
        // 334 elements span 9.99 m, 335 span 10.02 m.
        assert!(SpeakerArray::new(335).is_err());
        assert!(SpeakerArray::new(334).is_ok());
        let array = SpeakerArray::new(2).unwrap();
        assert!(array.emitted_field_at_1m(&[]).is_err());
        let too_many: Vec<ElementDrive> = (0..3)
            .map(|_| ElementDrive {
                drive: drive_tone(30_000.0, 192_000.0),
                power_w: 1.0,
            })
            .collect();
        assert!(array.emitted_field_at_1m(&too_many).is_err());
    }

    #[test]
    fn geometry_helpers() {
        let array = SpeakerArray::new(61).unwrap();
        assert!((array.aperture_m() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn two_identical_elements_add_six_db() {
        let fs = 192_000.0;
        let array = SpeakerArray::new(2).unwrap();
        let one = vec![ElementDrive {
            drive: drive_tone(30_000.0, fs),
            power_w: 4.0,
        }];
        let two = vec![
            ElementDrive {
                drive: drive_tone(30_000.0, fs),
                power_w: 4.0,
            },
            ElementDrive {
                drive: drive_tone(30_000.0, fs),
                power_w: 4.0,
            },
        ];
        let f1 = array.emitted_field_at_1m(&one).unwrap();
        let f2 = array.emitted_field_at_1m(&two).unwrap();
        let gain = waveform_spl_db(f2.samples()) - waveform_spl_db(f1.samples());
        assert!((gain - 6.02).abs() < 0.3, "gain {gain}");
    }

    #[test]
    fn elements_playing_disjoint_tones_do_not_intermodulate_in_air() {
        // Element A plays 30 kHz, element B plays 35 kHz.  Because each
        // element's non-linearity only sees its own tone, the 5 kHz
        // difference product must NOT appear in the summed field — unlike
        // the single-speaker case tested in `speaker.rs`.
        let fs = 192_000.0;
        let array = SpeakerArray::new(2).unwrap();
        let drives = vec![
            ElementDrive {
                drive: drive_tone(30_000.0, fs),
                power_w: 29.0,
            },
            ElementDrive {
                drive: drive_tone(35_000.0, fs),
                power_w: 29.0,
            },
        ];
        let field = array.emitted_field_at_1m(&drives).unwrap();
        let imd = band_power(field.samples(), fs, 4_500.0, 5_500.0).unwrap();
        let carriers = band_power(field.samples(), fs, 29_000.0, 36_000.0).unwrap();
        assert!(
            imd / carriers < 1e-6,
            "in-air IMD fraction {}",
            imd / carriers
        );

        // Control: the same two tones through ONE element do intermodulate.
        let mut combined = drive_tone(30_000.0, fs).scaled(0.5);
        combined.mix(&drive_tone(35_000.0, fs).scaled(0.5)).unwrap();
        let single = vec![ElementDrive {
            drive: combined,
            power_w: 29.0,
        }];
        let field_single = array.emitted_field_at_1m(&single).unwrap();
        let imd_single = band_power(field_single.samples(), fs, 4_500.0, 5_500.0).unwrap();
        let carriers_single = band_power(field_single.samples(), fs, 29_000.0, 36_000.0).unwrap();
        assert!(
            imd_single / carriers_single > (imd / carriers) * 100.0,
            "single-speaker IMD should dominate: {} vs {}",
            imd_single / carriers_single,
            imd / carriers
        );
    }

    #[test]
    fn field_at_target_attenuates_with_distance() {
        let fs = 192_000.0;
        let env = AirEnvironment::default();
        let array = SpeakerArray::new(4).unwrap();
        let drives: Vec<ElementDrive> = (0..4)
            .map(|_| ElementDrive {
                drive: drive_tone(40_000.0, fs),
                power_w: 8.0,
            })
            .collect();
        let near = array.field_at_target(&drives, 2.0, &env).unwrap();
        let far = array.field_at_target(&drives, 8.0, &env).unwrap();
        let spl_near = waveform_spl_db(&near.samples()[near.len() / 2..]);
        let spl_far = waveform_spl_db(&far.samples()[far.len() / 2..]);
        // 4x distance: 12 dB spreading + ~7-8 dB extra absorption at 40 kHz.
        assert!(spl_near - spl_far > 15.0, "{spl_near} vs {spl_far}");
    }
}
