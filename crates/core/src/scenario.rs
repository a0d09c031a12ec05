//! Scenario description: everything that defines one experimental trial.

use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::microphone::DevicePreset;
use ivc_room::RoomPreset;

/// Distance of the bystander from the attack source, in metres: someone
/// standing next to the rig, listening for audible leakage.  The leakage
/// of every attack delivery is measured there.
pub const BYSTANDER_DISTANCE_M: f64 = 1.0;

/// How the voice command reaches the victim device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivery {
    /// A person speaks the command normally.
    Legitimate {
        /// Talker level as SPL at 1 m, in dB (conversational speech ≈ 60–70).
        talker_spl_db: f64,
    },
    /// The baseline inaudible attack: one ultrasonic speaker plays the
    /// AM-modulated command plus carrier.
    SingleSpeakerUltrasound {
        /// Electrical drive power in watt.
        power_w: f64,
        /// Carrier frequency in Hz.
        carrier_hz: f64,
    },
    /// The long-range attack: carrier and spectrum slices split across an
    /// ultrasonic speaker array.
    ArrayUltrasound {
        /// Number of array elements (1 carrier element + sideband elements).
        num_elements: usize,
        /// Total electrical power across the array, in watt.
        total_power_w: f64,
        /// Carrier frequency in Hz.
        carrier_hz: f64,
    },
}

impl Delivery {
    /// `true` for the two ultrasonic-injection variants.
    pub fn is_attack(&self) -> bool {
        !matches!(self, Delivery::Legitimate { .. })
    }

    /// Short label used in result tables.
    pub fn label(&self) -> String {
        match self {
            Delivery::Legitimate { .. } => "legitimate voice".to_string(),
            Delivery::SingleSpeakerUltrasound { power_w, .. } => {
                format!("single-speaker attack ({power_w:.1} W)")
            }
            Delivery::ArrayUltrasound {
                num_elements,
                total_power_w,
                ..
            } => format!("{num_elements}-speaker attack ({total_power_w:.1} W)"),
        }
    }
}

/// A complete experimental setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The victim device.
    pub device: DevicePreset,
    /// Source-to-device distance in metres.
    pub distance_m: f64,
    /// How the command is delivered.
    pub delivery: Delivery,
    /// Ambient room noise, in dB SPL.
    pub ambient_noise_spl_db: f64,
    /// Air conditions.
    pub env: AirEnvironment,
    /// The room the trial takes place in.  `None` keeps the historical
    /// free-field channel (direct path only); `Some(preset)` propagates
    /// both the attack path and the bystander's leak path through the
    /// room's image-source model (`Anechoic` reproduces the free-field
    /// result bit for bit).
    pub room: Option<RoomPreset>,
    /// Master seed for every stochastic component of the trial.
    pub seed: u64,
    /// Optionally truncate the synthesised command to this many seconds to
    /// bound simulation cost (`f64::INFINITY` keeps the whole command).
    pub max_voice_duration_s: f64,
    /// Adaptive-attacker shadow suppression in `[0, 1]`: the attack
    /// baseband is pre-compensated against the detector's shadow feature
    /// before modulation (`0.0`, the default, is the oblivious attacker
    /// and leaves the waveform untouched; ignored for legitimate
    /// deliveries).
    pub shadow_suppression: f64,
}

impl Scenario {
    /// A convenient starting point: an Android phone 2 m away in a quiet
    /// room, attacked by an 8-element array at 40 W total.
    pub fn default_attack() -> Self {
        Scenario {
            device: DevicePreset::AndroidPhone,
            distance_m: 2.0,
            delivery: Delivery::ArrayUltrasound {
                num_elements: 8,
                total_power_w: 40.0,
                carrier_hz: 40_000.0,
            },
            ambient_noise_spl_db: 40.0,
            env: AirEnvironment::default(),
            room: None,
            seed: 1,
            max_voice_duration_s: f64::INFINITY,
            shadow_suppression: 0.0,
        }
    }

    /// Returns a copy with a different distance.
    pub fn at_distance(&self, distance_m: f64) -> Self {
        Scenario {
            distance_m,
            ..self.clone()
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        Scenario {
            seed,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_classification_and_labels() {
        assert!(!Delivery::Legitimate {
            talker_spl_db: 65.0
        }
        .is_attack());
        assert!(Delivery::SingleSpeakerUltrasound {
            power_w: 10.0,
            carrier_hz: 40_000.0
        }
        .is_attack());
        assert!(Delivery::ArrayUltrasound {
            num_elements: 61,
            total_power_w: 100.0,
            carrier_hz: 40_000.0
        }
        .is_attack());
        assert!(Delivery::Legitimate {
            talker_spl_db: 65.0
        }
        .label()
        .contains("legitimate"));
        assert!(Delivery::ArrayUltrasound {
            num_elements: 61,
            total_power_w: 100.0,
            carrier_hz: 40_000.0
        }
        .label()
        .contains("61"));
    }

    #[test]
    fn scenario_builders() {
        let attack = Scenario::default_attack();
        assert!(attack.delivery.is_attack());
        let far = attack.at_distance(7.6);
        assert_eq!(far.distance_m, 7.6);
        assert_eq!(far.device, attack.device);
        let reseeded = attack.with_seed(99);
        assert_eq!(reseeded.seed, 99);
        assert_eq!(attack.room, None);
    }
}
