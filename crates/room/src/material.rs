//! Surface and partition materials with frequency-dependent behaviour.
//!
//! Reflection is characterised by the random-incidence energy absorption
//! coefficient `α(f)`; a bounce multiplies the pressure amplitude by
//! `β(f) = √(1 − α(f))`.  Published tables stop at 4 kHz; the ultrasonic
//! anchors extrapolate the audible trend (porous materials keep absorbing
//! harder, hard surfaces stay reflective), which is the behaviour that
//! matters for this workspace: a 40 kHz carrier survives concrete and
//! glass but dies in carpet and acoustic tile.
//!
//! Occluding partitions are characterised by a transmission loss `TL(f)`
//! in dB that grows with frequency (mass law, ~6 dB per octave): walls
//! block ultrasound far more effectively than audible speech, which is why
//! the `ThroughDoorway` scenario changes the attack/leakage balance.

/// The frequencies (Hz) at which every material curve is anchored.  Gain
/// curves handed to the propagation layer sample these exact points;
/// between them the propagation layer interpolates linearly in
/// log-frequency (see `ivc_acoustics::propagation::interpolate_gain_curve`).
pub const ANCHOR_FREQUENCIES_HZ: [f64; 12] = [
    125.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 24_000.0, 32_000.0,
    48_000.0, 64_000.0,
];

/// Number of anchor frequencies.
pub const NUM_ANCHORS: usize = ANCHOR_FREQUENCIES_HZ.len();

/// A room surface: a name plus its absorption coefficient at each anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceMaterial {
    /// Human-readable material name.
    pub name: &'static str,
    absorption: [f64; NUM_ANCHORS],
}

impl SurfaceMaterial {
    /// Pressure-amplitude reflection coefficient `β = √(1 − α)` at anchor
    /// index `i`.
    pub fn reflection_amplitude_at_anchor(&self, i: usize) -> f64 {
        (1.0 - self.absorption[i]).max(0.0).sqrt()
    }

    /// A perfect absorber: every incident ray dies at the wall, so the
    /// image-source engine reduces to the direct path (free field).
    pub fn anechoic() -> Self {
        SurfaceMaterial {
            name: "anechoic",
            absorption: [1.0; NUM_ANCHORS],
        }
    }

    /// Painted concrete / masonry: hard and reflective at every frequency.
    pub fn painted_concrete() -> Self {
        SurfaceMaterial {
            name: "painted concrete",
            absorption: [
                0.01, 0.01, 0.015, 0.02, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10,
            ],
        }
    }

    /// Gypsum board on studs: a light panel absorber (resonant at low
    /// frequency, mildly absorptive above).
    pub fn gypsum_wall() -> Self {
        SurfaceMaterial {
            name: "gypsum wall",
            absorption: [
                0.29, 0.10, 0.05, 0.04, 0.07, 0.09, 0.10, 0.12, 0.14, 0.16, 0.20, 0.24,
            ],
        }
    }

    /// Carpet on concrete: porous, increasingly absorptive with frequency.
    pub fn carpet_on_concrete() -> Self {
        SurfaceMaterial {
            name: "carpet on concrete",
            absorption: [
                0.02, 0.06, 0.14, 0.37, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.92,
            ],
        }
    }

    /// Suspended acoustic ceiling tile: absorptive across the band.
    pub fn acoustic_ceiling_tile() -> Self {
        SurfaceMaterial {
            name: "acoustic ceiling tile",
            absorption: [
                0.70, 0.66, 0.72, 0.92, 0.88, 0.75, 0.70, 0.65, 0.62, 0.60, 0.60, 0.60,
            ],
        }
    }

    /// A large glass pane: reflective except at its low-frequency panel
    /// resonance.
    pub fn glass_window() -> Self {
        SurfaceMaterial {
            name: "glass window",
            absorption: [
                0.35, 0.25, 0.18, 0.12, 0.07, 0.04, 0.03, 0.03, 0.03, 0.04, 0.05, 0.06,
            ],
        }
    }

    /// Hardwood floor on joists.
    pub fn hardwood_floor() -> Self {
        SurfaceMaterial {
            name: "hardwood floor",
            absorption: [
                0.15, 0.11, 0.10, 0.07, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12, 0.14,
            ],
        }
    }
}

/// An occluding partition's transmission behaviour: how many dB a sound
/// loses crossing it, per anchor frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionMaterial {
    /// Human-readable partition name.
    pub name: &'static str,
    transmission_loss_db: [f64; NUM_ANCHORS],
}

impl PartitionMaterial {
    /// Pressure-amplitude transmission coefficient `10^(−TL/20)` at anchor
    /// index `i`.
    pub fn transmission_amplitude_at_anchor(&self, i: usize) -> f64 {
        10f64.powf(-self.transmission_loss_db[i] / 20.0)
    }

    /// A single-stud drywall partition (STC ≈ 34), mass-law slope above.
    pub fn drywall_partition() -> Self {
        PartitionMaterial {
            name: "drywall partition",
            transmission_loss_db: [
                15.0, 25.0, 32.0, 39.0, 45.0, 50.0, 55.0, 60.0, 63.0, 66.0, 70.0, 72.0,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SurfaceMaterial {
        /// A material with the given coefficients, for rooms no preset
        /// builds.
        pub(crate) fn new(name: &'static str, absorption: [f64; NUM_ANCHORS]) -> Self {
            SurfaceMaterial { name, absorption }
        }

        /// Energy absorption coefficient at an arbitrary frequency
        /// (log-frequency interpolation, clamped beyond the anchors).
        pub(crate) fn absorption_at(&self, frequency_hz: f64) -> f64 {
            let curve: Vec<(f64, f64)> = ANCHOR_FREQUENCIES_HZ
                .iter()
                .zip(self.absorption.iter())
                .map(|(&f, &a)| (f, a))
                .collect();
            ivc_acoustics::propagation::interpolate_gain_curve(&curve, frequency_hz)
        }
    }

    #[test]
    fn anchors_are_sorted_and_span_the_ultrasonic_band() {
        for pair in ANCHOR_FREQUENCIES_HZ.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        let (first, last) = (
            ANCHOR_FREQUENCIES_HZ[0],
            *ANCHOR_FREQUENCIES_HZ.last().unwrap(),
        );
        assert!(first <= 125.0 && last >= 48_000.0, "{first}..{last}");
    }

    #[test]
    fn anechoic_reflects_nothing_and_concrete_nearly_everything() {
        let dead = SurfaceMaterial::anechoic();
        let hard = SurfaceMaterial::painted_concrete();
        for i in 0..NUM_ANCHORS {
            assert_eq!(dead.reflection_amplitude_at_anchor(i), 0.0);
            assert!(hard.reflection_amplitude_at_anchor(i) > 0.94);
        }
    }

    #[test]
    fn absorption_interpolates_between_anchors() {
        let carpet = SurfaceMaterial::carpet_on_concrete();
        assert_eq!(carpet.absorption_at(1_000.0), 0.37);
        let mid = carpet.absorption_at(1_500.0);
        assert!(mid > 0.37 && mid < 0.60, "mid {mid}");
        // Clamped outside the table.
        assert_eq!(carpet.absorption_at(10.0), 0.02);
        assert_eq!(carpet.absorption_at(1e6), 0.92);
    }

    #[test]
    fn partitions_block_ultrasound_harder_than_voice() {
        let wall = PartitionMaterial::drywall_partition();
        // Anchor 3 is 1 kHz (voice), anchor 9 is 32 kHz (ultrasound): at
        // least 20 dB more loss in amplitude.
        assert!(
            wall.transmission_amplitude_at_anchor(9)
                < wall.transmission_amplitude_at_anchor(3) / 10.0
        );
        assert!(wall.transmission_amplitude_at_anchor(9) < 0.001);
    }
}
