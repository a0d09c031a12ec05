//! Named room presets and their placement checks.
//!
//! A preset fixes a room's dimensions, materials, occluders and reflection
//! order; [`RoomPreset::check_placement`] checks that the source, target
//! microphone and bystander of a concrete scenario (source-to-target
//! distance, source-to-bystander distance) all fit inside the box;
//! [`RoomPreset::target_rir`] and [`RoomPreset::bystander_rir`] place only
//! the listener their response reaches, at the same position.
//!
//! Layout convention: the room's long axis is `x`; the source sits near
//! the `x = 0` wall at `(source_x, W/2, 1.2)`, the target `distance_m`
//! farther down the axis at the same height, and the bystander stands
//! beside the source (offset in `+y`, or through the partition for
//! [`RoomPreset::ThroughDoorway`]).

use crate::geometry::Point3;
use crate::material::{PartitionMaterial, SurfaceMaterial};
use crate::occlusion::Occluder;
use crate::rir::RoomImpulseResponse;
use crate::shoebox::Shoebox;
use ivc_dsp::{DspError, Result};

/// Height (m) at which sources, microphones and bystander ears sit.
const DEVICE_HEIGHT_M: f64 = 1.2;
/// Clearance kept between the target and the far wall.
const TARGET_MARGIN_M: f64 = 0.5;
/// Clearance kept between the bystander and any surface.
const BYSTANDER_MARGIN_M: f64 = 0.05;

/// A named room scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoomPreset {
    /// Perfectly absorbent walls: the direct path only.  Produces
    /// bit-identical results to the free-field (no-room) pipeline — the
    /// regression anchor for everything else.
    Anechoic,
    /// A furnished office: gypsum walls, carpet, acoustic-tile ceiling.
    /// Mild early reflections, short reverberation.
    Office,
    /// A large, live meeting room: glass and concrete walls, hardwood
    /// floor.  Strong reflections and a long reverberant tail.
    ConferenceRoom,
    /// A long concrete corridor: very live, strongly guided reflections.
    Corridor,
    /// The attacker stands outside an office and fires through an open
    /// doorway; the bystander is inside, behind the drywall partition.
    /// The ultrasonic path to the device is clear, the audible leak to
    /// the bystander is through the wall.
    ThroughDoorway,
}

impl RoomPreset {
    /// All presets, in a stable order.
    pub const ALL: [RoomPreset; 5] = [
        RoomPreset::Anechoic,
        RoomPreset::Office,
        RoomPreset::ConferenceRoom,
        RoomPreset::Corridor,
        RoomPreset::ThroughDoorway,
    ];

    /// Stable token used in JSON archives.
    pub fn token(&self) -> &'static str {
        match self {
            RoomPreset::Anechoic => "anechoic",
            RoomPreset::Office => "office",
            RoomPreset::ConferenceRoom => "conference_room",
            RoomPreset::Corridor => "corridor",
            RoomPreset::ThroughDoorway => "through_doorway",
        }
    }

    /// Parses an archive token back into a preset.
    pub fn from_token(token: &str) -> Option<RoomPreset> {
        RoomPreset::ALL.into_iter().find(|p| p.token() == token)
    }

    /// Maximum image-source reflection order used for this preset.
    pub fn max_order(&self) -> usize {
        match self {
            RoomPreset::Anechoic => 0,
            RoomPreset::Office | RoomPreset::ThroughDoorway => 2,
            RoomPreset::ConferenceRoom | RoomPreset::Corridor => 3,
        }
    }

    /// The preset's room box.
    pub fn room(&self) -> Shoebox {
        let gypsum = SurfaceMaterial::gypsum_wall();
        let concrete = SurfaceMaterial::painted_concrete();
        match self {
            // Oversized so that every room-scale scenario fits (targets
            // out to 58.5 m given the 1 m source offset and 0.5 m wall
            // clearance); the walls never reflect anyway.  Past that
            // bound `check_placement` errors even though the free-field
            // (`room: None`) channel would still accept the distance —
            // the documented geometry checks apply to every preset.
            RoomPreset::Anechoic => Shoebox::uniform(60.0, 20.0, 20.0, SurfaceMaterial::anechoic()),
            RoomPreset::Office => Shoebox::new(
                8.0,
                4.0,
                2.7,
                [
                    gypsum,
                    gypsum,
                    gypsum,
                    gypsum,
                    SurfaceMaterial::carpet_on_concrete(),
                    SurfaceMaterial::acoustic_ceiling_tile(),
                ],
            ),
            RoomPreset::ConferenceRoom => Shoebox::new(
                12.0,
                7.0,
                3.2,
                [
                    concrete,
                    SurfaceMaterial::glass_window(),
                    concrete,
                    SurfaceMaterial::glass_window(),
                    SurfaceMaterial::hardwood_floor(),
                    gypsum,
                ],
            ),
            RoomPreset::Corridor => Shoebox::new(
                30.0,
                2.2,
                2.6,
                [
                    concrete,
                    concrete,
                    concrete,
                    concrete,
                    SurfaceMaterial::hardwood_floor(),
                    concrete,
                ],
            ),
            RoomPreset::ThroughDoorway => Shoebox::new(
                10.0,
                5.0,
                2.7,
                [
                    gypsum,
                    gypsum,
                    gypsum,
                    gypsum,
                    SurfaceMaterial::carpet_on_concrete(),
                    SurfaceMaterial::acoustic_ceiling_tile(),
                ],
            ),
        }
        .expect("preset dimensions are valid")
    }

    /// The preset's partitions (only [`RoomPreset::ThroughDoorway`] has
    /// one: a drywall wall at `x = 1.6` with a 0.8 m doorway gap).
    pub fn occluders(&self) -> Vec<Occluder> {
        match self {
            RoomPreset::ThroughDoorway => {
                let drywall = PartitionMaterial::drywall_partition();
                vec![
                    Occluder::new((1.6, 0.0), (1.6, 2.0), drywall),
                    Occluder::new((1.6, 2.8), (1.6, 5.0), drywall),
                ]
            }
            _ => Vec::new(),
        }
    }

    /// Checks that a target `distance_m` down the room's axis and a
    /// bystander `bystander_distance_m` from the source both fit the room.
    pub fn check_placement(&self, distance_m: f64, bystander_distance_m: f64) -> Result<()> {
        let (room, source, _) = self.place_target(distance_m)?;
        self.place_bystander(&room, &source, bystander_distance_m)?;
        Ok(())
    }

    /// Impulse response from the source to a target microphone
    /// `distance_m` down the room's axis, for a source of physical
    /// aperture `aperture_m` (the array's length; 0 for a point source).
    /// Only the target is placed and validated.
    pub fn target_rir(&self, distance_m: f64, aperture_m: f64) -> Result<RoomImpulseResponse> {
        let (room, source, target) = self.place_target(distance_m)?;
        RoomImpulseResponse::image_source(
            &room,
            &source,
            &target,
            self.max_order(),
            &self.occluders(),
            aperture_m,
        )
    }

    /// Impulse response from the source to the ear of a bystander
    /// `bystander_distance_m` from it (off-axis, so the source is a point
    /// source here).  Only the bystander is placed and validated.
    pub fn bystander_rir(&self, bystander_distance_m: f64) -> Result<RoomImpulseResponse> {
        let room = self.room();
        let source = source_position(&room);
        let bystander = self.place_bystander(&room, &source, bystander_distance_m)?;
        RoomImpulseResponse::image_source(
            &room,
            &source,
            &bystander,
            self.max_order(),
            &self.occluders(),
            0.0,
        )
    }

    /// The room, the source and the target `distance_m` down the room's
    /// axis, validated.
    fn place_target(&self, distance_m: f64) -> Result<(Shoebox, Point3, Point3)> {
        if !(distance_m > 0.0) || !distance_m.is_finite() {
            return Err(DspError::invalid(
                "distance_m",
                format!("{distance_m} must be positive and finite"),
            ));
        }
        let room = self.room();
        let source = source_position(&room);
        let target = Point3::new(source.x + distance_m, source.y, DEVICE_HEIGHT_M);
        if !room.contains(&target, TARGET_MARGIN_M) {
            return Err(DspError::invalid(
                "distance_m",
                format!(
                    "target at {distance_m} m does not fit a {} m {} (needs {TARGET_MARGIN_M} m \
                     wall clearance)",
                    room.length_m,
                    self.token()
                ),
            ));
        }
        // The doorway layout additionally requires the target past the
        // partition: the scenario is "through" the doorway, not in front
        // of it.
        if *self == RoomPreset::ThroughDoorway && target.x <= 1.8 {
            return Err(DspError::invalid(
                "distance_m",
                format!(
                    "{distance_m} m leaves the target in front of the doorway \
                     partition at x = 1.6 (need at least 1.0 m)"
                ),
            ));
        }
        Ok((room, source, target))
    }

    /// The bystander `bystander_distance_m` from `source`, validated.  In
    /// the doorway layout they walk diagonally through the partition
    /// (direction (0.8, 0.6)); elsewhere they stand beside the source.
    fn place_bystander(
        &self,
        room: &Shoebox,
        source: &Point3,
        bystander_distance_m: f64,
    ) -> Result<Point3> {
        if !(bystander_distance_m > 0.0) || !bystander_distance_m.is_finite() {
            return Err(DspError::invalid(
                "bystander_distance_m",
                format!("{bystander_distance_m} must be positive and finite"),
            ));
        }
        let bystander = match self {
            RoomPreset::ThroughDoorway => Point3::new(
                source.x + 0.8 * bystander_distance_m,
                source.y + 0.6 * bystander_distance_m,
                DEVICE_HEIGHT_M,
            ),
            _ => Point3::new(source.x, source.y + bystander_distance_m, DEVICE_HEIGHT_M),
        };
        if !room.contains(&bystander, BYSTANDER_MARGIN_M) {
            return Err(DspError::invalid(
                "bystander_distance_m",
                format!(
                    "bystander at {bystander_distance_m} m does not fit the {} preset",
                    self.token()
                ),
            ));
        }
        Ok(bystander)
    }
}

/// Where every layout puts the source: near the `x = 0` wall, centred.
fn source_position(room: &Shoebox) -> Point3 {
    Point3::new(1.0, room.width_m / 2.0, DEVICE_HEIGHT_M)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip() {
        for preset in RoomPreset::ALL {
            assert_eq!(RoomPreset::from_token(preset.token()), Some(preset));
        }
        assert_eq!(RoomPreset::from_token("cathedral"), None);
    }

    #[test]
    fn presets_instantiate_at_standard_distances() {
        for preset in RoomPreset::ALL {
            for distance in [1.0, 2.0, 4.0, 6.0] {
                preset
                    .check_placement(distance, 1.0)
                    .unwrap_or_else(|e| panic!("{} at {distance} m: {e}", preset.token()));
                let target = preset.target_rir(distance, 0.0).unwrap();
                assert!((target.direct().distance_m - distance).abs() < 1e-9);
            }
            let bystander = preset.bystander_rir(1.0).unwrap();
            assert!(
                (bystander.direct().distance_m - 1.0).abs() < 1e-9,
                "{}: bystander distance",
                preset.token()
            );
        }
    }

    #[test]
    fn geometry_violations_are_rejected() {
        assert!(RoomPreset::Office.check_placement(0.0, 1.0).is_err());
        assert!(RoomPreset::Office.check_placement(2.0, -1.0).is_err());
        // Office is 8 m long: a 7 m throw cannot keep its wall clearance.
        assert!(RoomPreset::Office.check_placement(7.0, 1.0).is_err());
        assert!(RoomPreset::Corridor.check_placement(7.0, 1.0).is_ok());
        // The corridor is 2.2 m wide: a 2 m bystander offset hits the wall.
        assert!(RoomPreset::Corridor.check_placement(2.0, 2.0).is_err());
        // The doorway preset needs the target past the partition.
        assert!(RoomPreset::ThroughDoorway
            .check_placement(0.5, 1.0)
            .is_err());
        assert!(RoomPreset::ThroughDoorway.check_placement(3.0, 1.0).is_ok());
    }

    #[test]
    fn doorway_occludes_the_bystander_but_not_the_target() {
        let target = RoomPreset::ThroughDoorway.target_rir(3.0, 0.3).unwrap();
        let bystander = RoomPreset::ThroughDoorway.bystander_rir(1.0).unwrap();
        // Target path goes through the doorway gap: unity direct curve.
        assert!(target.direct().gain_curve.is_empty());
        // Bystander path crosses the partition: attenuated direct curve.
        let curve = &bystander.direct().gain_curve;
        assert!(!curve.is_empty());
        assert!(curve.iter().all(|&(_, g)| g < 0.2));
    }

    #[test]
    fn each_response_validates_only_its_own_listener() {
        // The corridor is 2.2 m wide: a 2 m bystander offset hits the wall,
        // while a target 2 m down the axis fits.
        assert!(RoomPreset::Corridor.target_rir(2.0, 0.0).is_ok());
        assert!(RoomPreset::Corridor.bystander_rir(2.0).is_err());
        // The doorway layout constrains its target, not its bystander.
        assert!(RoomPreset::ThroughDoorway.target_rir(0.5, 0.0).is_err());
        assert!(RoomPreset::ThroughDoorway.bystander_rir(1.0).is_ok());
    }

    #[test]
    fn anechoic_instance_has_no_reflections() {
        let anechoic = RoomPreset::Anechoic;
        assert_eq!(anechoic.target_rir(5.0, 1.8).unwrap().num_taps(), 1);
        assert_eq!(anechoic.bystander_rir(1.0).unwrap().num_taps(), 1);
    }

    #[test]
    fn livelier_presets_have_longer_rt60() {
        let f = 1_000.0;
        let office = RoomPreset::Office.room().sabine_rt60_s(f);
        let conference = RoomPreset::ConferenceRoom.room().sabine_rt60_s(f);
        let corridor = RoomPreset::Corridor.room().sabine_rt60_s(f);
        assert!(office < 0.8, "office T60 {office}");
        assert!(conference > 2.0 * office, "conference T60 {conference}");
        assert!(corridor > office, "corridor T60 {corridor}");
        assert_eq!(RoomPreset::Anechoic.room().eyring_rt60_s(f), 0.0);
    }
}
