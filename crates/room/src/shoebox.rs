//! The shoebox room: a rectangular box with one material per surface, and
//! the classical Sabine/Eyring reverberation-time estimates.

use crate::geometry::Point3;
use crate::material::SurfaceMaterial;
use ivc_dsp::{DspError, Result};

/// Number of surfaces of a shoebox room.
pub const NUM_SURFACES: usize = 6;

/// Surface indices into a [`Shoebox`]'s material array.
///
/// Order: wall at `x = 0`, wall at `x = L`, wall at `y = 0`, wall at
/// `y = W`, floor (`z = 0`), ceiling (`z = H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// Wall at `x = 0` (behind the source in the preset layouts).
    WallX0,
    /// Wall at `x = L` (behind the target).
    WallXL,
    /// Wall at `y = 0`.
    WallY0,
    /// Wall at `y = W`.
    WallYW,
    /// Floor, `z = 0`.
    Floor,
    /// Ceiling, `z = H`.
    Ceiling,
}

/// A rectangular room `[0, L] × [0, W] × [0, H]` with per-surface
/// materials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shoebox {
    /// Length along `x`, in metres.
    pub length_m: f64,
    /// Width along `y`, in metres.
    pub width_m: f64,
    /// Height along `z`, in metres.
    pub height_m: f64,
    /// Materials in [`Surface`] order.
    pub surfaces: [SurfaceMaterial; NUM_SURFACES],
}

impl Shoebox {
    /// Creates a validated room.  Dimensions must lie in `[0.5, 100]` m.
    pub fn new(
        length_m: f64,
        width_m: f64,
        height_m: f64,
        surfaces: [SurfaceMaterial; NUM_SURFACES],
    ) -> Result<Self> {
        for (name, value) in [
            ("length_m", length_m),
            ("width_m", width_m),
            ("height_m", height_m),
        ] {
            if !(0.5..=100.0).contains(&value) {
                return Err(DspError::invalid(
                    name,
                    format!("{value} outside [0.5, 100] metres"),
                ));
            }
        }
        Ok(Shoebox {
            length_m,
            width_m,
            height_m,
            surfaces,
        })
    }

    /// A room with the same material on every surface.
    pub fn uniform(
        length_m: f64,
        width_m: f64,
        height_m: f64,
        material: SurfaceMaterial,
    ) -> Result<Self> {
        Shoebox::new(length_m, width_m, height_m, [material; NUM_SURFACES])
    }

    /// `true` when `point` lies inside the room with at least `margin_m`
    /// clearance from every surface.
    pub fn contains(&self, point: &Point3, margin_m: f64) -> bool {
        point.x >= margin_m
            && point.x <= self.length_m - margin_m
            && point.y >= margin_m
            && point.y <= self.width_m - margin_m
            && point.z >= margin_m
            && point.z <= self.height_m - margin_m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classical reverberation formulas: the references the
    /// image-source decay and the presets' liveliness are checked against.
    impl Shoebox {
        /// Room volume in m³.
        pub(crate) fn volume_m3(&self) -> f64 {
            self.length_m * self.width_m * self.height_m
        }

        /// Area of one surface in m².
        pub(crate) fn surface_area_m2(&self, surface: usize) -> f64 {
            match surface {
                0 | 1 => self.width_m * self.height_m,
                2 | 3 => self.length_m * self.height_m,
                _ => self.length_m * self.width_m,
            }
        }

        /// Total interior surface area in m².
        pub(crate) fn total_surface_area_m2(&self) -> f64 {
            (0..NUM_SURFACES).map(|i| self.surface_area_m2(i)).sum()
        }

        /// Area-weighted mean absorption coefficient at `frequency_hz`.
        pub(crate) fn mean_absorption_at(&self, frequency_hz: f64) -> f64 {
            let total: f64 = (0..NUM_SURFACES)
                .map(|i| self.surface_area_m2(i) * self.surfaces[i].absorption_at(frequency_hz))
                .sum();
            total / self.total_surface_area_m2()
        }

        /// Sabine reverberation time `T60 = 0.161 · V / (S·ᾱ)` at
        /// `frequency_hz`, in seconds.  Surface losses only; atmospheric
        /// absorption (which dominates in the ultrasonic band) is applied
        /// per-path by the propagation layer instead.
        pub(crate) fn sabine_rt60_s(&self, frequency_hz: f64) -> f64 {
            let a = self.total_surface_area_m2() * self.mean_absorption_at(frequency_hz);
            if a <= 0.0 {
                return f64::INFINITY;
            }
            0.161 * self.volume_m3() / a
        }

        /// Eyring reverberation time `T60 = 0.161 · V / (−S·ln(1 − ᾱ))` at
        /// `frequency_hz`, in seconds.  More accurate than Sabine in absorbent
        /// rooms; 0 for a perfectly absorbent room.
        pub(crate) fn eyring_rt60_s(&self, frequency_hz: f64) -> f64 {
            let mean = self.mean_absorption_at(frequency_hz);
            if mean >= 1.0 {
                return 0.0;
            }
            if mean <= 0.0 {
                return f64::INFINITY;
            }
            0.161 * self.volume_m3() / (-self.total_surface_area_m2() * (1.0 - mean).ln())
        }
    }

    fn office() -> Shoebox {
        Shoebox::new(
            8.0,
            4.0,
            2.7,
            [
                SurfaceMaterial::gypsum_wall(),
                SurfaceMaterial::gypsum_wall(),
                SurfaceMaterial::gypsum_wall(),
                SurfaceMaterial::gypsum_wall(),
                SurfaceMaterial::carpet_on_concrete(),
                SurfaceMaterial::acoustic_ceiling_tile(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_and_geometry() {
        assert!(Shoebox::uniform(0.2, 4.0, 2.7, SurfaceMaterial::gypsum_wall()).is_err());
        assert!(Shoebox::uniform(8.0, 4.0, 200.0, SurfaceMaterial::gypsum_wall()).is_err());
        let room = office();
        assert!((room.volume_m3() - 86.4).abs() < 1e-9);
        assert!(
            (room.total_surface_area_m2() - (2.0 * 32.0 + 2.0 * 10.8 + 2.0 * 21.6)).abs() < 1e-9
        );
        assert!(room.contains(&Point3::new(1.0, 2.0, 1.2), 0.5));
        assert!(!room.contains(&Point3::new(7.8, 2.0, 1.2), 0.5));
    }

    #[test]
    fn absorbent_rooms_decay_faster() {
        let dead = office();
        let live = Shoebox::uniform(8.0, 4.0, 2.7, SurfaceMaterial::painted_concrete()).unwrap();
        for f in [500.0, 1_000.0, 4_000.0] {
            assert!(dead.sabine_rt60_s(f) < live.sabine_rt60_s(f) / 4.0);
        }
        // Plausible magnitudes: a furnished office well under a second, a
        // bare concrete box several seconds.
        let t_office = dead.sabine_rt60_s(1_000.0);
        let t_concrete = live.sabine_rt60_s(1_000.0);
        assert!((0.2..1.0).contains(&t_office), "office T60 {t_office}");
        assert!(t_concrete > 3.0, "concrete T60 {t_concrete}");
    }

    #[test]
    fn eyring_is_shorter_than_sabine_and_handles_the_limits() {
        let room = office();
        let f = 1_000.0;
        assert!(room.eyring_rt60_s(f) < room.sabine_rt60_s(f));
        let anechoic = Shoebox::uniform(8.0, 4.0, 2.7, SurfaceMaterial::anechoic()).unwrap();
        assert_eq!(anechoic.eyring_rt60_s(f), 0.0);
        let lossless =
            Shoebox::uniform(8.0, 4.0, 2.7, SurfaceMaterial::new("none", [0.0; 12])).unwrap();
        assert_eq!(lossless.sabine_rt60_s(f), f64::INFINITY);
        assert_eq!(lossless.eyring_rt60_s(f), f64::INFINITY);
    }
}
