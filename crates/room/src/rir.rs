//! The sparse room impulse response: image-source taps with
//! frequency-dependent gains, ready for the propagation layer.

use crate::error::Result;
use crate::geometry::Point3;
use crate::image_source::image_taps;
use crate::material::{ANCHOR_FREQUENCIES_HZ, NUM_ANCHORS};
use crate::occlusion::{crossed_occluders, occlusion_amplitude_at_anchors, Occluder};
use crate::shoebox::{Shoebox, NUM_SURFACES};

/// One tap of a room impulse response: a propagation path with its length
/// and the amplitude gain it accumulated at walls and partitions.
///
/// The gain curve holds only what the *room* did to the path — surface
/// reflection losses and occlusion — sampled at
/// [`ANCHOR_FREQUENCIES_HZ`].  Spreading over `distance_m` and atmospheric
/// absorption are left to the propagation layer, which computes them
/// per frequency bin exactly as it does for the free-field path.
#[derive(Debug, Clone, PartialEq)]
pub struct RirTap {
    /// Total path length in metres.
    pub distance_m: f64,
    /// Number of wall bounces (0 for the direct path).
    pub order: usize,
    /// Sampled spectral amplitude gain `(frequency_hz, gain)`; empty means
    /// unity (an unobstructed direct path).
    pub gain_curve: Vec<(f64, f64)>,
}

/// A sparse room impulse response between one source and one receiver.
///
/// The first tap is always the direct path; any number of reflected taps
/// follow in order of arrival.  Taps whose gain is identically zero
/// (a bounce off a perfect absorber) are dropped at construction, so an
/// anechoic room reduces to exactly the direct path.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomImpulseResponse {
    /// Physical aperture of the source in metres (collimates the *direct*
    /// path only; reflected paths leave the beam and spread spherically).
    pub aperture_m: f64,
    taps: Vec<RirTap>,
}

impl RoomImpulseResponse {
    /// Builds the impulse response from the image-source model of `room`
    /// between `source` and `receiver`, with reflections up to
    /// `max_order` bounces, occlusion from `occluders`, and a source of
    /// physical aperture `aperture_m` (0 for a point source).
    pub fn image_source(
        room: &Shoebox,
        source: &Point3,
        receiver: &Point3,
        max_order: usize,
        occluders: &[Occluder],
        aperture_m: f64,
    ) -> Result<Self> {
        let images = image_taps(room, source, receiver, max_order)?;
        // Occlusion is evaluated once on the direct floor-plan segment and
        // applied to every tap of this path (see `crate::occlusion`).
        let crossed = crossed_occluders(occluders, source, receiver);
        let occlusion = occlusion_amplitude_at_anchors(&crossed);
        let occluded = !crossed.is_empty();

        let mut taps = Vec::with_capacity(images.len());
        for image in images {
            let mut gains = [0.0f64; NUM_ANCHORS];
            let mut all_zero = true;
            for (i, gain) in gains.iter_mut().enumerate() {
                let mut g = occlusion[i];
                for s in 0..NUM_SURFACES {
                    for _ in 0..image.surface_counts[s] {
                        g *= room.surfaces[s].reflection_amplitude_at_anchor(i);
                    }
                }
                *gain = g;
                if g != 0.0 {
                    all_zero = false;
                }
            }
            if image.order > 0 && all_zero {
                continue;
            }
            // An unobstructed direct path keeps an empty curve: the
            // propagation layer treats it as exactly unity, which is what
            // makes the anechoic room bit-identical to free field.
            let gain_curve = if image.order == 0 && !occluded {
                Vec::new()
            } else {
                ANCHOR_FREQUENCIES_HZ
                    .iter()
                    .zip(gains.iter())
                    .map(|(&f, &g)| (f, g))
                    .collect()
            };
            taps.push(RirTap {
                distance_m: image.path_length_m,
                order: image.order,
                gain_curve,
            });
        }
        Ok(RoomImpulseResponse { aperture_m, taps })
    }

    /// The direct-path tap.
    pub fn direct(&self) -> &RirTap {
        &self.taps[0]
    }

    /// The reflected taps (everything after the direct path).
    pub fn reflected(&self) -> &[RirTap] {
        &self.taps[1..]
    }

    /// Number of taps, direct path included.
    pub fn num_taps(&self) -> usize {
        self.taps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::{PartitionMaterial, SurfaceMaterial};

    impl RoomImpulseResponse {
        /// Estimates the reverberation time at `frequency_hz` from the taps'
        /// energy decay: a least-squares fit of the Schroeder backward
        /// integral (in dB) against arrival time, extrapolated to −60 dB.
        ///
        /// Only surface losses and spreading enter the estimate (no air
        /// absorption), matching what the Sabine and Eyring formulas
        /// predict.  Returns `None` when there are too few reflected taps to
        /// fit a slope, or the fit does not decay.
        fn energy_decay_rt60_s(
            &self,
            frequency_hz: f64,
            speed_of_sound_m_per_s: f64,
        ) -> Option<f64> {
            let reflected = self.reflected();
            if reflected.len() < 8 {
                return None;
            }
            let energies: Vec<(f64, f64)> = reflected
                .iter()
                .map(|tap| {
                    let g = ivc_acoustics::propagation::interpolate_gain_curve(
                        &tap.gain_curve,
                        frequency_hz,
                    ) / tap.distance_m.max(1.0);
                    (tap.distance_m / speed_of_sound_m_per_s, g * g)
                })
                .collect();
            let total: f64 = energies.iter().map(|(_, e)| e).sum();
            if total <= 0.0 {
                return None;
            }
            // Schroeder backward integration over the discrete taps.  The fit
            // stops at −30 dB (a T30-style estimate): below that the truncated
            // image order makes the integral decay artificially fast.
            let mut remaining = total;
            let mut points = Vec::with_capacity(energies.len());
            for &(t, e) in &energies {
                let level_db = 10.0 * (remaining / total).max(1e-30).log10();
                if level_db >= -30.0 {
                    points.push((t, level_db));
                }
                remaining -= e;
            }
            if points.len() < 4 {
                return None;
            }
            // Least-squares slope of decay (dB) vs time (s).
            let n = points.len() as f64;
            let sum_t: f64 = points.iter().map(|(t, _)| t).sum();
            let sum_y: f64 = points.iter().map(|(_, y)| y).sum();
            let sum_tt: f64 = points.iter().map(|(t, _)| t * t).sum();
            let sum_ty: f64 = points.iter().map(|(t, y)| t * y).sum();
            let denom = n * sum_tt - sum_t * sum_t;
            if denom <= 0.0 {
                return None;
            }
            let slope = (n * sum_ty - sum_t * sum_y) / denom;
            if slope >= -1e-9 {
                return None;
            }
            Some(-60.0 / slope)
        }
    }

    fn positions() -> (Point3, Point3) {
        (Point3::new(1.0, 1.5, 1.2), Point3::new(5.0, 2.5, 1.4))
    }

    #[test]
    fn anechoic_room_reduces_to_the_direct_path() {
        let room = Shoebox::uniform(8.0, 4.0, 2.7, SurfaceMaterial::anechoic()).unwrap();
        let (s, r) = positions();
        let rir = RoomImpulseResponse::image_source(&room, &s, &r, 3, &[], 0.5).unwrap();
        assert_eq!(rir.num_taps(), 1);
        assert_eq!(rir.direct().order, 0);
        assert!(rir.direct().gain_curve.is_empty());
        assert!(rir.reflected().is_empty());
        assert_eq!(rir.aperture_m, 0.5);
    }

    #[test]
    fn reflective_room_keeps_every_image() {
        let room = Shoebox::uniform(8.0, 4.0, 2.7, SurfaceMaterial::painted_concrete()).unwrap();
        let (s, r) = positions();
        let rir = RoomImpulseResponse::image_source(&room, &s, &r, 2, &[], 0.0).unwrap();
        assert_eq!(rir.num_taps(), 25);
        // Higher-order taps carry smaller surface gains at every anchor.
        let first_bounce = &rir.reflected()[0];
        assert_eq!(first_bounce.gain_curve.len(), NUM_ANCHORS);
        for &(_, g) in &first_bounce.gain_curve {
            assert!(g > 0.9, "one concrete bounce keeps most amplitude: {g}");
        }
    }

    #[test]
    fn mixed_materials_attenuate_reflections_differently() {
        // Carpet floor vs concrete ceiling: the floor bounce must be much
        // weaker than the ceiling bounce at high frequency.
        let room = Shoebox::new(
            8.0,
            4.0,
            2.7,
            [
                SurfaceMaterial::painted_concrete(),
                SurfaceMaterial::painted_concrete(),
                SurfaceMaterial::painted_concrete(),
                SurfaceMaterial::painted_concrete(),
                SurfaceMaterial::carpet_on_concrete(),
                SurfaceMaterial::painted_concrete(),
            ],
        )
        .unwrap();
        let (s, r) = positions();
        let rir = RoomImpulseResponse::image_source(&room, &s, &r, 1, &[], 0.0).unwrap();
        let gain_at = |tap: &RirTap, f: f64| {
            ivc_acoustics::propagation::interpolate_gain_curve(&tap.gain_curve, f)
        };
        let floor = rir.reflected().iter().find(|t| {
            // The floor image is below: shortest vertical bounce from two
            // points at ~1.2-1.4 m height in a 2.7 m room.
            gain_at(t, 32_000.0) < 0.7
        });
        assert!(
            floor.is_some(),
            "carpet bounce should be heavily attenuated"
        );
    }

    #[test]
    fn occlusion_attenuates_every_tap_of_the_path() {
        let room = Shoebox::uniform(8.0, 4.0, 2.7, SurfaceMaterial::painted_concrete()).unwrap();
        let (s, r) = positions();
        let wall = Occluder::new(
            (3.0, 0.0),
            (3.0, 4.0),
            PartitionMaterial::drywall_partition(),
        );
        let clear = RoomImpulseResponse::image_source(&room, &s, &r, 1, &[], 0.0).unwrap();
        let blocked = RoomImpulseResponse::image_source(&room, &s, &r, 1, &[wall], 0.0).unwrap();
        assert!(!blocked.direct().gain_curve.is_empty());
        for (c, b) in clear.taps.iter().zip(blocked.taps.iter()) {
            let f = 1_000.0;
            let gc = ivc_acoustics::propagation::interpolate_gain_curve(&c.gain_curve, f);
            let gb = ivc_acoustics::propagation::interpolate_gain_curve(&b.gain_curve, f);
            assert!(gb < gc * 0.05, "tap at {} m: {gb} vs {gc}", c.distance_m);
        }
    }

    #[test]
    fn energy_decay_matches_the_eyring_estimate() {
        // A uniformly half-absorbent room decays ~3 dB per bounce, so the
        // order-6 image set covers the whole T30 fit range; compare at
        // 1 kHz where air absorption (which the tap estimate deliberately
        // excludes) is negligible.
        let half = SurfaceMaterial::new("half absorber", [0.5; NUM_ANCHORS]);
        let room = Shoebox::uniform(6.0, 5.0, 3.0, half).unwrap();
        let (s, r) = (Point3::new(1.3, 1.9, 1.2), Point3::new(4.1, 3.2, 1.5));
        let rir = RoomImpulseResponse::image_source(&room, &s, &r, 6, &[], 0.0).unwrap();
        let measured = rir
            .energy_decay_rt60_s(1_000.0, 343.0)
            .expect("fit succeeds");
        let eyring = room.eyring_rt60_s(1_000.0);
        assert!(
            measured > eyring * 0.5 && measured < eyring * 2.0,
            "decay-fit T60 {measured} vs Eyring {eyring}"
        );
    }
}
