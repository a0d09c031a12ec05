//! The image-source reflection engine (Allen & Berkley, JASA 1979).
//!
//! A rectangular room's specular reflections are exactly the direct paths
//! from an infinite lattice of mirror images of the source.  Mirroring the
//! source across each wall (and mirror images of mirror images, and so on)
//! produces, for every axis, image coordinates
//!
//! ```text
//! x_img = (1 − 2q)·x_s + 2·m·L      q ∈ {0, 1},  m ∈ ℤ
//! ```
//!
//! and the image indexed by `(q, m)` reaches the receiver after
//! `|m − q|` bounces off the wall at `x = 0` and `|m|` bounces off the
//! wall at `x = L` (likewise per axis for `y` and `z`).  The engine
//! enumerates every image whose **total** bounce count is at most
//! `max_order` and records, per image, the path length and the per-surface
//! bounce counts — the raw material from which an impulse-response tap's
//! delay and frequency-dependent gain are computed.
//!
//! Limits inherited from the model: reflections are specular (no
//! scattering), walls are rigid planes with angle-independent absorption,
//! and truncating at `max_order` discards the late tail — the early
//! reflections that smear a demodulated baseband are captured, a full
//! late-field reverb tail is not.

use crate::geometry::Point3;
use crate::shoebox::{Shoebox, NUM_SURFACES};
use ivc_dsp::{DspError, Result};

/// One propagation path (direct or reflected) from source to receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageTap {
    /// Total path length in metres.
    pub path_length_m: f64,
    /// Total number of wall bounces (0 for the direct path).
    pub order: usize,
    /// Bounce count per surface, in [`crate::shoebox::Surface`] order.
    pub surface_counts: [u32; NUM_SURFACES],
}

/// Per-axis image candidates: mirrored coordinate plus the bounce counts
/// against the low (`coord = 0`) and high (`coord = len`) walls.
fn axis_images(source: f64, length: f64, max_order: usize) -> Vec<(f64, u32, u32)> {
    let k = max_order as i64;
    let mut images = Vec::new();
    for q in 0..=1i64 {
        for m in -k..=k {
            let low = (m - q).unsigned_abs() as u32;
            let high = m.unsigned_abs() as u32;
            if (low + high) as usize > max_order {
                continue;
            }
            let coord = (1 - 2 * q) as f64 * source + 2.0 * m as f64 * length;
            images.push((coord, low, high));
        }
    }
    images
}

/// Enumerates every image-source path of total order ≤ `max_order` from
/// `source` to `receiver` inside `room`, sorted by path length (direct
/// path first).
pub fn image_taps(
    room: &Shoebox,
    source: &Point3,
    receiver: &Point3,
    max_order: usize,
) -> Result<Vec<ImageTap>> {
    if max_order > 12 {
        return Err(DspError::invalid(
            "max_order",
            format!("{max_order} exceeds the supported maximum of 12"),
        ));
    }
    for (name, point) in [("source", source), ("receiver", receiver)] {
        if !room.contains(point, 0.0) {
            return Err(DspError::invalid(
                "position",
                format!("{name} {point:?} is outside the room"),
            ));
        }
    }
    let xs = axis_images(source.x, room.length_m, max_order);
    let ys = axis_images(source.y, room.width_m, max_order);
    let zs = axis_images(source.z, room.height_m, max_order);
    let mut taps = Vec::new();
    for &(x, x_low, x_high) in &xs {
        let order_x = (x_low + x_high) as usize;
        for &(y, y_low, y_high) in &ys {
            let order_xy = order_x + (y_low + y_high) as usize;
            if order_xy > max_order {
                continue;
            }
            for &(z, z_low, z_high) in &zs {
                let order = order_xy + (z_low + z_high) as usize;
                if order > max_order {
                    continue;
                }
                let image = Point3::new(x, y, z);
                taps.push(ImageTap {
                    path_length_m: image.distance_to(receiver),
                    order,
                    surface_counts: [x_low, x_high, y_low, y_high, z_low, z_high],
                });
            }
        }
    }
    // Deterministic order: by arrival time, ties broken by the bounce
    // pattern so equal-length symmetric paths have a stable order.
    taps.sort_by(|a, b| {
        a.path_length_m
            .total_cmp(&b.path_length_m)
            .then_with(|| a.surface_counts.cmp(&b.surface_counts))
    });
    Ok(taps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::SurfaceMaterial;

    fn room() -> Shoebox {
        Shoebox::uniform(8.0, 4.0, 2.7, SurfaceMaterial::painted_concrete()).unwrap()
    }

    #[test]
    fn validation() {
        let room = room();
        let inside = Point3::new(1.0, 2.0, 1.2);
        let outside = Point3::new(9.0, 2.0, 1.2);
        assert!(image_taps(&room, &inside, &outside, 1).is_err());
        assert!(image_taps(&room, &outside, &inside, 1).is_err());
        assert!(image_taps(&room, &inside, &inside, 13).is_err());
    }

    #[test]
    fn tap_count_grows_with_reflection_order() {
        let room = room();
        let s = Point3::new(1.0, 1.5, 1.2);
        let r = Point3::new(5.0, 2.5, 1.4);
        // Closed-form counts for a shoebox: 1 direct; 6 first-order images
        // (one per wall); 18 second-order (2 per axis plus 12 two-axis
        // combinations).
        let counts: Vec<usize> = (0..=3)
            .map(|k| image_taps(&room, &s, &r, k).unwrap().len())
            .collect();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 7);
        assert_eq!(counts[2], 25);
        assert!(counts[3] > counts[2]);
        for (k, count) in counts.iter().enumerate() {
            let taps = image_taps(&room, &s, &r, k).unwrap();
            assert_eq!(taps.len(), *count);
            assert!(taps.iter().all(|t| t.order <= k));
        }
    }

    #[test]
    fn direct_path_is_first_and_exact() {
        let room = room();
        let s = Point3::new(1.0, 1.5, 1.2);
        let r = Point3::new(5.0, 2.5, 1.4);
        let taps = image_taps(&room, &s, &r, 2).unwrap();
        assert_eq!(taps[0].order, 0);
        assert!((taps[0].path_length_m - s.distance_to(&r)).abs() < 1e-12);
        assert_eq!(taps[0].surface_counts, [0; 6]);
        // Every reflected path is longer than the direct one.
        for tap in &taps[1..] {
            assert!(tap.path_length_m > taps[0].path_length_m);
        }
    }

    #[test]
    fn first_order_path_lengths_match_mirror_geometry() {
        let room = room();
        let s = Point3::new(2.0, 2.0, 1.0);
        let r = Point3::new(6.0, 2.0, 1.0);
        let taps = image_taps(&room, &s, &r, 1).unwrap();
        // Floor bounce: mirror the source to z = −1; path = |(4, 0, 2)|.
        let expected = (16.0f64 + 4.0).sqrt();
        let floor = taps
            .iter()
            .find(|t| t.surface_counts[4] == 1)
            .expect("floor image present");
        assert!((floor.path_length_m - expected).abs() < 1e-12);
        // Ceiling bounce: mirror to z = 2·2.7 − 1 = 4.4; path = |(4, 0, 3.4)|.
        let ceiling = taps
            .iter()
            .find(|t| t.surface_counts[5] == 1)
            .expect("ceiling image present");
        assert!((ceiling.path_length_m - (16.0f64 + 3.4 * 3.4).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn surface_counts_sum_to_the_order() {
        let room = room();
        let s = Point3::new(1.0, 1.5, 1.2);
        let r = Point3::new(5.0, 2.5, 1.4);
        for tap in image_taps(&room, &s, &r, 3).unwrap() {
            let sum: u32 = tap.surface_counts.iter().sum();
            assert_eq!(sum as usize, tap.order);
        }
    }
}
