//! Multipath propagation of a [`Signal`] through a room impulse response.
//!
//! The direct path goes through the exact free-field machinery
//! ([`ivc_acoustics::propagation::propagate_with_gain_curve`]): per-bin
//! spreading (aperture-aware, so a collimated ultrasonic beam keeps its
//! Rayleigh-distance reach), per-bin atmospheric absorption, whole-sample
//! delay.  With no reflections and no occlusion this *is* the free-field
//! result, bit for bit.
//!
//! Reflected taps are applied with a banded sparse convolution: the source
//! spectrum is split into the bands around the material anchor
//! frequencies, each band's waveform is convolved against the taps'
//! delay/gain lists (gains evaluated at the band's anchor: surface losses
//! × occlusion × air absorption over the path × spherical spreading), and
//! the bands are summed.  A band is skipped only when its power is below
//! `BAND_POWER_SKIP_FRACTION` (1e-24) of the total, a floor far beneath
//! the spectral spread of any finite recording.  An AM-ultrasound drive
//! is *not* confined to a few bands: its sidebands, the emitter's
//! non-linear products and the spread of its edges keep every band above
//! the floor (all 12 were active in each of the 40 room propagations of a
//! `sweep` run).  So the work is one forward FFT plus, per band, one
//! masked inverse and one sparse convolution.
//!
//! Reflected paths are treated as point sources (no collimation): a beam
//! that bounced off a wall has left the array's axis, so the `1/r` law
//! over the full path length is the right spreading model.

use crate::error::Result;
use crate::material::ANCHOR_FREQUENCIES_HZ;
use crate::rir::RoomImpulseResponse;
use ivc_acoustics::absorption::absorption_gain;
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::propagation::{
    interpolate_gain_curve, propagate_with_gain_curve, propagation_delay_samples,
};
use ivc_dsp::complex::Complex;
use ivc_dsp::fft::{bin_frequency, irfft_into, next_power_of_two, rfft_into};
use ivc_dsp::signal::Signal;
use ivc_dsp::sparse::{convolve_sparse_into, SparseTap, SparseTaps};

/// Relative band-power threshold below which a band's reflections are
/// skipped (the band carries no meaningful signal energy).
const BAND_POWER_SKIP_FRACTION: f64 = 1e-24;

/// Band edges around the anchor frequencies: band `i` covers the
/// frequencies closest (in log-frequency) to anchor `i`.
fn band_bounds(i: usize) -> (f64, f64) {
    let anchors = &ANCHOR_FREQUENCIES_HZ;
    let lo = if i == 0 {
        0.0
    } else {
        (anchors[i - 1] * anchors[i]).sqrt()
    };
    let hi = if i + 1 == anchors.len() {
        f64::INFINITY
    } else {
        (anchors[i] * anchors[i + 1]).sqrt()
    };
    (lo, hi)
}

/// Propagates `source_at_1m` (a pressure waveform referenced to 1 m from
/// the source) through every path of `rir`, returning the pressure at the
/// receiver.
///
/// The output is long enough for the latest reflection's tail; for a
/// direct-path-only response it is exactly the free-field result.
pub fn propagate_in_room(
    source_at_1m: &Signal,
    rir: &RoomImpulseResponse,
    env: &AirEnvironment,
) -> Result<Signal> {
    let direct = rir.direct();
    let direct_signal = propagate_with_gain_curve(
        source_at_1m,
        direct.distance_m,
        rir.aperture_m,
        &direct.gain_curve,
        env,
    )?;
    let reflected = rir.reflected();
    if reflected.is_empty() {
        return Ok(direct_signal);
    }

    let fs = source_at_1m.sample_rate_hz();
    let len = source_at_1m.len();
    // Delay rounding is owned by the acoustics layer, so reflected taps
    // share the direct path's exact time axis.
    let delay_of = |distance_m: f64| propagation_delay_samples(distance_m, fs, env);
    let max_delay = reflected
        .iter()
        .map(|t| delay_of(t.distance_m))
        .max()
        .expect("reflected is non-empty");
    let mut out = direct_signal.into_samples();
    out.resize(out.len().max(len + max_delay), 0.0);

    // One forward real FFT; each active band re-uses it via a masked
    // inverse.  The half spectrum holds bins 0..=n/2; every bin but DC and
    // Nyquist stands for itself and its mirror image, so counts twice in
    // the power sums.
    let n = next_power_of_two(len);
    let mut spectrum = Vec::new();
    rfft_into(source_at_1m.samples(), n, &mut spectrum)?;
    let bin_power = |k: usize, v: &Complex| {
        let mirrored = if k == 0 || 2 * k == n { 1.0 } else { 2.0 };
        mirrored * (v.re * v.re + v.im * v.im)
    };
    let total_power: f64 = spectrum
        .iter()
        .enumerate()
        .map(|(k, v)| bin_power(k, v))
        .sum();

    let mut buffer: Vec<Complex> = Vec::with_capacity(spectrum.len());
    let mut band_time: Vec<f64> = Vec::with_capacity(n);
    let mut contribution: Vec<f64> = Vec::new();

    for (band, &anchor_hz) in ANCHOR_FREQUENCIES_HZ.iter().enumerate() {
        let (lo, hi) = band_bounds(band);
        let in_band = |k: usize| {
            let f = bin_frequency(k, n, fs);
            f >= lo && f < hi
        };
        let band_power: f64 = spectrum
            .iter()
            .enumerate()
            .filter(|&(k, _)| in_band(k))
            .map(|(k, v)| bin_power(k, v))
            .sum();
        if band_power <= total_power * BAND_POWER_SKIP_FRACTION {
            continue;
        }

        // Per-tap gain at this band's anchor: what the walls did, what the
        // air does over the path, and spherical spreading (clamped at the
        // 1 m reference, matching the free-field convention).
        let mut taps = Vec::with_capacity(reflected.len());
        for tap in reflected {
            let surface = interpolate_gain_curve(&tap.gain_curve, anchor_hz);
            let air = absorption_gain(anchor_hz, tap.distance_m, env)?;
            let spreading = (1.0 / tap.distance_m).min(1.0);
            taps.push(SparseTap {
                delay_samples: delay_of(tap.distance_m),
                gain: surface * air * spreading,
            });
        }
        let taps = SparseTaps::new(taps)?;

        // The masked inverse reuses one half-spectrum workspace and one
        // convolution output buffer across bands: memcpy + in-place ops
        // instead of a fresh allocation per band.
        buffer.clear();
        buffer.extend_from_slice(&spectrum);
        for (k, value) in buffer.iter_mut().enumerate() {
            if !in_band(k) {
                *value = Complex::ZERO;
            }
        }
        irfft_into(&mut buffer, &mut band_time)?;
        band_time.truncate(len);
        let band_signal = Signal::new(std::mem::take(&mut band_time), fs)?;
        convolve_sparse_into(&band_signal, &taps, &mut contribution)?;
        band_time = band_signal.into_samples();
        for (o, &x) in out.iter_mut().zip(contribution.iter()) {
            *o += x;
        }
    }
    Ok(Signal::new(out, fs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point3;
    use crate::material::SurfaceMaterial;
    use crate::shoebox::Shoebox;
    use ivc_acoustics::propagation::propagate_from_aperture;
    use ivc_acoustics::spl::waveform_spl_db;

    fn tone(freq: f64, fs: f64) -> Signal {
        Signal::tone(freq, 0.5, 0.1, fs).unwrap()
    }

    fn rir_between(
        material: SurfaceMaterial,
        order: usize,
        aperture_m: f64,
    ) -> RoomImpulseResponse {
        let room = Shoebox::uniform(8.0, 4.0, 2.7, material).unwrap();
        let s = Point3::new(1.0, 2.0, 1.2);
        let r = Point3::new(5.0, 2.0, 1.2);
        RoomImpulseResponse::image_source(&room, &s, &r, order, &[], aperture_m).unwrap()
    }

    #[test]
    fn anechoic_room_is_bit_identical_to_free_field() {
        let env = AirEnvironment::default();
        let signal = tone(40_000.0, 192_000.0);
        let rir = rir_between(SurfaceMaterial::anechoic(), 3, 0.5);
        let in_room = propagate_in_room(&signal, &rir, &env).unwrap();
        let free = propagate_from_aperture(&signal, rir.direct().distance_m, 0.5, &env).unwrap();
        assert_eq!(in_room.samples(), free.samples());
    }

    #[test]
    fn reflections_add_energy_and_a_tail() {
        let env = AirEnvironment::default();
        let signal = tone(1_000.0, 48_000.0);
        let dead = rir_between(SurfaceMaterial::anechoic(), 2, 0.0);
        let live = rir_between(SurfaceMaterial::painted_concrete(), 2, 0.0);
        let direct_only = propagate_in_room(&signal, &dead, &env).unwrap();
        let reverberant = propagate_in_room(&signal, &live, &env).unwrap();
        // The reverberant output lasts longer (the latest image's tail)…
        assert!(reverberant.len() > direct_only.len());
        // …and carries more energy (25 in-phase-ish images of a concrete
        // box add several dB on top of the direct path).
        let direct_spl = waveform_spl_db(direct_only.samples());
        let room_spl = waveform_spl_db(&reverberant.samples()[..direct_only.len()]);
        assert!(
            room_spl > direct_spl + 1.0,
            "reverberant {room_spl} dB vs direct {direct_spl} dB"
        );
    }

    #[test]
    fn band_gains_respect_the_materials() {
        // Carpet absorbs 32 kHz reflections far harder than 1 kHz ones:
        // the energy the room adds on top of the direct path must be much
        // larger for the audible tone than for the ultrasonic one.
        let env = AirEnvironment::default();
        let fs = 192_000.0;
        let carpet = rir_between(SurfaceMaterial::carpet_on_concrete(), 2, 0.0);
        let dead = rir_between(SurfaceMaterial::anechoic(), 2, 0.0);
        let energy = |sig: &Signal| -> f64 { sig.samples().iter().map(|x| x * x).sum() };
        let added_for = |freq: f64| {
            let signal = tone(freq, fs);
            let in_room = energy(&propagate_in_room(&signal, &carpet, &env).unwrap());
            let direct = energy(&propagate_in_room(&signal, &dead, &env).unwrap());
            in_room / direct - 1.0
        };
        let audible = added_for(1_000.0);
        let ultrasonic = added_for(32_000.0);
        assert!(audible > 0.05, "audible reflections add energy: {audible}");
        assert!(
            audible > 3.0 * ultrasonic.max(0.0),
            "added energy: audible {audible} vs ultrasonic {ultrasonic}"
        );
    }

    #[test]
    fn silent_bands_are_skipped_without_changing_the_result() {
        // A pure tone occupies one band; the other eleven are skipped.
        // The result must still contain the reflections of that band.
        let env = AirEnvironment::default();
        let signal = tone(1_000.0, 48_000.0);
        let rir = rir_between(SurfaceMaterial::painted_concrete(), 1, 0.0);
        let out = propagate_in_room(&signal, &rir, &env).unwrap();
        let expected_len = signal.len()
            + (rir.reflected().last().unwrap().distance_m / env.speed_of_sound_m_per_s() * 48_000.0)
                .round() as usize;
        assert_eq!(out.len(), expected_len);
    }
}
