//! Multipath propagation of a [`Signal`] through a room impulse response.
//!
//! The direct path goes through the exact free-field machinery
//! ([`ivc_acoustics::propagation::propagate_spectrum_with_gain_curve`]):
//! per-bin spreading (aperture-aware, so a collimated ultrasonic beam
//! keeps its Rayleigh-distance reach), per-bin atmospheric absorption,
//! whole-sample delay.  With no reflections and no occlusion this *is* the free-field
//! result, bit for bit.
//!
//! The reflected taps form one linear, time-invariant filter, applied as
//! its frequency response.  The source is read as its half spectrum at
//! `N = next_power_of_two(len + max_delay)` points, so no tap's delay
//! wraps around, and every bin `k` is multiplied by
//!
//! ```text
//! H(k) = Σ_taps g_tap(band(k)) · e^(−j2π·k·d_tap/N)
//! ```
//!
//! where `d_tap` is the tap's whole-sample delay (the direct path's
//! rounding) and `g_tap(band)` its gain at the anchor frequency of the
//! bin's band: surface losses × occlusion × air absorption over the path
//! × spherical spreading.  Band `i` holds the bins closest in
//! log-frequency to anchor `i`.  One inverse transform then yields every
//! reflection at once, added onto the direct path.  The work is one
//! inverse transform plus taps × N/2 complex multiply-adds, where taps
//! that land on the same sample count once (a 62-tap conference-room
//! response has 36–52 distinct delays).  Each tap's phase steps from bin
//! to bin by one complex multiplication and is re-anchored to an exact
//! `cis` every `REANCHOR_BINS` bins, so rounding cannot accumulate across
//! a long transform.
//!
//! The response is applied whole, including the ringing that a band edge's
//! step in gain spreads past the end of the source.  An earlier banded
//! time-domain form cut each band's waveform off at the source's length
//! before convolving it with the taps; room archives moved (bystander
//! levels by under 1 dB) when that truncation went away.
//!
//! Reflected paths are treated as point sources (no collimation): a beam
//! that bounced off a wall has left the array's axis, so the `1/r` law
//! over the full path length is the right spreading model.
//!
//! Both halves read the source only as [`SourceSpectrum`]s: the direct
//! path at `next_power_of_two(len)` points, the reflections at
//! [`reflections_transform_len`] points ([`propagate_spectra_in_room`]).
//! A caller that propagates one source to many listeners transforms it
//! once per length; [`propagate_in_room`] transforms the signal it is
//! given, and both give the same bits.

use crate::material::{ANCHOR_FREQUENCIES_HZ, NUM_ANCHORS};
use crate::rir::RoomImpulseResponse;
use ivc_acoustics::absorption::AirAbsorption;
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::propagation::{
    interpolate_gain_curve, propagate_spectrum_with_gain_curve, propagation_delay_samples,
    SourceSpectrum,
};
use ivc_dsp::complex::Complex;
use ivc_dsp::fft::{bin_frequency, irfft_into, next_power_of_two};
use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};
use std::f64::consts::PI;

/// Bins between exact re-evaluations of each tap's phase; in between, the
/// phase advances by complex multiplication, whose rounding drifts by
/// about 1e-15 per step, so under 1e-11 over this many steps.
const REANCHOR_BINS: usize = 4096;

/// Upper edge of band `i`: the log-frequency midpoint between anchor `i`
/// and the next one (unbounded for the last band).  Band `i` covers
/// `[upper edge of band i - 1, upper edge of band i)`, from 0 Hz up.
fn band_upper_edge_hz(i: usize) -> f64 {
    match ANCHOR_FREQUENCIES_HZ.get(i + 1) {
        Some(next) => (ANCHOR_FREQUENCIES_HZ[i] * next).sqrt(),
        None => f64::INFINITY,
    }
}

/// Propagates `source_at_1m` (a pressure waveform referenced to 1 m from
/// the source) through every path of `rir`, returning the pressure at the
/// receiver.
///
/// The output is long enough for the latest reflection's tail; for a
/// direct-path-only response it is exactly the free-field result.  A thin
/// wrapper: the source's transforms at the lengths the two halves read,
/// then [`propagate_spectra_in_room`].
pub fn propagate_in_room(
    source_at_1m: &Signal,
    rir: &RoomImpulseResponse,
    env: &AirEnvironment,
) -> Result<Signal> {
    let (len, fs) = (source_at_1m.len(), source_at_1m.sample_rate_hz());
    let direct = SourceSpectrum::new(source_at_1m, next_power_of_two(len))?;
    let reflections = reflections_transform_len(rir, len, fs, env)
        .map(|n| SourceSpectrum::new(source_at_1m, n))
        .transpose()?;
    propagate_spectra_in_room(&direct, reflections.as_ref(), rir, env)
}

/// [`propagate_in_room`]'s body, reading the source as its half spectra:
/// `direct` at `next_power_of_two(len)` points for the direct path
/// ([`direct_in_room`]) and `reflections` at
/// [`reflections_transform_len`] points for the taps
/// ([`add_reflections`]; `None` only when `rir` has no reflections).
pub fn propagate_spectra_in_room(
    direct: &SourceSpectrum,
    reflections: Option<&SourceSpectrum>,
    rir: &RoomImpulseResponse,
    env: &AirEnvironment,
) -> Result<Signal> {
    add_reflections(direct_in_room(direct, rir, env)?, reflections, rir, env)
}

/// The direct path of `rir` alone, from the source's half spectrum at
/// `next_power_of_two(len)` points: the free-field machinery with the
/// path's gain curve.
pub fn direct_in_room(
    direct: &SourceSpectrum,
    rir: &RoomImpulseResponse,
    env: &AirEnvironment,
) -> Result<Signal> {
    let path = rir.direct();
    propagate_spectrum_with_gain_curve(
        direct,
        path.distance_m,
        rir.aperture_m,
        &path.gain_curve,
        env,
    )
}

/// The distinct whole-sample delays of `rir`'s reflected taps at `fs`,
/// ascending.  Delay rounding is owned by the acoustics layer, so
/// reflected taps share the direct path's exact time axis.
fn reflection_delays(rir: &RoomImpulseResponse, fs: f64, env: &AirEnvironment) -> Vec<usize> {
    let mut delays: Vec<usize> = rir
        .reflected()
        .iter()
        .map(|tap| propagation_delay_samples(tap.distance_m, fs, env))
        .collect();
    delays.sort_unstable();
    delays.dedup();
    delays
}

/// The transform length the reflections of `rir` read a `source_len`-sample
/// source at `fs` with: `next_power_of_two(source_len + max_delay)`, so no
/// tap's delay wraps around; `None` when `rir` has no reflections.
pub fn reflections_transform_len(
    rir: &RoomImpulseResponse,
    source_len: usize,
    fs: f64,
    env: &AirEnvironment,
) -> Option<usize> {
    let max_delay = *reflection_delays(rir, fs, env).last()?;
    Some(next_power_of_two(source_len + max_delay))
}

/// Adds every reflection of `rir` onto `direct_signal` (the output of
/// [`direct_in_room`]), from the source's half spectrum at
/// [`reflections_transform_len`] points: one response multiply and one
/// inverse transform.  With no reflections `direct_signal` is returned as
/// it is and `reflections` is not read.
pub fn add_reflections(
    direct_signal: Signal,
    reflections: Option<&SourceSpectrum>,
    rir: &RoomImpulseResponse,
    env: &AirEnvironment,
) -> Result<Signal> {
    let reflected = rir.reflected();
    if reflected.is_empty() {
        return Ok(direct_signal);
    }
    let source = reflections.ok_or_else(|| {
        DspError::invalid(
            "reflections",
            "the room's reflections need the source's spectrum",
        )
    })?;
    let (len, fs) = (source.source_len(), source.sample_rate_hz());
    if direct_signal.sample_rate_hz() != fs {
        return Err(DspError::invalid(
            "reflections",
            "the spectrum's rate differs from the direct path's",
        ));
    }
    let delays = reflection_delays(rir, fs, env);
    let max_delay = *delays.last().expect("reflected is non-empty");
    let out_len = len + max_delay;
    let n = next_power_of_two(out_len);
    if source.transform_len() != n {
        return Err(DspError::invalid(
            "reflections",
            format!(
                "the reflections read the {len}-sample source at {n} points, not {}",
                source.transform_len()
            ),
        ));
    }
    let mut out = direct_signal.into_samples();
    out.resize(out.len().max(out_len), 0.0);

    // Per-delay gain at each band's anchor, band-major: what the walls
    // did, what the air does over the path, and spherical spreading
    // (clamped at the 1 m reference, matching the free-field convention).
    // A shoebox's mirror-image paths often arrive on the same sample; they
    // share one phase, so their gains are summed here.
    let air_absorption = AirAbsorption::new(env);
    let mut gains = vec![0.0; NUM_ANCHORS * delays.len()];
    for tap in reflected {
        let slot = delays
            .binary_search(&propagation_delay_samples(tap.distance_m, fs, env))
            .expect("every tap's delay is listed");
        for (band, &anchor_hz) in ANCHOR_FREQUENCIES_HZ.iter().enumerate() {
            let surface = interpolate_gain_curve(&tap.gain_curve, anchor_hz);
            let air = air_absorption.gain(anchor_hz, tap.distance_m)?;
            let spreading = (1.0 / tap.distance_m).min(1.0);
            gains[band * delays.len() + slot] += surface * air * spreading;
        }
    }

    let mut spectrum = source.bins().to_vec();
    apply_reflections(&mut spectrum, n, fs, &delays, &gains);
    let mut reflections = Vec::new();
    irfft_into(&mut spectrum, &mut reflections)?;
    for (o, &x) in out.iter_mut().zip(&reflections[..out_len]) {
        *o += x;
    }
    Signal::new(out, fs)
}

/// Multiplies the half spectrum (bins `0..=n/2` of an `n`-point transform
/// at `fs`) in place by the taps' frequency response `H(k)`: the taps
/// that arrive `delays[t]` samples late scale band `b` by
/// `gains[b * delays.len() + t]` together.
fn apply_reflections(spectrum: &mut [Complex], n: usize, fs: f64, delays: &[usize], gains: &[f64]) {
    let taps = delays.len();
    let radians_per_sample_bin = -2.0 * PI / n as f64;
    let steps: Vec<Complex> = delays
        .iter()
        .map(|&d| Complex::cis(d as f64 * radians_per_sample_bin))
        .collect();
    let mut phases = vec![Complex::ZERO; taps];
    let mut band = 0;
    let mut band_end_hz = band_upper_edge_hz(band);
    for (k, value) in spectrum.iter_mut().enumerate() {
        if k % REANCHOR_BINS == 0 {
            for (phase, &d) in phases.iter_mut().zip(delays) {
                *phase = Complex::cis(((d * k) % n) as f64 * radians_per_sample_bin);
            }
        }
        let f = bin_frequency(k, n, fs);
        while f >= band_end_hz {
            band += 1;
            band_end_hz = band_upper_edge_hz(band);
        }
        let band_gains = &gains[band * taps..(band + 1) * taps];
        let mut response = Complex::ZERO;
        for ((phase, step), &gain) in phases.iter_mut().zip(&steps).zip(band_gains) {
            response += phase.scale(gain);
            *phase *= *step;
        }
        *value *= response;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point3;
    use crate::material::SurfaceMaterial;
    use crate::shoebox::Shoebox;
    use ivc_acoustics::propagation::{propagate_from_aperture, propagate_with_gain_curve};
    use ivc_acoustics::spl::waveform_spl_db;
    use ivc_dsp::fft::rfft_into;

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
    fn output_lasts_until_the_latest_reflection_ends() {
        // A pure tone occupies one band; the other eleven carry nothing.
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

    #[test]
    fn spectra_are_read_at_the_lengths_each_half_needs() {
        let env = AirEnvironment::default();
        let signal = tone(1_000.0, 48_000.0);
        let rir = rir_between(SurfaceMaterial::painted_concrete(), 1, 0.0);
        let (len, fs) = (signal.len(), signal.sample_rate_hz());
        let direct = SourceSpectrum::new(&signal, next_power_of_two(len)).unwrap();
        let n = reflections_transform_len(&rir, len, fs, &env).unwrap();
        let reflections = SourceSpectrum::new(&signal, n).unwrap();
        assert_eq!(
            propagate_spectra_in_room(&direct, Some(&reflections), &rir, &env).unwrap(),
            propagate_in_room(&signal, &rir, &env).unwrap()
        );
        // A room with reflections needs their spectrum, at their length;
        // the direct path reads its own length only.
        let longer = SourceSpectrum::new(&signal, 2 * n).unwrap();
        assert!(propagate_spectra_in_room(&direct, None, &rir, &env).is_err());
        assert!(propagate_spectra_in_room(&direct, Some(&longer), &rir, &env).is_err());
        assert!(propagate_spectra_in_room(&longer, Some(&reflections), &rir, &env).is_err());
        // Without reflections the second spectrum is not read.
        let dead = rir_between(SurfaceMaterial::anechoic(), 1, 0.0);
        assert_eq!(reflections_transform_len(&dead, len, fs, &env), None);
        assert!(propagate_spectra_in_room(&direct, None, &dead, &env).is_ok());
        // A transform shorter than the source is refused.
        assert!(SourceSpectrum::new(&signal, next_power_of_two(len) / 2).is_err());
    }

    /// `e^(−j2π·(d·k mod n)/n)`, evaluated directly.
    fn exact_phase(d: usize, k: usize, n: usize) -> Complex {
        Complex::cis(-2.0 * std::f64::consts::PI * ((d * k) % n) as f64 / n as f64)
    }

    #[test]
    fn phase_recurrence_stays_on_the_exact_response() {
        // Unit gains in every band turn the response into a plain sum of
        // tap phases; across a transform as long as a room cell's, the
        // stepped phases must stay on the directly evaluated ones.
        let n = 1 << 18;
        let delays = [1, 777, 12_345, 99_999, 131_071, 200_000];
        let gains = vec![1.0; NUM_ANCHORS * delays.len()];
        let mut response = vec![Complex::ONE; n / 2 + 1];
        apply_reflections(&mut response, n, 192_000.0, &delays, &gains);
        let mut worst = (0.0f64, 0);
        for (k, h) in response.iter().enumerate() {
            let exact = delays
                .iter()
                .fold(Complex::ZERO, |acc, &d| acc + exact_phase(d, k, n));
            let error = (*h - exact).abs();
            if error > worst.0 {
                worst = (error, k);
            }
        }
        // Re-anchored every REANCHOR_BINS bins the error stays near 4e-12;
        // stepped across the whole transform it drifts well past 1e-11.
        assert!(worst.0 < 1e-11, "bin {}: error {}", worst.1, worst.0);
    }

    #[test]
    fn reflections_match_the_directly_evaluated_frequency_response() {
        // Oracle: the same response built from an exact `cis` per (tap,
        // bin) and each bin's band taken as its nearest anchor in
        // log-frequency, for a source with energy in several bands.
        let env = AirEnvironment::default();
        let fs = 192_000.0;
        let mut samples = vec![0.0; 9_600];
        for (i, x) in samples.iter_mut().enumerate() {
            let t = i as f64 / fs;
            for (freq, amp) in [
                (300.0, 1.0),
                (1_500.0, 0.7),
                (9_000.0, 0.5),
                (30_000.0, 0.8),
            ] {
                *x += amp * (2.0 * std::f64::consts::PI * freq * t).sin();
            }
        }
        let source = Signal::new(samples, fs).unwrap();
        let rir = crate::presets::RoomPreset::Office
            .target_rir(3.0, 0.0)
            .unwrap();
        assert!(rir.reflected().len() > 20);
        let out = propagate_in_room(&source, &rir, &env).unwrap();

        let direct = rir.direct();
        let mut expected = propagate_with_gain_curve(
            &source,
            direct.distance_m,
            rir.aperture_m,
            &direct.gain_curve,
            &env,
        )
        .unwrap()
        .into_samples();
        let delays: Vec<usize> = rir
            .reflected()
            .iter()
            .map(|tap| propagation_delay_samples(tap.distance_m, fs, &env))
            .collect();
        let out_len = source.len() + delays.iter().max().unwrap();
        expected.resize(out_len, 0.0);
        let n = next_power_of_two(out_len);
        assert!(n / 2 > 2 * REANCHOR_BINS, "the transform spans re-anchors");
        let mut spectrum = Vec::new();
        rfft_into(source.samples(), n, &mut spectrum).unwrap();
        let nearest_anchor = |f: f64| {
            let distance = |anchor: f64| (f.max(1e-9) / anchor).ln().abs();
            (0..NUM_ANCHORS)
                .min_by(|&a, &b| {
                    distance(ANCHOR_FREQUENCIES_HZ[a])
                        .total_cmp(&distance(ANCHOR_FREQUENCIES_HZ[b]))
                })
                .unwrap()
        };
        for (k, value) in spectrum.iter_mut().enumerate() {
            let anchor_hz = ANCHOR_FREQUENCIES_HZ[nearest_anchor(bin_frequency(k, n, fs))];
            let mut response = Complex::ZERO;
            for (tap, &d) in rir.reflected().iter().zip(&delays) {
                let gain = interpolate_gain_curve(&tap.gain_curve, anchor_hz)
                    * ivc_acoustics::absorption::absorption_gain(anchor_hz, tap.distance_m, &env)
                        .unwrap()
                    * (1.0 / tap.distance_m).min(1.0);
                response += exact_phase(d, k, n).scale(gain);
            }
            *value *= response;
        }
        let mut reflections = Vec::new();
        irfft_into(&mut spectrum, &mut reflections).unwrap();
        for (e, &x) in expected.iter_mut().zip(&reflections) {
            *e += x;
        }

        assert_eq!(out.len(), expected.len());
        let peak = expected.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let max_error = out
            .samples()
            .iter()
            .zip(&expected)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            max_error <= 1e-9 * peak,
            "max error {max_error} vs peak {peak}"
        );
    }
}
