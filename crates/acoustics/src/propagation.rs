//! Free-field propagation of a pressure signal from a source to a receiver.
//!
//! Three effects are modelled:
//!
//! 1. **Spherical spreading** — pressure falls as `1/r` relative to the
//!    source's 1-metre reference distance (−6 dB per doubling).
//! 2. **Atmospheric absorption** — frequency-dependent loss per metre (see
//!    [`crate::absorption`]), applied in the frequency domain so that an
//!    ultrasonic carrier and its audible leakage attenuate differently.
//! 3. **Propagation delay** — `r / c` seconds of delay, applied as whole
//!    samples (sub-sample interpolation is irrelevant at the distances and
//!    bandwidths involved).
//!
//! Reflections are intentionally ignored: the paper's experiments were run
//! at line-of-sight in an ordinary room, where the direct path dominates the
//! demodulated baseband; DESIGN.md records this as a simplification.

use crate::absorption::AirAbsorption;
use crate::environment::AirEnvironment;
use crate::error::{AcousticsError, Result};
use ivc_dsp::fft::{bin_frequency, irfft_into, next_power_of_two, rfft_into};
use ivc_dsp::signal::Signal;

/// Propagates `source_at_1m` (a pressure waveform in pascal referenced to
/// 1 m from the source) to a receiver `distance_m` away.
///
/// Returns the pressure waveform at the receiver, including spreading loss,
/// absorption and delay.
pub fn propagate(source_at_1m: &Signal, distance_m: f64, env: &AirEnvironment) -> Result<Signal> {
    propagate_from_aperture(source_at_1m, distance_m, 0.0, env)
}

/// The on-axis distance (m) out to which a source of physical size
/// `aperture_m` keeps its beam collimated at `frequency_hz` — the last
/// axial maximum of a piston radiator, `N = D²·f / (4c)`.
///
/// Beyond `N` the field spreads spherically; inside it the on-axis pressure
/// stays at the source level.  For a point source (`aperture_m = 0`) or for
/// audible frequencies this is well under the 1 m reference distance and the
/// familiar `1/r` law applies everywhere.  For the paper's speaker arrays at
/// 40 kHz (λ ≈ 8.6 mm) it reaches several metres — this collimation is what
/// makes the *long-range* attack long-range.
pub fn rayleigh_distance_m(aperture_m: f64, frequency_hz: f64, env: &AirEnvironment) -> f64 {
    (aperture_m * aperture_m * frequency_hz / (4.0 * env.speed_of_sound_m_per_s())).max(0.0)
}

/// Propagates `source_at_1m` to a receiver `distance_m` away from a source
/// of physical aperture `aperture_m` (0 for a point source).
///
/// Identical to [`propagate`] except that each frequency's spreading loss
/// starts at that frequency's [`rayleigh_distance_m`] instead of at the 1 m
/// reference, so a large ultrasonic array's collimated beam reaches much
/// farther than a point source of the same power, while its audible leakage
/// still decays as `1/r`.
pub fn propagate_from_aperture(
    source_at_1m: &Signal,
    distance_m: f64,
    aperture_m: f64,
    env: &AirEnvironment,
) -> Result<Signal> {
    propagate_with_gain_curve(source_at_1m, distance_m, aperture_m, &[], env)
}

/// Evaluates a sampled spectral gain curve at `frequency_hz` by linear
/// interpolation over log-frequency, clamping beyond the first/last anchor.
///
/// An empty curve is the identity (gain exactly `1.0`), which is what makes
/// [`propagate_from_aperture`] a bit-identical special case of
/// [`propagate_with_gain_curve`].  Anchors must be sorted by frequency.
pub fn interpolate_gain_curve(curve: &[(f64, f64)], frequency_hz: f64) -> f64 {
    if frequency_hz.is_nan() {
        // Propagate NaN (float convention) instead of panicking on the
        // anchor-index underflow a NaN comparison chain would cause.
        return f64::NAN;
    }
    match curve {
        [] => 1.0,
        [(_, g)] => *g,
        _ => {
            let first = curve[0];
            let last = curve[curve.len() - 1];
            if frequency_hz <= first.0 {
                return first.1;
            }
            if frequency_hz >= last.0 {
                return last.1;
            }
            let i = curve.partition_point(|(f, _)| *f <= frequency_hz);
            let (f0, g0) = curve[i - 1];
            let (f1, g1) = curve[i];
            if f1 <= f0 {
                return g0;
            }
            let t = (frequency_hz / f0).ln() / (f1 / f0).ln();
            g0 + (g1 - g0) * t
        }
    }
}

/// The room-aware propagation primitive: [`propagate_from_aperture`] with
/// an extra per-frequency amplitude gain (a sampled curve, see
/// [`interpolate_gain_curve`]) folded into every bin.
///
/// Room models use the curve for what air does not do: surface reflection
/// losses accumulated along an image-source path, or the transmission loss
/// of an occluding wall between source and receiver.  Spreading and
/// atmospheric absorption stay exact per-bin computations over
/// `distance_m`, so a path through a room pays the same physics as the
/// free-field path of the same length.
pub fn propagate_with_gain_curve(
    source_at_1m: &Signal,
    distance_m: f64,
    aperture_m: f64,
    gain_curve: &[(f64, f64)],
    env: &AirEnvironment,
) -> Result<Signal> {
    if !(distance_m > 0.0) || !distance_m.is_finite() {
        return Err(AcousticsError::invalid(
            "distance_m",
            format!("{distance_m} must be positive and finite"),
        ));
    }
    if !(0.0..=10.0).contains(&aperture_m) {
        return Err(AcousticsError::invalid(
            "aperture_m",
            format!("{aperture_m} must be within [0, 10] metres"),
        ));
    }
    if source_at_1m.is_empty() {
        return Err(AcousticsError::invalid("source_at_1m", "empty signal"));
    }
    let fs = source_at_1m.sample_rate_hz();

    // Frequency-dependent spreading and absorption applied via the FFT.
    // Spreading: the reference distance is 1 m, so the point-source gain is
    // 1/r (never > 1; the near field below 1 m is clamped to the 1 m value,
    // which is the common convention for loudspeaker sensitivity figures).
    // An extended source keeps its on-axis level out to the frequency's
    // Rayleigh distance before the 1/r decay starts.
    let n = next_power_of_two(source_at_1m.len());
    let mut spectrum = Vec::new();
    rfft_into(source_at_1m.samples(), n, &mut spectrum)?;
    let air = AirAbsorption::new(env);
    for (k, value) in spectrum.iter_mut().enumerate() {
        let f = bin_frequency(k, n, fs);
        let collimated_to_m = rayleigh_distance_m(aperture_m, f, env).max(1.0);
        let spreading_gain = (collimated_to_m / distance_m).min(1.0);
        let gain = air.gain(f, distance_m)?;
        // `interpolate_gain_curve` returns exactly 1.0 for an empty curve
        // and `x * 1.0 == x` in IEEE arithmetic, so the free-field result
        // is bit-identical to the pre-room-model implementation.
        let curve_gain = interpolate_gain_curve(gain_curve, f);
        *value = value.scale(gain * spreading_gain * curve_gain);
    }
    let mut samples = Vec::new();
    irfft_into(&mut spectrum, &mut samples)?;
    samples.truncate(source_at_1m.len());

    // Whole-sample propagation delay.
    let delay_samples = propagation_delay_samples(distance_m, fs, env);
    if delay_samples > 0 {
        let mut delayed = vec![0.0; delay_samples];
        delayed.extend_from_slice(&samples);
        samples = delayed;
    }
    Ok(Signal::new(samples, fs)?)
}

/// The whole-sample delay of a path of `distance_m` at sample rate `fs` —
/// the single owner of the rounding convention, so multipath taps (see
/// `ivc-room`) land on exactly the same time axis as the direct path
/// delayed here.
pub fn propagation_delay_samples(distance_m: f64, fs: f64, env: &AirEnvironment) -> usize {
    (distance_m / env.speed_of_sound_m_per_s() * fs).round() as usize
}

/// Propagation loss (in dB) for a single frequency over `distance_m` from
/// a point source: spherical spreading beyond the 1 m reference plus
/// absorption — the single-frequency view of [`propagate`].
pub fn path_loss_db(frequency_hz: f64, distance_m: f64, env: &AirEnvironment) -> Result<f64> {
    if !(distance_m > 0.0) || !distance_m.is_finite() {
        return Err(AcousticsError::invalid(
            "distance_m",
            format!("{distance_m} must be positive and finite"),
        ));
    }
    let spreading_db = 20.0 * distance_m.max(1.0).log10();
    let absorption_db = crate::absorption::absorption_db(frequency_hz, distance_m, env)?;
    Ok(spreading_db + absorption_db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spl::waveform_spl_db;

    fn ultrasound_tone(freq: f64, spl_1m_db: f64, fs: f64) -> Signal {
        let rms = crate::spl::spl_db_to_pressure(spl_1m_db);
        Signal::tone(freq, rms * std::f64::consts::SQRT_2, 0.3, fs).unwrap()
    }

    #[test]
    fn validation() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(40_000.0, 100.0, 192_000.0);
        assert!(propagate(&s, 0.0, &env).is_err());
        assert!(propagate(&s, f64::NAN, &env).is_err());
        assert!(propagate(&Signal::new(vec![], 192_000.0).unwrap(), 1.0, &env).is_err());
        assert!(path_loss_db(1_000.0, -1.0, &env).is_err());
    }

    #[test]
    fn one_metre_is_the_reference_distance() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(1_000.0, 80.0, 48_000.0);
        let at_1m = propagate(&s, 1.0, &env).unwrap();
        // At 1 kHz over 1 m the absorption is negligible, so SPL ~ 80 dB.
        let spl = waveform_spl_db(&at_1m.samples()[at_1m.len() / 4..]);
        assert!((spl - 80.0).abs() < 0.3, "spl {spl}");
    }

    #[test]
    fn spreading_gives_six_db_per_doubling_for_audible_sound() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(1_000.0, 80.0, 48_000.0);
        let at_2m = propagate(&s, 2.0, &env).unwrap();
        let at_4m = propagate(&s, 4.0, &env).unwrap();
        let spl_2 = waveform_spl_db(&at_2m.samples()[at_2m.len() / 2..]);
        let spl_4 = waveform_spl_db(&at_4m.samples()[at_4m.len() / 2..]);
        assert!((spl_2 - spl_4 - 6.02).abs() < 0.3, "{spl_2} vs {spl_4}");
    }

    #[test]
    fn ultrasound_loses_more_than_spreading_alone() {
        let env = AirEnvironment::default();
        let audible = path_loss_db(1_000.0, 8.0, &env).unwrap();
        let ultrasonic = path_loss_db(40_000.0, 8.0, &env).unwrap();
        // Both share ~18 dB spreading; ultrasound pays several dB more.
        assert!(
            ultrasonic - audible > 5.0,
            "difference {}",
            ultrasonic - audible
        );
    }

    #[test]
    fn propagated_waveform_matches_path_loss_budget() {
        let env = AirEnvironment::default();
        let fs = 192_000.0;
        let s = ultrasound_tone(40_000.0, 110.0, fs);
        let d = 5.0;
        let received = propagate(&s, d, &env).unwrap();
        let expected_spl = 110.0 - path_loss_db(40_000.0, d, &env).unwrap();
        let measured = waveform_spl_db(&received.samples()[received.len() / 2..]);
        assert!(
            (measured - expected_spl).abs() < 0.5,
            "{measured} vs {expected_spl}"
        );
    }

    #[test]
    fn delay_matches_speed_of_sound() {
        let env = AirEnvironment::default();
        let c = env.speed_of_sound_m_per_s();
        let fs = 48_000.0;
        let mut s = Signal::silence(0.01, fs).unwrap();
        s.samples_mut()[0] = 1.0;
        let d = 3.43; // ~10 ms at 343 m/s
        let received = propagate(&s, d, &env).unwrap();
        let peak_index = received
            .samples()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        let expected = (d / c * fs).round() as usize;
        assert_eq!(peak_index, expected);
    }

    #[test]
    fn rayleigh_distance_scales_with_aperture_and_frequency() {
        let env = AirEnvironment::default();
        assert_eq!(rayleigh_distance_m(0.0, 40_000.0, &env), 0.0);
        let small = rayleigh_distance_m(0.33, 40_000.0, &env);
        let large = rayleigh_distance_m(1.8, 40_000.0, &env);
        let audible = rayleigh_distance_m(1.8, 1_000.0, &env);
        // A 12-element array (0.33 m) collimates for ~3 m at 40 kHz; the
        // paper's 61-element rig (1.8 m) for the better part of 100 m.
        assert!((2.0..5.0).contains(&small), "small-array N {small}");
        assert!(large > 50.0, "large-array N {large}");
        // The same rig at 1 kHz is a point source at room scales.
        assert!(audible < large / 30.0, "audible N {audible}");
    }

    #[test]
    fn zero_aperture_matches_point_source_propagation() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(40_000.0, 110.0, 192_000.0);
        let point = propagate(&s, 5.0, &env).unwrap();
        let aperture = propagate_from_aperture(&s, 5.0, 0.0, &env).unwrap();
        assert_eq!(point.samples(), aperture.samples());
        assert!(propagate_from_aperture(&s, 5.0, -1.0, &env).is_err());
        assert!(propagate_from_aperture(&s, 5.0, 50.0, &env).is_err());
    }

    #[test]
    fn collimated_ultrasound_outranges_a_point_source() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(40_000.0, 110.0, 192_000.0);
        let d = 6.0;
        let point = propagate(&s, d, &env).unwrap();
        let beam = propagate_from_aperture(&s, d, 0.5, &env).unwrap();
        let spl_point = waveform_spl_db(&point.samples()[point.len() / 2..]);
        let spl_beam = waveform_spl_db(&beam.samples()[beam.len() / 2..]);
        // 0.5 m aperture at 40 kHz collimates for ~7 m: essentially all the
        // 1/r spreading loss (~15.6 dB at 6 m) is recovered; absorption is
        // identical for both.
        assert!(spl_beam - spl_point > 10.0, "{spl_beam} vs {spl_point}");
        // The beam never exceeds the source level budget: spreading gain is
        // clamped at unity.
        let near = propagate_from_aperture(&s, 1.0, 0.5, &env).unwrap();
        let spl_near = waveform_spl_db(&near.samples()[near.len() / 2..]);
        assert!(spl_near <= 110.5, "near SPL {spl_near}");
    }

    #[test]
    fn aperture_does_not_help_audible_leakage() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(1_000.0, 80.0, 48_000.0);
        let d = 4.0;
        let point = propagate(&s, d, &env).unwrap();
        let beam = propagate_from_aperture(&s, d, 0.5, &env).unwrap();
        let spl_point = waveform_spl_db(&point.samples()[point.len() / 2..]);
        let spl_beam = waveform_spl_db(&beam.samples()[beam.len() / 2..]);
        // At 1 kHz a 0.5 m aperture is smaller than a wavelength's Rayleigh
        // scale: spreading stays spherical.
        assert!(
            (spl_beam - spl_point).abs() < 0.2,
            "{spl_beam} vs {spl_point}"
        );
    }

    #[test]
    fn empty_gain_curve_is_bit_identical_to_free_field() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(40_000.0, 110.0, 192_000.0);
        let free = propagate_from_aperture(&s, 4.0, 0.5, &env).unwrap();
        let curved = propagate_with_gain_curve(&s, 4.0, 0.5, &[], &env).unwrap();
        assert_eq!(free.samples(), curved.samples());
    }

    #[test]
    fn gain_curve_interpolation_follows_the_anchors() {
        assert_eq!(interpolate_gain_curve(&[], 1_000.0), 1.0);
        let curve3 = [(100.0, 1.0), (1_000.0, 0.5), (10_000.0, 0.1)];
        assert!(interpolate_gain_curve(&curve3, f64::NAN).is_nan());
        assert_eq!(interpolate_gain_curve(&[(500.0, 0.25)], 40_000.0), 0.25);
        let curve = [(100.0, 1.0), (1_000.0, 0.5), (10_000.0, 0.1)];
        // Clamped outside the anchors.
        assert_eq!(interpolate_gain_curve(&curve, 10.0), 1.0);
        assert_eq!(interpolate_gain_curve(&curve, 1e6), 0.1);
        // Exact at anchors, monotone between them.
        assert_eq!(interpolate_gain_curve(&curve, 1_000.0), 0.5);
        let mid = interpolate_gain_curve(&curve, 316.2);
        assert!(mid < 1.0 && mid > 0.5, "mid {mid}");
        // Log-frequency interpolation: the geometric midpoint of the
        // anchor frequencies lands on the arithmetic midpoint of the gains.
        let geo = interpolate_gain_curve(&curve, (100.0f64 * 1_000.0).sqrt());
        assert!((geo - 0.75).abs() < 1e-9, "geo {geo}");
    }

    #[test]
    fn gain_curve_attenuates_the_targeted_band() {
        let env = AirEnvironment::default();
        let fs = 192_000.0;
        let mut s = ultrasound_tone(40_000.0, 100.0, fs);
        s.mix(&ultrasound_tone(1_000.0, 100.0, fs)).unwrap();
        // A curve that passes audible sound but kills ultrasound.
        let curve = [(2_000.0, 1.0), (20_000.0, 0.01), (80_000.0, 0.001)];
        let through = propagate_with_gain_curve(&s, 2.0, 0.0, &curve, &env).unwrap();
        let free = propagate(&s, 2.0, &env).unwrap();
        let band = |sig: &Signal, lo: f64, hi: f64| {
            ivc_dsp::spectrum::band_power(sig.samples(), fs, lo, hi).unwrap()
        };
        let audible_ratio = band(&through, 500.0, 1_500.0) / band(&free, 500.0, 1_500.0);
        let ultra_ratio = band(&through, 39_000.0, 41_000.0) / band(&free, 39_000.0, 41_000.0);
        assert!(audible_ratio > 0.8, "audible ratio {audible_ratio}");
        assert!(ultra_ratio < 1e-3, "ultrasound ratio {ultra_ratio}");
    }

    #[test]
    fn near_field_is_clamped_to_reference() {
        let env = AirEnvironment::default();
        let s = ultrasound_tone(1_000.0, 80.0, 48_000.0);
        let near = propagate(&s, 0.25, &env).unwrap();
        let spl = waveform_spl_db(&near.samples()[near.len() / 2..]);
        assert!(
            spl <= 80.5,
            "near-field SPL should not exceed the 1 m value: {spl}"
        );
    }
}
