//! Noise sources: white, pink and "room ambience" noise at a target SPL.
//!
//! Every generator takes an explicit seed so experiments are reproducible;
//! the same scenario with the same seed produces bit-identical recordings.

use crate::error::{AcousticsError, Result};
use crate::spl::spl_db_to_pressure;
use ivc_dsp::filter::biquad::{Biquad, BiquadCascade, BiquadState};
use ivc_dsp::signal::Signal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates zero-mean white Gaussian noise with the given RMS amplitude.
pub fn white_noise(rms: f64, duration_s: f64, sample_rate_hz: f64, seed: u64) -> Result<Signal> {
    if rms < 0.0 || !rms.is_finite() {
        return Err(AcousticsError::invalid(
            "rms",
            "must be non-negative and finite",
        ));
    }
    let n = (duration_s * sample_rate_hz).round().max(0.0) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    // Box-Muller style generation via rand's normal-ish approximation:
    // sum of uniform samples (Irwin–Hall, 12 terms) is close enough to
    // Gaussian for acoustic noise and avoids a distributions dependency.
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            s * rms
        })
        .collect();
    Ok(Signal::new(samples, sample_rate_hz)?)
}

/// Adds white Gaussian noise with the given RMS directly onto `samples`,
/// drawing exactly the sequence [`white_noise`] would for the same seed
/// and length — mixing `white_noise` into a buffer and calling this are
/// bit-identical, but this variant allocates nothing.
pub fn add_white_noise(samples: &mut [f64], rms: f64, seed: u64) -> Result<()> {
    if rms < 0.0 || !rms.is_finite() {
        return Err(AcousticsError::invalid(
            "rms",
            "must be non-negative and finite",
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for slot in samples.iter_mut() {
        let s: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        *slot += s * rms;
    }
    Ok(())
}

/// Generates pink-ish noise (−3 dB per octave) by low-pass filtering white
/// noise with a gentle cascade and re-normalising the RMS.
pub fn pink_noise(rms: f64, duration_s: f64, sample_rate_hz: f64, seed: u64) -> Result<Signal> {
    let white = white_noise(1.0, duration_s, sample_rate_hz, seed)?;
    if white.is_empty() {
        return Ok(white);
    }
    // The classic Voss–McCartney filter approximated by three one-pole
    // low-pass sections at staggered corners.
    let corners = [
        sample_rate_hz / 300.0,
        sample_rate_hz / 60.0,
        sample_rate_hz / 12.0,
    ];
    let branch = |corner: f64| -> Result<Biquad> {
        let cutoff = corner.min(sample_rate_hz * 0.45).max(10.0);
        let lpf = BiquadCascade::butterworth_low_pass(cutoff, 2, sample_rate_hz)
            .map_err(AcousticsError::from)?;
        Ok(lpf.sections()[0].clone())
    };
    let (low, mid, high) = (
        branch(corners[0])?,
        branch(corners[1])?,
        branch(corners[2])?,
    );
    // The three branches run side by side in one pass over the white
    // draw, summed in branch order with gains 1, 1/2 and 1/3.
    let mut states = [BiquadState::default(); 3];
    let mut acc = white.into_samples();
    for slot in acc.iter_mut() {
        let x = *slot;
        let mut sum = 0.0;
        sum += 1.0 * low.step(&mut states[0], x);
        sum += (1.0 / 2.0) * mid.step(&mut states[1], x);
        sum += (1.0 / 3.0) * high.step(&mut states[2], x);
        *slot = sum;
    }
    let mut out = Signal::new(acc, sample_rate_hz)?;
    out.remove_dc();
    out.normalize_rms(rms);
    Ok(out)
}

/// Ambient room noise at a target (unweighted) SPL in dB, as a pressure
/// waveform in pascal.  Quiet rooms sit around 35–45 dB SPL.
pub fn room_noise_pa(
    spl_db: f64,
    duration_s: f64,
    sample_rate_hz: f64,
    seed: u64,
) -> Result<Signal> {
    if !(0.0..=120.0).contains(&spl_db) {
        return Err(AcousticsError::invalid(
            "spl_db",
            format!("{spl_db} outside [0, 120]"),
        ));
    }
    let rms_pa = spl_db_to_pressure(spl_db);
    pink_noise(rms_pa, duration_s, sample_rate_hz, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spl::waveform_spl_db;
    use ivc_dsp::spectrum::band_power;

    #[test]
    fn validation() {
        assert!(white_noise(-1.0, 0.1, 48_000.0, 1).is_err());
        assert!(white_noise(f64::NAN, 0.1, 48_000.0, 1).is_err());
        assert!(room_noise_pa(150.0, 0.1, 48_000.0, 1).is_err());
    }

    #[test]
    fn white_noise_has_requested_rms_and_is_reproducible() {
        let a = white_noise(0.1, 1.0, 48_000.0, 42).unwrap();
        let b = white_noise(0.1, 1.0, 48_000.0, 42).unwrap();
        let c = white_noise(0.1, 1.0, 48_000.0, 43).unwrap();
        assert_eq!(a.samples(), b.samples());
        assert_ne!(a.samples(), c.samples());
        assert!((a.rms() - 0.1).abs() / 0.1 < 0.05, "rms {}", a.rms());
        // Zero mean.
        let mean: f64 = a.samples().iter().sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 0.01);
    }

    #[test]
    fn white_noise_spectrum_is_roughly_flat() {
        let s = white_noise(0.5, 2.0, 48_000.0, 7).unwrap();
        let low = band_power(s.samples(), 48_000.0, 500.0, 4_500.0).unwrap();
        let high = band_power(s.samples(), 48_000.0, 15_000.0, 19_000.0).unwrap();
        let ratio = low / high;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn pink_noise_slopes_downwards() {
        let s = pink_noise(0.5, 2.0, 48_000.0, 7).unwrap();
        assert!((s.rms() - 0.5).abs() / 0.5 < 0.05);
        let low = band_power(s.samples(), 48_000.0, 100.0, 1_000.0).unwrap();
        let high = band_power(s.samples(), 48_000.0, 8_000.0, 16_000.0).unwrap();
        assert!(low / high > 4.0, "low/high {}", low / high);
    }

    #[test]
    fn one_pass_pink_noise_matches_the_per_branch_sum_bit_for_bit() {
        // The three branches filtered one after another, each over the
        // whole white draw, and summed into a zeroed accumulator.
        for (fs, seed) in [(48_000.0, 7), (192_000.0, 0xDEAD_BEEF)] {
            let white = white_noise(1.0, 0.2, fs, seed).unwrap();
            let mut acc = vec![0.0; white.len()];
            for (stage, corner) in [fs / 300.0, fs / 60.0, fs / 12.0].iter().enumerate() {
                let cutoff = corner.min(fs * 0.45).max(10.0);
                let lpf = BiquadCascade::butterworth_low_pass(cutoff, 2, fs).unwrap();
                let filtered = lpf.filter(white.samples());
                let gain = 1.0 / (stage as f64 + 1.0);
                for (a, f) in acc.iter_mut().zip(filtered.iter()) {
                    *a += gain * f;
                }
            }
            let mut reference = Signal::new(acc, fs).unwrap();
            reference.remove_dc();
            reference.normalize_rms(0.3);
            assert_eq!(pink_noise(0.3, 0.2, fs, seed).unwrap(), reference);
        }
    }

    #[test]
    fn room_noise_hits_target_spl() {
        let s = room_noise_pa(40.0, 1.0, 48_000.0, 11).unwrap();
        let spl = waveform_spl_db(s.samples());
        assert!((spl - 40.0).abs() < 1.0, "spl {spl}");
    }

    #[test]
    fn zero_duration_produces_empty_signal() {
        let s = white_noise(0.1, 0.0, 48_000.0, 1).unwrap();
        assert!(s.is_empty());
    }
}
