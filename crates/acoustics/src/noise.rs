//! Noise sources: a seeded standard-normal sampler and the spectrum of
//! ambient room noise at a target SPL.
//!
//! Trial noise is synthesised in the frequency domain (see
//! [`Microphone::noise_shape`](crate::microphone::Microphone::noise_shape)):
//! [`ambient_psd`] gives the ambient share of its power spectrum and
//! [`NormalSampler`] draws the Gaussian bins.  Every draw takes an explicit
//! seed, so the same scenario with the same seed produces bit-identical
//! recordings.

use crate::spl::spl_db_to_pressure;
use ivc_dsp::complex::Complex;
use ivc_dsp::filter::biquad::{Biquad, BiquadCascade};
use ivc_dsp::{DspError, Result};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::OnceLock;

/// Layers of the ziggurat.
const ZIGGURAT_LAYERS: usize = 128;
/// Where the ziggurat's base layer hands over to the exact tail.
const ZIGGURAT_R: f64 = 3.442_619_855_899;
/// Area of each layer (and of the base layer plus the tail).
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;

/// The ziggurat's layer edges `x[i]` (`x[0]` is the base layer's
/// equivalent width, `x[128] = 0`) and the ratios `x[i+1] / x[i]` below
/// which a point of layer `i` is inside the density without a test.
struct Ziggurat {
    x: [f64; ZIGGURAT_LAYERS + 1],
    ratio: [f64; ZIGGURAT_LAYERS],
}

impl Ziggurat {
    fn tables() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut x = [0.0; ZIGGURAT_LAYERS + 1];
            let mut f = (-0.5 * ZIGGURAT_R * ZIGGURAT_R).exp();
            x[0] = ZIGGURAT_V / f;
            x[1] = ZIGGURAT_R;
            for i in 2..ZIGGURAT_LAYERS {
                x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + f).ln()).sqrt();
                f = (-0.5 * x[i] * x[i]).exp();
            }
            let mut ratio = [0.0; ZIGGURAT_LAYERS];
            for i in 0..ZIGGURAT_LAYERS {
                ratio[i] = x[i + 1] / x[i];
            }
            Ziggurat { x, ratio }
        })
    }
}

/// Standard-normal draws from one seeded xoshiro stream, by Marsaglia and
/// Tsang's ziggurat (128 layers, Doornik's form): about 99 % of draws
/// cost one 64-bit word, a multiply and a compare.
pub struct NormalSampler {
    rng: StdRng,
    tables: &'static Ziggurat,
}

impl NormalSampler {
    /// A sampler whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        NormalSampler {
            rng: StdRng::seed_from_u64(seed),
            tables: Ziggurat::tables(),
        }
    }

    /// A uniform draw in `(0, 1]` (never 0, so its logarithm is finite).
    fn open_uniform(&mut self) -> f64 {
        ((self.rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The next standard-normal draw (zero mean, unit variance).
    #[inline]
    pub fn sample(&mut self) -> f64 {
        let Ziggurat { x, ratio } = self.tables;
        loop {
            // One word: the low 7 bits pick the layer, the top 53 place
            // the point in [-1, 1) across it.
            let bits = self.rng.next_u64();
            let layer = (bits & 0x7F) as usize;
            let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
            if u.abs() < ratio[layer] {
                return u * x[layer];
            }
            if layer == 0 {
                return self.tail(u < 0.0);
            }
            // The wedge between the layer's rectangle and the density.
            let point = u * x[layer];
            let f0 = (-0.5 * (x[layer] * x[layer] - point * point)).exp();
            let f1 = (-0.5 * (x[layer + 1] * x[layer + 1] - point * point)).exp();
            if f1 + self.open_uniform() * (f0 - f1) < 1.0 {
                return point;
            }
        }
    }

    /// A draw from the normal tail beyond `ZIGGURAT_R` (Marsaglia's
    /// exponential rejection).
    fn tail(&mut self, negative: bool) -> f64 {
        loop {
            let x = self.open_uniform().ln() / ZIGGURAT_R;
            let y = self.open_uniform().ln();
            if -2.0 * y >= x * x {
                return if negative {
                    x - ZIGGURAT_R
                } else {
                    ZIGGURAT_R - x
                };
            }
        }
    }
}

/// The three branches of the pink ambient response: second-order
/// Butterworth low-passes at `fs/300`, `fs/60` and `fs/12`, summed with
/// gains 1, 1/2 and 1/3 (a Voss–McCartney-style −3 dB/octave slope).
fn pink_branches(sample_rate_hz: f64) -> Result<Vec<(f64, Biquad)>> {
    [300.0, 60.0, 12.0]
        .iter()
        .enumerate()
        .map(|(stage, divisor)| {
            let cutoff = (sample_rate_hz / divisor)
                .min(sample_rate_hz * 0.45)
                .max(10.0);
            let lpf = BiquadCascade::butterworth_low_pass(cutoff, 2, sample_rate_hz)?;
            Ok((1.0 / (stage as f64 + 1.0), lpf.sections()[0].clone()))
        })
        .collect()
}

/// Ambient room noise at `spl_db` (unweighted dB SPL; quiet rooms sit
/// around 35–45 dB) as the power spectrum of an `n`-point real process at
/// `sample_rate_hz`, in Pa² per bin: bins `0..=n/2`, whose mean over all
/// `n` bins (the mirrored half included) is the process's variance.
///
/// The spectrum is the power of the pink response — second-order
/// Butterworth low-passes at `fs/300`, `fs/60` and `fs/12` summed with
/// gains 1, 1/2 and 1/3 — with the DC bin removed, normalised to the
/// target RMS pressure.
pub fn ambient_psd(spl_db: f64, n: usize, sample_rate_hz: f64) -> Result<Vec<f64>> {
    if !(0.0..=120.0).contains(&spl_db) {
        return Err(DspError::invalid(
            "spl_db",
            format!("{spl_db} outside [0, 120]"),
        ));
    }
    if n < 2 || !n.is_power_of_two() {
        return Err(DspError::invalid("n", "must be a power of two, at least 2"));
    }
    let branches = pink_branches(sample_rate_hz)?;
    let half = n / 2;
    let step = Complex::cis(-std::f64::consts::TAU / n as f64);
    let mut z_inv = Complex::ONE;
    let mut psd = Vec::with_capacity(half + 1);
    for k in 0..=half {
        // Re-anchor the phasor recurrence now and then so its rounding
        // never accumulates.
        if k % 1024 == 0 {
            z_inv = Complex::cis(-std::f64::consts::TAU * k as f64 / n as f64);
        }
        let response = branches.iter().fold(Complex::ZERO, |sum, (gain, section)| {
            sum + section.response(z_inv) * *gain
        });
        psd.push(if k == 0 { 0.0 } else { response.norm_sqr() });
        z_inv *= step;
    }
    // Mean over the n bins: the interior bins stand for their mirror too.
    let total = psd[half] + 2.0 * psd[1..half].iter().sum::<f64>();
    let rms_pa = spl_db_to_pressure(spl_db);
    let scale = rms_pa * rms_pa * n as f64 / total;
    for p in psd.iter_mut() {
        *p *= scale;
    }
    Ok(psd)
}

/// The time-domain noise chain trials ran before the frequency-domain
/// synthesis: Irwin–Hall white noise, the pink branch filters and RMS
/// normalisation.  Kept as the reference the synthesis is checked
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::pink_branches;
    use crate::spl::spl_db_to_pressure;
    use ivc_dsp::filter::biquad::BiquadState;
    use ivc_dsp::signal::Signal;
    use ivc_dsp::{DspError, Result};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Zero-mean white noise with the given RMS: a sum of 12 uniforms per
    /// sample (Irwin–Hall), centred.
    pub(crate) fn white_noise(
        rms: f64,
        duration_s: f64,
        sample_rate_hz: f64,
        seed: u64,
    ) -> Result<Signal> {
        if rms < 0.0 || !rms.is_finite() {
            return Err(DspError::invalid("rms", "must be non-negative and finite"));
        }
        let n = (duration_s * sample_rate_hz).round().max(0.0) as usize;
        let mut samples = vec![0.0; n];
        add_white_noise(&mut samples, rms, seed);
        Signal::new(samples, sample_rate_hz)
    }

    /// Adds [`white_noise`]'s draw for `seed` onto `samples`.
    pub(crate) fn add_white_noise(samples: &mut [f64], rms: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for slot in samples.iter_mut() {
            let mut s = 0.0;
            for _ in 0..12 {
                s += rng.gen::<f64>();
            }
            *slot += (s - 6.0) * rms;
        }
    }

    /// Pink noise: the white draw through the three branches in one
    /// pass, DC removed and normalised to `rms`.
    pub(crate) fn pink_noise(
        rms: f64,
        duration_s: f64,
        sample_rate_hz: f64,
        seed: u64,
    ) -> Result<Signal> {
        let white = white_noise(1.0, duration_s, sample_rate_hz, seed)?;
        if white.is_empty() {
            return Ok(white);
        }
        let branches = pink_branches(sample_rate_hz)?;
        let mut states = [BiquadState::default(); 3];
        let mut acc = white.into_samples();
        for slot in acc.iter_mut() {
            let x = *slot;
            let mut sum = 0.0;
            for ((gain, section), state) in branches.iter().zip(states.iter_mut()) {
                sum += gain * section.step(state, x);
            }
            *slot = sum;
        }
        let mut out = Signal::new(acc, sample_rate_hz)?;
        out.remove_dc();
        out.normalize_rms(rms);
        Ok(out)
    }

    /// Ambient room noise at `spl_db` as a pressure waveform in pascal.
    pub(crate) fn room_noise_pa(
        spl_db: f64,
        duration_s: f64,
        sample_rate_hz: f64,
        seed: u64,
    ) -> Result<Signal> {
        if !(0.0..=120.0).contains(&spl_db) {
            return Err(DspError::invalid(
                "spl_db",
                format!("{spl_db} outside [0, 120]"),
            ));
        }
        pink_noise(spl_db_to_pressure(spl_db), duration_s, sample_rate_hz, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{pink_noise, room_noise_pa, white_noise};
    use super::*;
    use crate::spl::waveform_spl_db;
    use ivc_dsp::signal::Signal;
    use ivc_dsp::spectrum::band_power;

    #[test]
    fn validation() {
        assert!(white_noise(-1.0, 0.1, 48_000.0, 1).is_err());
        assert!(white_noise(f64::NAN, 0.1, 48_000.0, 1).is_err());
        assert!(room_noise_pa(150.0, 0.1, 48_000.0, 1).is_err());
        assert!(ambient_psd(150.0, 1024, 48_000.0).is_err());
        assert!(ambient_psd(-1.0, 1024, 48_000.0).is_err());
        assert!(ambient_psd(40.0, 1000, 48_000.0).is_err());
    }

    #[test]
    fn normal_sampler_is_standard_and_reproducible() {
        let n = 400_000;
        let draws = |seed| {
            let mut sampler = NormalSampler::new(seed);
            (0..n).map(|_| sampler.sample()).collect::<Vec<f64>>()
        };
        let a = draws(42);
        // Bit-reproducible per seed; another seed is another stream.
        let again = draws(42);
        assert!(a
            .iter()
            .zip(&again)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_ne!(a, draws(43));
        let mean = a.iter().sum::<f64>() / n as f64;
        let variance = a.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        // Standard errors at n = 4e5: 0.0016 for the mean, 0.0022 for the
        // variance.
        assert!(mean.abs() < 0.008, "mean {mean}");
        assert!((variance - 1.0).abs() < 0.011, "variance {variance}");
        // The tails are Gaussian too: P(|z| > 2) = 0.0455, P(|z| > 3.5)
        // = 4.65e-4 (the second reaches past the ziggurat's base layer).
        let beyond = |t: f64| a.iter().filter(|x| x.abs() > t).count() as f64 / n as f64;
        assert!((beyond(2.0) - 0.0455).abs() < 0.002, "{}", beyond(2.0));
        assert!((beyond(3.5) - 4.65e-4).abs() < 1.2e-4, "{}", beyond(3.5));
        let skew = a.iter().map(|x| x.powi(3)).sum::<f64>() / n as f64;
        let kurtosis = a.iter().map(|x| x.powi(4)).sum::<f64>() / n as f64;
        assert!(skew.abs() < 0.02, "skew {skew}");
        assert!((kurtosis - 3.0).abs() < 0.05, "kurtosis {kurtosis}");
    }

    #[test]
    fn ambient_psd_carries_the_target_power_and_slopes_downwards() {
        for fs in [48_000.0, 192_000.0] {
            let n = 1 << 14;
            let psd = ambient_psd(40.0, n, fs).unwrap();
            assert_eq!(psd.len(), n / 2 + 1);
            assert_eq!(psd[0], 0.0);
            let variance = (psd[n / 2] + 2.0 * psd[1..n / 2].iter().sum::<f64>()) / n as f64;
            let target = spl_db_to_pressure(40.0).powi(2);
            assert!(
                (variance / target - 1.0).abs() < 1e-12,
                "{variance} vs {target}"
            );
            // Power per bin falls from the low corner to the top octave.
            let bin = |f: f64| (f / fs * n as f64).round() as usize;
            assert!(psd[bin(fs / 600.0)] > 50.0 * psd[bin(fs / 3.0)]);
        }
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
