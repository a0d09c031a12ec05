//! Formant synthesis of individual phonemes.
//!
//! A classic source–filter recipe: voiced phonemes start from a glottal
//! pulse train at the requested fundamental, obstruents start from shaped
//! noise, and both are passed through resonators (biquad band-pass sections)
//! at the phoneme's formant targets.  The output is deliberately "robotic"
//! but carries the properties the rest of the system cares about: harmonics
//! of a low fundamental, formant structure in 300–3000 Hz, fricative energy
//! up to 8 kHz and word-level amplitude modulation.

use crate::phoneme::{Manner, Phoneme};
use ivc_dsp::filter::biquad::{Biquad, BiquadCascade};
use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Renders one phoneme at `f0_hz`, returning samples at `sample_rate_hz`.
///
/// `duration_scale` stretches or compresses the phoneme's nominal duration
/// (speaking rate), and `seed` makes the noise components reproducible.
pub fn render_phoneme(
    phoneme: &Phoneme,
    f0_hz: f64,
    duration_scale: f64,
    sample_rate_hz: f64,
    seed: u64,
) -> Result<Signal> {
    if !(sample_rate_hz > 8_000.0) {
        return Err(DspError::invalid(
            "sample_rate_hz",
            "must exceed 8 kHz for speech synthesis",
        ));
    }
    if !(50.0..=400.0).contains(&f0_hz) {
        return Err(DspError::invalid(
            "f0_hz",
            format!("{f0_hz} outside [50, 400]"),
        ));
    }
    if !(0.25..=4.0).contains(&duration_scale) {
        return Err(DspError::invalid(
            "duration_scale",
            "must be within [0.25, 4.0]",
        ));
    }
    let duration_s = phoneme.duration_s * duration_scale;
    let n = (duration_s * sample_rate_hz).round().max(1.0) as usize;

    let samples = match phoneme.manner {
        Manner::Silence => vec![0.0; n],
        Manner::Vowel | Manner::Nasal => {
            let source = glottal_source(f0_hz, n, sample_rate_hz);
            let filtered = formant_filter(&source, phoneme, sample_rate_hz)?;

            if phoneme.manner == Manner::Nasal {
                // Nasals are muffled: an extra low-pass around 1 kHz.
                let lpf = BiquadCascade::butterworth_low_pass(1_000.0, 2, sample_rate_hz)?;
                lpf.filter(&filtered)
            } else {
                filtered
            }
        }
        Manner::Fricative => {
            let noise = noise_source(n, seed);
            let mut shaped = band_shape(&noise, phoneme.noise_band_hz, sample_rate_hz)?;
            if phoneme.voiced {
                // Voiced fricatives mix in a weak voiced component.
                let source = glottal_source(f0_hz, n, sample_rate_hz);
                let voiced = formant_filter(
                    &source,
                    Phoneme::lookup("AH").as_ref().unwrap(),
                    sample_rate_hz,
                )?;
                for (s, v) in shaped.iter_mut().zip(voiced.iter()) {
                    *s = 0.7 * *s + 0.3 * v;
                }
            }
            shaped
        }
        Manner::Stop => {
            // A stop: ~60 % closure (silence), then a burst of shaped noise.
            let closure = (n as f64 * 0.6) as usize;
            let burst_len = n - closure;
            let noise = noise_source(burst_len.max(1), seed);
            let mut burst = band_shape(&noise, phoneme.noise_band_hz, sample_rate_hz)?;
            // Exponential decay over the burst.
            for (i, b) in burst.iter_mut().enumerate() {
                *b *= (-4.0 * i as f64 / burst_len.max(1) as f64).exp();
            }
            let mut out = vec![0.0; closure];
            out.extend(burst);
            out.truncate(n);
            out
        }
    };

    let mut signal = Signal::new(samples, sample_rate_hz)?;
    // Normalise then apply the phoneme's relative amplitude and an
    // onset/offset ramp so concatenation does not click.
    if signal.peak() > 0.0 {
        signal.normalize_peak(phoneme.amplitude);
    }
    signal.fade(0.008);
    Ok(signal)
}

/// Glottal source: a band-limited pulse train at `f0_hz` (sum of the first
/// harmonics with a gentle -6 dB/octave tilt, which approximates a glottal
/// flow derivative spectrum).
///
/// One `sin_cos` per sample gives the fundamental's phase `θ`; every higher
/// harmonic follows from the Chebyshev recurrence
/// `sin((h+1)θ) = 2cosθ·sin(hθ) − sin((h−1)θ)`, so the cost is one libm
/// call per sample instead of one per harmonic per sample.  `θ` is taken
/// from the phase reduced to one period (`i·f0 mod fs`, exact whenever
/// `i·f0` is), which keeps the argument error from growing with `i`.
fn glottal_source(f0_hz: f64, n: usize, sample_rate_hz: f64) -> Vec<f64> {
    let amps: Vec<f64> = (1..=max_harmonic(f0_hz, sample_rate_hz))
        .map(|h| 1.0 / h as f64) // spectral tilt
        .collect();
    (0..n)
        .map(|i| {
            let cycle = (i as f64 * f0_hz) % sample_rate_hz / sample_rate_hz;
            let (sin_theta, cos_theta) = (2.0 * std::f64::consts::PI * cycle).sin_cos();
            let two_cos = 2.0 * cos_theta;
            let (mut prev, mut cur) = (0.0, sin_theta);
            let mut acc = 0.0;
            for amp in &amps {
                acc += amp * cur;
                (prev, cur) = (cur, two_cos * cur - prev);
            }
            acc
        })
        .collect()
}

/// Number of harmonics in the glottal source: everything up to 8 kHz (or
/// 0.9 × Nyquist, whichever is lower), at least the fundamental.
fn max_harmonic(f0_hz: f64, sample_rate_hz: f64) -> usize {
    let nyquist = sample_rate_hz / 2.0;
    let harmonics = ((8_000.0_f64.min(nyquist * 0.9)) / f0_hz).floor() as usize;
    harmonics.max(1)
}

/// White noise source with unit-ish amplitude.
fn noise_source(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Passes the source through the phoneme's three formant resonators in
/// parallel (F1 strongest, F3 weakest), like a parallel formant synthesiser.
fn formant_filter(source: &[f64], phoneme: &Phoneme, sample_rate_hz: f64) -> Result<Vec<f64>> {
    let gains = [1.0, 0.63, 0.35];
    let mut out = vec![0.0; source.len()];
    for (k, (&f, &bw)) in phoneme
        .formants_hz
        .iter()
        .zip(phoneme.bandwidths_hz.iter())
        .enumerate()
    {
        if f <= 0.0 || f >= sample_rate_hz / 2.0 {
            continue;
        }
        let q = (f / bw.max(1.0)).clamp(1.0, 20.0);
        let resonator = Biquad::band_pass(f, q, sample_rate_hz)?;
        let filtered = resonator.filter(source);
        for (o, v) in out.iter_mut().zip(filtered.iter()) {
            *o += gains[k] * v;
        }
    }
    Ok(out)
}

/// Band-limits a noise source to the phoneme's noise band.
fn band_shape(noise: &[f64], band_hz: (f64, f64), sample_rate_hz: f64) -> Result<Vec<f64>> {
    let (low, high) = band_hz;
    let nyq = sample_rate_hz / 2.0;
    let low = low.max(100.0).min(nyq * 0.8);
    let high = high.max(low * 1.2).min(nyq * 0.95);
    let bpf = BiquadCascade::butterworth_band_pass(low, high, 4, sample_rate_hz)?;
    Ok(bpf.filter(noise))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::spectrum::{band_power, welch_psd};
    use ivc_dsp::window::WindowKind;

    /// The direct per-harmonic sum the recurrence replaces: one `sin` per
    /// harmonic per sample, summed in ascending `h` with amplitude `1/h`.
    /// Each argument is reduced to one period in exact arithmetic (every
    /// `i·h·f0` below is a multiple of 0.5 well under 2^53), so the
    /// reference carries no phase error that grows with `i`.
    fn direct_glottal_source(f0_hz: f64, n: usize, sample_rate_hz: f64) -> Vec<f64> {
        let mut out = vec![0.0; n];
        for h in 1..=max_harmonic(f0_hz, sample_rate_hz) {
            let amp = 1.0 / h as f64;
            let f = f0_hz * h as f64;
            for (i, o) in out.iter_mut().enumerate() {
                let cycle = (i as f64 * f) % sample_rate_hz / sample_rate_hz;
                *o += amp * (2.0 * std::f64::consts::PI * cycle).sin();
            }
        }
        out
    }

    #[test]
    fn harmonic_recurrence_matches_the_direct_sin_sum() {
        for fs in [48_000.0, 192_000.0] {
            for f0 in [50.0, 100.0, 137.5, 250.0, 400.0] {
                let n = fs as usize; // 1 s
                let fast = glottal_source(f0, n, fs);
                let direct = direct_glottal_source(f0, n, fs);
                let peak = direct.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
                let max_err = fast
                    .iter()
                    .zip(&direct)
                    .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(
                    max_err <= 1e-12 * peak,
                    "f0 {f0} Hz, fs {fs} Hz: max |error| {max_err:e} vs peak {peak}"
                );
            }
        }
    }

    #[test]
    fn validation() {
        let aa = Phoneme::lookup("AA").unwrap();
        assert!(render_phoneme(&aa, 120.0, 1.0, 4_000.0, 0).is_err());
        assert!(render_phoneme(&aa, 20.0, 1.0, 48_000.0, 0).is_err());
        assert!(render_phoneme(&aa, 120.0, 10.0, 48_000.0, 0).is_err());
    }

    #[test]
    fn vowel_has_harmonic_structure_at_f0() {
        let aa = Phoneme::lookup("AA").unwrap();
        let s = render_phoneme(&aa, 120.0, 2.0, 48_000.0, 1).unwrap();
        assert!(s.len() > 1_000);
        // Strong component at F1 region (~730 Hz) and at the fundamental's
        // low harmonics; little energy above 5 kHz.
        let low = band_power(s.samples(), 48_000.0, 80.0, 2_000.0).unwrap();
        let high = band_power(s.samples(), 48_000.0, 5_000.0, 20_000.0).unwrap();
        assert!(low / high.max(1e-18) > 100.0, "low/high {}", low / high);
    }

    #[test]
    fn vowel_formant_peak_is_near_target() {
        let iy = Phoneme::lookup("IY").unwrap(); // F2 ~ 2290 Hz
        let s = render_phoneme(&iy, 110.0, 2.0, 48_000.0, 1).unwrap();
        let psd = welch_psd(s.samples(), 48_000.0, 4_096, 0.5, WindowKind::Hann).unwrap();
        // Power around F2 should clearly exceed power in a reference band
        // away from any formant (e.g. 4-5 kHz).
        let near_f2 = psd.band_power(2_000.0, 2_600.0);
        let away = psd.band_power(4_000.0, 5_000.0);
        assert!(near_f2 / away.max(1e-18) > 20.0);
    }

    #[test]
    fn fricative_energy_is_high_frequency() {
        let s_ph = Phoneme::lookup("S").unwrap();
        let s = render_phoneme(&s_ph, 120.0, 2.0, 48_000.0, 1).unwrap();
        let high = band_power(s.samples(), 48_000.0, 4_000.0, 8_000.0).unwrap();
        let low = band_power(s.samples(), 48_000.0, 100.0, 1_000.0).unwrap();
        assert!(high / low.max(1e-18) > 20.0, "high/low {}", high / low);
    }

    #[test]
    fn stop_starts_with_closure_silence() {
        let t = Phoneme::lookup("T").unwrap();
        let s = render_phoneme(&t, 120.0, 1.0, 48_000.0, 1).unwrap();
        let n = s.len();
        let first_half_energy: f64 = s.samples()[..n / 2].iter().map(|x| x * x).sum();
        let second_half_energy: f64 = s.samples()[n / 2..].iter().map(|x| x * x).sum();
        assert!(second_half_energy > first_half_energy * 5.0);
    }

    #[test]
    fn silence_is_silent_and_duration_scales() {
        let sil = Phoneme::PAUSE;
        let s = render_phoneme(&sil, 120.0, 1.0, 48_000.0, 1).unwrap();
        assert_eq!(s.rms(), 0.0);
        let s2 = render_phoneme(&sil, 120.0, 2.0, 48_000.0, 1).unwrap();
        assert!((s2.len() as f64 / s.len() as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    fn rendering_is_deterministic_per_seed() {
        let s_ph = Phoneme::lookup("SH").unwrap();
        let a = render_phoneme(&s_ph, 120.0, 1.0, 48_000.0, 5).unwrap();
        let b = render_phoneme(&s_ph, 120.0, 1.0, 48_000.0, 5).unwrap();
        let c = render_phoneme(&s_ph, 120.0, 1.0, 48_000.0, 6).unwrap();
        assert_eq!(a.samples(), b.samples());
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn nasal_is_muffled_compared_to_vowel() {
        let m = Phoneme::lookup("M").unwrap();
        let aa = Phoneme::lookup("AA").unwrap();
        let sm = render_phoneme(&m, 120.0, 2.0, 48_000.0, 1).unwrap();
        let sa = render_phoneme(&aa, 120.0, 2.0, 48_000.0, 1).unwrap();
        let hi_m = band_power(sm.samples(), 48_000.0, 1_500.0, 4_000.0).unwrap() / sm.energy();
        let hi_a = band_power(sa.samples(), 48_000.0, 1_500.0, 4_000.0).unwrap() / sa.energy();
        assert!(hi_m < hi_a, "nasal should carry less high-frequency energy");
    }
}
