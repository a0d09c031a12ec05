//! Sample-rate conversion.
//!
//! The attack pipeline needs to move between very different rates: voice
//! commands are synthesised at 48 kHz, the ultrasonic playback signal lives
//! at 192 kHz (or higher, to fit a 40–60 kHz carrier), and the victim
//! microphone resamples back down to 48 kHz or 16 kHz.  Integer-factor
//! conversion uses zero-stuffing / decimation with a half-band-style FIR
//! anti-alias filter; arbitrary ratios fall back to band-limited linear
//! interpolation after appropriate filtering.

use std::sync::Arc;

use crate::error::{DspError, Result};
use crate::filter::fir::FirFilter;
use crate::signal::Signal;
use crate::window::WindowKind;

/// Upsamples by an integer `factor`: zero-stuffing followed by an
/// interpolation low-pass at the original Nyquist frequency.
pub fn upsample(input: &Signal, factor: usize) -> Result<Signal> {
    if factor == 0 {
        return Err(DspError::invalid("factor", "must be at least 1"));
    }
    if input.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "upsample",
        });
    }
    if factor == 1 {
        return Ok(input.clone());
    }
    let out_rate = input.sample_rate_hz() * factor as f64;
    let mut stuffed = vec![0.0; input.len() * factor];
    for (i, &x) in input.samples().iter().enumerate() {
        stuffed[i * factor] = x * factor as f64; // compensate interpolation gain
    }
    // Anti-image filter at the original Nyquist, with a little margin.
    let cutoff = input.nyquist_hz() * 0.95;
    let taps = (16 * factor + 1).max(65);
    let lpf = FirFilter::low_pass_cached(cutoff, out_rate, taps, WindowKind::Blackman)?;
    let filtered = lpf.filter(&stuffed)?;
    Signal::new(filtered, out_rate)
}

/// Downsamples by an integer `factor`: anti-alias low-pass then decimation.
pub fn downsample(input: &Signal, factor: usize) -> Result<Signal> {
    if factor == 0 {
        return Err(DspError::invalid("factor", "must be at least 1"));
    }
    if input.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "downsample",
        });
    }
    if factor == 1 {
        return Ok(input.clone());
    }
    let lpf = downsample_filter(input.sample_rate_hz(), factor)?;
    let filtered = lpf.filter(input.samples())?;
    let decimated: Vec<f64> = filtered.iter().step_by(factor).copied().collect();
    Signal::new(decimated, input.sample_rate_hz() / factor as f64)
}

/// The anti-alias low-pass [`downsample`] applies before keeping every
/// `factor`-th sample of a signal at `sample_rate_hz`.
fn downsample_filter(sample_rate_hz: f64, factor: usize) -> Result<Arc<FirFilter>> {
    let out_rate = sample_rate_hz / factor as f64;
    let cutoff = (out_rate / 2.0) * 0.95;
    let taps = (16 * factor + 1).max(65);
    FirFilter::low_pass_cached(cutoff, sample_rate_hz, taps, WindowKind::Blackman)
}

/// `ratio` as an integer factor, if it is one (within 1e-9) and at least 1.
fn integer_factor(ratio: f64) -> Option<usize> {
    ((ratio.round() - ratio).abs() < 1e-9 && ratio >= 1.0).then(|| ratio.round() as usize)
}

/// `first.filter_signal(input)` followed by [`resample`] to
/// `target_rate_hz`, the ADC's anti-alias-then-convert chain.
///
/// When the input rate is a power-of-two multiple of the target that
/// [`FoldedDecimator`](crate::filter::fir::FoldedDecimator) serves, both
/// low-passes and the decimation run as one folded decimator that computes
/// only the kept samples (equal to the two passes to rounding).  Every
/// other ratio takes the two passes.
pub fn filter_and_resample(
    first: &FirFilter,
    input: &Signal,
    target_rate_hz: f64,
) -> Result<Signal> {
    let source_rate = input.sample_rate_hz();
    let factor = integer_factor(source_rate / target_rate_hz).filter(|&factor| factor >= 2);
    if let (Some(factor), false) = (factor, input.is_empty()) {
        let second = downsample_filter(source_rate, factor)?;
        if let Some(decimator) = first.folded_decimator(&second, factor) {
            let decimated = decimator.decimate(input.samples())?;
            return Signal::new(decimated, source_rate / factor as f64);
        }
    }
    resample(&first.filter_signal(input)?, target_rate_hz)
}

/// Resamples to an arbitrary target rate.
///
/// Integer up/down factors take the exact polyphase-style path; other ratios
/// are handled by upsampling to a common fine grid when the ratio is a small
/// rational, and otherwise by band-limited linear interpolation (adequate
/// for the smooth, heavily oversampled signals used in this workspace).
pub fn resample(input: &Signal, target_rate_hz: f64) -> Result<Signal> {
    if !(target_rate_hz > 0.0) || !target_rate_hz.is_finite() {
        return Err(DspError::InvalidSampleRate {
            sample_rate_hz: target_rate_hz,
        });
    }
    if input.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "resample",
        });
    }
    let source_rate = input.sample_rate_hz();
    if (source_rate - target_rate_hz).abs() < 1e-9 {
        return Ok(input.clone());
    }
    let ratio = target_rate_hz / source_rate;
    // Exact integer factors.
    if let Some(factor) = integer_factor(ratio) {
        return upsample(input, factor);
    }
    if let Some(factor) = integer_factor(source_rate / target_rate_hz) {
        return downsample(input, factor);
    }
    // General path: if downsampling, anti-alias first, then linearly
    // interpolate onto the target grid.
    let working: Signal = if target_rate_hz < source_rate {
        let cutoff = (target_rate_hz / 2.0) * 0.95;
        let lpf = FirFilter::low_pass_cached(cutoff, source_rate, 255, WindowKind::Blackman)?;
        lpf.filter_signal(input)?
    } else {
        input.clone()
    };
    let out_len = ((input.len() as f64) * ratio).round() as usize;
    let samples = working.samples();
    let mut out = Vec::with_capacity(out_len);
    for i in 0..out_len {
        let t = i as f64 / ratio;
        let i0 = t.floor() as usize;
        let frac = t - i0 as f64;
        let a = samples.get(i0).copied().unwrap_or(0.0);
        let b = samples.get(i0 + 1).copied().unwrap_or(a);
        out.push(a + (b - a) * frac);
    }
    Signal::new(out, target_rate_hz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::band_power;

    fn tone(freq: f64, fs: f64, dur: f64) -> Signal {
        Signal::tone(freq, 1.0, dur, fs).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        let s = tone(1_000.0, 48_000.0, 0.1);
        assert!(upsample(&s, 0).is_err());
        assert!(downsample(&s, 0).is_err());
        assert!(resample(&s, 0.0).is_err());
        assert!(resample(&s, f64::NAN).is_err());
        let empty = Signal::new(vec![], 48_000.0).unwrap();
        assert!(upsample(&empty, 2).is_err());
        assert!(downsample(&empty, 2).is_err());
        assert!(resample(&empty, 96_000.0).is_err());
    }

    #[test]
    fn factor_one_is_identity() {
        let s = tone(1_000.0, 48_000.0, 0.05);
        assert_eq!(upsample(&s, 1).unwrap(), s);
        assert_eq!(downsample(&s, 1).unwrap(), s);
        assert_eq!(resample(&s, 48_000.0).unwrap(), s);
    }

    #[test]
    fn upsampling_quadruples_rate_and_preserves_tone() {
        let s = tone(1_000.0, 48_000.0, 0.2);
        let up = upsample(&s, 4).unwrap();
        assert_eq!(up.sample_rate_hz(), 192_000.0);
        assert_eq!(up.len(), s.len() * 4);
        // Tone survives with roughly the same RMS (within filter ripple).
        assert!((up.rms() - s.rms()).abs() / s.rms() < 0.1);
        // No image energy near 47 kHz (192k/4 - 1k image would be at 47k/49k).
        let image = band_power(up.samples(), up.sample_rate_hz(), 40_000.0, 60_000.0).unwrap();
        let fundamental = band_power(up.samples(), up.sample_rate_hz(), 500.0, 1_500.0).unwrap();
        assert!(
            image / fundamental < 1e-4,
            "image/fundamental = {}",
            image / fundamental
        );
    }

    #[test]
    fn downsampling_halves_rate_and_removes_high_band() {
        let fs = 48_000.0;
        let mut s = tone(1_000.0, fs, 0.2);
        let high = tone(20_000.0, fs, 0.2);
        s.mix(&high).unwrap();
        let down = downsample(&s, 2).unwrap();
        assert_eq!(down.sample_rate_hz(), 24_000.0);
        // The 20 kHz component is above the new Nyquist and must not alias in.
        let alias_band = band_power(down.samples(), 24_000.0, 3_000.0, 11_000.0).unwrap();
        let tone_band = band_power(down.samples(), 24_000.0, 500.0, 1_500.0).unwrap();
        assert!(alias_band / tone_band < 1e-3);
    }

    #[test]
    fn roundtrip_up_down_preserves_signal() {
        let s = tone(2_000.0, 48_000.0, 0.2);
        let up = upsample(&s, 4).unwrap();
        let back = downsample(&up, 4).unwrap();
        assert_eq!(back.sample_rate_hz(), 48_000.0);
        // Compare steady-state RMS.
        let a = s.slice_seconds(0.05, 0.15).rms();
        let b = back.slice_seconds(0.05, 0.15).rms();
        assert!((a - b).abs() / a < 0.05, "rms {a} vs {b}");
    }

    /// A deterministic broadband input: an LCG's uniforms plus a tone.
    fn noisy(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let uniform = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                uniform + 0.3 * (0.01 * i as f64).sin()
            })
            .collect()
    }

    /// The ADC's anti-alias design at `input_rate` for a 48 kHz output.
    fn anti_alias(input_rate: f64) -> Arc<FirFilter> {
        FirFilter::low_pass_cached(21_600.0, input_rate, 255, WindowKind::Blackman).unwrap()
    }

    #[test]
    fn folded_decimator_matches_the_two_passes_at_every_length() {
        for factor in [2usize, 4, 8] {
            let input_rate = 48_000.0 * factor as f64;
            let first = anti_alias(input_rate);
            let second = downsample_filter(input_rate, factor).unwrap();
            assert!(first.folded_decimator(&second, factor).is_some());
            // Outputs per overlap-save block, and the first interior output.
            let combined = first.len() + second.len() - 1;
            let lead = (combined - 1).div_ceil(factor) * factor;
            let per_block = (4 * combined.next_power_of_two() - lead) / factor;
            let second_delay = (second.len() - 1) / 2;
            let interior_start = second_delay.div_ceil(factor);
            let mut lengths = vec![1, 2, factor, 40, 100, combined - 1, combined, 1_000];
            for blocks in [1, 2, 3] {
                // Interior outputs end exactly at a block boundary.
                let at = factor * (interior_start + blocks * per_block - 1) + second_delay + 1;
                lengths.extend([at - 1, at, at + 1]);
            }
            lengths.push(20_011);
            for len in lengths {
                let input = Signal::new(noisy(len, len as u64), input_rate).unwrap();
                let got = filter_and_resample(&first, &input, 48_000.0).unwrap();
                let want = resample(&first.filter_signal(&input).unwrap(), 48_000.0).unwrap();
                assert_eq!(got.sample_rate_hz(), want.sample_rate_hz());
                assert_eq!(got.len(), want.len(), "factor {factor}, length {len}");
                let peak = want.samples().iter().fold(0.0f64, |p, x| p.max(x.abs()));
                for (i, (g, w)) in got.samples().iter().zip(want.samples()).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-12 * peak,
                        "factor {factor}, length {len}, output {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn folded_decimator_keeps_each_filters_own_delay() {
        // Two even-length filters: each delay rounds down, so together
        // they fall one sample short of the combined kernel's centre.
        let input_rate = 192_000.0;
        let even = |filter: &FirFilter| {
            let taps = filter.coefficients();
            FirFilter::from_coefficients(taps[..taps.len() - 1].to_vec())
        };
        let first = even(&anti_alias(input_rate));
        let second = even(&downsample_filter(input_rate, 4).unwrap());
        let decimator = first.folded_decimator(&second, 4).unwrap();
        let input = noisy(5_001, 9);
        let got = decimator.decimate(&input).unwrap();
        let filtered = second.filter(&first.filter(&input).unwrap()).unwrap();
        let want: Vec<f64> = filtered.iter().step_by(4).copied().collect();
        assert_eq!(got.len(), want.len());
        let peak = want.iter().fold(0.0f64, |p, x| p.max(x.abs()));
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-12 * peak, "{g} vs {w}");
        }
    }

    #[test]
    fn filter_and_resample_keeps_the_two_passes_where_it_cannot_fold() {
        let input = Signal::new(noisy(5_000, 3), 96_000.0).unwrap();
        let first = anti_alias(96_000.0);
        // A non-integer ratio, an equal rate and an upsampling ratio.
        for target in [44_100.0, 96_000.0, 192_000.0] {
            let got = filter_and_resample(&first, &input, target).unwrap();
            let want = resample(&first.filter_signal(&input).unwrap(), target).unwrap();
            assert_eq!(got, want, "target {target}");
        }
        // A factor the decimator cannot serve (not a power of two).
        let second = downsample_filter(144_000.0, 3).unwrap();
        assert!(anti_alias(144_000.0).folded_decimator(&second, 3).is_none());
        let input = Signal::new(noisy(5_000, 4), 144_000.0).unwrap();
        let got = filter_and_resample(&anti_alias(144_000.0), &input, 48_000.0).unwrap();
        let want = downsample(&anti_alias(144_000.0).filter_signal(&input).unwrap(), 3).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn a_filter_keeps_its_first_decimator() {
        // A fresh design, not the process-wide memo's shared filter.
        let first = FirFilter::low_pass(21_600.0, 192_000.0, 255, WindowKind::Blackman).unwrap();
        let second = downsample_filter(192_000.0, 4).unwrap();
        let a = first.folded_decimator(&second, 4).unwrap();
        let b = first.folded_decimator(&second, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Another factor is served, uncached.
        let other = downsample_filter(192_000.0, 2).unwrap();
        assert!(first.folded_decimator(&other, 2).is_some());
        assert!(Arc::ptr_eq(
            &a,
            &first.folded_decimator(&second, 4).unwrap()
        ));
    }

    #[test]
    fn arbitrary_ratio_resampling() {
        let s = tone(1_000.0, 48_000.0, 0.2);
        let out = resample(&s, 44_100.0).unwrap();
        assert_eq!(out.sample_rate_hz(), 44_100.0);
        let expected_len = (s.len() as f64 * 44_100.0 / 48_000.0).round() as usize;
        assert_eq!(out.len(), expected_len);
        // The tone is still there.
        let p = band_power(out.samples(), 44_100.0, 800.0, 1_200.0).unwrap();
        let total = band_power(out.samples(), 44_100.0, 10.0, 22_000.0).unwrap();
        assert!(p / total > 0.9);
    }

    #[test]
    fn resample_to_lower_non_integer_rate_antialiases() {
        let fs = 48_000.0;
        let mut s = tone(1_000.0, fs, 0.2);
        s.mix(&tone(15_000.0, fs, 0.2)).unwrap();
        let out = resample(&s, 16_000.0).unwrap();
        assert_eq!(out.sample_rate_hz(), 16_000.0);
        let alias = band_power(out.samples(), 16_000.0, 2_000.0, 7_500.0).unwrap();
        let tone_band = band_power(out.samples(), 16_000.0, 800.0, 1_200.0).unwrap();
        assert!(
            alias / tone_band < 0.01,
            "alias ratio {}",
            alias / tone_band
        );
    }
}
