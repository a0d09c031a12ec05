//! Spectrum estimation: Welch PSD, band power and spectral tilt.
//!
//! These estimators drive the experiments' measurements: band power in the
//! ultrasonic region versus the voice band (attack inaudibility), power
//! below 50 Hz (defense shadow feature), and spectral tilt (defense).

use crate::complex::Complex;
use crate::error::{DspError, Result};
use crate::fft::{next_power_of_two, rfft_into};
use crate::window::WindowKind;

/// A power spectral density estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpectrum {
    /// Frequency of each bin in Hz.
    pub frequencies_hz: Vec<f64>,
    /// Power density of each bin (linear units, per Hz).
    pub power: Vec<f64>,
    /// Bin spacing in Hz.
    pub resolution_hz: f64,
}

impl PowerSpectrum {
    /// Power integrated between `low_hz` and `high_hz` (inclusive).
    pub fn band_power(&self, low_hz: f64, high_hz: f64) -> f64 {
        self.frequencies_hz
            .iter()
            .zip(self.power.iter())
            .filter(|(f, _)| **f >= low_hz && **f <= high_hz)
            .map(|(_, p)| p)
            .sum::<f64>()
            * self.resolution_hz
    }

    /// Spectral tilt: slope of a least-squares fit of power in dB against
    /// frequency in kHz, over bins whose power is above the floor.  Negative
    /// values mean power falls with frequency (typical for voiced speech).
    pub fn tilt_db_per_khz(&self) -> f64 {
        // Sized once: a filtered collect would regrow it a dozen times.
        let mut points = Vec::with_capacity(self.power.len());
        points.extend(
            self.frequencies_hz
                .iter()
                .zip(self.power.iter())
                .filter(|(_, p)| **p > 0.0)
                .map(|(f, p)| (f / 1_000.0, 10.0 * p.log10())),
        );
        linear_slope(&points)
    }
}

/// Least-squares slope of `y` against `x`.
fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let sum_x: f64 = points.iter().map(|(x, _)| x).sum();
    let sum_y: f64 = points.iter().map(|(_, y)| y).sum();
    let sum_xx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sum_xy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sum_xx - sum_x * sum_x;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sum_xy - sum_x * sum_y) / denom
    }
}

/// Reusable buffers for [`welch_psd_into`]: the analysis window with its
/// power (rebuilt only when the window's kind or length changes), one
/// windowed frame and its half spectrum.  A worker that estimates one PSD
/// per trial keeps one of these instead of rebuilding a 16 384-point
/// window and allocating a frame per segment on every call.
#[derive(Debug, Default)]
pub struct WelchScratch {
    window: Vec<f64>,
    window_kind: Option<WindowKind>,
    window_power: f64,
    frame: Vec<f64>,
    spectrum: Vec<Complex>,
}

impl WelchScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        WelchScratch::default()
    }
}

/// Welch PSD estimate with segments of `segment_len` samples and fractional
/// `overlap` in `[0, 1)`.  [`welch_psd_into`] with a fresh scratch.
pub fn welch_psd(
    samples: &[f64],
    sample_rate_hz: f64,
    segment_len: usize,
    overlap: f64,
    window: WindowKind,
) -> Result<PowerSpectrum> {
    welch_psd_into(
        samples,
        sample_rate_hz,
        segment_len,
        overlap,
        window,
        &mut WelchScratch::new(),
    )
}

/// The segment length [`welch_psd`] uses when asked for `segment_len` on
/// `num_samples` samples: at most the signal, at least 16.  Two requests
/// with the same effective length estimate the same PSD, bit for bit.
pub fn welch_segment_len(segment_len: usize, num_samples: usize) -> usize {
    segment_len.min(num_samples).max(16)
}

/// [`welch_psd`] with its window, frame and spectrum in `scratch`; the
/// estimate is bit-identical with a fresh or a reused scratch.
pub fn welch_psd_into(
    samples: &[f64],
    sample_rate_hz: f64,
    segment_len: usize,
    overlap: f64,
    window: WindowKind,
    scratch: &mut WelchScratch,
) -> Result<PowerSpectrum> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "welch_psd",
        });
    }
    if !(sample_rate_hz > 0.0) {
        return Err(DspError::InvalidSampleRate { sample_rate_hz });
    }
    if !(0.0..1.0).contains(&overlap) {
        return Err(DspError::invalid("overlap", "must be in [0, 1)"));
    }
    let segment_len = welch_segment_len(segment_len, samples.len());
    let nfft = next_power_of_two(segment_len);
    let hop = ((segment_len as f64) * (1.0 - overlap)).max(1.0) as usize;
    if scratch.window_kind != Some(window) || scratch.window.len() != segment_len {
        scratch.window = window.symmetric(segment_len);
        scratch.window_kind = Some(window);
        scratch.window_power = scratch.window.iter().map(|w| w * w).sum();
    }
    let WelchScratch {
        window: win,
        window_power,
        frame,
        spectrum,
        ..
    } = scratch;
    let density = sample_rate_hz * *window_power;

    let n_bins = nfft / 2 + 1;
    let mut accumulated = vec![0.0; n_bins];
    // One segment (or the whole signal, if shorter than one) windowed,
    // zero-padded, transformed and added to the one-sided PSD: every bin
    // but DC and Nyquist counts twice.
    let mut add_segment = |segment: &[f64]| -> Result<()> {
        frame.clear();
        frame.extend(segment.iter().zip(win.iter()).map(|(s, w)| s * w));
        frame.resize(nfft, 0.0);
        rfft_into(frame, nfft, spectrum)?;
        for (k, acc) in accumulated.iter_mut().enumerate() {
            let scale = if k == 0 || k == nfft / 2 { 1.0 } else { 2.0 };
            *acc += scale * spectrum[k].norm_sqr() / density;
        }
        Ok(())
    };
    let mut n_segments = 0usize;
    let mut start = 0usize;
    while start + segment_len <= samples.len() {
        add_segment(&samples[start..start + segment_len])?;
        n_segments += 1;
        start += hop;
    }
    if n_segments == 0 {
        // Signal shorter than one segment: pad a single frame.
        add_segment(samples)?;
        n_segments = 1;
    }
    let resolution_hz = sample_rate_hz / nfft as f64;
    let frequencies_hz: Vec<f64> = (0..n_bins).map(|k| k as f64 * resolution_hz).collect();
    let power: Vec<f64> = accumulated
        .into_iter()
        .map(|p| p / n_segments as f64)
        .collect();
    Ok(PowerSpectrum {
        frequencies_hz,
        power,
        resolution_hz,
    })
}

/// Convenience: power of `samples` in the band `[low_hz, high_hz]`.
pub fn band_power(samples: &[f64], sample_rate_hz: f64, low_hz: f64, high_hz: f64) -> Result<f64> {
    if low_hz > high_hz {
        return Err(DspError::invalid(
            "band",
            format!("low {low_hz} must not exceed high {high_hz}"),
        ));
    }
    let psd = welch_psd(
        samples,
        sample_rate_hz,
        band_power_segment_len(samples.len()),
        0.5,
        WindowKind::Hann,
    )?;
    Ok(psd.band_power(low_hz, high_hz))
}

/// The Welch segment [`band_power`] asks for on `num_samples` samples (a
/// Hann window with half overlap).
pub fn band_power_segment_len(num_samples: usize) -> usize {
    num_samples.clamp(64, 8_192)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;

    fn tone(freq: f64, amp: f64, fs: f64, dur: f64) -> Vec<f64> {
        Signal::tone(freq, amp, dur, fs).unwrap().into_samples()
    }

    #[test]
    fn validation() {
        assert!(welch_psd(&[], 48_000.0, 256, 0.5, WindowKind::Hann).is_err());
        assert!(welch_psd(&[1.0; 64], 0.0, 32, 0.5, WindowKind::Hann).is_err());
        assert!(welch_psd(&[1.0; 64], 48_000.0, 32, 1.0, WindowKind::Hann).is_err());
        assert!(band_power(&[1.0; 64], 48_000.0, 2_000.0, 1_000.0).is_err());
    }

    #[test]
    fn total_power_matches_parseval_for_tone() {
        let fs = 48_000.0;
        let amp = 0.5;
        let x = tone(3_000.0, amp, fs, 1.0);
        let psd = welch_psd(&x, fs, 4_096, 0.5, WindowKind::Hann).unwrap();
        // Mean-square of a sine of amplitude a is a^2/2.
        let expected = amp * amp / 2.0;
        let total = psd.band_power(0.0, fs / 2.0);
        assert!(
            (total - expected).abs() / expected < 0.05,
            "total {total} vs {expected}"
        );
    }

    #[test]
    fn psd_peak_is_at_tone_frequency() {
        let fs = 48_000.0;
        let x = tone(5_000.0, 1.0, fs, 0.5);
        let psd = welch_psd(&x, fs, 2_048, 0.5, WindowKind::Hann).unwrap();
        let (peak, _) = psd
            .frequencies_hz
            .iter()
            .zip(&psd.power)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!((peak - 5_000.0).abs() < 50.0, "peak at {peak}");
    }

    #[test]
    fn band_power_ratio_db_for_pure_tone_is_near_zero() {
        let fs = 48_000.0;
        let x = tone(2_000.0, 1.0, fs, 0.5);
        let psd = welch_psd(&x, fs, 8_192, 0.5, WindowKind::Hann).unwrap();
        let total = psd.band_power(0.0, fs / 2.0);
        let ratio_db = |low, high| crate::db::power_to_db(psd.band_power(low, high) / total);
        let r = ratio_db(1_500.0, 2_500.0);
        assert!(r > -1.0 && r <= 0.01, "ratio {r} dB");
        assert!(ratio_db(10_000.0, 12_000.0) < -40.0);
    }

    #[test]
    fn band_power_isolates_components() {
        let fs = 48_000.0;
        let mut sig = Signal::tone(1_000.0, 1.0, 0.5, fs).unwrap();
        sig.mix(&Signal::tone(10_000.0, 0.1, 0.5, fs).unwrap())
            .unwrap();
        let x = sig.samples();
        let low = band_power(x, fs, 500.0, 1_500.0).unwrap();
        let high = band_power(x, fs, 9_000.0, 11_000.0).unwrap();
        // Amplitude ratio 10 => power ratio 100.
        let ratio = low / high;
        assert!(ratio > 50.0 && ratio < 200.0, "ratio {ratio}");
    }

    #[test]
    fn tilt_is_negative_for_low_frequency_weighted_signal() {
        let fs = 8_000.0;
        let mut sig = Signal::tone(200.0, 1.0, 1.0, fs).unwrap();
        sig.mix(&Signal::tone(2_000.0, 0.05, 1.0, fs).unwrap())
            .unwrap();
        let psd = welch_psd(sig.samples(), fs, 1_024, 0.5, WindowKind::Hann).unwrap();
        assert!(psd.tilt_db_per_khz() < 0.0);
    }

    #[test]
    fn a_reused_scratch_gives_the_same_bits() {
        let long = tone(3_000.0, 0.7, 48_000.0, 0.6);
        let short = tone(500.0, 0.2, 16_000.0, 0.1);
        let mut scratch = WelchScratch::new();
        // Window lengths and kinds change from call to call, so the cached
        // window must be rebuilt whenever either does.
        for (samples, fs, segment, window) in [
            (&long, 48_000.0, 16_384, WindowKind::Hann),
            (&short, 16_000.0, 256, WindowKind::Hann),
            (&short, 16_000.0, 256, WindowKind::Hamming),
            (&long, 48_000.0, 16_384, WindowKind::Hann),
            (&short, 16_000.0, 4_096, WindowKind::Hann),
        ] {
            let reused = welch_psd_into(samples, fs, segment, 0.5, window, &mut scratch).unwrap();
            let fresh = welch_psd(samples, fs, segment, 0.5, window).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused.power), bits(&fresh.power));
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn short_signals_still_produce_a_spectrum() {
        let x = tone(1_000.0, 1.0, 8_000.0, 0.004); // 32 samples
        let psd = welch_psd(&x, 8_000.0, 256, 0.5, WindowKind::Hann).unwrap();
        assert!(!psd.power.is_empty());
        assert!(psd.band_power(0.0, 4_000.0) > 0.0);
    }
}
