//! Short-time Fourier transform and spectrogram summaries.
//!
//! Spectrograms drive the reproduction of the paper's qualitative figures
//! (normal voice vs. attack ultrasound vs. microphone recording) and provide
//! the time–frequency energy summaries that the speech front-end and the
//! defense features build on.

use crate::error::{DspError, Result};
use crate::fft::rfft_into;
use crate::window::WindowKind;

/// Magnitude/power spectrogram of a signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    /// Power (linear) per frame and bin: `frames[frame][bin]`.
    pub frames: Vec<Vec<f64>>,
    /// Centre time of each frame in seconds.
    pub times_s: Vec<f64>,
    /// Frequency of each bin in Hz.
    pub frequencies_hz: Vec<f64>,
    /// Sample rate of the analysed signal.
    pub sample_rate_hz: f64,
}

/// Analysis frame length in samples (a power of two: the transform length).
const FRAME_LEN: usize = 1_024;
/// Hop between frames in samples.
const HOP: usize = 256;

/// Computes the power spectrogram of `samples`: Hann-windowed frames of
/// 1024 samples every 256.
pub fn spectrogram(samples: &[f64], sample_rate_hz: f64) -> Result<Spectrogram> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "spectrogram",
        });
    }
    if !(sample_rate_hz > 0.0) {
        return Err(DspError::InvalidSampleRate { sample_rate_hz });
    }
    let n_bins = FRAME_LEN / 2 + 1;
    let win = WindowKind::Hann.periodic(FRAME_LEN);
    let win_power: f64 = win.iter().map(|w| w * w).sum::<f64>().max(1e-300);

    let mut frames = Vec::new();
    let mut times_s = Vec::new();
    let mut spec = Vec::with_capacity(n_bins);
    // One frame per hop that starts inside the signal, zero-padded where it
    // runs past the end (so a short signal still gets one frame).
    for start in (0..samples.len()).step_by(HOP) {
        let end = (start + FRAME_LEN).min(samples.len());
        let mut frame: Vec<f64> = samples[start..end]
            .iter()
            .zip(win.iter())
            .map(|(s, w)| s * w)
            .collect();
        frame.resize(FRAME_LEN, 0.0);
        rfft_into(&frame, FRAME_LEN, &mut spec)?;
        let power: Vec<f64> = (0..n_bins)
            .map(|k| {
                let scale = if k == 0 || k == n_bins - 1 { 1.0 } else { 2.0 };
                scale * spec[k].norm_sqr() / win_power
            })
            .collect();
        frames.push(power);
        times_s.push((start as f64 + FRAME_LEN as f64 / 2.0) / sample_rate_hz);
    }
    let frequencies_hz: Vec<f64> = (0..n_bins)
        .map(|k| k as f64 * sample_rate_hz / FRAME_LEN as f64)
        .collect();
    Ok(Spectrogram {
        frames,
        times_s,
        frequencies_hz,
        sample_rate_hz,
    })
}

impl Spectrogram {
    /// Mean power in a frequency band, averaged over all frames.
    pub fn mean_band_power(&self, low_hz: f64, high_hz: f64) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let bins: Vec<usize> = self
            .frequencies_hz
            .iter()
            .enumerate()
            .filter(|(_, f)| **f >= low_hz && **f <= high_hz)
            .map(|(i, _)| i)
            .collect();
        if bins.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for frame in &self.frames {
            for &b in &bins {
                acc += frame[b];
            }
        }
        acc / self.frames.len() as f64
    }

    /// A coarse band-energy summary: splits `[0, max_hz]` into `n_bands`
    /// equal bands and returns the mean power in each, in dB.  This is what
    /// the figure harnesses print instead of a bitmap spectrogram.
    pub fn band_summary_db(&self, max_hz: f64, n_bands: usize) -> Vec<f64> {
        (0..n_bands)
            .map(|i| {
                let low = max_hz * i as f64 / n_bands as f64;
                let high = max_hz * (i + 1) as f64 / n_bands as f64;
                crate::db::power_to_db(self.mean_band_power(low, high).max(1e-24))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::Signal;

    #[test]
    fn validation() {
        assert!(spectrogram(&[], 48_000.0).is_err());
        assert!(spectrogram(&[1.0; 64], 0.0).is_err());
    }

    #[test]
    fn frame_count_matches_hop() {
        let fs = 8_000.0;
        let x = vec![0.1; 8_000];
        let sg = spectrogram(&x, fs).unwrap();
        // Roughly len / hop frames.
        let frames = sg.frames.len();
        assert!((29..=32).contains(&frames), "{frames}");
        assert_eq!(sg.frequencies_hz.len(), 513);
        assert_eq!(sg.times_s.len(), frames);
    }

    #[test]
    fn tone_energy_lands_in_correct_band() {
        let fs = 48_000.0;
        let sig = Signal::tone(5_000.0, 1.0, 0.5, fs).unwrap();
        let sg = spectrogram(sig.samples(), fs).unwrap();
        let in_band = sg.mean_band_power(4_500.0, 5_500.0);
        let out_band = sg.mean_band_power(10_000.0, 15_000.0);
        assert!(in_band / out_band.max(1e-20) > 1e4);
    }

    #[test]
    fn short_signal_still_produces_one_frame() {
        let fs = 8_000.0;
        let x = vec![0.5; 100];
        let sg = spectrogram(&x, fs).unwrap();
        assert_eq!(sg.frames.len(), 1);
    }

    #[test]
    fn band_summary_has_requested_length_and_orders_energy() {
        let fs = 48_000.0;
        let sig = Signal::tone(2_000.0, 1.0, 0.5, fs).unwrap();
        let sg = spectrogram(sig.samples(), fs).unwrap();
        let summary = sg.band_summary_db(24_000.0, 12);
        assert_eq!(summary.len(), 12);
        // The band containing 2 kHz (band 1: 2k-4k) should be the maximum.
        let max_idx = summary
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(max_idx <= 1);
    }

    #[test]
    fn frame_energies_follow_amplitude_envelope() {
        let fs = 8_000.0;
        let mut x = Signal::tone(1_000.0, 0.1, 0.25, fs).unwrap();
        let loud = Signal::tone(1_000.0, 1.0, 0.25, fs).unwrap();
        x.append(&loud).unwrap();
        let sg = spectrogram(x.samples(), fs).unwrap();
        let energies: Vec<f64> = sg.frames.iter().map(|f| f.iter().sum()).collect();
        let first = energies[1];
        let last = energies[energies.len() - 2];
        assert!(last > first * 10.0);
    }
}
