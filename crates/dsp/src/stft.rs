//! Short-time Fourier transform and spectrogram summaries.
//!
//! Spectrograms drive the reproduction of the paper's qualitative figures
//! (normal voice vs. attack ultrasound vs. microphone recording) and provide
//! the time–frequency energy summaries that the speech front-end and the
//! defense features build on.

use crate::error::{DspError, Result};
use crate::fft::{next_power_of_two, rfft_into};
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
    /// Hop between frames in samples.
    pub hop_samples: usize,
    /// Sample rate of the analysed signal.
    pub sample_rate_hz: f64,
}

/// Configuration for STFT analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StftConfig {
    /// Analysis frame length in samples.
    pub frame_len: usize,
    /// Hop between frames in samples.
    pub hop: usize,
    /// Window applied to each frame.
    pub window: WindowKind,
}

impl Default for StftConfig {
    fn default() -> Self {
        StftConfig {
            frame_len: 1_024,
            hop: 256,
            window: WindowKind::Hann,
        }
    }
}

impl StftConfig {
    /// A configuration with frame/hop expressed in seconds at a given rate.
    pub fn from_durations(frame_s: f64, hop_s: f64, sample_rate_hz: f64) -> Result<Self> {
        if !(sample_rate_hz > 0.0) {
            return Err(DspError::InvalidSampleRate { sample_rate_hz });
        }
        let frame_len = (frame_s * sample_rate_hz).round() as usize;
        let hop = (hop_s * sample_rate_hz).round() as usize;
        if frame_len < 8 || hop == 0 {
            return Err(DspError::invalid_parameter(
                "frame/hop",
                "frame must be >= 8 samples and hop >= 1 sample",
            ));
        }
        Ok(StftConfig {
            frame_len,
            hop,
            window: WindowKind::Hann,
        })
    }
}

/// Computes the power spectrogram of `samples`.
pub fn spectrogram(
    samples: &[f64],
    sample_rate_hz: f64,
    config: &StftConfig,
) -> Result<Spectrogram> {
    if samples.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "spectrogram",
        });
    }
    if !(sample_rate_hz > 0.0) {
        return Err(DspError::InvalidSampleRate { sample_rate_hz });
    }
    if config.frame_len < 8 || config.hop == 0 {
        return Err(DspError::invalid_parameter(
            "StftConfig",
            "frame_len must be >= 8 and hop >= 1",
        ));
    }
    let nfft = next_power_of_two(config.frame_len);
    let n_bins = nfft / 2 + 1;
    let win = config.window.periodic(config.frame_len);
    let win_power: f64 = win.iter().map(|w| w * w).sum::<f64>().max(1e-300);

    let mut frames = Vec::new();
    let mut times_s = Vec::new();
    let mut spec = Vec::with_capacity(n_bins);
    let mut start = 0usize;
    // Always emit at least one frame, zero-padding if the signal is short.
    loop {
        let end = (start + config.frame_len).min(samples.len());
        if start >= samples.len() && !frames.is_empty() {
            break;
        }
        let mut frame: Vec<f64> = samples[start..end]
            .iter()
            .zip(win.iter())
            .map(|(s, w)| s * w)
            .collect();
        frame.resize(nfft, 0.0);
        rfft_into(&frame, nfft, &mut spec)?;
        let power: Vec<f64> = (0..n_bins)
            .map(|k| {
                let scale = if k == 0 || k == nfft / 2 { 1.0 } else { 2.0 };
                scale * spec[k].norm_sqr() / win_power
            })
            .collect();
        frames.push(power);
        times_s.push((start as f64 + config.frame_len as f64 / 2.0) / sample_rate_hz);
        start += config.hop;
        if start + config.frame_len > samples.len() + config.frame_len {
            break;
        }
        if start >= samples.len() {
            break;
        }
    }
    let frequencies_hz: Vec<f64> = (0..n_bins)
        .map(|k| k as f64 * sample_rate_hz / nfft as f64)
        .collect();
    Ok(Spectrogram {
        frames,
        times_s,
        frequencies_hz,
        hop_samples: config.hop,
        sample_rate_hz,
    })
}

impl Spectrogram {
    /// Number of analysis frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of frequency bins per frame.
    pub fn num_bins(&self) -> usize {
        self.frequencies_hz.len()
    }

    /// Energy of each frame summed over all bins.
    pub fn frame_energies(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.iter().sum()).collect()
    }

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
        assert!(spectrogram(&[], 48_000.0, &StftConfig::default()).is_err());
        assert!(spectrogram(&[1.0; 64], 0.0, &StftConfig::default()).is_err());
        let bad = StftConfig {
            frame_len: 4,
            hop: 0,
            window: WindowKind::Hann,
        };
        assert!(spectrogram(&[1.0; 64], 48_000.0, &bad).is_err());
        assert!(StftConfig::from_durations(0.0001, 0.0, 8_000.0).is_err());
    }

    #[test]
    fn frame_count_matches_hop() {
        let fs = 8_000.0;
        let x = vec![0.1; 8_000];
        let cfg = StftConfig {
            frame_len: 256,
            hop: 128,
            window: WindowKind::Hann,
        };
        let sg = spectrogram(&x, fs, &cfg).unwrap();
        // Roughly len / hop frames.
        assert!(
            sg.num_frames() >= 60 && sg.num_frames() <= 63,
            "{}",
            sg.num_frames()
        );
        assert_eq!(sg.num_bins(), 129);
        assert_eq!(sg.times_s.len(), sg.num_frames());
    }

    #[test]
    fn tone_energy_lands_in_correct_band() {
        let fs = 48_000.0;
        let sig = Signal::tone(5_000.0, 1.0, 0.5, fs).unwrap();
        let sg = spectrogram(sig.samples(), fs, &StftConfig::default()).unwrap();
        let in_band = sg.mean_band_power(4_500.0, 5_500.0);
        let out_band = sg.mean_band_power(10_000.0, 15_000.0);
        assert!(in_band / out_band.max(1e-20) > 1e4);
    }

    #[test]
    fn short_signal_still_produces_one_frame() {
        let fs = 8_000.0;
        let x = vec![0.5; 100];
        let sg = spectrogram(&x, fs, &StftConfig::default()).unwrap();
        assert_eq!(sg.num_frames(), 1);
    }

    #[test]
    fn band_summary_has_requested_length_and_orders_energy() {
        let fs = 48_000.0;
        let sig = Signal::tone(2_000.0, 1.0, 0.5, fs).unwrap();
        let sg = spectrogram(sig.samples(), fs, &StftConfig::default()).unwrap();
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
        let sg = spectrogram(x.samples(), fs, &StftConfig::default()).unwrap();
        let energies = sg.frame_energies();
        let first = energies[1];
        let last = energies[energies.len() - 2];
        assert!(last > first * 10.0);
    }
}
