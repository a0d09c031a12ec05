//! MFCC front-end: pre-emphasis, framing, mel filterbank, DCT.
//!
//! Mel-frequency cepstral coefficients are the lingua franca of classical
//! speech recognition; the DTW recogniser matches sequences of these
//! vectors.  The implementation follows the standard HTK-style recipe.

use ivc_dsp::fft::{next_power_of_two, rfft_into};
use ivc_dsp::signal::Signal;
use ivc_dsp::window::WindowKind;
use ivc_dsp::{DspError, Result};

/// Analysis frame length in seconds.
const FRAME_S: f64 = 0.025;
/// Hop between frames in seconds.
const HOP_S: f64 = 0.010;
/// Number of triangular mel filters.
const NUM_FILTERS: usize = 26;
/// Number of cepstral coefficients kept (C1..C13; C0 gives way to the
/// frame's log energy, appended as the last dimension).
const NUM_COEFFICIENTS: usize = 13;
/// Pre-emphasis coefficient.
const PRE_EMPHASIS: f64 = 0.97;
/// Lower edge of the filterbank in Hz.
const LOW_FREQ_HZ: f64 = 80.0;
/// Upper edge of the filterbank in Hz (clamped to Nyquist).
const HIGH_FREQ_HZ: f64 = 8_000.0;

/// Dimensionality of each output frame: the cepstral coefficients plus the
/// log energy.
const FRAME_DIMENSION: usize = NUM_COEFFICIENTS + 1;

/// A sequence of MFCC frames: 13 cepstral coefficients plus the log energy
/// per frame, one frame every 10 ms.
#[derive(Debug, Clone, PartialEq)]
pub struct MfccFrames {
    /// One vector per frame.
    pub frames: Vec<Vec<f64>>,
}

impl MfccFrames {
    /// Index of the frame whose centre is closest to `time_s`.
    pub fn frame_at_time(&self, time_s: f64) -> usize {
        if self.frames.is_empty() {
            return 0;
        }
        let idx = ((time_s - FRAME_S / 2.0) / HOP_S).round();
        idx.clamp(0.0, (self.frames.len() - 1) as f64) as usize
    }
}

fn hz_to_mel(f: f64) -> f64 {
    2595.0 * (1.0 + f / 700.0).log10()
}

fn mel_to_hz(m: f64) -> f64 {
    700.0 * (10f64.powf(m / 2595.0) - 1.0)
}

/// Extracts MFCC frames from `signal`.
pub fn mfcc(signal: &Signal) -> Result<MfccFrames> {
    if signal.is_empty() {
        return Err(DspError::invalid("signal", "empty input"));
    }
    let fs = signal.sample_rate_hz();
    let frame_len = (FRAME_S * fs).round() as usize;
    let hop = (HOP_S * fs).round().max(1.0) as usize;
    if frame_len < 8 {
        return Err(DspError::invalid(
            "signal",
            "sample rate too low for a 25 ms analysis frame",
        ));
    }
    // Pre-emphasis.
    let mut emphasised = Vec::with_capacity(signal.len());
    let samples = signal.samples();
    emphasised.push(samples[0]);
    for i in 1..samples.len() {
        emphasised.push(samples[i] - PRE_EMPHASIS * samples[i - 1]);
    }

    let nfft = next_power_of_two(frame_len);
    let n_bins = nfft / 2 + 1;
    let window = WindowKind::Hamming.periodic(frame_len);
    let filterbank = build_filterbank(fs, nfft, n_bins);

    let mut frames = Vec::new();
    let mut spec = Vec::with_capacity(n_bins);
    let mut start = 0usize;
    while start + frame_len <= emphasised.len() || (start == 0 && !emphasised.is_empty()) {
        let end = (start + frame_len).min(emphasised.len());
        let mut frame: Vec<f64> = emphasised[start..end]
            .iter()
            .zip(window.iter())
            .map(|(s, w)| s * w)
            .collect();
        frame.resize(nfft, 0.0);
        let energy: f64 = frame.iter().map(|x| x * x).sum::<f64>().max(1e-12);
        rfft_into(&frame, nfft, &mut spec)?;
        let power: Vec<f64> = spec.iter().map(|c| c.norm_sqr()).collect();
        // Mel filterbank energies.
        let mut log_mel = Vec::with_capacity(NUM_FILTERS);
        for filter in &filterbank {
            let e: f64 = filter.iter().zip(power.iter()).map(|(w, p)| w * p).sum();
            log_mel.push(e.max(1e-12).ln());
        }
        // DCT-II to cepstral coefficients C1..Cn (C0 discarded in favour of
        // the explicit energy term).
        let mut coeffs = Vec::with_capacity(FRAME_DIMENSION);
        for k in 1..=NUM_COEFFICIENTS {
            let mut acc = 0.0;
            for (m, &lm) in log_mel.iter().enumerate() {
                acc += lm
                    * (std::f64::consts::PI * k as f64 * (m as f64 + 0.5) / NUM_FILTERS as f64)
                        .cos();
            }
            coeffs.push(acc * (2.0 / NUM_FILTERS as f64).sqrt());
        }
        coeffs.push(energy.ln());
        frames.push(coeffs);
        if start + frame_len >= emphasised.len() {
            break;
        }
        start += hop;
    }
    Ok(MfccFrames { frames })
}

fn build_filterbank(fs: f64, nfft: usize, n_bins: usize) -> Vec<Vec<f64>> {
    let high = HIGH_FREQ_HZ.min(fs / 2.0);
    let mel_low = hz_to_mel(LOW_FREQ_HZ);
    let mel_high = hz_to_mel(high);
    let n = NUM_FILTERS;
    let mel_points: Vec<f64> = (0..n + 2)
        .map(|i| mel_low + (mel_high - mel_low) * i as f64 / (n + 1) as f64)
        .collect();
    let bin_of = |f: f64| f / fs * nfft as f64;
    let mut filterbank = Vec::with_capacity(n);
    for m in 1..=n {
        let left = bin_of(mel_to_hz(mel_points[m - 1]));
        let centre = bin_of(mel_to_hz(mel_points[m]));
        let right = bin_of(mel_to_hz(mel_points[m + 1]));
        let mut filter = vec![0.0; n_bins];
        for (k, w) in filter.iter_mut().enumerate() {
            let kf = k as f64;
            if kf >= left && kf <= centre && centre > left {
                *w = (kf - left) / (centre - left);
            } else if kf > centre && kf <= right && right > centre {
                *w = (right - kf) / (right - centre);
            }
        }
        filterbank.push(filter);
    }
    filterbank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, fs: f64, dur: f64) -> Signal {
        Signal::tone(freq, 0.5, dur, fs).unwrap()
    }

    #[test]
    fn validation() {
        let empty = Signal::new(vec![], 16_000.0).unwrap();
        assert!(mfcc(&empty).is_err());
        // 25 ms at 200 Hz is 5 samples: too few for a frame.
        assert!(mfcc(&tone(50.0, 200.0, 1.0)).is_err());
    }

    #[test]
    fn frame_count_matches_hop_arithmetic() {
        let fs = 16_000.0;
        let s = tone(440.0, fs, 1.0);
        let frames = mfcc(&s).unwrap();
        // (1.0 - 0.025) / 0.010 + 1 ~ 98-99 frames.
        let n = frames.frames.len();
        assert!((96..=100).contains(&n), "frames {n}");
        assert_eq!(frames.frames[0].len(), FRAME_DIMENSION);
    }

    #[test]
    fn different_vowel_like_spectra_give_different_mfccs() {
        let fs = 16_000.0;
        // Two tones at very different frequencies act as crude vowel stand-ins.
        let a = mfcc(&tone(300.0, fs, 0.3)).unwrap();
        let b = mfcc(&tone(2_500.0, fs, 0.3)).unwrap();
        let mid_a = &a.frames[a.frames.len() / 2];
        let mid_b = &b.frames[b.frames.len() / 2];
        let dist: f64 = mid_a
            .iter()
            .zip(mid_b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 5.0, "distance {dist}");
    }

    #[test]
    fn identical_signals_give_identical_mfccs() {
        let fs = 16_000.0;
        let s = tone(700.0, fs, 0.3);
        assert_eq!(mfcc(&s).unwrap(), mfcc(&s).unwrap());
    }

    #[test]
    fn energy_term_tracks_amplitude() {
        let fs = 16_000.0;
        let quiet = mfcc(&tone(500.0, fs, 0.3).scaled(0.1)).unwrap();
        let loud = mfcc(&tone(500.0, fs, 0.3)).unwrap();
        let e_quiet = quiet.frames[quiet.frames.len() / 2][FRAME_DIMENSION - 1];
        let e_loud = loud.frames[loud.frames.len() / 2][FRAME_DIMENSION - 1];
        assert!(e_loud > e_quiet + 2.0);
    }

    #[test]
    fn frame_at_time_lookup() {
        let fs = 16_000.0;
        let frames = mfcc(&tone(500.0, fs, 0.5)).unwrap();
        assert_eq!(frames.frame_at_time(-1.0), 0);
        assert_eq!(frames.frame_at_time(100.0), frames.frames.len() - 1);
        let mid = frames.frame_at_time(0.25);
        assert!(mid > 10 && mid < frames.frames.len() - 10);
    }

    #[test]
    fn short_signal_produces_at_least_one_frame() {
        let fs = 16_000.0;
        let s = tone(500.0, fs, 0.01);
        let frames = mfcc(&s).unwrap();
        assert_eq!(frames.frames.len(), 1);
    }
}
