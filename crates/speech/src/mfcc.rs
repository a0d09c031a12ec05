//! MFCC front-end: pre-emphasis, framing, mel filterbank, DCT.
//!
//! Mel-frequency cepstral coefficients are the lingua franca of classical
//! speech recognition; the DTW recogniser matches sequences of these
//! vectors.  The implementation follows the standard HTK-style recipe.

use crate::error::{Result, SpeechError};
use ivc_dsp::fft::{next_power_of_two, rfft_into};
use ivc_dsp::signal::Signal;
use ivc_dsp::window::WindowKind;

/// Configuration of the MFCC front-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MfccConfig {
    /// Analysis frame length in seconds.
    pub frame_s: f64,
    /// Hop between frames in seconds.
    pub hop_s: f64,
    /// Number of triangular mel filters.
    pub num_filters: usize,
    /// Number of cepstral coefficients to keep (excluding C0).
    pub num_coefficients: usize,
    /// Pre-emphasis coefficient.
    pub pre_emphasis: f64,
    /// Lower edge of the filterbank in Hz.
    pub low_freq_hz: f64,
    /// Upper edge of the filterbank in Hz (clamped to Nyquist).
    pub high_freq_hz: f64,
    /// Whether to append the frame's log energy as an extra dimension.
    pub append_energy: bool,
}

impl Default for MfccConfig {
    fn default() -> Self {
        MfccConfig {
            frame_s: 0.025,
            hop_s: 0.010,
            num_filters: 26,
            num_coefficients: 13,
            pre_emphasis: 0.97,
            low_freq_hz: 80.0,
            high_freq_hz: 8_000.0,
            append_energy: true,
        }
    }
}

impl MfccConfig {
    fn validate(&self) -> Result<()> {
        if self.frame_s <= 0.0 || self.hop_s <= 0.0 || self.hop_s > self.frame_s {
            return Err(SpeechError::invalid(
                "frame/hop",
                "need 0 < hop_s <= frame_s",
            ));
        }
        if self.num_filters < 4
            || self.num_coefficients == 0
            || self.num_coefficients > self.num_filters
        {
            return Err(SpeechError::invalid(
                "filterbank",
                "need 4 <= num_filters and 1 <= num_coefficients <= num_filters",
            ));
        }
        if self.low_freq_hz < 0.0 || self.high_freq_hz <= self.low_freq_hz {
            return Err(SpeechError::invalid(
                "band edges",
                "need 0 <= low_freq_hz < high_freq_hz",
            ));
        }
        Ok(())
    }

    /// Dimensionality of each output frame.
    pub fn frame_dimension(&self) -> usize {
        self.num_coefficients + usize::from(self.append_energy)
    }
}

/// A sequence of MFCC frames.
#[derive(Debug, Clone, PartialEq)]
pub struct MfccFrames {
    /// One vector per frame.
    pub frames: Vec<Vec<f64>>,
    /// Hop between frames in seconds.
    pub hop_s: f64,
    /// Centre time of the first frame in seconds.
    pub first_frame_time_s: f64,
}

impl MfccFrames {
    /// Index of the frame whose centre is closest to `time_s`.
    pub fn frame_at_time(&self, time_s: f64) -> usize {
        if self.frames.is_empty() {
            return 0;
        }
        let idx = ((time_s - self.first_frame_time_s) / self.hop_s).round();
        idx.clamp(0.0, (self.frames.len() - 1) as f64) as usize
    }

    /// Cepstral mean normalisation: subtract the per-dimension mean over the
    /// whole utterance.
    ///
    /// A linear channel (speaker response, microphone roll-off, the spectral
    /// tilt the ultrasonic demodulation path imposes) multiplies every
    /// frame's spectrum by the same transfer function, which adds the same
    /// constant to every cepstral vector — removing the utterance mean
    /// removes the channel.  Applied to both templates and queries it makes
    /// the DTW distance compare *speech content* rather than *recording
    /// chains*.
    ///
    /// Only the first `num_dims` dimensions are normalised, so callers can
    /// exclude the appended log-energy term (the usual CMN practice: energy
    /// carries the speech/silence contour, which the channel does not bias
    /// the way it biases the spectral envelope).
    pub fn apply_mean_normalization(&mut self, num_dims: usize) {
        if self.frames.is_empty() {
            return;
        }
        let dim = self.frames[0].len().min(num_dims);
        let mut mean = vec![0.0; dim];
        for frame in &self.frames {
            for (m, x) in mean.iter_mut().zip(frame.iter()) {
                *m += x;
            }
        }
        let n = self.frames.len() as f64;
        for m in &mut mean {
            *m /= n;
        }
        for frame in &mut self.frames {
            for (x, m) in frame.iter_mut().zip(mean.iter()) {
                *x -= m;
            }
        }
    }
}

fn hz_to_mel(f: f64) -> f64 {
    2595.0 * (1.0 + f / 700.0).log10()
}

fn mel_to_hz(m: f64) -> f64 {
    700.0 * (10f64.powf(m / 2595.0) - 1.0)
}

/// Extracts MFCC frames from `signal`.
pub fn mfcc(signal: &Signal, config: &MfccConfig) -> Result<MfccFrames> {
    config.validate()?;
    if signal.is_empty() {
        return Err(SpeechError::invalid("signal", "empty input"));
    }
    let fs = signal.sample_rate_hz();
    let frame_len = (config.frame_s * fs).round() as usize;
    let hop = (config.hop_s * fs).round().max(1.0) as usize;
    if frame_len < 8 {
        return Err(SpeechError::invalid(
            "frame_s",
            "too short for this sample rate",
        ));
    }
    // Pre-emphasis.
    let mut emphasised = Vec::with_capacity(signal.len());
    let samples = signal.samples();
    emphasised.push(samples[0]);
    for i in 1..samples.len() {
        emphasised.push(samples[i] - config.pre_emphasis * samples[i - 1]);
    }

    let nfft = next_power_of_two(frame_len);
    let n_bins = nfft / 2 + 1;
    let window = WindowKind::Hamming.periodic(frame_len);
    let filterbank = build_filterbank(config, fs, nfft, n_bins);

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
        let mut log_mel = Vec::with_capacity(config.num_filters);
        for filter in &filterbank {
            let e: f64 = filter.iter().zip(power.iter()).map(|(w, p)| w * p).sum();
            log_mel.push(e.max(1e-12).ln());
        }
        // DCT-II to cepstral coefficients C1..Cn (C0 discarded in favour of
        // the explicit energy term).
        let mut coeffs = Vec::with_capacity(config.frame_dimension());
        for k in 1..=config.num_coefficients {
            let mut acc = 0.0;
            for (m, &lm) in log_mel.iter().enumerate() {
                acc += lm
                    * (std::f64::consts::PI * k as f64 * (m as f64 + 0.5)
                        / config.num_filters as f64)
                        .cos();
            }
            coeffs.push(acc * (2.0 / config.num_filters as f64).sqrt());
        }
        if config.append_energy {
            coeffs.push(energy.ln());
        }
        frames.push(coeffs);
        if start + frame_len >= emphasised.len() {
            break;
        }
        start += hop;
    }
    Ok(MfccFrames {
        frames,
        hop_s: config.hop_s,
        first_frame_time_s: config.frame_s / 2.0,
    })
}

fn build_filterbank(config: &MfccConfig, fs: f64, nfft: usize, n_bins: usize) -> Vec<Vec<f64>> {
    let high = config.high_freq_hz.min(fs / 2.0);
    let mel_low = hz_to_mel(config.low_freq_hz);
    let mel_high = hz_to_mel(high);
    let n = config.num_filters;
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
        let bad_frame = MfccConfig {
            hop_s: 0.05,
            frame_s: 0.02,
            ..MfccConfig::default()
        };
        assert!(mfcc(&tone(440.0, 16_000.0, 0.5), &bad_frame).is_err());
        let bad_filters = MfccConfig {
            num_filters: 2,
            ..MfccConfig::default()
        };
        assert!(mfcc(&tone(440.0, 16_000.0, 0.5), &bad_filters).is_err());
        let bad_band = MfccConfig {
            low_freq_hz: 5_000.0,
            high_freq_hz: 1_000.0,
            ..MfccConfig::default()
        };
        assert!(mfcc(&tone(440.0, 16_000.0, 0.5), &bad_band).is_err());
        let empty = Signal::new(vec![], 16_000.0).unwrap();
        assert!(mfcc(&empty, &MfccConfig::default()).is_err());
    }

    #[test]
    fn frame_count_matches_hop_arithmetic() {
        let fs = 16_000.0;
        let s = tone(440.0, fs, 1.0);
        let cfg = MfccConfig::default();
        let frames = mfcc(&s, &cfg).unwrap();
        // (1.0 - 0.025) / 0.010 + 1 ~ 98-99 frames.
        let n = frames.frames.len();
        assert!((96..=100).contains(&n), "frames {n}");
        assert_eq!(frames.frames[0].len(), cfg.frame_dimension());
        assert!((frames.hop_s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn different_vowel_like_spectra_give_different_mfccs() {
        let fs = 16_000.0;
        let cfg = MfccConfig::default();
        // Two tones at very different frequencies act as crude vowel stand-ins.
        let a = mfcc(&tone(300.0, fs, 0.3), &cfg).unwrap();
        let b = mfcc(&tone(2_500.0, fs, 0.3), &cfg).unwrap();
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
        let cfg = MfccConfig::default();
        let s = tone(700.0, fs, 0.3);
        assert_eq!(mfcc(&s, &cfg).unwrap(), mfcc(&s, &cfg).unwrap());
    }

    #[test]
    fn energy_term_tracks_amplitude() {
        let fs = 16_000.0;
        let cfg = MfccConfig::default();
        let quiet = mfcc(&tone(500.0, fs, 0.3).scaled(0.1), &cfg).unwrap();
        let loud = mfcc(&tone(500.0, fs, 0.3), &cfg).unwrap();
        let dim = cfg.frame_dimension();
        let e_quiet = quiet.frames[quiet.frames.len() / 2][dim - 1];
        let e_loud = loud.frames[loud.frames.len() / 2][dim - 1];
        assert!(e_loud > e_quiet + 2.0);
    }

    #[test]
    fn frame_at_time_lookup() {
        let fs = 16_000.0;
        let frames = mfcc(&tone(500.0, fs, 0.5), &MfccConfig::default()).unwrap();
        assert_eq!(frames.frame_at_time(-1.0), 0);
        assert_eq!(frames.frame_at_time(100.0), frames.frames.len() - 1);
        let mid = frames.frame_at_time(0.25);
        assert!(mid > 10 && mid < frames.frames.len() - 10);
    }

    #[test]
    fn mean_normalization_zeroes_cepstral_means_but_keeps_energy() {
        let fs = 16_000.0;
        let cfg = MfccConfig::default();
        let mut frames = mfcc(&tone(700.0, fs, 0.4), &cfg).unwrap();
        let energy_before: Vec<f64> = frames
            .frames
            .iter()
            .map(|f| f[cfg.frame_dimension() - 1])
            .collect();
        frames.apply_mean_normalization(cfg.num_coefficients);
        let n = frames.frames.len() as f64;
        for k in 0..cfg.num_coefficients {
            let mean: f64 = frames.frames.iter().map(|f| f[k]).sum::<f64>() / n;
            assert!(mean.abs() < 1e-9, "dim {k} mean {mean}");
        }
        let energy_after: Vec<f64> = frames
            .frames
            .iter()
            .map(|f| f[cfg.frame_dimension() - 1])
            .collect();
        assert_eq!(energy_before, energy_after);
    }

    #[test]
    fn mean_normalization_removes_a_constant_spectral_tilt() {
        // A linear channel (here: pre-emphasis difference acting as a tilt)
        // shifts every frame's cepstrum by the same offset; after CMN the
        // two versions of the same signal should be nearly identical.
        let fs = 16_000.0;
        let cfg = MfccConfig::default();
        let tilted_cfg = MfccConfig {
            pre_emphasis: 0.5,
            ..cfg
        };
        let s = tone(700.0, fs, 0.4);
        let mut a = mfcc(&s, &cfg).unwrap();
        let mut b = mfcc(&s, &tilted_cfg).unwrap();
        let dist = |x: &MfccFrames, y: &MfccFrames| -> f64 {
            x.frames
                .iter()
                .zip(y.frames.iter())
                .map(|(p, q)| {
                    p.iter()
                        .take(cfg.num_coefficients)
                        .zip(q.iter())
                        .map(|(u, v)| (u - v) * (u - v))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
                / x.frames.len() as f64
        };
        let before = dist(&a, &b);
        a.apply_mean_normalization(cfg.num_coefficients);
        b.apply_mean_normalization(cfg.num_coefficients);
        let after = dist(&a, &b);
        assert!(after < before * 0.5, "before {before} after {after}");
    }

    #[test]
    fn short_signal_produces_at_least_one_frame() {
        let fs = 16_000.0;
        let s = tone(500.0, fs, 0.01);
        let frames = mfcc(&s, &MfccConfig::default()).unwrap();
        assert_eq!(frames.frames.len(), 1);
    }
}
