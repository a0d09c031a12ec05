//! MFCC front-end: pre-emphasis, framing, mel filterbank, DCT.
//!
//! Mel-frequency cepstral coefficients are the lingua franca of classical
//! speech recognition; the DTW recogniser matches sequences of these
//! vectors.  The implementation follows the standard HTK-style recipe.
//!
//! # Tables and layout
//!
//! Everything that depends only on the sample rate is an [`MfccTables`],
//! built once per rate (the recogniser builds one for its 16 kHz analysis
//! rate): the periodic Hamming window, each of the 26 triangular mel
//! filters as its non-zero bin range, and the 13 × 26 DCT-II cosine table.
//! Each entry is the expression a per-frame computation would evaluate,
//! so every frame sees the same `f64`s.  A filter's energy sums only its
//! non-zero range: a dense sum over every bin differs from it only by
//! added `+0.0` terms (a weight of zero times a finite power), and adding
//! an exact zero leaves a finite sum unchanged, so the sums are the same.
//!
//! Frames are flat: frame `i` of a sequence is
//! `frames[i * FRAME_DIMENSION..(i + 1) * FRAME_DIMENSION]`, 13 cepstral
//! coefficients then the log energy.  The per-frame buffers
//! (pre-emphasised signal, windowed frame, spectrum, power, log-mel
//! energies) live in an [`MfccScratch`] the caller keeps across calls.

use ivc_dsp::complex::Complex;
use ivc_dsp::fft::{next_power_of_two, rfft_into};
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
pub const FRAME_DIMENSION: usize = NUM_COEFFICIENTS + 1;

/// Index of the frame whose centre is closest to `time_s` in a sequence of
/// `num_frames` frames (0 for an empty sequence).
pub fn frame_at_time(num_frames: usize, time_s: f64) -> usize {
    if num_frames == 0 {
        return 0;
    }
    let idx = ((time_s - FRAME_S / 2.0) / HOP_S).round();
    idx.clamp(0.0, (num_frames - 1) as f64) as usize
}

fn hz_to_mel(f: f64) -> f64 {
    2595.0 * (1.0 + f / 700.0).log10()
}

fn mel_to_hz(m: f64) -> f64 {
    700.0 * (10f64.powf(m / 2595.0) - 1.0)
}

/// The rate-dependent tables of MFCC extraction (see the
/// [module documentation](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct MfccTables {
    frame_len: usize,
    hop: usize,
    nfft: usize,
    window: Vec<f64>,
    /// Each filter as `(first non-zero bin, weights from that bin on)`.
    filters: Vec<(usize, Vec<f64>)>,
    /// `cosines[(k - 1) * NUM_FILTERS + m]` multiplies log-mel energy `m`
    /// in coefficient `C_k`.
    cosines: Vec<f64>,
}

/// Reusable per-frame buffers of [`MfccTables::extract_into`].
#[derive(Debug, Default)]
pub struct MfccScratch {
    emphasised: Vec<f64>,
    frame: Vec<f64>,
    spectrum: Vec<Complex>,
    power: Vec<f64>,
    log_mel: Vec<f64>,
}

impl MfccTables {
    /// The tables for signals sampled at `sample_rate_hz`; a rate too low
    /// for a 25 ms frame of at least 8 samples is refused.
    pub fn new(sample_rate_hz: f64) -> Result<Self> {
        let fs = sample_rate_hz;
        let frame_len = (FRAME_S * fs).round() as usize;
        let hop = (HOP_S * fs).round().max(1.0) as usize;
        if frame_len < 8 {
            return Err(DspError::invalid(
                "signal",
                "sample rate too low for a 25 ms analysis frame",
            ));
        }
        let nfft = next_power_of_two(frame_len);
        let filters = build_filterbank(fs, nfft, nfft / 2 + 1)
            .into_iter()
            .map(|dense| match dense.iter().position(|&w| w != 0.0) {
                Some(first) => {
                    let last = dense.iter().rposition(|&w| w != 0.0).unwrap_or(first);
                    (first, dense[first..=last].to_vec())
                }
                None => (0, Vec::new()),
            })
            .collect();
        let cosines = (1..=NUM_COEFFICIENTS)
            .flat_map(|k| {
                (0..NUM_FILTERS).map(move |m| {
                    (std::f64::consts::PI * k as f64 * (m as f64 + 0.5) / NUM_FILTERS as f64).cos()
                })
            })
            .collect();
        Ok(MfccTables {
            frame_len,
            hop,
            nfft,
            window: WindowKind::Hamming.periodic(frame_len),
            filters,
            cosines,
        })
    }

    /// Extracts the MFCC frames of `samples` (at the tables' rate),
    /// replacing the contents of `frames` with them (flat, see the
    /// [module documentation](self)), and returns the frame count.  A
    /// signal shorter than one frame gives one zero-padded frame.
    pub fn extract_into(
        &self,
        samples: &[f64],
        scratch: &mut MfccScratch,
        frames: &mut Vec<f64>,
    ) -> Result<usize> {
        if samples.is_empty() {
            return Err(DspError::invalid("signal", "empty input"));
        }
        let (frame_len, nfft) = (self.frame_len, self.nfft);
        let MfccScratch {
            emphasised,
            frame,
            spectrum,
            power,
            log_mel,
        } = scratch;
        emphasised.clear();
        emphasised.push(samples[0]);
        emphasised.extend(
            samples
                .windows(2)
                .map(|pair| pair[1] - PRE_EMPHASIS * pair[0]),
        );

        frames.clear();
        let scale = (2.0 / NUM_FILTERS as f64).sqrt();
        let mut start = 0usize;
        while start == 0 || start + frame_len <= emphasised.len() {
            let end = (start + frame_len).min(emphasised.len());
            frame.clear();
            frame.extend(
                emphasised[start..end]
                    .iter()
                    .zip(&self.window)
                    .map(|(s, w)| s * w),
            );
            frame.resize(nfft, 0.0);
            let energy: f64 = frame.iter().map(|x| x * x).sum::<f64>().max(1e-12);
            rfft_into(frame, nfft, spectrum)?;
            power.clear();
            power.extend(spectrum.iter().map(|c| c.norm_sqr()));
            // Mel filterbank energies over each filter's non-zero bins.
            log_mel.clear();
            log_mel.extend(self.filters.iter().map(|(first, weights)| {
                let e: f64 = weights
                    .iter()
                    .zip(&power[*first..])
                    .map(|(w, p)| w * p)
                    .sum();
                e.max(1e-12).ln()
            }));
            // DCT-II to cepstral coefficients C1..Cn (C0 discarded in
            // favour of the explicit energy term).
            for cosines in self.cosines.chunks_exact(NUM_FILTERS) {
                let mut acc = 0.0;
                for (lm, c) in log_mel.iter().zip(cosines) {
                    acc += lm * c;
                }
                frames.push(acc * scale);
            }
            frames.push(energy.ln());
            if start + frame_len >= emphasised.len() {
                break;
            }
            start += self.hop;
        }
        Ok(frames.len() / FRAME_DIMENSION)
    }
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

/// The per-call MFCC this module's tables replaced, kept as the oracle the
/// tables are checked against bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use ivc_dsp::signal::Signal;

    /// Extracts MFCC frames from `signal`, one vector per frame.
    pub(crate) fn mfcc(signal: &Signal) -> Result<Vec<Vec<f64>>> {
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
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::signal::Signal;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tone(freq: f64, fs: f64, dur: f64) -> Signal {
        Signal::tone(freq, 0.5, dur, fs).unwrap()
    }

    /// The flat MFCC frames of `signal`, from tables built for its rate.
    fn mfcc(signal: &Signal) -> Result<Vec<f64>> {
        let mut frames = Vec::new();
        MfccTables::new(signal.sample_rate_hz())?.extract_into(
            signal.samples(),
            &mut MfccScratch::default(),
            &mut frames,
        )?;
        Ok(frames)
    }

    /// Frame `i` of a flat sequence.
    fn frame(frames: &[f64], i: usize) -> &[f64] {
        &frames[i * FRAME_DIMENSION..(i + 1) * FRAME_DIMENSION]
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
        assert_eq!(frames.len() % FRAME_DIMENSION, 0);
        let n = frames.len() / FRAME_DIMENSION;
        assert!((96..=100).contains(&n), "frames {n}");
    }

    #[test]
    fn different_vowel_like_spectra_give_different_mfccs() {
        let fs = 16_000.0;
        // Two tones at very different frequencies act as crude vowel stand-ins.
        let a = mfcc(&tone(300.0, fs, 0.3)).unwrap();
        let b = mfcc(&tone(2_500.0, fs, 0.3)).unwrap();
        let mid_a = frame(&a, a.len() / FRAME_DIMENSION / 2);
        let mid_b = frame(&b, b.len() / FRAME_DIMENSION / 2);
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
        let e_quiet = frame(&quiet, quiet.len() / FRAME_DIMENSION / 2)[FRAME_DIMENSION - 1];
        let e_loud = frame(&loud, loud.len() / FRAME_DIMENSION / 2)[FRAME_DIMENSION - 1];
        assert!(e_loud > e_quiet + 2.0);
    }

    #[test]
    fn frame_at_time_lookup() {
        let fs = 16_000.0;
        let n = mfcc(&tone(500.0, fs, 0.5)).unwrap().len() / FRAME_DIMENSION;
        assert_eq!(frame_at_time(n, -1.0), 0);
        assert_eq!(frame_at_time(n, 100.0), n - 1);
        let mid = frame_at_time(n, 0.25);
        assert!(mid > 10 && mid < n - 10);
        assert_eq!(frame_at_time(0, 0.25), 0);
    }

    #[test]
    fn short_signal_produces_at_least_one_frame() {
        let fs = 16_000.0;
        let s = tone(500.0, fs, 0.01);
        let frames = mfcc(&s).unwrap();
        assert_eq!(frames.len(), FRAME_DIMENSION);
    }

    #[test]
    fn tables_match_the_per_call_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        let noise: Vec<f64> = (0..12_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut with_silence = Signal::silence(0.2, 16_000.0).unwrap();
        with_silence.append(&tone(1_200.0, 16_000.0, 0.3)).unwrap();
        // Long before short, so a reused scratch and output must shrink.
        let signals = [
            tone(440.0, 16_000.0, 1.0),
            Signal::new(noise, 16_000.0).unwrap(),
            with_silence,
            Signal::silence(0.3, 16_000.0).unwrap(),
            tone(300.0, 16_000.0, 0.01),
            Signal::new(vec![0.25], 16_000.0).unwrap(),
        ];
        let tables = MfccTables::new(16_000.0).unwrap();
        let mut scratch = MfccScratch::default();
        let mut frames = Vec::new();
        for signal in &signals {
            let n = tables
                .extract_into(signal.samples(), &mut scratch, &mut frames)
                .unwrap();
            let expected = reference::mfcc(signal).unwrap();
            assert_eq!(n, expected.len());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&frames), bits(&expected.concat()));
        }
        // Other rates, including one whose top filters reach Nyquist.
        for fs in [8_000.0, 22_050.0, 48_000.0] {
            let signal = tone(700.0, fs, 0.2);
            let frames = mfcc(&signal).unwrap();
            assert_eq!(frames, reference::mfcc(&signal).unwrap().concat());
        }
    }
}
