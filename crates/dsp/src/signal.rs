//! The [`Signal`] container: samples plus a sample rate.
//!
//! `Signal` is the common currency passed between the DSP, acoustics,
//! speech, attack and defense crates.  It deliberately stays thin: a
//! `Vec<f64>` of samples, a sample rate, and the handful of operations that
//! every layer needs (mixing, scaling, normalisation, RMS/peak measurement,
//! slicing by time).

use crate::error::{DspError, Result};

/// A sampled real-valued signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    samples: Vec<f64>,
    sample_rate_hz: f64,
}

impl Signal {
    /// Creates a signal from raw samples.
    ///
    /// Returns an error if the sample rate is not strictly positive.
    pub fn new(samples: Vec<f64>, sample_rate_hz: f64) -> Result<Self> {
        if !(sample_rate_hz > 0.0) || !sample_rate_hz.is_finite() {
            return Err(DspError::InvalidSampleRate { sample_rate_hz });
        }
        Ok(Signal {
            samples,
            sample_rate_hz,
        })
    }

    /// Creates a silent signal of the given duration.
    pub fn silence(duration_s: f64, sample_rate_hz: f64) -> Result<Self> {
        let n = (duration_s * sample_rate_hz).round().max(0.0) as usize;
        Signal::new(vec![0.0; n], sample_rate_hz)
    }

    /// Creates a sine tone.
    pub fn tone(
        frequency_hz: f64,
        amplitude: f64,
        duration_s: f64,
        sample_rate_hz: f64,
    ) -> Result<Self> {
        if !(sample_rate_hz > 0.0) {
            return Err(DspError::InvalidSampleRate { sample_rate_hz });
        }
        if frequency_hz <= 0.0 || frequency_hz >= sample_rate_hz / 2.0 {
            return Err(DspError::InvalidFrequency {
                frequency_hz,
                nyquist_hz: sample_rate_hz / 2.0,
            });
        }
        let n = (duration_s * sample_rate_hz).round().max(0.0) as usize;
        let w = 2.0 * std::f64::consts::PI * frequency_hz / sample_rate_hz;
        let samples = (0..n).map(|i| amplitude * (w * i as f64).sin()).collect();
        Signal::new(samples, sample_rate_hz)
    }

    /// Immutable view of the samples.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable view of the samples.
    #[inline]
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Consumes the signal, returning the sample vector.
    #[inline]
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Sample rate in Hz.
    #[inline]
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the signal holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration in seconds.
    #[inline]
    pub fn duration_s(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate_hz
    }

    /// Nyquist frequency in Hz.
    #[inline]
    pub fn nyquist_hz(&self) -> f64 {
        self.sample_rate_hz / 2.0
    }

    /// Root-mean-square amplitude (0 for an empty signal).
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum_sq: f64 = self.samples.iter().map(|x| x * x).sum();
        (sum_sq / self.samples.len() as f64).sqrt()
    }

    /// Peak absolute amplitude (0 for an empty signal).
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()))
    }

    /// Total energy (sum of squared samples).
    pub fn energy(&self) -> f64 {
        self.samples.iter().map(|x| x * x).sum()
    }

    /// Multiplies every sample by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        for x in &mut self.samples {
            *x *= factor;
        }
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Signal {
        let mut out = self.clone();
        out.scale(factor);
        out
    }

    /// Normalises the peak amplitude to `target_peak` (no-op on silence).
    pub fn normalize_peak(&mut self, target_peak: f64) {
        let peak = self.peak();
        if peak > 0.0 {
            self.scale(target_peak / peak);
        }
    }

    /// Normalises the RMS amplitude to `target_rms` (no-op on silence).
    pub fn normalize_rms(&mut self, target_rms: f64) {
        let rms = self.rms();
        if rms > 0.0 {
            self.scale(target_rms / rms);
        }
    }

    /// Adds another signal sample-wise (mixing).  The other signal may be
    /// shorter or longer; samples beyond either length are taken as zero and
    /// the result has the length of the longer one.
    pub fn mix(&mut self, other: &Signal) -> Result<()> {
        if (self.sample_rate_hz - other.sample_rate_hz).abs() > 1e-9 {
            return Err(DspError::SampleRateMismatch {
                left_hz: self.sample_rate_hz,
                right_hz: other.sample_rate_hz,
            });
        }
        if other.samples.len() > self.samples.len() {
            self.samples.resize(other.samples.len(), 0.0);
        }
        for (dst, src) in self.samples.iter_mut().zip(other.samples.iter()) {
            *dst += *src;
        }
        Ok(())
    }

    /// Returns the sample-wise sum of two signals (see [`Signal::mix`]).
    pub fn mixed(&self, other: &Signal) -> Result<Signal> {
        let mut out = self.clone();
        out.mix(other)?;
        Ok(out)
    }

    /// Applies an arbitrary per-sample map, returning a new signal with the
    /// same sample rate.  Used to model memoryless non-linearities.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Signal {
        Signal {
            samples: self.samples.iter().map(|&x| f(x)).collect(),
            sample_rate_hz: self.sample_rate_hz,
        }
    }

    /// Extracts the samples between `start_s` and `end_s` (clamped to the
    /// signal bounds) as a new signal.
    pub fn slice_seconds(&self, start_s: f64, end_s: f64) -> Signal {
        let start =
            ((start_s * self.sample_rate_hz).round().max(0.0) as usize).min(self.samples.len());
        let end = ((end_s * self.sample_rate_hz).round().max(0.0) as usize).min(self.samples.len());
        let (start, end) = if start <= end {
            (start, end)
        } else {
            (end, start)
        };
        Signal {
            samples: self.samples[start..end].to_vec(),
            sample_rate_hz: self.sample_rate_hz,
        }
    }

    /// Appends `other` after this signal (concatenation in time).
    pub fn append(&mut self, other: &Signal) -> Result<()> {
        if (self.sample_rate_hz - other.sample_rate_hz).abs() > 1e-9 {
            return Err(DspError::SampleRateMismatch {
                left_hz: self.sample_rate_hz,
                right_hz: other.sample_rate_hz,
            });
        }
        self.samples.extend_from_slice(&other.samples);
        Ok(())
    }

    /// Pads the signal with `duration_s` seconds of silence at the end.
    pub fn pad_end(&mut self, duration_s: f64) {
        let extra = (duration_s * self.sample_rate_hz).round().max(0.0) as usize;
        self.samples.extend(std::iter::repeat(0.0).take(extra));
    }

    /// Removes the mean (DC component) in place.
    pub fn remove_dc(&mut self) {
        if self.samples.is_empty() {
            return;
        }
        let mean: f64 = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        for x in &mut self.samples {
            *x -= mean;
        }
    }

    /// Applies a linear fade-in and fade-out of the given duration, avoiding
    /// clicks when signals are concatenated or played.
    pub fn fade(&mut self, fade_s: f64) {
        let n = self.samples.len();
        let fade_n = ((fade_s * self.sample_rate_hz).round() as usize).min(n / 2);
        for i in 0..fade_n {
            let g = i as f64 / fade_n as f64;
            self.samples[i] *= g;
            self.samples[n - 1 - i] *= g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn construction_validates_sample_rate() {
        assert!(Signal::new(vec![0.0], 0.0).is_err());
        assert!(Signal::new(vec![0.0], -48_000.0).is_err());
        assert!(Signal::new(vec![0.0], f64::NAN).is_err());
        assert!(Signal::new(vec![0.0], 48_000.0).is_ok());
    }

    #[test]
    fn tone_has_expected_rms_and_duration() {
        let s = Signal::tone(1_000.0, 1.0, 1.0, 48_000.0).unwrap();
        assert_eq!(s.len(), 48_000);
        assert!(approx(s.duration_s(), 1.0, 1e-9));
        assert!(approx(s.rms(), 1.0 / 2f64.sqrt(), 1e-3));
        assert!(approx(s.peak(), 1.0, 1e-3));
    }

    #[test]
    fn tone_rejects_out_of_band_frequencies() {
        assert!(Signal::tone(30_000.0, 1.0, 0.1, 48_000.0).is_err());
        assert!(Signal::tone(0.0, 1.0, 0.1, 48_000.0).is_err());
        assert!(Signal::tone(-10.0, 1.0, 0.1, 48_000.0).is_err());
    }

    #[test]
    fn silence_is_silent() {
        let s = Signal::silence(0.5, 16_000.0).unwrap();
        assert_eq!(s.len(), 8_000);
        assert_eq!(s.rms(), 0.0);
        assert_eq!(s.peak(), 0.0);
    }

    #[test]
    fn scaling_and_normalisation() {
        let mut s = Signal::tone(440.0, 0.25, 0.1, 8_000.0).unwrap();
        s.normalize_peak(1.0);
        assert!(approx(s.peak(), 1.0, 1e-6));
        s.normalize_rms(0.1);
        assert!(approx(s.rms(), 0.1, 1e-9));
        let doubled = s.scaled(2.0);
        assert!(approx(doubled.rms(), 0.2, 1e-9));
    }

    #[test]
    fn mixing_extends_to_longer_signal() {
        let mut a = Signal::new(vec![1.0, 1.0], 8_000.0).unwrap();
        let b = Signal::new(vec![0.5, 0.5, 0.5, 0.5], 8_000.0).unwrap();
        a.mix(&b).unwrap();
        assert_eq!(a.samples(), &[1.5, 1.5, 0.5, 0.5]);
    }

    #[test]
    fn mixing_rejects_rate_mismatch() {
        let mut a = Signal::new(vec![1.0], 8_000.0).unwrap();
        let b = Signal::new(vec![1.0], 16_000.0).unwrap();
        assert!(a.mix(&b).is_err());
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn slicing_by_time() {
        let s = Signal::new((0..100).map(|i| i as f64).collect(), 100.0).unwrap();
        let mid = s.slice_seconds(0.25, 0.75);
        assert_eq!(mid.len(), 50);
        assert_eq!(mid.samples()[0], 25.0);
        // Out-of-range and inverted bounds are clamped / swapped.
        assert_eq!(s.slice_seconds(0.9, 2.0).len(), 10);
        assert_eq!(s.slice_seconds(0.75, 0.25).len(), 50);
    }

    #[test]
    fn padding_and_resize() {
        let mut s = Signal::new(vec![1.0; 10], 10.0).unwrap();
        s.pad_end(0.5);
        assert_eq!(s.len(), 15);
        assert_eq!(s.samples()[14], 0.0);
    }

    #[test]
    fn dc_removal_and_clipping() {
        let mut s = Signal::new(vec![2.0, 3.0, 4.0], 10.0).unwrap();
        s.remove_dc();
        assert!(approx(s.samples().iter().sum::<f64>(), 0.0, 1e-12));
    }

    #[test]
    fn fade_tapers_ends() {
        let mut s = Signal::new(vec![1.0; 100], 100.0).unwrap();
        s.fade(0.1);
        assert!(s.samples()[0].abs() < 1e-12);
        assert!((s.samples()[50] - 1.0).abs() < 1e-12);
        assert!(s.samples()[99] < 0.2);
    }

    #[test]
    fn map_applies_nonlinearity() {
        let s = Signal::new(vec![1.0, 2.0, -3.0], 10.0).unwrap();
        let sq = s.map(|x| x * x);
        assert_eq!(sq.samples(), &[1.0, 4.0, 9.0]);
        assert_eq!(sq.sample_rate_hz(), 10.0);
    }

    #[test]
    fn energy_matches_definition() {
        let s = Signal::new(vec![1.0, -2.0, 2.0], 10.0).unwrap();
        assert!(approx(s.energy(), 9.0, 1e-12));
    }
}
