//! Energy-based voice activity detection.
//!
//! The defense only needs a coarse segmentation: which part of a recording
//! contains the (real or injected) command, so that features are computed
//! over speech rather than silence.

use crate::error::{Result, SpeechError};
use ivc_dsp::signal::Signal;

/// Configuration of the energy-based VAD.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VadConfig {
    /// Analysis frame length in seconds.
    pub frame_s: f64,
    /// Threshold above the noise floor, in dB, for a frame to count as speech.
    pub threshold_db: f64,
    /// Minimum speech duration in seconds for a region to be kept.
    pub min_region_s: f64,
}

impl Default for VadConfig {
    fn default() -> Self {
        VadConfig {
            frame_s: 0.02,
            threshold_db: 9.0,
            min_region_s: 0.05,
        }
    }
}

/// A detected speech region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeechRegion {
    /// Start time in seconds.
    pub start_s: f64,
    /// End time in seconds.
    pub end_s: f64,
}

impl SpeechRegion {
    /// Duration of the region in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Detects speech regions in `signal`.
pub fn detect_speech(signal: &Signal, config: &VadConfig) -> Result<Vec<SpeechRegion>> {
    if signal.is_empty() {
        return Err(SpeechError::invalid("signal", "empty input"));
    }
    if config.frame_s <= 0.0 || config.min_region_s < 0.0 {
        return Err(SpeechError::invalid(
            "VadConfig",
            "frame_s must be positive",
        ));
    }
    let fs = signal.sample_rate_hz();
    let frame_len = ((config.frame_s * fs).round() as usize).max(1);
    let samples = signal.samples();
    let n_frames = samples.len().div_ceil(frame_len);
    let energies: Vec<f64> = (0..n_frames)
        .map(|i| {
            let start = i * frame_len;
            let end = (start + frame_len).min(samples.len());
            let e: f64 = samples[start..end].iter().map(|x| x * x).sum();
            (e / (end - start).max(1) as f64).max(1e-20)
        })
        .collect();
    // Noise floor: the 20th percentile of frame energies.
    let mut sorted = energies.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let floor = sorted[(sorted.len() as f64 * 0.2) as usize].max(1e-20);
    let threshold = floor * 10f64.powf(config.threshold_db / 10.0);

    let mut regions = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &e) in energies.iter().enumerate() {
        if e >= threshold {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            push_region(&mut regions, s, i, frame_len, fs, config.min_region_s);
        }
    }
    if let Some(s) = start {
        push_region(
            &mut regions,
            s,
            energies.len(),
            frame_len,
            fs,
            config.min_region_s,
        );
    }
    Ok(regions)
}

fn push_region(
    regions: &mut Vec<SpeechRegion>,
    start_frame: usize,
    end_frame: usize,
    frame_len: usize,
    fs: f64,
    min_region_s: f64,
) {
    let region = SpeechRegion {
        start_s: start_frame as f64 * frame_len as f64 / fs,
        end_s: end_frame as f64 * frame_len as f64 / fs,
    };
    if region.duration_s() >= min_region_s {
        regions.push(region);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let empty = Signal::new(vec![], 16_000.0).unwrap();
        assert!(detect_speech(&empty, &VadConfig::default()).is_err());
        let s = Signal::tone(440.0, 0.5, 0.2, 16_000.0).unwrap();
        let bad = VadConfig {
            frame_s: 0.0,
            ..VadConfig::default()
        };
        assert!(detect_speech(&s, &bad).is_err());
    }

    #[test]
    fn detects_a_burst_in_silence() {
        let fs = 16_000.0;
        let mut s = Signal::silence(0.5, fs).unwrap();
        let burst = Signal::tone(800.0, 0.5, 0.3, fs).unwrap();
        s.append(&burst).unwrap();
        s.append(&Signal::silence(0.5, fs).unwrap()).unwrap();
        let regions = detect_speech(&s, &VadConfig::default()).unwrap();
        assert_eq!(regions.len(), 1);
        let r = regions[0];
        assert!((r.start_s - 0.5).abs() < 0.06, "start {}", r.start_s);
        assert!((r.end_s - 0.8).abs() < 0.06, "end {}", r.end_s);
    }

    #[test]
    fn detects_multiple_bursts() {
        let fs = 16_000.0;
        let mut s = Signal::silence(0.3, fs).unwrap();
        s.append(&Signal::tone(600.0, 0.5, 0.2, fs).unwrap())
            .unwrap();
        s.append(&Signal::silence(0.3, fs).unwrap()).unwrap();
        s.append(&Signal::tone(600.0, 0.5, 0.2, fs).unwrap())
            .unwrap();
        s.append(&Signal::silence(0.3, fs).unwrap()).unwrap();
        let regions = detect_speech(&s, &VadConfig::default()).unwrap();
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn short_blips_are_discarded() {
        let fs = 16_000.0;
        let mut s = Signal::silence(0.5, fs).unwrap();
        s.append(&Signal::tone(600.0, 0.5, 0.01, fs).unwrap())
            .unwrap();
        s.append(&Signal::silence(0.5, fs).unwrap()).unwrap();
        let regions = detect_speech(&s, &VadConfig::default()).unwrap();
        assert!(regions.is_empty());
    }

    #[test]
    fn pure_silence_has_no_regions() {
        let fs = 16_000.0;
        let s = Signal::silence(1.0, fs).unwrap();
        let regions = detect_speech(&s, &VadConfig::default()).unwrap();
        assert!(regions.is_empty());
    }
}
