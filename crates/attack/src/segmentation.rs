//! Spectrum segmentation: the core trick of the long-range attack.
//!
//! The modulated attack signal has two parts: the carrier and the sidebands
//! (the voice spectrum shifted up around the carrier).  A non-linearity only
//! recreates the voice when it sees **both** at once, because the audible
//! product is `carrier × sideband`.  The segmentation therefore:
//!
//! 1. gives the carrier its own speaker (element 0), and
//! 2. splits the voice baseband into narrow contiguous slices, one per
//!    remaining speaker, each slice DSB-SC-modulated onto the same carrier.
//!
//! A single element's self-intermodulation can then only produce
//! `slice × slice` products, which live below the slice's own bandwidth
//! (tens to hundreds of hertz of unintelligible rumble), while the full
//! `carrier × slice` voice reconstruction happens only where all elements'
//! sound waves meet a shared non-linearity: inside the victim microphone.

use crate::error::{AttackError, Result};
use ivc_dsp::filter::fir::FirFilter;
use ivc_dsp::modulation::dsb_sc_modulate;
use ivc_dsp::signal::Signal;
use ivc_dsp::window::WindowKind;

/// One frequency slice of the baseband.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumSlice {
    /// Lower edge in Hz.
    pub low_hz: f64,
    /// Upper edge in Hz.
    pub high_hz: f64,
}

/// Number of taps of the per-slice band-pass FIR filters.
pub const SLICE_FILTER_TAPS: usize = 511;

/// The full segmentation plan: which slice goes to which element.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentationPlan {
    /// Slices assigned to elements `1..=slices.len()`; element 0 carries the
    /// carrier alone.
    pub slices: Vec<SpectrumSlice>,
    /// Baseband bandwidth that was segmented, in Hz.
    pub baseband_bandwidth_hz: f64,
}

/// Splits `[low_hz, high_hz]` into `num_slices` contiguous slices.
pub fn plan_segmentation(low_hz: f64, high_hz: f64, num_slices: usize) -> Result<SegmentationPlan> {
    if num_slices == 0 {
        return Err(AttackError::invalid("num_slices", "must be at least 1"));
    }
    if !(low_hz >= 0.0) || high_hz <= low_hz {
        return Err(AttackError::invalid("band", "need 0 <= low_hz < high_hz"));
    }
    let width = (high_hz - low_hz) / num_slices as f64;
    let slices = (0..num_slices)
        .map(|i| SpectrumSlice {
            low_hz: low_hz + i as f64 * width,
            high_hz: low_hz + (i + 1) as f64 * width,
        })
        .collect();
    Ok(SegmentationPlan {
        slices,
        baseband_bandwidth_hz: high_hz - low_hz,
    })
}

/// The per-element drive signals produced by segmenting a baseband.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedDrives {
    /// Drive for element 0: the bare carrier.
    pub carrier_drive: Signal,
    /// Drives for elements `1..`: each slice modulated on the carrier.
    /// All sideband drives share one normalisation factor so that their sum
    /// reconstructs the baseband's spectral balance.
    pub sideband_drives: Vec<Signal>,
    /// The segmentation plan used.
    pub plan: SegmentationPlan,
    /// Carrier frequency in Hz.
    pub carrier_hz: f64,
}

/// Builds the per-element drives for a prepared baseband.
///
/// `num_sideband_elements` is the number of elements available for sideband
/// slices (the carrier element is extra).  The baseband must already be at
/// the ultrasonic playback rate (see [`crate::baseband::prepare_baseband`]).
pub fn segment_baseband(
    baseband: &Signal,
    carrier_hz: f64,
    baseband_bandwidth_hz: f64,
    num_sideband_elements: usize,
) -> Result<SegmentedDrives> {
    if baseband.is_empty() {
        return Err(AttackError::invalid("baseband", "empty signal"));
    }
    if num_sideband_elements == 0 {
        return Err(AttackError::invalid(
            "num_sideband_elements",
            "must be at least 1",
        ));
    }
    let fs = baseband.sample_rate_hz();
    if carrier_hz <= 20_000.0 + baseband_bandwidth_hz
        || carrier_hz >= fs / 2.0 - baseband_bandwidth_hz
    {
        return Err(AttackError::invalid(
            "carrier_hz",
            "carrier must keep both sidebands ultrasonic and below Nyquist",
        ));
    }
    let plan = plan_segmentation(50.0, baseband_bandwidth_hz, num_sideband_elements)?;

    // Carrier drive: a unit-amplitude cosine at the carrier frequency.
    let n = baseband.len();
    let w = 2.0 * std::f64::consts::PI * carrier_hz / fs;
    let carrier_drive = Signal::new((0..n).map(|i| (w * i as f64).cos()).collect(), fs)?;

    // Slice the baseband and modulate each slice.
    let mut modulated: Vec<Signal> = Vec::with_capacity(num_sideband_elements);
    for slice in &plan.slices {
        let sliced = if num_sideband_elements == 1 {
            // One element: keep the whole band (low-pass only).
            let lpf = FirFilter::low_pass(slice.high_hz, fs, 255, WindowKind::Hamming)?;
            lpf.filter_signal(baseband)?
        } else {
            let taps = SLICE_FILTER_TAPS;
            let bpf = FirFilter::band_pass(
                slice.low_hz.max(30.0),
                slice.high_hz,
                fs,
                taps,
                WindowKind::Hamming,
            )?;
            bpf.filter_signal(baseband)?
        };
        modulated.push(dsb_sc_modulate(&sliced, carrier_hz)?);
    }
    // Shared normalisation: scale all sideband drives by the same factor so
    // that the loudest one peaks at 1.0.
    let max_peak = modulated
        .iter()
        .map(|s| s.peak())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let sideband_drives: Vec<Signal> = modulated
        .into_iter()
        .map(|s| s.scaled(1.0 / max_peak))
        .collect();

    Ok(SegmentedDrives {
        carrier_drive,
        sideband_drives,
        plan,
        carrier_hz,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::spectrum::band_power;

    fn synthetic_baseband(fs: f64) -> Signal {
        // A voice-like mixture: components at 300, 1200 and 3000 Hz.
        let mut s = Signal::tone(300.0, 0.5, 0.3, fs).unwrap();
        s.mix(&Signal::tone(1_200.0, 0.4, 0.3, fs).unwrap())
            .unwrap();
        s.mix(&Signal::tone(3_000.0, 0.3, 0.3, fs).unwrap())
            .unwrap();
        s.normalize_peak(1.0);
        s
    }

    #[test]
    fn plan_validation_and_shape() {
        assert!(plan_segmentation(50.0, 8_000.0, 0).is_err());
        assert!(plan_segmentation(5_000.0, 1_000.0, 4).is_err());
        let plan = plan_segmentation(50.0, 8_000.0, 10).unwrap();
        assert_eq!(plan.slices.len(), 10);
        assert!((plan.slices[0].low_hz - 50.0).abs() < 1e-9);
        assert!((plan.slices[9].high_hz - 8_000.0).abs() < 1e-9);
        // Slices tile the band without gaps.
        for w in plan.slices.windows(2) {
            assert!((w[0].high_hz - w[1].low_hz).abs() < 1e-9);
        }
        let total: f64 = plan.slices.iter().map(|s| s.high_hz - s.low_hz).sum();
        assert!((total - 7_950.0).abs() < 1e-6);
    }

    #[test]
    fn segmentation_validation() {
        let fs = 192_000.0;
        let baseband = synthetic_baseband(fs);
        assert!(segment_baseband(&baseband, 40_000.0, 8_000.0, 0).is_err());
        assert!(segment_baseband(&baseband, 25_000.0, 8_000.0, 4).is_err());
        assert!(segment_baseband(&baseband, 95_000.0, 8_000.0, 4).is_err());
        assert!(segment_baseband(&Signal::new(vec![], fs).unwrap(), 40_000.0, 8_000.0, 4).is_err());
    }

    #[test]
    fn carrier_element_is_a_pure_tone() {
        let fs = 192_000.0;
        let baseband = synthetic_baseband(fs);
        let seg = segment_baseband(&baseband, 40_000.0, 8_000.0, 4).unwrap();
        assert_eq!(seg.sideband_drives.len(), 4);
        let carrier_power =
            band_power(seg.carrier_drive.samples(), fs, 39_500.0, 40_500.0).unwrap();
        let elsewhere = band_power(seg.carrier_drive.samples(), fs, 30_000.0, 38_000.0).unwrap();
        assert!(carrier_power / elsewhere.max(1e-18) > 1e4);
        assert!((seg.carrier_drive.peak() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sideband_elements_cover_disjoint_bands_around_the_carrier() {
        let fs = 192_000.0;
        let baseband = synthetic_baseband(fs);
        let seg = segment_baseband(&baseband, 40_000.0, 4_000.0, 4).unwrap();
        // Slice 0 covers 50-1037 Hz -> its drive should contain the 300 Hz
        // component (at 40 kHz +- 300), slice 2 covers ~2-3 kHz -> 3 kHz
        // component sits in slice 2/3.
        let d0 = &seg.sideband_drives[0];
        let d3 = &seg.sideband_drives[3];
        let d0_near = band_power(d0.samples(), fs, 40_200.0, 40_450.0).unwrap();
        let d0_far = band_power(d0.samples(), fs, 42_500.0, 43_500.0).unwrap();
        assert!(
            d0_near / d0_far.max(1e-18) > 100.0,
            "slice 0 leaks: {}",
            d0_near / d0_far
        );
        let d3_near = band_power(d3.samples(), fs, 42_500.0, 43_500.0).unwrap();
        let d3_far = band_power(d3.samples(), fs, 40_150.0, 40_500.0).unwrap();
        assert!(
            d3_near / d3_far.max(1e-18) > 10.0,
            "slice 3 leaks: {}",
            d3_near / d3_far
        );
    }

    #[test]
    fn sideband_drives_are_normalised_together() {
        let fs = 192_000.0;
        let baseband = synthetic_baseband(fs);
        let seg = segment_baseband(&baseband, 40_000.0, 8_000.0, 6).unwrap();
        let max_peak = seg
            .sideband_drives
            .iter()
            .map(|s| s.peak())
            .fold(0.0f64, f64::max);
        assert!((max_peak - 1.0).abs() < 1e-9);
        for d in &seg.sideband_drives {
            assert!(d.peak() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn all_drives_are_ultrasonic() {
        let fs = 192_000.0;
        let baseband = synthetic_baseband(fs);
        let seg = segment_baseband(&baseband, 40_000.0, 8_000.0, 8).unwrap();
        for d in std::iter::once(&seg.carrier_drive).chain(&seg.sideband_drives) {
            let audible = band_power(d.samples(), fs, 50.0, 18_000.0).unwrap();
            let ultra = band_power(d.samples(), fs, 28_000.0, 52_000.0).unwrap();
            assert!(ultra / audible.max(1e-18) > 1e3);
        }
    }

    #[test]
    fn narrow_slices_are_flagged_but_do_not_lose_radiated_energy() {
        let fs = 192_000.0;
        let baseband = synthetic_baseband(fs);
        // 7 slices of ~1.1 kHz resolve cleanly; 60 slices of ~132 Hz are
        // below the 511-tap filters' main-lobe width (`≈ 2·fs/taps`).
        let wide = segment_baseband(&baseband, 40_000.0, 8_000.0, 7).unwrap();
        let narrow = segment_baseband(&baseband, 40_000.0, 8_000.0, 60).unwrap();
        // The E-A2 audit's finding, pinned as a regression test: even far
        // below the resolution limit, the *total* radiated sideband energy
        // is preserved (overlapping skirts redistribute slice energy to
        // neighbouring elements; they do not destroy it).  The anomaly's
        // real cause was carrier power starvation, not the slice widths.
        let sideband_energy = |seg: &SegmentedDrives| -> f64 {
            seg.sideband_drives
                .iter()
                .map(|d| band_power(d.samples(), fs, 32_000.0, 48_000.0).unwrap())
                .sum()
        };
        let wide_total = sideband_energy(&wide);
        let narrow_total = sideband_energy(&narrow);
        assert!(
            narrow_total > wide_total * 0.5,
            "narrow slices collapsed: {narrow_total:.3e} vs {wide_total:.3e}"
        );
    }

    #[test]
    fn single_sideband_element_keeps_the_whole_band() {
        let fs = 192_000.0;
        let baseband = synthetic_baseband(fs);
        let seg = segment_baseband(&baseband, 40_000.0, 8_000.0, 1).unwrap();
        assert_eq!(seg.sideband_drives.len(), 1);
        let d = &seg.sideband_drives[0];
        // Contains both the 300 Hz and 3 kHz sidebands around the carrier.
        let low_sb = band_power(d.samples(), fs, 40_200.0, 40_450.0).unwrap();
        let high_sb = band_power(d.samples(), fs, 42_500.0, 43_500.0).unwrap();
        assert!(low_sb > 0.0 && high_sb > 0.0);
    }
}
