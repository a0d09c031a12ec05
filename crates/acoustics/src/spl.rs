//! Sound-pressure-level conversions and A-weighting.
//!
//! Pressure signals throughout the workspace are expressed in pascal.  The
//! reference pressure for SPL is the standard 20 µPa.

use ivc_dsp::{DspError, Result};

/// Reference RMS pressure for 0 dB SPL, in pascal.
pub const REFERENCE_PRESSURE_PA: f64 = 20e-6;

/// Converts an RMS pressure in pascal to dB SPL.
#[inline]
pub fn pressure_to_spl_db(rms_pressure_pa: f64) -> f64 {
    20.0 * (rms_pressure_pa.abs().max(1e-15) / REFERENCE_PRESSURE_PA).log10()
}

/// Converts a level in dB SPL to an RMS pressure in pascal.
#[inline]
pub fn spl_db_to_pressure(spl_db: f64) -> f64 {
    REFERENCE_PRESSURE_PA * 10f64.powf(spl_db / 20.0)
}

/// A-weighting gain (in dB) at `frequency_hz`, per IEC 61672.
///
/// A-weighting approximates the ear's sensitivity at moderate levels: it
/// strongly attenuates very low and very high frequencies, which is why the
/// near-ultrasonic leakage of a single-speaker attack can carry substantial
/// unweighted power yet stay near the edge of audibility.
pub fn a_weighting_db(frequency_hz: f64) -> f64 {
    let f2 = frequency_hz * frequency_hz;
    let ra = (12194.0f64.powi(2) * f2 * f2)
        / ((f2 + 20.6f64.powi(2))
            * ((f2 + 107.7f64.powi(2)) * (f2 + 737.9f64.powi(2))).sqrt()
            * (f2 + 12194.0f64.powi(2)));
    20.0 * ra.max(1e-15).log10() + 2.0
}

/// RMS pressure of a pressure waveform in pascal.
pub fn waveform_rms_pa(pressure_samples: &[f64]) -> f64 {
    if pressure_samples.is_empty() {
        return 0.0;
    }
    (pressure_samples.iter().map(|p| p * p).sum::<f64>() / pressure_samples.len() as f64).sqrt()
}

/// Overall (unweighted) SPL of a pressure waveform.
pub fn waveform_spl_db(pressure_samples: &[f64]) -> f64 {
    pressure_to_spl_db(waveform_rms_pa(pressure_samples))
}

/// A-weighted SPL of a pressure waveform, computed from its power spectrum.
pub fn waveform_spl_dba(pressure_samples: &[f64], sample_rate_hz: f64) -> Result<f64> {
    if pressure_samples.is_empty() {
        return Err(DspError::invalid("pressure_samples", "empty waveform"));
    }
    let psd = ivc_dsp::spectrum::welch_psd(
        pressure_samples,
        sample_rate_hz,
        dba_segment_len(pressure_samples.len()),
        0.5,
        ivc_dsp::window::WindowKind::Hann,
    )?;
    Ok(spl_dba_from_psd(&psd))
}

/// The Welch segment [`waveform_spl_dba`] asks for on `num_samples`
/// samples (a Hann window with half overlap).
pub fn dba_segment_len(num_samples: usize) -> usize {
    num_samples.clamp(256, 8_192)
}

/// [`waveform_spl_dba`] from the waveform's PSD (estimated as
/// [`waveform_spl_dba`] does), for callers that read one PSD several ways.
pub fn spl_dba_from_psd(psd: &ivc_dsp::spectrum::PowerSpectrum) -> f64 {
    let mut weighted_power = 0.0;
    for (f, p) in psd.frequencies_hz.iter().zip(psd.power.iter()) {
        // A-weighting is defined over the audible range; ultrasonic content
        // contributes nothing to a dB(A) reading.
        if *f <= 0.0 || *f > 20_000.0 {
            continue;
        }
        let w = 10f64.powf(a_weighting_db(*f) / 10.0);
        weighted_power += p * w * psd.resolution_hz;
    }
    let rms = weighted_power.max(0.0).sqrt();
    pressure_to_spl_db(rms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spl_conversions_roundtrip() {
        for spl in [0.0, 40.0, 60.0, 94.0, 120.0] {
            let p = spl_db_to_pressure(spl);
            assert!((pressure_to_spl_db(p) - spl).abs() < 1e-9);
        }
        // 94 dB SPL is 1 Pa by definition (within 0.01 dB).
        assert!((spl_db_to_pressure(94.0) - 1.0).abs() < 0.01);
    }

    #[test]
    fn a_weighting_reference_points() {
        // A-weighting is 0 dB at 1 kHz by construction.
        assert!(a_weighting_db(1_000.0).abs() < 0.2);
        // Roughly -19 dB at 100 Hz and -9.3 dB at 20 kHz (IEC table values).
        assert!((a_weighting_db(100.0) + 19.1).abs() < 1.0);
        assert!((a_weighting_db(20_000.0) + 9.3).abs() < 1.5);
        // Deep attenuation in the infrasound region.
        assert!(a_weighting_db(10.0) < -60.0);
    }

    #[test]
    fn waveform_spl_of_94db_tone() {
        // A sine with RMS 1 Pa has SPL 94 dB.
        let fs = 48_000.0;
        let amp = std::f64::consts::SQRT_2; // RMS = 1 Pa
        let samples: Vec<f64> = (0..48_000)
            .map(|i| amp * (2.0 * std::f64::consts::PI * 1_000.0 * i as f64 / fs).sin())
            .collect();
        let spl = waveform_spl_db(&samples);
        assert!((spl - 94.0).abs() < 0.1, "spl {spl}");
        // A-weighted SPL at 1 kHz equals unweighted.
        let dba = waveform_spl_dba(&samples, fs).unwrap();
        assert!((dba - 94.0).abs() < 1.0, "dba {dba}");
    }

    #[test]
    fn a_weighting_discounts_ultrasound() {
        let fs = 192_000.0;
        let amp = std::f64::consts::SQRT_2;
        let samples: Vec<f64> = (0..192_000)
            .map(|i| amp * (2.0 * std::f64::consts::PI * 30_000.0 * i as f64 / fs).sin())
            .collect();
        let spl = waveform_spl_db(&samples);
        let dba = waveform_spl_dba(&samples, fs).unwrap();
        assert!((spl - 94.0).abs() < 0.2);
        assert!(dba < spl - 10.0, "dBA {dba} should be well below dB {spl}");
    }

    #[test]
    fn empty_waveform_handling() {
        assert_eq!(waveform_rms_pa(&[]), 0.0);
        assert!(waveform_spl_dba(&[], 48_000.0).is_err());
        // Silence maps to a very low but finite SPL.
        assert!(waveform_spl_db(&[0.0; 64]) < -20.0);
    }
}
