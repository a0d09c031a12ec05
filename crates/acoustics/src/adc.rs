//! Analog-to-digital conversion: anti-alias filtering, resampling to the
//! output rate, quantisation and the converter's noise floor.  Every
//! device converts at the same rate and resolution; only the noise floor
//! is the device's own (`Microphone::adc_noise_floor_dbfs`).

use crate::noise::NormalSampler;
use ivc_dsp::filter::fir::FirFilter;
use ivc_dsp::resample::{filter_and_resample, resample};
use ivc_dsp::signal::Signal;
use ivc_dsp::window::WindowKind;
use ivc_dsp::{DspError, Result};

/// Output sampling rate of every device's converter, in Hz.
pub const OUTPUT_RATE_HZ: f64 = 48_000.0;

/// Converter resolution, in bits.
pub const BITS: u32 = 16;

/// Cut-off of the anti-alias filter as a fraction of the output Nyquist.
pub const ANTI_ALIAS_FRACTION: f64 = 0.9;

/// Converts an analog (high-rate, full-scale-normalised) signal into the
/// digital recording a device would store: anti-alias filter, resample to
/// [`OUTPUT_RATE_HZ`], add converter noise at `noise_floor_dbfs` (the
/// equivalent input noise in dB relative to full scale), quantise to
/// [`BITS`], clip to full scale.
pub fn digitize(analog_full_scale: &Signal, noise_floor_dbfs: f64, seed: u64) -> Result<Signal> {
    if analog_full_scale.is_empty() {
        return Err(DspError::invalid("analog_full_scale", "empty signal"));
    }
    let input_rate = analog_full_scale.sample_rate_hz();
    let cutoff = (OUTPUT_RATE_HZ / 2.0 * ANTI_ALIAS_FRACTION).min(input_rate / 2.0 * 0.98);

    // Anti-alias low-pass at the output Nyquist (applied at the input
    // rate), then resampling to the output rate.  An integer
    // power-of-two ratio runs both as one folded decimator.
    let resampled = if cutoff < input_rate / 2.0 * 0.98 {
        let lpf = FirFilter::low_pass_cached(cutoff, input_rate, 255, WindowKind::Blackman)?;
        filter_and_resample(&lpf, analog_full_scale, OUTPUT_RATE_HZ)?
    } else {
        resample(analog_full_scale, OUTPUT_RATE_HZ)?
    };
    Ok(add_noise_and_quantize(resampled, noise_floor_dbfs, seed))
}

/// The converter's noise floor, then quantisation and clipping to full
/// scale.
fn add_noise_and_quantize(mut resampled: Signal, noise_floor_dbfs: f64, seed: u64) -> Signal {
    // Converter noise: one standard-normal draw per output sample.
    let noise_rms = 10f64.powf(noise_floor_dbfs / 20.0);
    let mut sampler = NormalSampler::new(seed);
    for x in resampled.samples_mut() {
        *x += sampler.sample() * noise_rms;
    }

    // Quantise and clip.
    let levels = 2f64.powi(BITS as i32 - 1);
    for x in resampled.samples_mut() {
        let clipped = x.clamp(-1.0, 1.0);
        *x = (clipped * levels).round() / levels;
    }
    resampled
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::spectrum::band_power;

    /// The noise floor the tests convert at.
    const FLOOR_DBFS: f64 = -90.0;

    #[test]
    fn validation() {
        let empty = Signal::new(vec![], 192_000.0).unwrap();
        assert!(digitize(&empty, FLOOR_DBFS, 0).is_err());
    }

    #[test]
    fn output_rate_and_duration_are_respected() {
        let s = Signal::tone(1_000.0, 0.5, 0.25, 192_000.0).unwrap();
        let out = digitize(&s, FLOOR_DBFS, 1).unwrap();
        assert_eq!(out.sample_rate_hz(), 48_000.0);
        assert!((out.duration_s() - 0.25).abs() < 0.01);
    }

    #[test]
    fn in_band_tone_survives_conversion() {
        let s = Signal::tone(1_000.0, 0.5, 0.25, 192_000.0).unwrap();
        let out = digitize(&s, FLOOR_DBFS, 1).unwrap();
        let p = band_power(out.samples(), 48_000.0, 800.0, 1_200.0).unwrap();
        let total = band_power(out.samples(), 48_000.0, 20.0, 23_000.0).unwrap();
        assert!(p / total > 0.95, "tone fraction {}", p / total);
    }

    #[test]
    fn out_of_band_ultrasound_is_removed() {
        let mut s = Signal::tone(1_000.0, 0.2, 0.25, 192_000.0).unwrap();
        s.mix(&Signal::tone(40_000.0, 0.8, 0.25, 192_000.0).unwrap())
            .unwrap();
        let out = digitize(&s, FLOOR_DBFS, 1).unwrap();
        // Nothing above 20 kHz can exist at 48 kHz output, and nothing
        // should have aliased into 2-20 kHz either.
        let alias = band_power(out.samples(), 48_000.0, 2_000.0, 20_000.0).unwrap();
        let tone = band_power(out.samples(), 48_000.0, 800.0, 1_200.0).unwrap();
        assert!(alias / tone < 0.01, "alias fraction {}", alias / tone);
    }

    #[test]
    fn quantisation_limits_dynamic_range() {
        let quiet = Signal::tone(1_000.0, 1e-6, 0.25, 192_000.0).unwrap();
        let out = digitize(&quiet, -120.0, 1).unwrap();
        // A signal below half an LSB of the 16-bit converter quantises to
        // silence (plus negligible noise).
        assert!(out.rms() < 1e-3);
    }

    #[test]
    fn full_scale_input_is_clipped_not_wrapped() {
        let loud = Signal::tone(1_000.0, 2.0, 0.1, 192_000.0).unwrap();
        let out = digitize(&loud, FLOOR_DBFS, 1).unwrap();
        assert!(out.peak() <= 1.0 + 1e-9);
    }

    /// The two full-rate passes `digitize` ran before the folded
    /// decimator: the 255-tap anti-alias filter, then `resample`.
    fn two_pass_digitize(analog: &Signal, noise_floor_dbfs: f64, seed: u64) -> Signal {
        let input_rate = analog.sample_rate_hz();
        let cutoff = OUTPUT_RATE_HZ / 2.0 * ANTI_ALIAS_FRACTION;
        let lpf =
            FirFilter::low_pass_cached(cutoff, input_rate, 255, WindowKind::Blackman).unwrap();
        let filtered = lpf.filter_signal(analog).unwrap();
        let resampled = resample(&filtered, OUTPUT_RATE_HZ).unwrap();
        add_noise_and_quantize(resampled, noise_floor_dbfs, seed)
    }

    #[test]
    fn folded_digitize_is_bit_identical_to_the_two_passes() {
        use crate::microphone::{CaptureScratch, DevicePreset};
        use crate::spl::spl_db_to_pressure;
        let fs = 192_000.0;
        let mut scratch = CaptureScratch::new();
        for device in [DevicePreset::AndroidPhone, DevicePreset::AmazonEcho] {
            let mic = device.microphone();
            for seed in 0..20u64 {
                // An AM attack at a seed-dependent level and voice pitch.
                let amp = spl_db_to_pressure(95.0 + seed as f64) * std::f64::consts::SQRT_2;
                let voice_hz = 300.0 + 50.0 * seed as f64;
                let samples: Vec<f64> = (0..(0.1 * fs) as usize)
                    .map(|i| {
                        let t = i as f64 / fs;
                        let m = 1.0 + 0.8 * (std::f64::consts::TAU * voice_hz * t).cos();
                        0.5 * amp * m * (std::f64::consts::TAU * 40_000.0 * t).cos()
                    })
                    .collect();
                let pressure = Signal::new(samples, fs).unwrap();
                let path = mic.shape_path(&pressure).unwrap();
                let noise = mic
                    .noise_shape(path.transform_len(), fs, Some(40.0))
                    .unwrap();
                noise.draw(seed, &mut scratch);
                let analog = mic.analog_front_end(&path, &mut scratch).unwrap();
                let folded = digitize(&analog, mic.adc_noise_floor_dbfs, seed).unwrap();
                let reference = two_pass_digitize(&analog, mic.adc_noise_floor_dbfs, seed);
                assert_eq!(folded, reference, "{device:?}, seed {seed}");
                scratch.recycle(analog);
            }
        }
    }

    #[test]
    fn conversion_is_deterministic_per_seed() {
        let s = Signal::tone(1_000.0, 0.5, 0.1, 192_000.0).unwrap();
        let a = digitize(&s, FLOOR_DBFS, 9).unwrap();
        let b = digitize(&s, FLOOR_DBFS, 9).unwrap();
        assert_eq!(a.samples(), b.samples());
    }
}
