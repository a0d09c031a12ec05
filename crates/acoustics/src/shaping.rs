//! Frequency-domain shaping of a signal by an arbitrary magnitude response.
//!
//! Both transducer models (speaker and microphone) are "response + memoryless
//! non-linearity" sandwiches; this helper applies the response part: the
//! signal is transformed, each bin scaled by `gain(|f|)`, and transformed
//! back.  Phase is left untouched (zero-phase shaping), which is appropriate
//! because only magnitudes matter for the effects being studied.

use ivc_dsp::fft::{bin_frequency, irfft_into, next_power_of_two, rfft_into};
use ivc_dsp::signal::Signal;
use ivc_dsp::Result;

/// Applies the magnitude response `gain_at(frequency_hz)` to `input`.
///
/// The gain function receives the absolute frequency in Hz and must return a
/// non-negative linear gain.
pub fn shape_spectrum(input: &Signal, gain_at: impl Fn(f64) -> f64) -> Result<Signal> {
    if input.is_empty() {
        return Ok(input.clone());
    }
    let fs = input.sample_rate_hz();
    let n = next_power_of_two(input.len());
    let mut spectrum = Vec::new();
    rfft_into(input.samples(), n, &mut spectrum)?;
    // The half spectrum holds bins 0..=n/2, all at non-negative
    // frequencies; their mirror images get the same gain.
    for (k, value) in spectrum.iter_mut().enumerate() {
        let f = bin_frequency(k, n, fs);
        let g = gain_at(f).max(0.0);
        *value = value.scale(g);
    }
    let mut out = Vec::new();
    irfft_into(&mut spectrum, &mut out)?;
    out.truncate(input.len());
    Signal::new(out, fs)
}

/// First-order low-pass magnitude response with corner `corner_hz`.
pub fn one_pole_low_pass_gain(frequency_hz: f64, corner_hz: f64) -> f64 {
    1.0 / (1.0 + (frequency_hz / corner_hz).powi(2)).sqrt()
}

/// First-order high-pass magnitude response with corner `corner_hz`.
pub fn one_pole_high_pass_gain(frequency_hz: f64, corner_hz: f64) -> f64 {
    let r = frequency_hz / corner_hz;
    r / (1.0 + r * r).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::spectrum::band_power;

    #[test]
    fn unity_gain_is_identity() {
        let s = Signal::tone(1_000.0, 0.5, 0.2, 48_000.0).unwrap();
        let out = shape_spectrum(&s, |_| 1.0).unwrap();
        for (a, b) in s.samples().iter().zip(out.samples().iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_signal_passes_through() {
        let s = Signal::new(vec![], 48_000.0).unwrap();
        assert!(shape_spectrum(&s, |_| 1.0).unwrap().is_empty());
    }

    #[test]
    fn selective_attenuation_of_one_component() {
        let fs = 48_000.0;
        let mut s = Signal::tone(1_000.0, 0.5, 0.3, fs).unwrap();
        s.mix(&Signal::tone(8_000.0, 0.5, 0.3, fs).unwrap())
            .unwrap();
        let out = shape_spectrum(&s, |f| if f > 4_000.0 { 0.01 } else { 1.0 }).unwrap();
        let low = band_power(out.samples(), fs, 800.0, 1_200.0).unwrap();
        let high = band_power(out.samples(), fs, 7_500.0, 8_500.0).unwrap();
        assert!(low / high > 1_000.0, "ratio {}", low / high);
    }

    #[test]
    fn one_pole_responses_have_correct_corners() {
        assert!(
            (one_pole_low_pass_gain(1_000.0, 1_000.0) - std::f64::consts::FRAC_1_SQRT_2).abs()
                < 1e-9
        );
        assert!(
            (one_pole_high_pass_gain(1_000.0, 1_000.0) - std::f64::consts::FRAC_1_SQRT_2).abs()
                < 1e-9
        );
        assert!(one_pole_low_pass_gain(100.0, 1_000.0) > 0.99);
        assert!(one_pole_low_pass_gain(10_000.0, 1_000.0) < 0.1);
        assert!(one_pole_high_pass_gain(10_000.0, 1_000.0) > 0.99);
        assert!(one_pole_high_pass_gain(100.0, 1_000.0) < 0.1);
    }
}
