//! Memoryless polynomial non-linearities.
//!
//! Both the attack and the defense hinge on the same physical fact: real
//! transducers are not perfectly linear.  A signal `s` passing through an
//! amplifier or diaphragm comes out as `g1·s + g2·s² + g3·s³ + …`.  The
//! quadratic term turns a pair of ultrasonic tones at `f1` and `f2` into
//! audible energy at `f2 − f1` (intermodulation) — the attack — and also
//! stamps a characteristic low-frequency shadow onto the recording — the
//! defense's evidence.

use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};

/// A truncated power-series transfer function `g1·s + g2·s² + g3·s³`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Polynomial {
    /// Linear gain.
    pub g1: f64,
    /// Second-order (quadratic) coefficient; the source of intermodulation.
    pub g2: f64,
    /// Third-order (cubic) coefficient.
    pub g3: f64,
}

impl Polynomial {
    /// A perfectly linear device with unit gain.
    pub const LINEAR: Polynomial = Polynomial {
        g1: 1.0,
        g2: 0.0,
        g3: 0.0,
    };

    /// Creates a polynomial non-linearity.  `g1` must be non-zero (a device
    /// that passes no linear signal is not a transducer).
    pub fn new(g1: f64, g2: f64, g3: f64) -> Result<Self> {
        if g1 == 0.0 || !g1.is_finite() || !g2.is_finite() || !g3.is_finite() {
            return Err(DspError::invalid(
                "polynomial",
                "g1 must be non-zero and all coefficients finite",
            ));
        }
        Ok(Polynomial { g1, g2, g3 })
    }

    /// Applies the transfer function to a single sample.
    #[inline]
    pub fn apply_sample(&self, s: f64) -> f64 {
        self.g1 * s + self.g2 * s * s + self.g3 * s * s * s
    }

    /// Applies the transfer function to every sample of a signal.
    pub fn apply(&self, input: &Signal) -> Signal {
        input.map(|s| self.apply_sample(s))
    }

    /// Applies the transfer function in place (the function is memoryless,
    /// so in-place application is exact).
    pub fn apply_in_place(&self, samples: &mut [f64]) {
        for s in samples.iter_mut() {
            *s = self.apply_sample(*s);
        }
    }
}

/// Measurement of the intermodulation products a non-linearity produces for
/// a two-tone input, used by tests and by the leakage estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoToneProducts {
    /// Amplitude at the difference frequency `f2 - f1`.
    pub difference: f64,
    /// Amplitude at the sum frequency `f1 + f2`.
    pub sum: f64,
    /// Amplitude at the second harmonic of `f1`.
    pub harmonic_f1: f64,
    /// Amplitude at the fundamental `f1` (linear term).
    pub fundamental_f1: f64,
}

/// Drives the non-linearity with two tones of the given amplitudes and
/// frequencies and measures the resulting products with the Goertzel
/// algorithm.
pub fn measure_two_tone_products(
    poly: &Polynomial,
    f1_hz: f64,
    f2_hz: f64,
    amplitude: f64,
    sample_rate_hz: f64,
) -> Result<TwoToneProducts> {
    if f1_hz <= 0.0 || f2_hz <= f1_hz || f2_hz >= sample_rate_hz / 2.0 {
        return Err(DspError::invalid(
            "two-tone frequencies",
            "need 0 < f1 < f2 < nyquist",
        ));
    }
    let duration_s = 0.2;
    let mut input = Signal::tone(f1_hz, amplitude, duration_s, sample_rate_hz)?;
    input.mix(&Signal::tone(f2_hz, amplitude, duration_s, sample_rate_hz)?)?;
    let output = poly.apply(&input);
    let fs = sample_rate_hz;
    let measure = |f: f64| ivc_dsp::goertzel::tone_amplitude(output.samples(), fs, f);
    Ok(TwoToneProducts {
        difference: measure(f2_hz - f1_hz)?,
        sum: if f1_hz + f2_hz < fs / 2.0 {
            measure(f1_hz + f2_hz)?
        } else {
            0.0
        },
        harmonic_f1: if 2.0 * f1_hz < fs / 2.0 {
            measure(2.0 * f1_hz)?
        } else {
            0.0
        },
        fundamental_f1: measure(f1_hz)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Polynomial::new(0.0, 0.1, 0.0).is_err());
        assert!(Polynomial::new(f64::NAN, 0.1, 0.0).is_err());
        assert!(Polynomial::new(1.0, f64::INFINITY, 0.0).is_err());
        assert!(Polynomial::new(1.0, 0.1, 0.01).is_ok());
        assert!(
            measure_two_tone_products(&Polynomial::LINEAR, 30_000.0, 25_000.0, 0.5, 192_000.0)
                .is_err()
        );
    }

    #[test]
    fn linear_device_adds_no_products() {
        let p = Polynomial::LINEAR;
        let prod = measure_two_tone_products(&p, 25_000.0, 30_000.0, 0.5, 192_000.0).unwrap();
        assert!(prod.difference < 1e-6);
        assert!(prod.sum < 1e-6);
        assert!(prod.harmonic_f1 < 1e-6);
        assert!((prod.fundamental_f1 - 0.5).abs() < 0.01);
    }

    #[test]
    fn quadratic_term_creates_difference_frequency() {
        // The paper's worked example: 25 kHz + 30 kHz in, 5 kHz out.
        let p = Polynomial::new(1.0, 0.3, 0.0).unwrap();
        let prod = measure_two_tone_products(&p, 25_000.0, 30_000.0, 0.5, 192_000.0).unwrap();
        // Expected difference amplitude: g2 * a^2 = 0.3 * 0.25 = 0.075.
        assert!(
            (prod.difference - 0.075).abs() < 0.01,
            "difference {}",
            prod.difference
        );
        // Harmonic at 2*f1: g2 * a^2 / 2 = 0.0375.
        assert!((prod.harmonic_f1 - 0.0375).abs() < 0.01);
    }

    #[test]
    fn products_scale_quadratically_with_amplitude() {
        let p = Polynomial::new(1.0, 0.2, 0.0).unwrap();
        let low = measure_two_tone_products(&p, 25_000.0, 30_000.0, 0.1, 192_000.0).unwrap();
        let high = measure_two_tone_products(&p, 25_000.0, 30_000.0, 0.4, 192_000.0).unwrap();
        let ratio = high.difference / low.difference.max(1e-12);
        assert!((ratio - 16.0).abs() < 1.5, "ratio {ratio}");
        // While the fundamental scales linearly.
        let lin_ratio = high.fundamental_f1 / low.fundamental_f1;
        assert!((lin_ratio - 4.0).abs() < 0.2);
    }

    #[test]
    fn apply_matches_per_sample_definition() {
        let p = Polynomial::new(2.0, 0.5, -0.1).unwrap();
        let s = Signal::new(vec![0.0, 1.0, -1.0, 0.5], 48_000.0).unwrap();
        let out = p.apply(&s);
        let expect = [0.0, 2.0 + 0.5 - 0.1, -2.0 + 0.5 + 0.1, 1.0 + 0.125 - 0.0125];
        for (o, e) in out.samples().iter().zip(expect.iter()) {
            assert!((o - e).abs() < 1e-12);
        }
    }
}
