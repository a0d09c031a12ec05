//! Atmospheric absorption of sound (ISO 9613-1 style).
//!
//! Absorption is the physical effect that limits the range of the ultrasonic
//! attack: at 20 °C and 50 % relative humidity, a 1 kHz tone loses about
//! 0.005 dB per metre while a 40 kHz carrier loses more than 1 dB per metre.
//! The attack's demodulated baseband amplitude scales with the *square* of
//! the received ultrasound pressure, so absorption is paid twice.

use crate::environment::AirEnvironment;
use ivc_dsp::{DspError, Result};

/// ISO 9613-1 absorption under one environment, with every term that
/// depends only on the air (relaxation frequencies, the classical and
/// molecular prefactors) evaluated once.  Per-bin callers build one and
/// pay a handful of multiply-adds per frequency instead of a dozen
/// `powf`/`exp` calls.
#[derive(Debug, Clone, Copy)]
pub struct AirAbsorption {
    /// Relaxation frequency of oxygen (Hz).
    fr_o: f64,
    /// Relaxation frequency of nitrogen (Hz).
    fr_n: f64,
    /// Classical (viscous/thermal) term.
    classical: f64,
    /// `0.01275·e^(−2239.1/T)`, the oxygen relaxation prefactor.
    oxygen: f64,
    /// `0.1068·e^(−3352/T)`, the nitrogen relaxation prefactor.
    nitrogen: f64,
    /// `(T/T0)^−2.5`, scaling both relaxation terms.
    relaxation: f64,
}

impl AirAbsorption {
    /// Evaluates the frequency-independent terms for `env`.
    pub fn new(env: &AirEnvironment) -> Self {
        let t = env.temperature_k();
        let t0 = 293.15;
        let p_rel = env.pressure_kpa / 101.325;
        let h = env.water_vapour_molar_concentration_percent();
        AirAbsorption {
            fr_o: p_rel * (24.0 + 4.04e4 * h * (0.02 + h) / (0.391 + h)),
            fr_n: p_rel
                * (t / t0).powf(-0.5)
                * (9.0 + 280.0 * h * (-4.170 * ((t / t0).powf(-1.0 / 3.0) - 1.0)).exp()),
            classical: 1.84e-11 / p_rel * (t / t0).sqrt(),
            oxygen: 0.01275 * (-2239.1 / t).exp(),
            nitrogen: 0.1068 * (-3352.0 / t).exp(),
            relaxation: (t / t0).powf(-2.5),
        }
    }

    /// Absorption coefficient in dB per metre at `frequency_hz`.
    pub fn db_per_m(&self, frequency_hz: f64) -> Result<f64> {
        if frequency_hz < 0.0 || !frequency_hz.is_finite() {
            return Err(DspError::invalid(
                "frequency_hz",
                format!("{frequency_hz} must be finite and non-negative"),
            ));
        }
        if frequency_hz == 0.0 {
            return Ok(0.0);
        }
        let f2 = frequency_hz * frequency_hz;
        let oxygen = self.oxygen / (self.fr_o + f2 / self.fr_o);
        let nitrogen = self.nitrogen / (self.fr_n + f2 / self.fr_n);
        Ok(8.686 * f2 * (self.classical + self.relaxation * (oxygen + nitrogen)))
    }

    /// Amplitude gain (linear, `<= 1`) after travelling `distance_m` at
    /// `frequency_hz`, from absorption alone; see [`absorption_gain`].
    pub fn gain(&self, frequency_hz: f64, distance_m: f64) -> Result<f64> {
        check_distance(distance_m)?;
        let db = self.db_per_m(frequency_hz)? * distance_m;
        Ok(10f64.powf(-db / 20.0))
    }
}

/// Absorption coefficient in dB per metre at `frequency_hz` under the given
/// environment, following the ISO 9613-1 formulation.
pub fn absorption_db_per_m(frequency_hz: f64, env: &AirEnvironment) -> Result<f64> {
    AirAbsorption::new(env).db_per_m(frequency_hz)
}

fn check_distance(distance_m: f64) -> Result<()> {
    if distance_m < 0.0 || !distance_m.is_finite() {
        return Err(DspError::invalid(
            "distance_m",
            format!("{distance_m} must be finite and non-negative"),
        ));
    }
    Ok(())
}

/// Total absorption in dB over `distance_m` at `frequency_hz`.
pub fn absorption_db(frequency_hz: f64, distance_m: f64, env: &AirEnvironment) -> Result<f64> {
    check_distance(distance_m)?;
    Ok(absorption_db_per_m(frequency_hz, env)? * distance_m)
}

/// Amplitude gain (linear, `<= 1`) after travelling `distance_m` at
/// `frequency_hz`, from absorption alone (no spreading loss).
pub fn absorption_gain(frequency_hz: f64, distance_m: f64, env: &AirEnvironment) -> Result<f64> {
    AirAbsorption::new(env).gain(frequency_hz, distance_m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let env = AirEnvironment::default();
        assert!(absorption_db_per_m(-1.0, &env).is_err());
        assert!(absorption_db_per_m(f64::NAN, &env).is_err());
        assert!(absorption_db(1_000.0, -1.0, &env).is_err());
        assert_eq!(absorption_db_per_m(0.0, &env).unwrap(), 0.0);
    }

    #[test]
    fn known_magnitudes_at_room_conditions() {
        let env = AirEnvironment::default();
        // ISO 9613-1 tables at 20 C / 50-70 % RH: ~0.005 dB/m at 1 kHz,
        // ~0.1 dB/m at 10 kHz, and around 1-1.5 dB/m at 40 kHz.
        let a1k = absorption_db_per_m(1_000.0, &env).unwrap();
        let a10k = absorption_db_per_m(10_000.0, &env).unwrap();
        let a40k = absorption_db_per_m(40_000.0, &env).unwrap();
        assert!(a1k > 0.002 && a1k < 0.01, "1 kHz: {a1k}");
        assert!(a10k > 0.05 && a10k < 0.3, "10 kHz: {a10k}");
        assert!(a40k > 0.6 && a40k < 2.5, "40 kHz: {a40k}");
    }

    #[test]
    fn absorption_grows_with_frequency() {
        let env = AirEnvironment::default();
        let mut last = 0.0;
        for f in [125.0, 500.0, 2_000.0, 8_000.0, 20_000.0, 40_000.0, 60_000.0] {
            let a = absorption_db_per_m(f, &env).unwrap();
            assert!(a > last, "absorption not monotonic at {f} Hz");
            last = a;
        }
    }

    #[test]
    fn ultrasound_absorbs_much_faster_than_voice_band() {
        let env = AirEnvironment::default();
        let voice = absorption_db_per_m(2_000.0, &env).unwrap();
        let ultra = absorption_db_per_m(40_000.0, &env).unwrap();
        assert!(ultra / voice > 30.0, "ratio {}", ultra / voice);
    }

    #[test]
    fn total_absorption_is_linear_in_distance() {
        let env = AirEnvironment::default();
        let one = absorption_db(30_000.0, 1.0, &env).unwrap();
        let seven = absorption_db(30_000.0, 7.0, &env).unwrap();
        assert!((seven - 7.0 * one).abs() < 1e-9);
        let gain = absorption_gain(30_000.0, 7.0, &env).unwrap();
        assert!(gain < 1.0 && gain > 0.0);
    }

    /// The per-call ISO 9613-1 evaluation as it stood before the
    /// environment terms were hoisted into [`AirAbsorption`].
    fn per_call_db_per_m(frequency_hz: f64, env: &AirEnvironment) -> f64 {
        if frequency_hz == 0.0 {
            return 0.0;
        }
        let t = env.temperature_k();
        let t0 = 293.15;
        let p_rel = env.pressure_kpa / 101.325;
        let h = env.water_vapour_molar_concentration_percent();
        let fr_o = p_rel * (24.0 + 4.04e4 * h * (0.02 + h) / (0.391 + h));
        let fr_n = p_rel
            * (t / t0).powf(-0.5)
            * (9.0 + 280.0 * h * (-4.170 * ((t / t0).powf(-1.0 / 3.0) - 1.0)).exp());
        let f2 = frequency_hz * frequency_hz;
        let classical = 1.84e-11 / p_rel * (t / t0).sqrt();
        let oxygen = 0.01275 * (-2239.1 / t).exp() / (fr_o + f2 / fr_o);
        let nitrogen = 0.1068 * (-3352.0 / t).exp() / (fr_n + f2 / fr_n);
        8.686 * f2 * (classical + (t / t0).powf(-2.5) * (oxygen + nitrogen))
    }

    #[test]
    fn hoisted_terms_are_bit_identical_to_the_per_call_formula() {
        // The air of every campaign environment preset: meeting room,
        // winter indoor, summer humid, outdoor.
        let presets = [
            AirEnvironment::default(),
            AirEnvironment::new(16.0, 25.0, 101.325).unwrap(),
            AirEnvironment::new(30.0, 80.0, 101.325).unwrap(),
            AirEnvironment::new(10.0, 70.0, 100.0).unwrap(),
        ];
        // Every bin frequency of a 4096-point transform at 192 kHz, DC
        // through the 96 kHz Nyquist bin.
        let (n, fs) = (4096, 192_000.0);
        for env in &presets {
            let air = AirAbsorption::new(env);
            for k in 0..=n / 2 {
                let f = k as f64 * fs / n as f64;
                let per_m = per_call_db_per_m(f, env);
                assert_eq!(air.db_per_m(f).unwrap(), per_m, "{f} Hz");
                assert_eq!(absorption_db_per_m(f, env).unwrap(), per_m, "{f} Hz");
                for d in [0.0, 0.5, 1.0, 2.37, 7.0, 31.4] {
                    let gain = 10f64.powf(-(per_m * d) / 20.0);
                    assert_eq!(air.gain(f, d).unwrap(), gain, "{f} Hz over {d} m");
                    assert_eq!(absorption_gain(f, d, env).unwrap(), gain);
                    assert_eq!(absorption_db(f, d, env).unwrap(), per_m * d);
                }
            }
            assert!(air.gain(1_000.0, -1.0).is_err());
            assert!(air.db_per_m(f64::INFINITY).is_err());
        }
    }

    #[test]
    fn humidity_affects_ultrasonic_absorption() {
        let dry = AirEnvironment::new(20.0, 20.0, 101.325).unwrap();
        let humid = AirEnvironment::new(20.0, 80.0, 101.325).unwrap();
        let a_dry = absorption_db_per_m(40_000.0, &dry).unwrap();
        let a_humid = absorption_db_per_m(40_000.0, &humid).unwrap();
        // They must differ measurably (direction depends on the regime).
        assert!((a_dry - a_humid).abs() / a_dry > 0.05);
    }
}
