//! Air environment: temperature, humidity, pressure and the derived speed
//! of sound.

use ivc_dsp::{DspError, Result};

/// Ambient air conditions used by propagation and absorption models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AirEnvironment {
    /// Air temperature in degrees Celsius.
    pub temperature_c: f64,
    /// Relative humidity in percent (0–100).
    pub relative_humidity_percent: f64,
    /// Static pressure in kilopascal.
    pub pressure_kpa: f64,
}

impl Default for AirEnvironment {
    /// A typical indoor meeting room: 20 °C, 50 % RH, 101.325 kPa.
    fn default() -> Self {
        AirEnvironment {
            temperature_c: 20.0,
            relative_humidity_percent: 50.0,
            pressure_kpa: 101.325,
        }
    }
}

impl AirEnvironment {
    /// Creates a validated environment.
    pub fn new(
        temperature_c: f64,
        relative_humidity_percent: f64,
        pressure_kpa: f64,
    ) -> Result<Self> {
        if !(-50.0..=60.0).contains(&temperature_c) {
            return Err(DspError::invalid(
                "temperature_c",
                format!("{temperature_c} outside [-50, 60]"),
            ));
        }
        if !(0.0..=100.0).contains(&relative_humidity_percent) {
            return Err(DspError::invalid(
                "relative_humidity_percent",
                format!("{relative_humidity_percent} outside [0, 100]"),
            ));
        }
        if !(50.0..=120.0).contains(&pressure_kpa) {
            return Err(DspError::invalid(
                "pressure_kpa",
                format!("{pressure_kpa} outside [50, 120]"),
            ));
        }
        Ok(AirEnvironment {
            temperature_c,
            relative_humidity_percent,
            pressure_kpa,
        })
    }

    /// Temperature in kelvin.
    #[inline]
    pub fn temperature_k(&self) -> f64 {
        self.temperature_c + 273.15
    }

    /// Speed of sound in m/s for the current temperature (the humidity and
    /// pressure corrections are below 0.5 % and ignored).
    pub fn speed_of_sound_m_per_s(&self) -> f64 {
        331.3 * (self.temperature_k() / 273.15).sqrt()
    }

    /// Saturation vapour pressure ratio used by the ISO 9613-1 absorption
    /// formula (molar concentration of water vapour, in percent).
    pub fn water_vapour_molar_concentration_percent(&self) -> f64 {
        let t = self.temperature_k();
        let t01 = 273.16; // triple point of water
        let p_ref = 101.325;
        let csat = -6.8346 * (t01 / t).powf(1.261) + 4.6151;
        let psat_over_pref = 10f64.powf(csat);
        self.relative_humidity_percent * psat_over_pref / (self.pressure_kpa / p_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_room_conditions() {
        let env = AirEnvironment::default();
        assert_eq!(env.temperature_c, 20.0);
        assert_eq!(env.relative_humidity_percent, 50.0);
    }

    #[test]
    fn validation_rejects_unphysical_values() {
        assert!(AirEnvironment::new(-80.0, 50.0, 101.0).is_err());
        assert!(AirEnvironment::new(20.0, 150.0, 101.0).is_err());
        assert!(AirEnvironment::new(20.0, 50.0, 10.0).is_err());
        assert!(AirEnvironment::new(20.0, 50.0, 101.0).is_ok());
    }

    #[test]
    fn speed_of_sound_matches_known_values() {
        let env = AirEnvironment::default();
        let c = env.speed_of_sound_m_per_s();
        assert!((c - 343.0).abs() < 1.5, "c = {c}");
        let cold = AirEnvironment::new(0.0, 50.0, 101.325).unwrap();
        assert!((cold.speed_of_sound_m_per_s() - 331.3).abs() < 0.5);
        // Warmer air is faster.
        let warm = AirEnvironment::new(35.0, 50.0, 101.325).unwrap();
        assert!(warm.speed_of_sound_m_per_s() > c);
    }

    #[test]
    fn humidity_concentration_is_monotonic_in_rh() {
        let dry = AirEnvironment::new(20.0, 20.0, 101.325).unwrap();
        let humid = AirEnvironment::new(20.0, 80.0, 101.325).unwrap();
        assert!(
            humid.water_vapour_molar_concentration_percent()
                > dry.water_vapour_molar_concentration_percent()
        );
        // At 20 C / 50 % RH the molar concentration is roughly 1.1-1.2 %.
        let h = AirEnvironment::default().water_vapour_molar_concentration_percent();
        assert!(h > 0.8 && h < 1.6, "h = {h}");
    }
}
