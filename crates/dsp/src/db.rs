//! Decibel conversion of power quantities (PSD bins, band power), using
//! the 10·log10 convention.  A small floor avoids `-inf` when converting
//! silence.

/// Smallest ratio considered distinguishable from zero when converting to dB.
pub const DB_FLOOR_RATIO: f64 = 1e-12;

/// Converts a power ratio to decibels (`10 log10`).
#[inline]
pub fn power_to_db(power_ratio: f64) -> f64 {
    10.0 * power_ratio.max(DB_FLOOR_RATIO * DB_FLOOR_RATIO).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_roundtrip() {
        for db in [-30.0, -10.0, 0.0, 3.0, 10.0, 40.0] {
            let p = 10f64.powf(db / 10.0);
            assert!((power_to_db(p) - db).abs() < 1e-9, "db={db}");
        }
    }

    #[test]
    fn known_values() {
        assert!((power_to_db(10.0) - 10.0).abs() < 1e-9);
        assert!((power_to_db(2.0) - 3.0103).abs() < 1e-3);
    }

    #[test]
    fn silence_does_not_produce_infinity() {
        assert!(power_to_db(0.0).is_finite());
        assert!(power_to_db(-1.0).is_finite());
    }
}
