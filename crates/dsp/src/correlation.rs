//! Correlation utilities.
//!
//! The defense's strongest feature is the correlation between the recorded
//! low-frequency "shadow" and the squared envelope of the voice band, and
//! the recogniser aligns templates with cross-correlation, so these helpers
//! are shared infrastructure.

use crate::error::{DspError, Result};

/// Pearson correlation coefficient between two equal-length slices (the
/// shorter length is used if they differ).  Returns 0 when either input has
/// zero variance.
pub fn pearson_correlation(a: &[f64], b: &[f64]) -> Result<f64> {
    let n = a.len().min(b.len());
    if n == 0 {
        return Err(DspError::EmptyInput {
            operation: "pearson_correlation",
        });
    }
    let a = &a[..n];
    let b = &b[..n];
    let mean_a = a.iter().sum::<f64>() / n as f64;
    let mean_b = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for i in 0..n {
        let da = a[i] - mean_a;
        let db = b[i] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if var_a <= 0.0 || var_b <= 0.0 {
        return Ok(0.0);
    }
    Ok(cov / (var_a.sqrt() * var_b.sqrt()))
}

/// Full cross-correlation of `a` and `b` for lags in `[-max_lag, max_lag]`.
/// Returns `(lags, values)` where `values[i]` is the un-normalised
/// correlation at `lags[i]` (positive lag means `b` is delayed relative to
/// `a`).
pub fn cross_correlation(a: &[f64], b: &[f64], max_lag: usize) -> Result<(Vec<isize>, Vec<f64>)> {
    if a.is_empty() || b.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "cross_correlation",
        });
    }
    let max_lag = max_lag.min(a.len().max(b.len()) - 1) as isize;
    let mut lags = Vec::new();
    let mut values = Vec::new();
    for lag in -max_lag..=max_lag {
        let mut acc = 0.0;
        for (i, &x) in a.iter().enumerate() {
            let j = i as isize + lag;
            if j >= 0 && (j as usize) < b.len() {
                acc += x * b[j as usize];
            }
        }
        lags.push(lag);
        values.push(acc);
    }
    Ok((lags, values))
}

/// Lag (in samples) at which the normalised cross-correlation of `a` and `b`
/// peaks, together with the peak's normalised value in `[-1, 1]`.
pub fn best_alignment(a: &[f64], b: &[f64], max_lag: usize) -> Result<(isize, f64)> {
    let (lags, values) = cross_correlation(a, b, max_lag)?;
    let energy_a: f64 = a.iter().map(|x| x * x).sum();
    let energy_b: f64 = b.iter().map(|x| x * x).sum();
    let norm = (energy_a * energy_b).sqrt().max(1e-300);
    let (idx, &peak) = values
        .iter()
        .enumerate()
        .max_by(|x, y| {
            x.1.abs()
                .partial_cmp(&y.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("cross_correlation returns at least one lag");
    Ok((lags[idx], peak / norm))
}

/// Autocorrelation of `a` for non-negative lags up to `max_lag`, normalised
/// so that lag 0 equals 1 (unless the signal is silent).
pub fn autocorrelation(a: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    if a.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "autocorrelation",
        });
    }
    let max_lag = max_lag.min(a.len() - 1);
    let energy: f64 = a.iter().map(|x| x * x).sum();
    let mut out = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let mut acc = 0.0;
        for i in 0..a.len() - lag {
            acc += a[i] * a[i + lag];
        }
        out.push(if energy > 0.0 { acc / energy } else { 0.0 });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(pearson_correlation(&[], &[1.0]).is_err());
        assert!(cross_correlation(&[], &[1.0], 4).is_err());
        assert!(autocorrelation(&[], 4).is_err());
    }

    #[test]
    fn pearson_of_identical_signals_is_one() {
        let a: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        assert!((pearson_correlation(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((pearson_correlation(&a, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_independent_signals_is_small() {
        let a: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..10_000).map(|i| (i as f64 * 1.71 + 0.4).sin()).collect();
        assert!(pearson_correlation(&a, &b).unwrap().abs() < 0.05);
    }

    #[test]
    fn pearson_of_constant_signal_is_zero() {
        let a = vec![1.0; 50];
        let b: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert_eq!(pearson_correlation(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn pearson_is_scale_invariant() {
        let a: Vec<f64> = (0..200).map(|i| (i as f64 * 0.1).sin()).collect();
        let b: Vec<f64> = a.iter().map(|x| 3.0 * x + 2.0).collect();
        assert!((pearson_correlation(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_alignment_finds_known_delay() {
        let n = 1_000;
        let a: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.05).sin() * (-(i as f64 - 500.0).powi(2) / 20_000.0).exp())
            .collect();
        let delay = 37usize;
        let mut b = vec![0.0; n];
        b[delay..n].copy_from_slice(&a[..n - delay]);
        let (lag, peak) = best_alignment(&a, &b, 100).unwrap();
        assert_eq!(lag, delay as isize);
        assert!(peak > 0.8);
    }

    #[test]
    fn autocorrelation_of_periodic_signal_peaks_at_period() {
        let period = 50usize;
        let a: Vec<f64> = (0..1_000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect();
        let ac = autocorrelation(&a, 200).unwrap();
        assert!((ac[0] - 1.0).abs() < 1e-12);
        assert!(ac[period] > 0.9);
        assert!(ac[period / 2] < -0.8);
    }

    #[test]
    fn cross_correlation_lag_range() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 2.0, 3.0];
        let (lags, values) = cross_correlation(&a, &b, 10).unwrap();
        assert_eq!(lags.len(), values.len());
        assert_eq!(lags[0], -2);
        assert_eq!(*lags.last().unwrap(), 2);
        // Zero lag holds the energy.
        let zero_idx = lags.iter().position(|&l| l == 0).unwrap();
        assert!((values[zero_idx] - 14.0).abs() < 1e-12);
    }
}
