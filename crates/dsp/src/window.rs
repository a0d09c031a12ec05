//! Analysis window functions.
//!
//! Windows are used by the STFT, Welch PSD estimation and FIR design.  All
//! windows are symmetric ("periodic" variants can be obtained by generating
//! `n + 1` points and dropping the last, which [`WindowKind::periodic`]
//! does for STFT use).

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Rectangular (no tapering).
    Rectangular,
    /// Hann (raised cosine), the default analysis window.
    Hann,
    /// Hamming, slightly higher sidelobes but narrower main lobe than Hann.
    Hamming,
    /// Blackman, low sidelobes for spectral purity measurements.
    Blackman,
    /// Bartlett (triangular).
    Bartlett,
    /// Flat-top, for accurate amplitude measurement of tones.
    FlatTop,
}

impl WindowKind {
    /// Generates a symmetric window of length `n`.
    pub fn symmetric(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        let denom = (n - 1) as f64;
        (0..n).map(|i| self.sample(i as f64 / denom)).collect()
    }

    /// Generates a periodic window of length `n`, appropriate for STFT
    /// analysis with overlap-add.
    pub fn periodic(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let denom = n as f64;
        (0..n).map(|i| self.sample(i as f64 / denom)).collect()
    }

    /// Window value at normalised position `x` in `[0, 1]`.
    fn sample(self, x: f64) -> f64 {
        use std::f64::consts::PI;
        match self {
            WindowKind::Rectangular => 1.0,
            WindowKind::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            WindowKind::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            WindowKind::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
            WindowKind::Bartlett => 1.0 - (2.0 * x - 1.0).abs(),
            WindowKind::FlatTop => {
                0.215_578_95 - 0.416_631_58 * (2.0 * PI * x).cos()
                    + 0.277_263_158 * (4.0 * PI * x).cos()
                    - 0.083_578_947 * (6.0 * PI * x).cos()
                    + 0.006_947_368 * (8.0 * PI * x).cos()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_degenerate_cases() {
        assert!(WindowKind::Hann.symmetric(0).is_empty());
        assert_eq!(WindowKind::Hann.symmetric(1), vec![1.0]);
        assert_eq!(WindowKind::Hamming.symmetric(32).len(), 32);
        assert_eq!(WindowKind::Blackman.periodic(33).len(), 33);
    }

    #[test]
    fn hann_is_symmetric_and_zero_at_edges() {
        let w = WindowKind::Hann.symmetric(65);
        assert!(w[0].abs() < 1e-12);
        assert!(w[64].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
        for i in 0..w.len() {
            assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn hamming_edges_are_nonzero() {
        let w = WindowKind::Hamming.symmetric(21);
        assert!((w[0] - 0.08).abs() < 1e-9);
        assert!((w[20] - 0.08).abs() < 1e-9);
    }

    #[test]
    fn rectangular_is_all_ones() {
        let w = WindowKind::Rectangular.symmetric(10);
        assert!(w.iter().all(|&x| (x - 1.0).abs() < 1e-15));
    }

    #[test]
    fn bartlett_peaks_at_centre() {
        let w = WindowKind::Bartlett.symmetric(11);
        assert!((w[5] - 1.0).abs() < 1e-12);
        assert!(w[0].abs() < 1e-12);
    }

    #[test]
    fn coherent_gain_of_hann_is_half() {
        // For large N the mean of a Hann window approaches 0.5.
        let w = WindowKind::Hann.symmetric(4096);
        let g = w.iter().sum::<f64>() / w.len() as f64;
        assert!((g - 0.5).abs() < 1e-3);
    }

    #[test]
    fn enbw_of_hann_is_one_and_a_half_bins() {
        // Equivalent noise bandwidth in bins: N·Σw² / (Σw)².
        let w = WindowKind::Hann.symmetric(4096);
        let sum: f64 = w.iter().sum();
        let enbw = w.len() as f64 * w.iter().map(|x| x * x).sum::<f64>() / (sum * sum);
        assert!((enbw - 1.5).abs() < 2e-3, "enbw = {enbw}");
    }

    #[test]
    fn windows_are_bounded_by_unity() {
        for kind in [
            WindowKind::Rectangular,
            WindowKind::Hann,
            WindowKind::Hamming,
            WindowKind::Blackman,
            WindowKind::Bartlett,
        ] {
            for &v in &kind.symmetric(257) {
                assert!((-1e-12..=1.0 + 1e-12).contains(&v), "{kind:?} produced {v}");
            }
        }
    }
}
