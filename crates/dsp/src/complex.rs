//! Minimal complex-number type used by the FFT and analytic-signal code.
//!
//! The workspace deliberately avoids external numeric crates, so this module
//! provides the small subset of complex arithmetic that the DSP layer needs:
//! construction from polar/cartesian form, the field operations, conjugation,
//! magnitude and argument.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from cartesian components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar form `r * exp(i * theta)`.
    #[inline]
    pub fn from_polar(radius: f64, angle_rad: f64) -> Self {
        Complex {
            re: radius * angle_rad.cos(),
            im: radius * angle_rad.sin(),
        }
    }

    /// `exp(i * theta)`, a unit phasor.
    #[inline]
    pub fn cis(angle_rad: f64) -> Self {
        Self::from_polar(1.0, angle_rad)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (absolute value).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`Complex::abs`] when only relative
    /// ordering or power is needed.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, factor: f64) -> Self {
        Complex {
            re: self.re * factor,
            im: self.im * factor,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::from_real(1.0));
        assert_eq!(Complex::I, Complex::new(0.0, 1.0));
        let c: Complex = 2.5.into();
        assert_eq!(c, Complex::new(2.5, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let c = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!(close(c.abs(), 2.0));
        assert!(close(c.im.atan2(c.re), std::f64::consts::FRAC_PI_3));
    }

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        // (1+2i)(-3+0.5i) = -3 + 0.5i - 6i + i^2 = -4 - 5.5i
        let p = a * b;
        assert!(close(p.re, -4.0) && close(p.im, -5.5));
        let q = p / b;
        assert!(close(q.re, a.re) && close(q.im, a.im));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex::new(3.0, -4.0);
        assert_eq!(a.conj(), Complex::new(3.0, 4.0));
        assert!(close(a.abs(), 5.0));
        assert!(close(a.norm_sqr(), 25.0));
        assert!(close((a * a.conj()).re, 25.0));
    }

    #[test]
    fn multiplication_by_i_rotates_quarter_turn() {
        let a = Complex::new(1.0, 0.0);
        let r = a * Complex::I;
        assert!(close(r.re, 0.0) && close(r.im, 1.0));
    }

    #[test]
    fn exponential_matches_euler() {
        let theta = 0.7_f64;
        let e = Complex::cis(theta);
        assert!(close(e.re, theta.cos()));
        assert!(close(e.im, theta.sin()));
        assert_eq!(Complex::cis(theta), Complex::from_polar(1.0, theta));
    }

    #[test]
    fn assign_operators() {
        let mut a = Complex::new(1.0, 1.0);
        a += Complex::new(1.0, -2.0);
        assert_eq!(a, Complex::new(2.0, -1.0));
        a -= Complex::new(0.5, 0.5);
        assert_eq!(a, Complex::new(1.5, -1.5));
        a *= Complex::new(2.0, 0.0);
        assert_eq!(a, Complex::new(3.0, -3.0));
    }
}
