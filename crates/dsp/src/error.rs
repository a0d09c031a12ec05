//! The one error type of the numeric crates: the DSP routines here and the
//! acoustics, speech, attack, defense and room crates built on them all
//! return [`Result`] / [`DspError`].

use std::fmt;

/// Result alias of the numeric crates.
pub type Result<T> = std::result::Result<T, DspError>;

/// Errors produced by the DSP primitives and the physical, speech and
/// defense models built on them.
///
/// The numeric crates prefer returning errors over panicking for conditions
/// that a caller can plausibly trigger with run-time data (empty inputs,
/// mismatched sample rates, invalid cutoff frequencies).  Programming
/// errors (e.g. a zero-length FFT requested internally) still panic.
#[derive(Debug, Clone, PartialEq)]
pub enum DspError {
    /// The input slice was empty but the operation requires samples.
    EmptyInput {
        /// Operation that rejected the input.
        operation: &'static str,
    },
    /// A frequency parameter was outside `(0, nyquist)`.
    InvalidFrequency {
        /// Offending frequency in Hz.
        frequency_hz: f64,
        /// Nyquist frequency implied by the sample rate.
        nyquist_hz: f64,
    },
    /// A sample rate was not strictly positive.
    InvalidSampleRate {
        /// Offending rate in Hz.
        sample_rate_hz: f64,
    },
    /// Two signals that must share a sample rate did not.
    SampleRateMismatch {
        /// First rate in Hz.
        left_hz: f64,
        /// Second rate in Hz.
        right_hz: f64,
    },
    /// A parameter was outside its valid range (a zero length, a negative
    /// distance, an empty template set or training corpus, ...).
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::EmptyInput { operation } => {
                write!(f, "{operation}: input signal is empty")
            }
            DspError::InvalidFrequency {
                frequency_hz,
                nyquist_hz,
            } => write!(
                f,
                "frequency {frequency_hz} Hz is outside (0, {nyquist_hz}) Hz"
            ),
            DspError::InvalidSampleRate { sample_rate_hz } => {
                write!(f, "sample rate {sample_rate_hz} Hz must be positive")
            }
            DspError::SampleRateMismatch { left_hz, right_hz } => {
                write!(f, "sample rates differ: {left_hz} Hz vs {right_hz} Hz")
            }
            DspError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for DspError {}

impl DspError {
    /// Helper to build a [`DspError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        DspError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DspError::EmptyInput { operation: "fft" };
        assert!(e.to_string().contains("fft"));
        let e = DspError::InvalidFrequency {
            frequency_hz: 30_000.0,
            nyquist_hz: 24_000.0,
        };
        assert!(e.to_string().contains("30000"));
        let e = DspError::InvalidSampleRate {
            sample_rate_hz: -1.0,
        };
        assert!(e.to_string().contains("-1"));
        let e = DspError::SampleRateMismatch {
            left_hz: 48_000.0,
            right_hz: 192_000.0,
        };
        assert!(e.to_string().contains("48000"));
        let e = DspError::invalid("order", "must be even");
        assert!(e.to_string().contains("order"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            DspError::EmptyInput { operation: "x" },
            DspError::EmptyInput { operation: "x" }
        );
        assert_ne!(
            DspError::EmptyInput { operation: "x" },
            DspError::EmptyInput { operation: "y" }
        );
    }
}
