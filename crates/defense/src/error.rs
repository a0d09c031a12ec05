//! Error type for the defense crate.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, DefenseError>;

/// Errors produced by feature extraction, training or evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseError {
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the violation.
        message: String,
    },
    /// Training or evaluation was attempted on an empty or degenerate dataset.
    DegenerateDataset {
        /// Description of the problem.
        message: String,
    },
    /// An error bubbled up from the DSP layer.
    Dsp(ivc_dsp::DspError),
}

impl fmt::Display for DefenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseError::InvalidParameter { name, message } => {
                write!(f, "invalid defense parameter `{name}`: {message}")
            }
            DefenseError::DegenerateDataset { message } => {
                write!(f, "degenerate dataset: {message}")
            }
            DefenseError::Dsp(e) => write!(f, "dsp error: {e}"),
        }
    }
}

impl std::error::Error for DefenseError {}

impl From<ivc_dsp::DspError> for DefenseError {
    fn from(e: ivc_dsp::DspError) -> Self {
        DefenseError::Dsp(e)
    }
}

impl DefenseError {
    /// Helper to build an [`DefenseError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        DefenseError::InvalidParameter {
            name,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        assert!(DefenseError::invalid("x", "bad").to_string().contains("x"));
        assert!(DefenseError::DegenerateDataset {
            message: "empty".into()
        }
        .to_string()
        .contains("empty"));
        let e: DefenseError = ivc_dsp::DspError::EmptyInput { operation: "f" }.into();
        assert!(e.to_string().contains("dsp"));
    }
}
