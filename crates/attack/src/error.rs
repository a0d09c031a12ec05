//! Error type for the attack crate.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, AttackError>;

/// Errors produced while constructing an attack.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackError {
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Description of the violation.
        message: String,
    },
    /// An error bubbled up from the DSP layer.
    Dsp(ivc_dsp::DspError),
    /// An error bubbled up from the acoustics layer.
    Acoustics(ivc_acoustics::AcousticsError),
    /// An error bubbled up from the speech layer.
    Speech(ivc_speech::SpeechError),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::InvalidParameter { name, message } => {
                write!(f, "invalid attack parameter `{name}`: {message}")
            }
            AttackError::Dsp(e) => write!(f, "dsp error: {e}"),
            AttackError::Acoustics(e) => write!(f, "acoustics error: {e}"),
            AttackError::Speech(e) => write!(f, "speech error: {e}"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Dsp(e) => Some(e),
            AttackError::Acoustics(e) => Some(e),
            AttackError::Speech(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ivc_dsp::DspError> for AttackError {
    fn from(e: ivc_dsp::DspError) -> Self {
        AttackError::Dsp(e)
    }
}

impl From<ivc_acoustics::AcousticsError> for AttackError {
    fn from(e: ivc_acoustics::AcousticsError) -> Self {
        AttackError::Acoustics(e)
    }
}

impl From<ivc_speech::SpeechError> for AttackError {
    fn from(e: ivc_speech::SpeechError) -> Self {
        AttackError::Speech(e)
    }
}

impl AttackError {
    /// Helper to build an [`AttackError::InvalidParameter`].
    pub fn invalid(name: &'static str, message: impl Into<String>) -> Self {
        AttackError::InvalidParameter {
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
        assert!(AttackError::invalid("carrier", "too low")
            .to_string()
            .contains("carrier"));
        let e: AttackError = ivc_dsp::DspError::EmptyInput { operation: "f" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: AttackError = ivc_acoustics::AcousticsError::invalid("d", "m").into();
        assert!(e.to_string().contains("acoustics"));
        let e: AttackError = ivc_speech::SpeechError::NoTemplates.into();
        assert!(e.to_string().contains("speech"));
    }
}
