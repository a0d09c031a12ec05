//! # ivc-defense — detecting injected inaudible voice commands
//!
//! The defense exploits the same physics as the attack.  When a microphone's
//! quadratic non-linearity demodulates an AM ultrasound signal, the square of
//! the received waveform contains not only the voice `m(t)` (the
//! carrier × sideband product) but also `m(t)²` (the sideband × sideband
//! product).  That squared term is an unavoidable *trace*: it deposits energy
//! below the voice fundamental (the "shadow" band, a few hertz to ~80 Hz)
//! and that energy is strongly correlated with the squared envelope of the
//! voice band.  Legitimate speech arriving acoustically has neither
//! property.
//!
//! The crate provides:
//!
//! * [`features`] — extraction of the non-linearity-trace features from a
//!   recording (shadow-band power ratio, shadow/envelope² correlation,
//!   spectral tilt).
//! * [`classifier`] — a small logistic-regression classifier with
//!   standardisation and gradient-descent training.
//! * [`evaluation`] — ROC/AUC and confusion matrices.
//! * [`countermeasures`] — the adaptive attacker who tries to suppress the
//!   shadow, and what that costs them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod countermeasures;
pub mod evaluation;
pub mod features;

pub use classifier::LogisticRegression;
pub use features::{DefenseFeatures, FeatureVector};
