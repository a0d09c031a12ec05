//! Digital filters: FIR design by windowed sinc, and Butterworth IIR
//! biquad cascades.
//!
//! Both families are used throughout the workspace:
//!
//! * FIR low-pass filters prepare the voice baseband (the attack keeps only
//!   0–8 kHz before modulation) and model the microphone's anti-alias filter.
//! * Butterworth band-pass cascades isolate sub-bands when extracting the
//!   defense's non-linearity-trace features.

pub mod biquad;
pub mod fir;

pub use biquad::{Biquad, BiquadCascade, BiquadState};
pub use fir::FirFilter;
