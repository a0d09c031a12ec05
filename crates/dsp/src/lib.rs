//! # ivc-dsp — signal-processing substrate
//!
//! This crate provides every digital-signal-processing primitive needed by
//! the inaudible-voice-commands reproduction, implemented from scratch on
//! `f64` samples so that the rest of the workspace has no third-party DSP
//! dependencies:
//!
//! * [`Complex`] arithmetic and a radix-2 [`fft`] (complex and real
//!   transforms) used by spectra, fast convolution and the analytic signal.
//! * [`window`] functions (Hann, Hamming, Blackman, …).
//! * FIR design by the windowed-sinc method and zero-phase filtering
//!   ([`filter::fir`]), and Butterworth biquad cascades ([`filter::biquad`]).
//! * Integer and rational [`resample`]-ing, needed to move voice recordings
//!   (48 kHz) up to ultrasonic playback rates (192 kHz / 384 kHz) and back.
//! * Short-time analysis: [`stft`] / spectrograms, [`envelope`] extraction
//!   via the analytic signal, and [`spectrum`] estimation (Welch PSD, band
//!   power, spectral tilt).
//! * Amplitude [`modulation`] and the square-law demodulation that models
//!   what a non-linear microphone does to an AM ultrasound signal.
//! * [`correlation`] utilities and the [`goertzel`] single-bin DFT.
//!
//! All functions operate either on plain `&[f64]` slices or on the
//! [`Signal`] container, which couples samples with a sample rate and is the
//! common currency of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod correlation;
pub mod db;
pub mod envelope;
pub mod error;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod modulation;
pub mod resample;
pub mod signal;
pub mod spectrum;
pub mod stft;
pub mod window;

pub use complex::Complex;
pub use error::{DspError, Result};
pub use signal::Signal;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::complex::Complex;
    pub use crate::error::{DspError, Result};
    pub use crate::filter::biquad::{Biquad, BiquadCascade, SosFilter};
    pub use crate::filter::fir::FirFilter;
    pub use crate::signal::Signal;
    pub use crate::window::WindowKind;
}
