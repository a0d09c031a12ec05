//! # ivc-acoustics — the physical-world substrate
//!
//! The published system was evaluated with real ultrasonic speaker arrays,
//! real rooms and real devices.  This crate replaces that hardware with a
//! physics-based simulation whose parameters are the ones that actually
//! drive the attack and the defense:
//!
//! * [`environment`] — air temperature, humidity and the speed of sound.
//! * [`spl`] — sound-pressure-level conversions and A-weighting.
//! * [`absorption`] — frequency-dependent atmospheric absorption
//!   (ISO 9613-1 style), the effect that makes ultrasound die off with
//!   distance much faster than audible sound.
//! * [`propagation`] — spherical spreading + absorption + delay applied to a
//!   pressure signal travelling from a source to a receiver.
//! * [`nonlinearity`] — memoryless polynomial transfer functions
//!   (`g1·s + g2·s² + g3·s³`) and helpers to measure the intermodulation
//!   products they create.
//! * [`speaker`] and [`array`](mod@array) — an ultrasonic emitter with its
//!   own non-linearity (the source of the audible leakage that limits the
//!   naive attack) and an array of such emitters playing different signals.
//! * [`microphone`] and [`adc`] — the victim's capture chain: acoustic
//!   front-end, non-linear transducer/amplifier, anti-alias filter,
//!   resampling, quantisation and noise floor.
//! * [`noise`] — ambient room noise and measurement noise generators.
//! * [`psychoacoustics`] — the absolute threshold of hearing, used to decide
//!   whether a leakage signal would be noticed by a human near the speaker.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorption;
pub mod adc;
pub mod array;
pub mod environment;
pub mod microphone;
pub mod noise;
pub mod nonlinearity;
pub mod propagation;
pub mod psychoacoustics;
pub mod shaping;
pub mod speaker;
pub mod spl;

pub use environment::AirEnvironment;
pub use microphone::{DevicePreset, Microphone};
pub use nonlinearity::Polynomial;
