//! # ivc-room — room acoustics for the inaudible-voice-commands pipeline
//!
//! The paper's attack and defense live in real rooms: reflections smear
//! the demodulated baseband, reverberation bends the word-accuracy-vs-
//! distance curves, and walls decide whether a bystander hears the
//! audible leakage at all.  This crate replaces the free-field-only
//! channel with a physical room model:
//!
//! * [`shoebox`] — a rectangular room with one [`material`] per surface.
//! * [`image_source`] — the Allen–Berkley image-source engine: every
//!   specular reflection path up to a configurable bounce order, with
//!   per-surface bounce counts.
//! * [`rir`] — the sparse room impulse response built from those images:
//!   per-tap delay plus a frequency-dependent gain curve (surface
//!   absorption per bounce × occlusion), sampled at the material anchor
//!   frequencies.
//! * [`occlusion`] — line-segment partitions on the floor plan whose
//!   transmission loss grows with frequency, so a wall blocks a 40 kHz
//!   carrier tens of dB harder than audible speech.
//! * [`propagate`] — applies an impulse response to a signal: the direct
//!   path through the exact free-field machinery (aperture-aware
//!   collimation, per-bin absorption — **bit-identical** to free field
//!   when there are no reflections), reflected taps as one frequency
//!   response between a forward and an inverse transform.
//! * [`presets`] — named rooms (`Anechoic`, `Office`, `ConferenceRoom`,
//!   `Corridor`, `ThroughDoorway`) that place source, target and
//!   bystander for a concrete scenario.
//!
//! ## What the model captures, and what it does not
//!
//! Image sources reproduce the *early, specular* reflections exactly —
//! the part of a room response that matters most for a demodulated
//! AM baseband and for speech intelligibility metrics.  Truncating at a
//! finite order discards the diffuse late tail, surfaces are treated as
//! angle-independent absorbers, occlusion is a straight-line transmission
//! test (no edge diffraction), and reflected paths lose the array's
//! collimation gain (they leave the beam axis).  RT60 estimates therefore
//! come from the classical Sabine/Eyring formulas, with the image-source
//! decay checked against them in tests rather than used as the reverb
//! tail itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod geometry;
pub mod image_source;
pub mod material;
pub mod occlusion;
pub mod presets;
pub mod propagate;
pub mod rir;
pub mod shoebox;

pub use error::{Result, RoomError};
pub use material::{PartitionMaterial, SurfaceMaterial};
pub use presets::{RoomInstance, RoomPreset};
pub use propagate::propagate_in_room;
pub use rir::{RirTap, RoomImpulseResponse};
pub use shoebox::Shoebox;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::error::{Result, RoomError};
    pub use crate::material::{PartitionMaterial, SurfaceMaterial};
    pub use crate::occlusion::Occluder;
    pub use crate::presets::{RoomInstance, RoomPreset};
    pub use crate::rir::{RirTap, RoomImpulseResponse};
    pub use crate::shoebox::Shoebox;
}
