//! The identity of a synthetic talker, the utterance-cache key component.
//!
//! Synthesis is the single most repeated computation in a campaign: every
//! trial of every cell speaks one of a handful of `(command, talker)`
//! combinations, and the process-wide Prepare cache renders each one once.
//! Its key is the *identity* of the talker, not the profile values:
//! the legitimate-delivery semantics select a talker as `seed % 8`
//! ([`TalkerKey::Variant`]), and the attacker always uses the canonical
//! TTS voice ([`TalkerKey::Canonical`]).  Rendering is deterministic, so a
//! cached utterance is bit-identical to a fresh render.

use crate::synthesis::SpeakerProfile;

/// Which synthetic talker speaks the command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TalkerKey {
    /// The canonical TTS voice (attack deliveries, recogniser templates).
    Canonical,
    /// One of the deterministic talker variants
    /// ([`SpeakerProfile::variant`]); legitimate deliveries use
    /// `seed % 8`.
    Variant(usize),
}

impl TalkerKey {
    /// The speaker profile this key stands for.
    pub fn profile(&self) -> SpeakerProfile {
        match self {
            TalkerKey::Canonical => SpeakerProfile::canonical(),
            TalkerKey::Variant(index) => SpeakerProfile::variant(*index),
        }
    }
}
