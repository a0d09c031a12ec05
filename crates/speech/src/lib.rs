//! # ivc-speech — the voice substrate
//!
//! The paper's evaluation asks one question of every recording: *would the
//! victim's speech recogniser accept this as the intended voice command?*
//! Reproducing that without the proprietary recognisers (Google Assistant,
//! Alexa) requires two things, both provided here:
//!
//! 1. **A voice-command generator** — a small formant synthesiser
//!    ([`formant`], [`phoneme`], [`synthesis`]) that renders the paper's
//!    commands ("OK Google, take a picture", "Alexa, add milk to my shopping
//!    list", …) as waveforms with the spectro-temporal structure of voiced
//!    speech: a fundamental with harmonics, formant resonances, noise bursts
//!    for fricatives and stops, and word-level timing ([`commands`]).
//! 2. **A recogniser stand-in** — an MFCC front-end ([`mfcc`]), an
//!    energy-based voice-activity detector ([`vad`]) and a dynamic
//!    time-warping template matcher ([`dtw`], [`recognizer`]) that scores a
//!    recording against each known command and reports per-word accuracy.
//!    Its absolute accuracy is irrelevant; what matters is that it degrades
//!    with the same channel impairments (band-limiting, distortion, noise)
//!    that degrade a production recogniser, so accuracy-versus-distance
//!    curves keep their shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod commands;
pub mod dtw;
pub mod formant;
pub mod mfcc;
pub mod phoneme;
pub mod prosody;
pub mod recognizer;
pub mod synthesis;
pub mod vad;

pub use cache::TalkerKey;
pub use commands::{CommandId, VoiceCommand};
pub use recognizer::{RecognitionOutcome, Recognizer};
pub use synthesis::{SpeakerProfile, Synthesizer};
