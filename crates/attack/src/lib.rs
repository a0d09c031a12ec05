//! # ivc-attack — the long-range inaudible voice command attack
//!
//! This crate implements the paper's offensive contribution, in two tiers:
//!
//! * **The baseline single-speaker attack** ([`single`]): low-pass the voice
//!   command to 8 kHz, upsample, amplitude-modulate it onto an ultrasonic
//!   carrier and add the carrier.  The victim microphone's `g2·s²` term
//!   demodulates it back to voice.  This is the DolphinAttack /
//!   Song–Mittal construction, and it hits a wall: pushing enough power for
//!   range makes the *transmitting speaker's own* non-linearity demodulate
//!   the command audibly right next to the attacker ([`leakage`]).
//!
//! * **The long-range multi-speaker attack** ([`segmentation`],
//!   [`multispeaker`]): split the modulated spectrum across an ultrasonic
//!   speaker array so that no element carries both the carrier and a wide
//!   sideband slice.  Each element's self-intermodulation then produces only
//!   weak, narrow, unintelligible low-frequency residue, while the full
//!   command still reassembles inside the victim microphone, because only
//!   there do carrier and sidebands meet a non-linearity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseband;
pub mod error;
pub mod leakage;
pub mod multispeaker;
pub mod segmentation;
pub mod single;

pub use error::{AttackError, Result};
pub use multispeaker::MultiSpeakerAttack;
pub use single::SingleSpeakerAttack;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::baseband::BasebandConfig;
    pub use crate::error::{AttackError, Result};
    pub use crate::leakage::LeakageReport;
    pub use crate::multispeaker::MultiSpeakerAttack;
    pub use crate::single::SingleSpeakerAttack;
}
