//! # inaudible-voice-commands
//!
//! Umbrella crate of the reproduction of *"Inaudible Voice Commands: The
//! Long-Range Attack and Defense"* (NSDI 2018).  It re-exports the
//! workspace crates under one roof so that examples, integration tests and
//! downstream users can depend on a single package:
//!
//! * [`dsp`] — signal-processing substrate (FFT, filters, resampling, STFT,
//!   modulation).
//! * [`acoustics`] — propagation, non-linear speaker/microphone models,
//!   speaker arrays, psychoacoustics.
//! * [`speech`] — formant synthesiser, command corpus, MFCC/DTW recogniser.
//! * [`attack`] — the single-speaker baseline and the long-range
//!   multi-speaker ultrasonic injection.
//! * [`defense`] — non-linearity-trace features, classifier, evaluation.
//! * [`room`] — shoebox room acoustics: image-source reflections, RT60,
//!   materials, line-segment occlusion, named room presets.
//! * [`core`] — end-to-end scenarios, the trial pipeline and result tables.
//! * [`experiments`] — the parallel campaign engine: parameter grids,
//!   worker-pool execution, shard-parallel multi-process execution with
//!   byte-identical merge, aggregate statistics, JSON report archival.
//!
//! See `README.md`: its "Quickstart" section builds and runs the
//! reproduction, "Architecture: the staged trial pipeline" describes the
//! trial stages, and "Campaigns" lists the presets behind the reproduced
//! tables and figures (`repro a1` … `repro d6`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ivc_acoustics as acoustics;
pub use ivc_attack as attack;
pub use ivc_core as core;
pub use ivc_defense as defense;
pub use ivc_dsp as dsp;
pub use ivc_experiments as experiments;
pub use ivc_room as room;
pub use ivc_speech as speech;

/// The most commonly used items across the workspace, in one import.
pub mod prelude {
    pub use ivc_acoustics::array::SpeakerArray;
    pub use ivc_acoustics::{AirEnvironment, DevicePreset, Microphone, Polynomial};
    pub use ivc_attack::leakage::LeakageReport;
    pub use ivc_attack::{MultiSpeakerAttack, SingleSpeakerAttack};
    pub use ivc_core::{
        run_trial, DatasetConfig, Delivery, PreparedCell, Result, Scenario, TrialOutcome,
    };
    pub use ivc_defense::evaluation::{ConfusionMatrix, RocCurve};
    pub use ivc_defense::{DefenseFeatures, FeatureVector, LogisticRegression};
    pub use ivc_dsp::filter::{Biquad, BiquadCascade, FirFilter};
    pub use ivc_dsp::window::WindowKind;
    pub use ivc_dsp::{Complex, DspError, Signal};
    pub use ivc_experiments::{
        run_campaign, CampaignReport, CampaignSpec, CellCoords, DeliverySpec, DetectorSpec,
        EnvironmentPreset, ShardArchive, ShardJob, ShardPlan, ShardRange,
    };
    pub use ivc_room::RoomPreset;
    pub use ivc_speech::{
        CommandId, RecognitionOutcome, Recognizer, SpeakerProfile, Synthesizer, VoiceCommand,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        // Touch one item from every re-exported crate.
        let _ = crate::dsp::window::WindowKind::Hann.symmetric(8);
        let _ = crate::acoustics::environment::AirEnvironment::default();
        let _ = crate::speech::commands::corpus();
        let _ = crate::attack::baseband::CUTOFF_HZ;
        let _ = crate::defense::features::DefenseFeatures::DIMENSION;
        let _ = crate::core::Scenario::default_attack();
        let _ = crate::experiments::CampaignSpec::new("wired");
        let _ = crate::room::RoomPreset::Office.room();
    }
}
