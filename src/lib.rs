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
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the reproduced tables and figures.

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
    pub use ivc_acoustics::prelude::*;
    pub use ivc_attack::prelude::*;
    pub use ivc_core::{run_trial, DatasetConfig, Delivery, PreparedCell, Scenario, TrialOutcome};
    pub use ivc_defense::prelude::*;
    pub use ivc_dsp::prelude::*;
    pub use ivc_experiments::{
        run_campaign, CampaignReport, CampaignSpec, CellCoords, DeliverySpec, DetectorSpec,
        EnvironmentPreset, ShardArchive, ShardJob, ShardPlan, ShardRange,
    };
    pub use ivc_room::{RoomInstance, RoomPreset};
    pub use ivc_speech::prelude::*;

    // Every substrate prelude exports its own `Result` alias; pick the
    // end-to-end pipeline's boxed-error alias for the umbrella prelude so
    // the glob re-exports above stay unambiguous.
    pub use ivc_core::Result;
}

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        // Touch one item from every re-exported crate.
        let _ = crate::dsp::window::WindowKind::Hann.symmetric(8);
        let _ = crate::acoustics::environment::AirEnvironment::default();
        let _ = crate::speech::commands::corpus();
        let _ = crate::attack::baseband::BasebandConfig::default();
        let _ = crate::defense::features::DefenseFeatures::DIMENSION;
        let _ = crate::core::Scenario::default_attack();
        let _ = crate::experiments::CampaignSpec::new("wired");
        let _ = crate::room::RoomPreset::Office.room();
    }
}
