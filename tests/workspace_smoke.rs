//! Workspace smoke test: one call that exercises the whole crate graph
//! (dsp → acoustics → speech → attack → defense → core) through the
//! umbrella prelude, proving the re-exports and the dependency edges the
//! manifests declare actually line up.

// Every item the umbrella prelude exports, by name: dropping one from the
// prelude fails this import, used or not.
#[allow(unused_imports)]
use inaudible_voice_commands::prelude::{
    run_campaign, run_trial, AirEnvironment, Biquad, BiquadCascade, CampaignReport, CampaignSpec,
    CellCoords, CommandId, Complex, ConfusionMatrix, DatasetConfig, DefenseFeatures, Delivery,
    DeliverySpec, DetectorSpec, DevicePreset, DspError, EnvironmentPreset, FeatureVector,
    FirFilter, LeakageReport, LogisticRegression, Microphone, MultiSpeakerAttack, Polynomial,
    PreparedCell, RecognitionOutcome, Recognizer, Result, RocCurve, RoomPreset, Scenario,
    ShardArchive, ShardJob, ShardPlan, ShardRange, Signal, SingleSpeakerAttack, SpeakerArray,
    SpeakerProfile, Synthesizer, TrialOutcome, VoiceCommand, WindowKind,
};
use inaudible_voice_commands::speech::commands::corpus;

#[test]
fn prelude_reexports_cover_every_layer() {
    let _window = WindowKind::Hann.symmetric(16);
    let _signal = Signal::tone(1_000.0, 0.1, 0.5, 48_000.0).unwrap();
    let _features_dim = DefenseFeatures::DIMENSION;
    let scenario = Scenario::default_attack();
    assert!(scenario.delivery.is_attack());
}

#[test]
fn default_attack_trial_is_coherent_end_to_end() {
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let command = &corpus()[0];
    let scenario = Scenario {
        max_voice_duration_s: 1.0,
        ..Scenario::default_attack()
    };

    let outcome: TrialOutcome = run_trial(command, &scenario, &recognizer, None).unwrap();

    // The recording must be a real, finite signal at the device's rate.
    assert!(!outcome.recording.is_empty());
    assert!(outcome.recording.samples().iter().all(|x| x.is_finite()));

    // Word accuracy is a fraction; the defense features a finite vector.
    assert!((0.0..=1.0).contains(&outcome.word_accuracy));
    assert!(outcome
        .defense_features
        .to_vector()
        .iter()
        .all(|x| x.is_finite()));

    // An attack delivery must report speaker-side leakage; no detector was
    // supplied, so no detection probability is present.
    assert!(outcome.leakage.is_some());
    assert!(outcome.detection_probability.is_none());
}
