//! The end-to-end pipeline: one trial of one scenario.
//!
//! Since the staged refactor this module is a thin façade: the work lives
//! in [`crate::stages`] (Prepare → Perturb → Evaluate), and [`run_trial`]
//! composes the three stages for a single `(scenario, seed)`.  Campaigns
//! bypass the wrapper and share one [`crate::stages::PreparedCell`] across
//! all trials of a cell.

use crate::scenario::Scenario;
use crate::stages::{PreparedCell, TrialScratch};
use crate::Result;
use ivc_attack::leakage::LeakageReport;
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::features::DefenseFeatures;
use ivc_dsp::signal::Signal;
use ivc_speech::commands::VoiceCommand;
use ivc_speech::recognizer::Recognizer;

/// Everything measured in one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// The digital recording the device's software received.
    pub recording: Signal,
    /// Did the recogniser accept the recording as the intended command?
    pub accepted: bool,
    /// Word accuracy against the intended command's template.
    pub word_accuracy: f64,
    /// The intended command's words that were recognised, in word order
    /// (`word_accuracy` is `recognized_words.len() / command.num_words()`).
    pub recognized_words: Vec<String>,
    /// Speaker-side leakage report (attack deliveries only).
    pub leakage: Option<LeakageReport>,
    /// Unweighted audible-band SPL a bystander near the source would hear,
    /// in dB (`None` for legitimate deliveries) — the leakage report's
    /// headline number, flattened for aggregation.
    pub bystander_spl_db: Option<f64>,
    /// Electrical budget the delivery asked for but could not place because
    /// per-element power ratings bound (0 when everything fit).
    pub power_shortfall_w: f64,
    /// The master seed the trial ran with (copied from the scenario, so a
    /// result archive is self-contained).
    pub seed: u64,
    /// The defense's features for this recording.
    pub defense_features: DefenseFeatures,
    /// The detector's attack probability, if a trained detector was supplied.
    pub detection_probability: Option<f64>,
}

/// Runs one trial of `scenario` injecting (or speaking) `command`:
/// Prepare → Perturb → Evaluate composed for the scenario's own seed.
///
/// `recognizer` must have the command corpus enrolled; `detector` is
/// optional — when present, its probability output is included.
pub fn run_trial(
    command: &VoiceCommand,
    scenario: &Scenario,
    recognizer: &Recognizer,
    detector: Option<&LogisticRegression>,
) -> Result<TrialOutcome> {
    let prepared = PreparedCell::prepare(command, scenario, &[scenario.seed])?;
    prepared.run(
        scenario.seed,
        recognizer,
        detector,
        &mut TrialScratch::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Delivery;
    use ivc_speech::commands::corpus;

    fn quick_scenario(delivery: Delivery) -> Scenario {
        Scenario {
            delivery,
            max_voice_duration_s: 1.0,
            ..Scenario::default_attack()
        }
    }

    #[test]
    fn legitimate_delivery_is_accepted_and_not_detected_as_attack() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let scenario = quick_scenario(Delivery::Legitimate {
            talker_spl_db: 68.0,
        });
        let outcome = run_trial(command, &scenario, &recognizer, None).unwrap();
        assert!(outcome.leakage.is_none());
        assert!(outcome.bystander_spl_db.is_none());
        assert!(outcome.detection_probability.is_none());
        assert!(
            outcome.word_accuracy > 0.5,
            "accuracy {}",
            outcome.word_accuracy
        );
        // The aggregation fields are consistent with the headline numbers.
        assert_eq!(outcome.seed, scenario.seed);
        assert_eq!(outcome.power_shortfall_w, 0.0);
        assert!(
            (outcome.word_accuracy
                - outcome.recognized_words.len() as f64 / command.num_words() as f64)
                .abs()
                < 1e-12
        );
        assert!(outcome.recording.len() > 1_000);
    }

    #[test]
    fn array_attack_at_close_range_is_accepted_and_leaves_a_trace() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let scenario = quick_scenario(Delivery::ArrayUltrasound {
            num_elements: 6,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        });
        let outcome = run_trial(command, &scenario, &recognizer, None).unwrap();
        assert!(outcome.leakage.is_some());
        assert_eq!(
            outcome.bystander_spl_db,
            outcome.leakage.as_ref().map(|l| l.audible_spl_db)
        );
        // 60 W over 6 elements fits every rating: nothing is lost.
        assert_eq!(outcome.power_shortfall_w, 0.0);
        assert!(
            outcome.word_accuracy > 0.4,
            "accuracy {}",
            outcome.word_accuracy
        );
        // The defense trace is present even when the attack succeeds.
        assert!(outcome.defense_features.shadow_correlation > 0.2);
    }

    #[test]
    fn anechoic_room_is_bit_identical_to_free_field() {
        // The satellite guarantee of the room subsystem: per-tap delays
        // and gains are applied exactly like the free-field path, so a
        // room that reflects nothing *is* the free-field trial — same
        // recording bytes, same leakage, same verdict.
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        for delivery in [
            Delivery::Legitimate {
                talker_spl_db: 68.0,
            },
            Delivery::SingleSpeakerUltrasound {
                power_w: 18.7,
                carrier_hz: 40_000.0,
            },
            Delivery::ArrayUltrasound {
                num_elements: 6,
                total_power_w: 60.0,
                carrier_hz: 40_000.0,
            },
        ] {
            let free_field = quick_scenario(delivery);
            let anechoic = Scenario {
                room: Some(ivc_room::RoomPreset::Anechoic),
                ..free_field.clone()
            };
            let a = run_trial(command, &free_field, &recognizer, None).unwrap();
            let b = run_trial(command, &anechoic, &recognizer, None).unwrap();
            assert_eq!(
                a.recording.samples(),
                b.recording.samples(),
                "recordings diverge for {delivery:?}"
            );
            assert_eq!(a.word_accuracy, b.word_accuracy);
            assert_eq!(a.leakage, b.leakage);
        }
    }

    #[test]
    fn reverberant_room_changes_the_trial_and_occlusion_guards_the_leak() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let base = quick_scenario(Delivery::ArrayUltrasound {
            num_elements: 8,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        });
        let free = run_trial(command, &base, &recognizer, None).unwrap();
        let office = run_trial(
            command,
            &Scenario {
                room: Some(ivc_room::RoomPreset::Office),
                ..base.clone()
            },
            &recognizer,
            None,
        )
        .unwrap();
        // The office's reflections change the recording (but the trial
        // still completes and produces a leakage estimate).
        assert_ne!(free.recording.samples(), office.recording.samples());
        assert!(office.leakage.is_some());

        // Behind the doorway partition the bystander hears far less.
        let doorway = run_trial(
            command,
            &Scenario {
                room: Some(ivc_room::RoomPreset::ThroughDoorway),
                ..base.clone()
            },
            &recognizer,
            None,
        )
        .unwrap();
        let free_leak = free.bystander_spl_db.unwrap();
        let doorway_leak = doorway.bystander_spl_db.unwrap();
        assert!(
            doorway_leak < free_leak - 10.0,
            "doorway leak {doorway_leak} dB vs free-field {free_leak} dB"
        );
    }

    #[test]
    fn room_that_cannot_host_the_scenario_is_rejected() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let scenario = Scenario {
            room: Some(ivc_room::RoomPreset::Office),
            distance_m: 7.0,
            ..quick_scenario(Delivery::Legitimate {
                talker_spl_db: 68.0,
            })
        };
        assert!(run_trial(command, &scenario, &recognizer, None).is_err());
    }

    #[test]
    fn attack_fails_at_extreme_distance() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let near = quick_scenario(Delivery::SingleSpeakerUltrasound {
            power_w: 25.0,
            carrier_hz: 40_000.0,
        });
        let far = near.at_distance(30.0);
        let outcome_near = run_trial(command, &near.at_distance(1.0), &recognizer, None).unwrap();
        let outcome_far = run_trial(command, &far, &recognizer, None).unwrap();
        assert!(
            outcome_near.word_accuracy > outcome_far.word_accuracy,
            "near {} vs far {}",
            outcome_near.word_accuracy,
            outcome_far.word_accuracy
        );
        assert!(!outcome_far.accepted);
    }
}
