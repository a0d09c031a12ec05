//! Stage-equivalence suite for the staged trial pipeline.
//!
//! The refactor's tentpole promise: splitting `run_trial` into
//! **Prepare → Perturb → Evaluate** changed *where* the work happens, not
//! *what* is computed.  This suite keeps a test-local copy of the
//! pre-refactor monolithic pipeline (`legacy_run_trial`, the exact
//! operation order of the old `ivc_core::pipeline::run_trial`) and pins
//! the staged pipeline against it **bit for bit** — across every delivery
//! kind, the free field and all five room presets, and under fuzzed
//! scenario parameters.

use inaudible_voice_commands::acoustics::array::{ElementDrive, SpeakerArray};
use inaudible_voice_commands::acoustics::environment::AirEnvironment;
use inaudible_voice_commands::acoustics::noise::room_noise_pa;
use inaudible_voice_commands::acoustics::propagation::{propagate, propagate_from_aperture};
use inaudible_voice_commands::acoustics::speaker::UltrasonicSpeaker;
use inaudible_voice_commands::acoustics::spl::spl_db_to_pressure;
use inaudible_voice_commands::attack::baseband::BasebandConfig;
use inaudible_voice_commands::attack::leakage::{leakage_from_field, LeakageReport};
use inaudible_voice_commands::attack::multispeaker::{
    single_speaker_element_drives, MultiSpeakerAttack,
};
use inaudible_voice_commands::attack::single::SingleSpeakerAttack;
use inaudible_voice_commands::core::scenario::{Delivery, Scenario};
use inaudible_voice_commands::core::{
    run_trial, PrepareContext, PreparedCell, Result, TrialOutcome, TrialScratch,
};
use inaudible_voice_commands::defense::features::DefenseFeatures;
use inaudible_voice_commands::dsp::signal::Signal;
use inaudible_voice_commands::room::{propagate_in_room, RoomInstance, RoomPreset};
use inaudible_voice_commands::speech::commands::{corpus, VoiceCommand};
use inaudible_voice_commands::speech::recognizer::Recognizer;
use inaudible_voice_commands::speech::synthesis::{SpeakerProfile, Synthesizer};
use proptest::prelude::*;

/// The pre-refactor monolithic pipeline, preserved verbatim (modulo the
/// module paths) as the bit-identity reference.
fn legacy_run_trial(
    command: &VoiceCommand,
    scenario: &Scenario,
    recognizer: &Recognizer,
) -> Result<TrialOutcome> {
    let synth = Synthesizer::new(48_000.0)?;
    let profile = match scenario.delivery {
        Delivery::Legitimate { .. } => SpeakerProfile::variant(scenario.seed as usize % 8),
        _ => SpeakerProfile::canonical(),
    };
    let utterance = synth.render(command, &profile)?;
    let voice = if utterance.signal.duration_s() > scenario.max_voice_duration_s {
        utterance
            .signal
            .slice_seconds(0.0, scenario.max_voice_duration_s)
    } else {
        utterance.signal.clone()
    };

    let room = match scenario.room {
        None => None,
        Some(preset) => {
            Some(preset.instantiate(scenario.distance_m, scenario.bystander_distance_m)?)
        }
    };
    let (mut pressure_at_port, leakage, power_shortfall_w) = match scenario.delivery {
        Delivery::Legitimate { talker_spl_db } => {
            let rms = voice.rms().max(1e-12);
            let pressure_at_1m = voice.scaled(spl_db_to_pressure(talker_spl_db) / rms);
            let at_port =
                legacy_propagate_to_target(&pressure_at_1m, 0.0, scenario, room.as_ref())?;
            (at_port, None, 0.0)
        }
        Delivery::SingleSpeakerUltrasound {
            power_w,
            carrier_hz,
        } => {
            let attack =
                SingleSpeakerAttack::build(&voice, carrier_hz, 0.9, &BasebandConfig::default())?;
            let speaker = UltrasonicSpeaker::default();
            let array = SpeakerArray::new(speaker.clone(), 1, 0.03)?;
            let placed_w = power_w.min(speaker.max_power_w);
            let drives = single_speaker_element_drives(&attack, placed_w)?;
            let (at_port, leak) = legacy_deliver_attack(&array, &drives, scenario, room.as_ref())?;
            (at_port, Some(leak), power_w - placed_w)
        }
        Delivery::ArrayUltrasound {
            num_elements,
            total_power_w,
            carrier_hz,
        } => {
            let speaker = UltrasonicSpeaker::default();
            let array = SpeakerArray::new(speaker.clone(), num_elements.max(1), 0.03)?;
            let (drives, shortfall_w) = if num_elements <= 1 {
                let attack = SingleSpeakerAttack::build(
                    &voice,
                    carrier_hz,
                    0.9,
                    &BasebandConfig::default(),
                )?;
                let placed_w = total_power_w.min(speaker.max_power_w);
                (
                    single_speaker_element_drives(&attack, placed_w)?,
                    total_power_w - placed_w,
                )
            } else {
                let attack = MultiSpeakerAttack::build_balanced(
                    &voice,
                    carrier_hz,
                    num_elements,
                    total_power_w,
                    0.3,
                    speaker.max_power_w,
                    &BasebandConfig::default(),
                )?;
                let allocation = attack.allocate_power(total_power_w, 0.3, speaker.max_power_w)?;
                (allocation.drives, allocation.shortfall_w)
            };
            let (at_port, leak) = legacy_deliver_attack(&array, &drives, scenario, room.as_ref())?;
            (at_port, Some(leak), shortfall_w)
        }
    };

    let noise = room_noise_pa(
        scenario.ambient_noise_spl_db,
        pressure_at_port.duration_s(),
        pressure_at_port.sample_rate_hz(),
        scenario.seed ^ 0xDEAD_BEEF,
    )?;
    pressure_at_port.mix(&noise)?;
    let recording = scenario
        .device
        .microphone()
        .capture(&pressure_at_port, scenario.seed)?;

    let evaluation = recognizer.evaluate(&recording, command.id)?;
    let word_accuracy = evaluation.word_accuracy;
    let accepted = evaluation.accepted;
    let recognized_words: Vec<String> = evaluation
        .word_recognition
        .into_iter()
        .filter(|(_, ok)| *ok)
        .map(|(word, _)| word)
        .collect();
    let defense_features = DefenseFeatures::extract(&recording)?;

    Ok(TrialOutcome {
        recording,
        accepted,
        word_accuracy,
        recognized_words,
        bystander_spl_db: leakage.as_ref().map(|leak| leak.audible_spl_db),
        power_shortfall_w,
        seed: scenario.seed,
        leakage,
        defense_features,
        detection_probability: None,
    })
}

fn legacy_propagate_to_target(
    source_at_1m: &Signal,
    aperture_m: f64,
    scenario: &Scenario,
    room: Option<&RoomInstance>,
) -> Result<Signal> {
    match room {
        None => Ok(propagate_from_aperture(
            source_at_1m,
            scenario.distance_m,
            aperture_m,
            &scenario.env,
        )?),
        Some(instance) => Ok(propagate_in_room(
            source_at_1m,
            &instance.target_rir(aperture_m)?,
            &scenario.env,
        )?),
    }
}

fn legacy_deliver_attack(
    array: &SpeakerArray,
    drives: &[ElementDrive],
    scenario: &Scenario,
    room: Option<&RoomInstance>,
) -> Result<(Signal, LeakageReport)> {
    let near = array.emitted_field_at_1m(drives)?;
    let at_port = legacy_propagate_to_target(&near, array.aperture_m(), scenario, room)?;
    let env: &AirEnvironment = &scenario.env;
    let bystander_field = match room {
        None => propagate(&near, scenario.bystander_distance_m, env)?,
        Some(instance) => propagate_in_room(&near, &instance.bystander_rir()?, env)?,
    };
    let leak = leakage_from_field(&bystander_field, scenario.bystander_distance_m, 0.0)?;
    Ok((at_port, leak))
}

fn scenario_for(delivery: Delivery, room: Option<RoomPreset>, seed: u64) -> Scenario {
    Scenario {
        delivery,
        room,
        seed,
        max_voice_duration_s: 0.5,
        ..Scenario::default_attack()
    }
}

const DELIVERY_KINDS: [Delivery; 3] = [
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
];

const ROOM_AXIS: [Option<RoomPreset>; 6] = [
    None,
    Some(RoomPreset::Anechoic),
    Some(RoomPreset::Office),
    Some(RoomPreset::ConferenceRoom),
    Some(RoomPreset::Corridor),
    Some(RoomPreset::ThroughDoorway),
];

#[test]
fn staged_pipeline_is_bit_identical_to_the_legacy_monolith_everywhere() {
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let command = &corpus()[0];
    for delivery in DELIVERY_KINDS {
        for room in ROOM_AXIS {
            let scenario = scenario_for(delivery, room, 3);
            let legacy = legacy_run_trial(command, &scenario, &recognizer).unwrap();
            let staged = run_trial(command, &scenario, &recognizer, None).unwrap();
            // The whole outcome, recording bytes included, must match.
            assert_eq!(
                staged, legacy,
                "staged != legacy for {delivery:?} in {room:?}"
            );
        }
    }
}

#[test]
fn shared_prepared_cell_reproduces_every_per_seed_legacy_trial() {
    // The campaign sharing contract: one PreparedCell serving several
    // seeds is bit-identical to rebuilding the monolith per seed — for a
    // legitimate delivery this also exercises the seed % 8 talker
    // variants sharing one cell.
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let command = &corpus()[1];
    let seeds: [u64; 3] = [2, 9, 10]; // variants 2, 1, 2
    for delivery in [
        DELIVERY_KINDS[0],
        Delivery::ArrayUltrasound {
            num_elements: 4,
            total_power_w: 28.0,
            carrier_hz: 40_000.0,
        },
    ] {
        let scenario = scenario_for(delivery, Some(RoomPreset::Office), seeds[0]);
        let ctx = PrepareContext::new().unwrap();
        let prepared = PreparedCell::prepare(&ctx, command, &scenario, &seeds).unwrap();
        let mut scratch = TrialScratch::new();
        for seed in seeds {
            let staged = prepared.run(seed, &recognizer, None, &mut scratch).unwrap();
            let legacy = legacy_run_trial(command, &scenario.with_seed(seed), &recognizer).unwrap();
            assert_eq!(staged, legacy, "seed {seed} diverged for {delivery:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fuzzed scenario parameters: the staged pipeline tracks the legacy
    /// monolith bit for bit wherever both run.
    #[test]
    fn staged_equals_legacy_under_fuzzed_scenarios(
        seed in 0u64..1_000,
        delivery_pick in 0usize..3,
        room_pick in 0usize..ROOM_AXIS.len(),
        distance_db in 0usize..3,
        noise_db in 30.0f64..55.0,
    ) {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[seed as usize % corpus().len()];
        let scenario = Scenario {
            distance_m: [1.0, 2.0, 3.5][distance_db],
            ambient_noise_spl_db: noise_db,
            ..scenario_for(DELIVERY_KINDS[delivery_pick], ROOM_AXIS[room_pick], seed)
        };
        let legacy = legacy_run_trial(command, &scenario, &recognizer).unwrap();
        let staged = run_trial(command, &scenario, &recognizer, None).unwrap();
        prop_assert_eq!(staged, legacy);
    }
}
