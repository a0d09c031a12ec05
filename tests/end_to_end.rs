//! Cross-crate integration tests: the full attack and defense loop through
//! the public umbrella API.

use inaudible_voice_commands::core::dataset::FIRST_SEED;
use inaudible_voice_commands::core::{run_trial, DatasetConfig, Delivery, Scenario};
use inaudible_voice_commands::defense::classifier::LogisticRegression;
use inaudible_voice_commands::defense::evaluation::evaluate;
use inaudible_voice_commands::experiments::DetectorSpec;
use inaudible_voice_commands::speech::commands::corpus;
use inaudible_voice_commands::speech::recognizer::Recognizer;

fn quick(delivery: Delivery) -> Scenario {
    Scenario {
        delivery,
        max_voice_duration_s: 1.0,
        ..Scenario::default_attack()
    }
}

#[test]
fn legitimate_and_attack_deliveries_are_both_accepted_at_close_range() {
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let command = &corpus()[0];

    let legit = run_trial(
        command,
        &quick(Delivery::Legitimate {
            talker_spl_db: 68.0,
        })
        .at_distance(1.5),
        &recognizer,
        None,
    )
    .unwrap();
    let attack = run_trial(
        command,
        &quick(Delivery::ArrayUltrasound {
            num_elements: 8,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        })
        .at_distance(1.5),
        &recognizer,
        None,
    )
    .unwrap();

    assert!(
        legit.word_accuracy > 0.5,
        "legit accuracy {}",
        legit.word_accuracy
    );
    assert!(
        attack.word_accuracy > 0.5,
        "attack accuracy {}",
        attack.word_accuracy
    );
    // The attack leaves its tell-tale shadow, the legitimate recording does not.
    assert!(
        attack.defense_features.shadow_correlation > legit.defense_features.shadow_correlation,
        "attack shadow {} vs legit {}",
        attack.defense_features.shadow_correlation,
        legit.defense_features.shadow_correlation
    );
    assert!(
        attack.defense_features.shadow_power_ratio_db
            > legit.defense_features.shadow_power_ratio_db + 3.0
    );
}

#[test]
fn array_attack_outranges_the_inaudibility_constrained_single_speaker() {
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let command = &corpus()[0];
    let distance = 5.0;

    let single = run_trial(
        command,
        &quick(Delivery::SingleSpeakerUltrasound {
            power_w: 3.0,
            carrier_hz: 40_000.0,
        })
        .at_distance(distance),
        &recognizer,
        None,
    )
    .unwrap();
    let array = run_trial(
        command,
        &quick(Delivery::ArrayUltrasound {
            num_elements: 12,
            total_power_w: 100.0,
            carrier_hz: 40_000.0,
        })
        .at_distance(distance),
        &recognizer,
        None,
    )
    .unwrap();

    assert!(
        array.word_accuracy > single.word_accuracy,
        "array {} should beat single {} at {distance} m",
        array.word_accuracy,
        single.word_accuracy
    );
    // And the array's voice-band leakage stays below the single speaker's
    // would-be leakage at the power it would need for the same reach.
    let array_leak = array.leakage.unwrap();
    assert!(
        array_leak.voice_band_spl_db < 45.0,
        "voice-band leak {}",
        array_leak.voice_band_spl_db
    );
}

#[test]
fn trained_detector_separates_attacks_from_legitimate_recordings() {
    // Train on the standard quick corpus with shorter commands...
    let config = DatasetConfig {
        max_voice_duration_s: 0.9,
        ..DetectorSpec::standard(true).corpus
    };
    let train_set = config.labelled_features(FIRST_SEED).unwrap();
    let model = LogisticRegression::train(&train_set).unwrap();

    // ...and test on a held-out corpus: another seed, another command.
    let test_config = DatasetConfig {
        command_indices: vec![1],
        ..config
    };
    let test_set = test_config.labelled_features(99).unwrap();
    let matrix = evaluate(&model, &test_set).unwrap();
    assert!(
        matrix.accuracy() >= 0.75,
        "held-out detection accuracy {} too low",
        matrix.accuracy()
    );
}

#[test]
fn rooms_reshape_the_attack_and_the_doorway_hides_the_leak() {
    // The room subsystem's acceptance criteria, asserted end to end on
    // one campaign: (1) the reverberant ConferenceRoom produces a
    // measurably different success-vs-distance psychometric curve than
    // Anechoic for the same array and power — early reflections add
    // coherent carrier energy at the microphone, which at this power
    // level extends the usable range; (2) firing through an open doorway
    // attenuates the bystander-audible leakage far more than it degrades
    // the ultrasonic voice path (the beam goes through the gap, the leak
    // through the drywall).
    use inaudible_voice_commands::experiments::{
        default_workers, run_campaign, CampaignSpec, CellCoords, DeliverySpec,
    };
    use inaudible_voice_commands::room::RoomPreset;

    let spec = CampaignSpec {
        deliveries: vec![DeliverySpec::array(
            "12-element array, 60 W",
            12,
            60.0,
            40_000.0,
        )],
        rooms: vec![
            Some(RoomPreset::Anechoic),
            Some(RoomPreset::ConferenceRoom),
            Some(RoomPreset::ThroughDoorway),
        ],
        distances_m: vec![2.0, 3.0, 5.0, 6.0],
        max_voice_duration_s: 1.1,
        ..CampaignSpec::new("room-acceptance")
    };
    let report = run_campaign(&spec, default_workers()).unwrap();
    let curve = |room_index: usize| {
        report
            .curves
            .iter()
            .find(|c| c.coords.room_index == room_index)
            .expect("one curve per room")
    };
    let anechoic = curve(0);
    let conference = curve(1);
    let doorway = curve(2);

    // (1) Measurably different psychometric curves: the accuracy gap must
    // be at least one word (0.2) at two or more distances.
    let big_gaps = anechoic
        .mean_word_accuracy
        .iter()
        .zip(conference.mean_word_accuracy.iter())
        .filter(|(a, c)| (*a - *c).abs() >= 0.19)
        .count();
    assert!(
        big_gaps >= 2,
        "conference room curve too close to anechoic: {:?} vs {:?}",
        conference.mean_word_accuracy,
        anechoic.mean_word_accuracy
    );

    // (2) The doorway layout: compare at 3 m.  The leak drops by tens of
    // dB; the voice path loses at most one word of accuracy.
    let anechoic_cell = report
        .find_cell(&CellCoords {
            distance_index: 1,
            ..CellCoords::default()
        })
        .unwrap();
    let doorway_cell = report
        .find_cell(&CellCoords {
            room_index: 2,
            distance_index: 1,
            ..CellCoords::default()
        })
        .unwrap();
    let leak_drop_db = anechoic_cell.stats.mean_bystander_spl_db.unwrap()
        - doorway_cell.stats.mean_bystander_spl_db.unwrap();
    let accuracy_drop =
        anechoic_cell.stats.mean_word_accuracy - doorway_cell.stats.mean_word_accuracy;
    assert!(
        leak_drop_db >= 15.0,
        "doorway leak drop only {leak_drop_db} dB"
    );
    assert!(
        accuracy_drop <= 0.21,
        "doorway degraded the voice path too much: {accuracy_drop}"
    );
    // The leak is attenuated (in dB) far more than the voice path (in
    // words): the doorway scenario makes the attack *stealthier*.
    let doorway_range = doorway
        .mean_word_accuracy
        .iter()
        .zip(anechoic.mean_word_accuracy.iter())
        .all(|(d, a)| d + 0.21 >= *a);
    assert!(doorway_range, "doorway curve collapsed: {doorway:?}");
}

#[test]
fn bigger_array_with_more_power_is_monotone_or_explained() {
    // Regression test for the E-A2 anomaly: the 61-element / 400 W array
    // used to *underperform* the 16-element / 120 W one at 3-6 m because
    // the carrier was silently capped at one element's 30 W rating while
    // the sideband budget kept growing (sideband x sideband distortion then
    // swamps the carrier x sideband voice product inside the microphone).
    // With the balanced carrier-element allocation the bigger, stronger
    // array must do at least as well - or the outcome must *explain* the
    // gap by reporting unplaced budget.
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let command = &corpus()[0];
    let at = |num_elements: usize, total_power_w: f64| {
        let scenario = Scenario {
            delivery: Delivery::ArrayUltrasound {
                num_elements,
                total_power_w,
                carrier_hz: 40_000.0,
            },
            max_voice_duration_s: 0.7,
            ..Scenario::default_attack()
        }
        .at_distance(3.0);
        run_trial(command, &scenario, &recognizer, None).unwrap()
    };
    let small = at(16, 120.0);
    let big = at(61, 400.0);
    let monotone = big.word_accuracy + 1e-9 >= small.word_accuracy;
    let explained = big.power_shortfall_w > 0.0;
    assert!(
        monotone || explained,
        "61-element/400 W array underperforms (accuracy {} vs {}) with no reported \
         power shortfall ({} W)",
        big.word_accuracy,
        small.word_accuracy,
        big.power_shortfall_w
    );
    // With the current ratings (30 W/element) the whole 400 W budget fits,
    // so the monotone branch is the one that must hold today.
    assert_eq!(big.power_shortfall_w, 0.0);
    assert!(monotone);
}
