//! The prepare cache's correctness contract: archives are **byte
//! identical** with the cache on or off, warm or cold, at any worker
//! count — the cache may only change how fast a campaign runs, never a
//! single archived byte — and the content-addressed keys never collide
//! across distinct axis sub-tuples (fuzzed below).

use ivc_core::prepare_cache;
use ivc_core::scenario::Scenario;
use ivc_experiments::grid::{CampaignSpec, DeliverySpec, DetectorSpec};
use ivc_experiments::run_campaign;
use ivc_room::RoomPreset;
use ivc_speech::cache::TalkerKey;
use ivc_speech::commands::corpus;
use proptest::prelude::*;

/// A small multi-axis campaign: delivery × room, two trials per cell, so
/// the run exercises utterance, attack-build, RIR, propagation and
/// leakage caching plus the legitimate talker-variant paths — and, through
/// its one tiny detector, the cached recognizer and trained detector.
fn multi_axis_spec() -> CampaignSpec {
    CampaignSpec {
        detectors: vec![Some(DetectorSpec {
            // The smallest corpus that still trains (the classifier wants
            // >= 4 samples): 3 legitimate variants + 1 attack.
            distances_m: vec![1.5],
            num_speaker_variants: 3,
            command_indices: vec![0],
            max_voice_duration_s: 0.8,
            ..DetectorSpec::standard(true)
        })],
        deliveries: vec![
            DeliverySpec::legitimate("legit talker", 68.0),
            DeliverySpec::array("array (4 elements, 40 W)", 4, 40.0, 40_000.0),
        ],
        rooms: vec![None, Some(RoomPreset::Office)],
        distances_m: vec![1.0],
        trials_per_cell: 2,
        max_voice_duration_s: 0.25,
        ..CampaignSpec::new("prepare-cache-identity")
    }
}

/// One test function (not several) because the cache toggle is process
/// global: interleaving enable/disable across parallel tests would race.
/// The proptest below never touches the toggle, so it may run alongside.
#[test]
fn archives_are_byte_identical_with_cache_on_off_warm_cold_any_workers() {
    let spec = multi_axis_spec();
    prepare_cache::clear();
    prepare_cache::set_enabled(true);

    // Cold cache: every product is a miss.
    let before = prepare_cache::stats();
    let warm1 = run_campaign(&spec, 1).expect("warm run 1").to_json_string();
    let after_first = prepare_cache::stats();
    assert!(
        after_first.misses > before.misses,
        "a cold cache must record misses"
    );

    // Fully warm cache: the same campaign re-prepares, re-enrolls and
    // re-trains nothing.
    let warm2 = run_campaign(&spec, 1).expect("warm run 2").to_json_string();
    let after_second = prepare_cache::stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "a fully warm re-run must not miss"
    );
    assert_eq!(
        after_second.entries, after_first.entries,
        "a fully warm re-run must add no entries"
    );
    assert!(
        after_second.hits > after_first.hits,
        "a fully warm re-run must hit"
    );

    // Worker count never reaches the archive, warm or not.
    let warm4 = run_campaign(&spec, 4)
        .expect("warm run, 4 workers")
        .to_json_string();

    // Cache disabled: everything rebuilt from scratch.
    prepare_cache::set_enabled(false);
    let cold = run_campaign(&spec, 2)
        .expect("cache-off run")
        .to_json_string();
    prepare_cache::set_enabled(true);

    assert_eq!(warm1, warm2, "warm re-run changed the archive");
    assert_eq!(warm1, warm4, "worker count changed the archive");
    assert_eq!(warm1, cold, "disabling the cache changed the archive");
}

/// Renders the determining sub-tuple of each product family for a point
/// in the fuzzed axis space: utterance, legitimate source, room and room
/// leakage (off the legitimate source key).
fn family_keys(
    command_index: usize,
    variant: usize,
    cap_ds: u8,
    spl_tenth_db: u16,
    fs_khz: u8,
    room: u8,
    dist_cm: u32,
    bystander_cm: u32,
) -> Vec<String> {
    let commands = corpus();
    let command = &commands[command_index % commands.len()];
    let talker = if variant == 0 {
        TalkerKey::Canonical
    } else {
        TalkerKey::Variant(variant)
    };
    let preset = match room % 4 {
        0 => RoomPreset::Anechoic,
        1 => RoomPreset::Office,
        2 => RoomPreset::ConferenceRoom,
        _ => RoomPreset::Corridor,
    };
    let cap_s = f64::from(cap_ds) / 10.0;
    let spl_db = f64::from(spl_tenth_db) / 10.0;
    let source_key = prepare_cache::legitimate_source_key(command, variant, cap_s, spl_db);
    let scenario = Scenario {
        room: Some(preset),
        distance_m: f64::from(dist_cm) / 100.0,
        bystander_distance_m: f64::from(bystander_cm) / 100.0,
        ..Scenario::default_attack()
    };
    vec![
        prepare_cache::utterance_key(command, &talker, f64::from(fs_khz) * 1_000.0),
        source_key.clone(),
        prepare_cache::room_key(preset, scenario.distance_m, scenario.bystander_distance_m),
        prepare_cache::leakage_key(&source_key, &scenario),
    ]
}

/// One fuzzed point in the axis space, split into two 4-tuples.
type Axes = ((usize, usize, u8, u16), (u8, u8, u32, u32));

/// The vendored proptest has no tuple strategies, so draw the axes with a
/// hand-rolled [`Strategy`] impl over its deterministic PRNG.
struct AxesStrategy;

impl Strategy for AxesStrategy {
    type Value = Axes;

    fn generate(&self, rng: &mut proptest::TestRng) -> Axes {
        (
            (
                rng.usize_in(0, 6),
                rng.usize_in(0, 9),
                rng.usize_in(1, 20) as u8,
                rng.usize_in(500, 900) as u16,
            ),
            (
                rng.usize_in(44, 49) as u8,
                rng.usize_in(0, 4) as u8,
                rng.usize_in(50, 500) as u32,
                rng.usize_in(50, 500) as u32,
            ),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Distinct axis sub-tuples must render distinct keys (no collisions),
    /// and identical sub-tuples identical keys (no spurious misses).
    #[test]
    fn keys_collide_exactly_when_the_sub_tuple_matches(a in AxesStrategy, b in AxesStrategy) {
        let ka = family_keys(a.0 .0, a.0 .1, a.0 .2, a.0 .3, a.1 .0, a.1 .1, a.1 .2, a.1 .3);
        let kb = family_keys(b.0 .0, b.0 .1, b.0 .2, b.0 .3, b.1 .0, b.1 .1, b.1 .2, b.1 .3);
        // Keys from different product families never collide (each is
        // prefixed by its family tag).
        for (i, x) in ka.iter().enumerate() {
            for (j, y) in kb.iter().enumerate() {
                if i != j {
                    prop_assert_ne!(x, y);
                }
            }
        }
        if a == b {
            prop_assert_eq!(&ka, &kb);
        } else {
            // Compare family by family: the key must differ whenever any
            // axis *that family depends on* differs.
            let commands = corpus().len();
            // Variant 0 maps to `Canonical`, which is distinct from every
            // `Variant(v)` — so the raw variant number identifies the talker.
            let utterance_tuple = |t: &Axes| (t.0 .0 % commands, t.0 .1, t.1 .0);
            if utterance_tuple(&a) != utterance_tuple(&b) {
                prop_assert_ne!(&ka[0], &kb[0]);
            }
            let legit_tuple = |t: &Axes| (t.0 .0 % commands, t.0 .1, t.0 .2, t.0 .3);
            if legit_tuple(&a) != legit_tuple(&b) {
                prop_assert_ne!(&ka[1], &kb[1]);
            }
            let room_tuple = |t: &Axes| (t.1 .1 % 4, t.1 .2, t.1 .3);
            if room_tuple(&a) != room_tuple(&b) {
                prop_assert_ne!(&ka[2], &kb[2]);
            }
            // Leakage reads the source, room and bystander but never the
            // target distance: equal sub-tuples share a key even when the
            // target distances differ.
            let leakage_tuple = |t: &Axes| (legit_tuple(t), t.1 .1 % 4, t.1 .3);
            if leakage_tuple(&a) == leakage_tuple(&b) {
                prop_assert_eq!(&ka[3], &kb[3]);
            } else {
                prop_assert_ne!(&ka[3], &kb[3]);
            }
        }
    }
}
