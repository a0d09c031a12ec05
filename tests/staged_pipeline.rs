//! Golden per-trial digests for the staged trial pipeline.
//!
//! `tests/fixtures/trial-digests-v1.txt` pins every trial of a small grid —
//! the three delivery kinds × the free field and all five room presets ×
//! {Android phone, Amazon Echo} × two seeds — to two FNV-1a digests: one of
//! the quantized recording's sample bits and one of the whole
//! [`TrialOutcome`].  A shared multi-seed [`PreparedCell`] is pinned the
//! same way.  The fixture holds trial bytes fixed across builds, so a
//! kernel rewrite that claims "same bytes" is checked against the code it
//! replaced, not against itself.
//!
//! The sharing contract — one `PreparedCell` serving several seeds equals
//! `run_trial` per seed — is checked directly, on fixed and on fuzzed
//! scenarios.
//!
//! To regenerate after an *intentional* change of trial semantics:
//!
//! ```text
//! IVC_REGEN_FIXTURES=1 cargo test -p inaudible-voice-commands --test staged_pipeline
//! ```

use inaudible_voice_commands::acoustics::microphone::{CaptureScratch, DevicePreset};
use inaudible_voice_commands::core::scenario::{Delivery, Scenario};
use inaudible_voice_commands::core::{run_trial, PreparedCell, TrialOutcome};
use inaudible_voice_commands::dsp::signal::Signal;
use inaudible_voice_commands::room::RoomPreset;
use inaudible_voice_commands::speech::commands::corpus;
use inaudible_voice_commands::speech::recognizer::{EvalScratch, Recognizer};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const FIXTURE: &str = "trial-digests-v1.txt";

fn scenario_for(delivery: Delivery, room: Option<RoomPreset>, seed: u64) -> Scenario {
    Scenario {
        delivery,
        room,
        seed,
        max_voice_duration_s: 0.5,
        ..Scenario::default_attack()
    }
}

const DELIVERY_KINDS: [(&str, Delivery); 3] = [
    (
        "legitimate",
        Delivery::Legitimate {
            talker_spl_db: 68.0,
        },
    ),
    (
        "single",
        Delivery::SingleSpeakerUltrasound {
            power_w: 18.7,
            carrier_hz: 40_000.0,
        },
    ),
    (
        "array6",
        Delivery::ArrayUltrasound {
            num_elements: 6,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        },
    ),
];

const ROOM_AXIS: [Option<RoomPreset>; 6] = [
    None,
    Some(RoomPreset::Anechoic),
    Some(RoomPreset::Office),
    Some(RoomPreset::ConferenceRoom),
    Some(RoomPreset::Corridor),
    Some(RoomPreset::ThroughDoorway),
];

const DEVICES: [DevicePreset; 2] = [DevicePreset::AndroidPhone, DevicePreset::AmazonEcho];

const SEEDS: [u64; 2] = [3, 11];

/// The shared cell: a legitimate talker in the office, whose seeds pick
/// talker variants 2, 1 and 2, so two seeds share one prepared variant.
const SHARED_SEEDS: [u64; 3] = [2, 9, 10];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the recording: its rate and every sample's bits.
fn recording_digest(recording: &Signal) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(
        &mut hash,
        &recording.sample_rate_hz().to_bits().to_le_bytes(),
    );
    for x in recording.samples() {
        fnv1a(&mut hash, &x.to_bits().to_le_bytes());
    }
    hash
}

/// Digest of the whole outcome: the recording's digest plus the `Debug`
/// rendering of every other field (Rust prints each `f64` as its shortest
/// round-tripping decimal, so the text pins the exact bits).
fn outcome_digest(outcome: &TrialOutcome) -> u64 {
    let rest = TrialOutcome {
        recording: Signal::new(Vec::new(), outcome.recording.sample_rate_hz()).unwrap(),
        ..outcome.clone()
    };
    let mut hash = FNV_OFFSET;
    fnv1a(
        &mut hash,
        &recording_digest(&outcome.recording).to_le_bytes(),
    );
    fnv1a(&mut hash, format!("{rest:?}").as_bytes());
    hash
}

fn digest_line(case: &str, outcome: &TrialOutcome) -> String {
    format!(
        "{case} recording={:016x} outcome={:016x}",
        recording_digest(&outcome.recording),
        outcome_digest(outcome)
    )
}

fn room_name(room: Option<RoomPreset>) -> String {
    room.map_or_else(|| "FreeField".to_string(), |preset| format!("{preset:?}"))
}

/// The fixture's lines, in a fixed order: the grid, then the shared cell.
fn golden_lines(recognizer: &Recognizer) -> Vec<String> {
    let command = &corpus()[0];
    let mut cases = Vec::new();
    for (label, delivery) in DELIVERY_KINDS {
        for room in ROOM_AXIS {
            for device in DEVICES {
                for seed in SEEDS {
                    let name = format!("{label}/{}/{device:?}/seed{seed}", room_name(room));
                    let scenario = Scenario {
                        device,
                        ..scenario_for(delivery, room, seed)
                    };
                    cases.push((name, scenario));
                }
            }
        }
    }
    // Two threads over the grid: each trial is independent.
    let (first, second) = cases.split_at(cases.len() / 2);
    let run = |half: &[(String, Scenario)]| -> Vec<String> {
        half.iter()
            .map(|(name, scenario)| {
                let outcome = run_trial(command, scenario, recognizer, None)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                digest_line(name, &outcome)
            })
            .collect()
    };
    let mut lines = std::thread::scope(|scope| {
        let other = scope.spawn(|| run(second));
        let mut lines = run(first);
        lines.extend(other.join().unwrap());
        lines
    });

    let command = &corpus()[1];
    let scenario = scenario_for(
        DELIVERY_KINDS[0].1,
        Some(RoomPreset::Office),
        SHARED_SEEDS[0],
    );
    let prepared = PreparedCell::prepare(command, &scenario, &SHARED_SEEDS).unwrap();
    let mut scratch = CaptureScratch::new();
    let mut eval = EvalScratch::new();
    for seed in SHARED_SEEDS {
        let outcome = prepared
            .run(seed, recognizer, None, &mut scratch, &mut eval)
            .unwrap();
        lines.push(digest_line(&format!("shared/Office/seed{seed}"), &outcome));
    }
    lines
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/fixtures/{FIXTURE}"))
}

#[test]
fn every_trial_matches_its_golden_digest() {
    let recognizer = Recognizer::with_default_corpus().unwrap();
    let lines = golden_lines(&recognizer);
    let path = fixture_path();
    if std::env::var("IVC_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    let committed: Vec<&str> = committed.lines().collect();
    assert_eq!(
        committed.len(),
        lines.len(),
        "{FIXTURE} names a different set of cases"
    );
    // Report every differing case, not only the first.
    let differing: Vec<String> = committed
        .iter()
        .zip(&lines)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        differing.is_empty(),
        "{} of {} trials drifted from {FIXTURE}:\n{}",
        differing.len(),
        lines.len(),
        differing.join("\n")
    );
}

/// The campaign sharing contract: one `PreparedCell` serving several
/// seeds is bit-identical to `run_trial` per seed.
fn assert_shared_cell_matches_run_trial(
    command_index: usize,
    scenario: &Scenario,
    seeds: &[u64],
    recognizer: &Recognizer,
) {
    let command = &corpus()[command_index];
    let prepared = PreparedCell::prepare(command, scenario, seeds).unwrap();
    let mut scratch = CaptureScratch::new();
    let mut eval = EvalScratch::new();
    for &seed in seeds {
        let shared = prepared
            .run(seed, recognizer, None, &mut scratch, &mut eval)
            .unwrap();
        let alone = run_trial(command, &scenario.with_seed(seed), recognizer, None).unwrap();
        assert_eq!(
            shared, alone,
            "seed {seed} diverged for {:?}",
            scenario.delivery
        );
    }
}

#[test]
fn shared_prepared_cell_reproduces_every_per_seed_trial() {
    // For a legitimate delivery this also exercises the seed % 8 talker
    // variants sharing one cell.
    let recognizer = Recognizer::with_default_corpus().unwrap();
    for delivery in [
        DELIVERY_KINDS[0].1,
        Delivery::ArrayUltrasound {
            num_elements: 4,
            total_power_w: 28.0,
            carrier_hz: 40_000.0,
        },
    ] {
        let scenario = scenario_for(delivery, Some(RoomPreset::Office), SHARED_SEEDS[0]);
        assert_shared_cell_matches_run_trial(1, &scenario, &SHARED_SEEDS, &recognizer);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fuzzed scenario parameters: a cell shared by two seeds tracks the
    /// per-seed pipeline bit for bit wherever both run.
    #[test]
    fn shared_cell_equals_per_seed_trials_under_fuzzed_scenarios(
        seed in 0u64..1_000,
        delivery_pick in 0usize..3,
        room_pick in 0usize..ROOM_AXIS.len(),
        distance_db in 0usize..3,
        noise_db in 30.0f64..55.0,
    ) {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let scenario = Scenario {
            distance_m: [1.0, 2.0, 3.5][distance_db],
            ambient_noise_spl_db: noise_db,
            ..scenario_for(DELIVERY_KINDS[delivery_pick].1, ROOM_AXIS[room_pick], seed)
        };
        assert_shared_cell_matches_run_trial(
            seed as usize % corpus().len(),
            &scenario,
            &[seed, seed + 1],
            &recognizer,
        );
    }
}
