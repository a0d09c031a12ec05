//! The benchmark's workloads, each a [`CampaignSpec`] generated from the
//! workload seed.  The seed picks the spec's `base_seed` and the corpus
//! command the cells speak; the program only ever sees the generated spec.
//!
//! Every spec caps voices at 0.6 s, so every command costs about the same
//! and the seed moves the inputs, not the amount of work.

use ivc_experiments::{CampaignSpec, DeliverySpec, DetectorSpec};
use ivc_room::RoomPreset;
use ivc_speech::commands::corpus;

/// Voice-duration cap of every workload.
const VOICE_CAP_S: f64 = 0.6;

/// Trials per cell of `repeat` at full size: a multiple of the 8 talker
/// variants, so legitimate cells cycle every variant equally.
const REPEAT_TRIALS: usize = 64;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Prepare-heavy paper-sweep shape: 48 distinct cells × 1 trial.
    Sweep,
    /// Trial-heavy success-rate shape: 4 cells × many trials, with a
    /// trained detector.
    Repeat,
    /// The `sweep` grid through the orchestrator and shard-worker processes.
    Fleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Repeat, Workload::Fleet];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Repeat => "repeat",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a spec to generate: `Tiny` is the dry-run size of the
/// self-test, a few trials per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few trials, for the self-test's dry runs.
    Tiny,
}

impl Size {
    /// Parses `full` or `tiny`.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// SplitMix64: a well-mixed 64-bit hash of the workload seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The campaign a workload runs for `seed`.  `fleet` runs exactly the
/// `sweep` spec, so their archives must be byte-identical.
pub fn campaign_spec(workload: Workload, seed: u64, size: Size) -> CampaignSpec {
    let hash = mix(seed);
    let base = CampaignSpec {
        command_indices: vec![(hash % corpus().len() as u64) as usize],
        base_seed: (hash >> 32) % 1_000_000,
        max_voice_duration_s: VOICE_CAP_S,
        ..CampaignSpec::new("perfbench")
    };
    match workload {
        Workload::Sweep | Workload::Fleet => sweep_spec(base, size),
        Workload::Repeat => repeat_spec(base, size),
    }
}

/// 4 deliveries × 3 rooms × 4 distances: adjacent cells share attack
/// builds (distance and room are not attack-build axes).
fn sweep_spec(base: CampaignSpec, size: Size) -> CampaignSpec {
    let mut deliveries = vec![DeliverySpec::single_speaker(
        "single speaker, 18.7 W",
        18.7,
        30_000.0,
    )];
    deliveries.extend([4usize, 8, 16].into_iter().map(|n| {
        let watts = 7.0 * n as f64;
        DeliverySpec::array(format!("{n} elements, {watts} W"), n, watts, 40_000.0)
    }));
    let mut spec = CampaignSpec {
        name: "perfbench-sweep".to_string(),
        deliveries,
        rooms: vec![
            None,
            Some(RoomPreset::Office),
            Some(RoomPreset::ConferenceRoom),
        ],
        distances_m: vec![1.0, 2.0, 3.0, 4.0],
        ..base
    };
    if size == Size::Tiny {
        spec.deliveries.truncate(1);
        spec.rooms.truncate(2);
        spec.distances_m.truncate(2);
    }
    spec
}

/// {legitimate talker, 8-element array} × {1.5, 3.0} m, many trials per
/// cell, scored by the standard quick detector.
fn repeat_spec(base: CampaignSpec, size: Size) -> CampaignSpec {
    CampaignSpec {
        name: "perfbench-repeat".to_string(),
        detectors: vec![Some(DetectorSpec::standard(true))],
        deliveries: vec![
            DeliverySpec::legitimate("legitimate talker, 65 dB", 65.0),
            DeliverySpec::array("array (8 elements, 40 W)", 8, 40.0, 40_000.0),
        ],
        distances_m: vec![1.5, 3.0],
        trials_per_cell: match size {
            Size::Full => REPEAT_TRIALS,
            Size::Tiny => 2,
        },
        ..base
    }
}

/// The set-up call's campaign: one trial of the workload's first delivery
/// in free field, with the workload's detector axis but a command the
/// workload never speaks.  It pays the process-wide set-up (recognizer
/// enrollment, detector training, filter designs) and leaves the Prepare
/// cache cold for every key of the workload.
pub fn warmup_spec(spec: &CampaignSpec) -> CampaignSpec {
    let corpus_len = corpus().len();
    let command = (1..corpus_len)
        .map(|offset| (spec.command_indices[0] + offset) % corpus_len)
        .find(|c| !spec.command_indices.contains(c))
        .expect("the corpus has a command the workload does not speak");
    CampaignSpec {
        name: format!("{}-setup", spec.name),
        detectors: spec.detectors.clone(),
        deliveries: vec![spec.deliveries[0].clone()],
        command_indices: vec![command],
        distances_m: vec![spec.distances_m[0]],
        base_seed: spec.base_seed,
        max_voice_duration_s: spec.max_voice_duration_s,
        ..CampaignSpec::new("setup")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_spec() {
        for workload in Workload::ALL {
            for size in [Size::Full, Size::Tiny] {
                assert_eq!(
                    campaign_spec(workload, 7, size),
                    campaign_spec(workload, 7, size)
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_specs() {
        for workload in Workload::ALL {
            for (a, b) in [(1, 2), (2, 3), (7, 8), (0, 1_000)] {
                assert_ne!(
                    campaign_spec(workload, a, Size::Full),
                    campaign_spec(workload, b, Size::Full),
                    "{} seeds {a} and {b}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn seeds_reach_every_command() {
        let mut seen = vec![false; corpus().len()];
        for seed in 0..200 {
            seen[campaign_spec(Workload::Sweep, seed, Size::Full).command_indices[0]] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn fleet_runs_the_sweep_spec() {
        for seed in [1, 42] {
            assert_eq!(
                campaign_spec(Workload::Fleet, seed, Size::Full),
                campaign_spec(Workload::Sweep, seed, Size::Full)
            );
        }
    }

    #[test]
    fn specs_have_their_documented_shape_and_validate() {
        let sweep = campaign_spec(Workload::Sweep, 3, Size::Full);
        assert_eq!(sweep.num_cells(), 48);
        assert_eq!(sweep.num_trials(), 48);
        let repeat = campaign_spec(Workload::Repeat, 3, Size::Full);
        assert_eq!(repeat.num_cells(), 4);
        assert_eq!(repeat.trials_per_cell % 8, 0, "cycles all talker variants");
        for workload in Workload::ALL {
            for size in [Size::Full, Size::Tiny] {
                let spec = campaign_spec(workload, 11, size);
                spec.validate().unwrap();
                assert!(spec.num_trials() >= 2, "fleet needs a trial per shard");
                warmup_spec(&spec).validate().unwrap();
            }
        }
    }

    #[test]
    fn the_setup_call_shares_no_command_and_one_trial() {
        for workload in Workload::ALL {
            for seed in 0..50 {
                let spec = campaign_spec(workload, seed, Size::Full);
                let warmup = warmup_spec(&spec);
                assert_eq!(warmup.num_trials(), 1);
                assert_eq!(warmup.detectors, spec.detectors);
                assert!(!spec.command_indices.contains(&warmup.command_indices[0]));
            }
        }
    }
}
