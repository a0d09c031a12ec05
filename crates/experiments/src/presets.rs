//! Built-in campaign specs: the paper sweeps (`a1`–`a6`, `b1`–`b3`, the
//! `d`-series defense evaluation), a defense false-accept sweep, the room
//! × distance sweep, and the tiny CI smoke campaign.
//!
//! Every preset takes `quick` — `true` trims the grids and truncates the
//! commands the way the repro harness's `Fidelity::Quick` does, `false`
//! runs the full paper grids.

use crate::grid::{CampaignSpec, DeliverySpec, DetectorSpec, EnvironmentPreset};
use ivc_acoustics::microphone::DevicePreset;
use ivc_room::RoomPreset;

fn voice_cap_s(quick: bool) -> f64 {
    if quick {
        1.1
    } else {
        f64::INFINITY
    }
}

/// E-A1 — single-speaker leakage vs drive power (bystander at 1 m).
pub fn a1(quick: bool) -> CampaignSpec {
    let powers: &[f64] = if quick {
        &[1.0, 8.0, 29.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 29.0]
    };
    CampaignSpec {
        deliveries: powers
            .iter()
            .map(|&p| DeliverySpec::single_speaker(format!("single speaker, {p} W"), p, 40_000.0))
            .collect(),
        distances_m: vec![2.0],
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("a1-leakage-vs-power")
    }
}

/// E-A2 — word accuracy vs distance: single speaker vs the two arrays.
pub fn a2(quick: bool) -> CampaignSpec {
    let distances: Vec<f64> = if quick {
        vec![1.0, 3.0, 6.0]
    } else {
        vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.6, 9.0]
    };
    // Quick mode stands the full 61-element rig down to 8 elements; the
    // label must describe what actually ran (it is archived as provenance).
    let (big_elements, big_power) = if quick { (8, 60.0) } else { (61, 400.0) };
    CampaignSpec {
        deliveries: vec![
            DeliverySpec::single_speaker(
                "single speaker (inaudibility-constrained, 3 W)",
                3.0,
                40_000.0,
            ),
            DeliverySpec::array("array (16 elements, 120 W total)", 16, 120.0, 40_000.0),
            DeliverySpec::array(
                format!("array ({big_elements} elements, {big_power} W total)"),
                big_elements,
                big_power,
                40_000.0,
            ),
        ],
        distances_m: distances,
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("a2-accuracy-vs-distance")
    }
}

/// Element counts shared by the `a3`/`a4` element sweeps.
fn element_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 4, 8]
    } else {
        vec![1, 2, 4, 8, 16, 32, 61]
    }
}

/// E-A3 — word accuracy vs number of array elements at long range
/// (7 W per element).
pub fn a3(quick: bool) -> CampaignSpec {
    CampaignSpec {
        deliveries: element_counts(quick)
            .into_iter()
            .map(|n| {
                let power = 7.0 * n as f64;
                DeliverySpec::array(format!("{n} elements, {power} W"), n, power, 40_000.0)
            })
            .collect(),
        distances_m: vec![if quick { 4.0 } else { 7.6 }],
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("a3-accuracy-vs-elements")
    }
}

/// E-A4 — leakage audibility vs number of elements at equal total power
/// (30 W split across the array, bystander at 1 m).
pub fn a4(quick: bool) -> CampaignSpec {
    CampaignSpec {
        deliveries: element_counts(quick)
            .into_iter()
            .map(|n| DeliverySpec::array(format!("{n} elements, 30 W total"), n, 30.0, 40_000.0))
            .collect(),
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("a4-leakage-vs-elements")
    }
}

/// E-A5 — attack range per device at a fixed array configuration
/// (16 elements, 120 W): a device × distance grid whose per-device curves
/// yield the range at the 0.6-accuracy threshold.
pub fn a5(quick: bool) -> CampaignSpec {
    CampaignSpec {
        devices: vec![DevicePreset::AndroidPhone, DevicePreset::AmazonEcho],
        deliveries: vec![DeliverySpec::array(
            "array (16 elements, 120 W)",
            16,
            120.0,
            40_000.0,
        )],
        distances_m: if quick {
            vec![1.0, 2.0, 4.0, 6.0]
        } else {
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        },
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("a5-range-per-device")
    }
}

/// E-A6 — demodulated quality vs carrier frequency: one 10 W single
/// speaker per carrier, at 1.5 m.
pub fn a6(quick: bool) -> CampaignSpec {
    let carriers: &[f64] = if quick {
        &[30_000.0, 40_000.0, 60_000.0]
    } else {
        &[
            28_000.0, 32_000.0, 36_000.0, 40_000.0, 48_000.0, 56_000.0, 64_000.0,
        ]
    };
    CampaignSpec {
        deliveries: carriers
            .iter()
            .map(|&hz| {
                let label = format!("single speaker, 10 W @ {} kHz", hz / 1_000.0);
                DeliverySpec::single_speaker(label, 10.0, hz)
            })
            .collect(),
        distances_m: vec![1.5],
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("a6-carrier-frequency")
    }
}

/// E-B1 — Song–Mittal Table 1: attack range vs speaker input power — one
/// 30 kHz single speaker per power × devices × a fine distance grid.
pub fn b1(quick: bool) -> CampaignSpec {
    let powers = [9.2, 11.8, 14.8, 18.7, 23.7];
    CampaignSpec {
        devices: vec![DevicePreset::AndroidPhone, DevicePreset::AmazonEcho],
        deliveries: powers
            .map(|w| DeliverySpec::single_speaker(format!("single speaker @ {w} W"), w, 30_000.0))
            .into(),
        distances_m: if quick {
            vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        } else {
            (1..=45).map(|i| i as f64 * 0.1).collect()
        },
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("b1-range-vs-power")
    }
}

/// E-B2 — the recording leg of the spectrogram triplet: one cell whose
/// trial archives the recording's band-energy summary (the normal-voice
/// and attack-drive legs are signal analysis, not trials).
pub fn b2(quick: bool) -> CampaignSpec {
    CampaignSpec {
        deliveries: vec![DeliverySpec::single_speaker(
            "single speaker, 18.7 W",
            18.7,
            30_000.0,
        )],
        recording_band_summary: true,
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("b2-spectrogram-recording")
    }
}

/// Room × distance sweep: the same array attack in every room preset,
/// from the free-field-equivalent `Anechoic` baseline to the occluded
/// `ThroughDoorway` layout.
pub fn rooms(quick: bool) -> CampaignSpec {
    let room_axis: Vec<Option<RoomPreset>> = if quick {
        vec![
            Some(RoomPreset::Anechoic),
            Some(RoomPreset::Office),
            Some(RoomPreset::ConferenceRoom),
            Some(RoomPreset::ThroughDoorway),
        ]
    } else {
        vec![
            Some(RoomPreset::Anechoic),
            Some(RoomPreset::Office),
            Some(RoomPreset::ConferenceRoom),
            Some(RoomPreset::Corridor),
            Some(RoomPreset::ThroughDoorway),
        ]
    };
    CampaignSpec {
        deliveries: vec![DeliverySpec::array(
            "array (12 elements, 100 W)",
            12,
            100.0,
            40_000.0,
        )],
        rooms: room_axis,
        distances_m: if quick {
            vec![1.0, 2.0, 4.0]
        } else {
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        },
        trials_per_cell: if quick { 1 } else { 3 },
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("rooms-vs-distance")
    }
}

/// E-B3 — success rate over repeated trials (Song–Mittal §4.2): one spec
/// per (device, distance, command) case.
pub fn b3(quick: bool) -> Vec<CampaignSpec> {
    let trials = if quick { 5 } else { 50 };
    let cases = [
        (
            "b3-success-android",
            DevicePreset::AndroidPhone,
            3.0,
            2usize,
        ),
        ("b3-success-echo", DevicePreset::AmazonEcho, 2.0, 1usize),
    ];
    cases
        .into_iter()
        .map(|(name, device, distance, command_index)| CampaignSpec {
            devices: vec![device],
            deliveries: vec![DeliverySpec::single_speaker(
                "single speaker, 18.7 W",
                18.7,
                30_000.0,
            )],
            command_indices: vec![command_index],
            distances_m: vec![distance],
            trials_per_cell: trials,
            base_seed: 1_000,
            max_voice_duration_s: voice_cap_s(quick),
            ..CampaignSpec::new(name)
        })
        .collect()
}

/// A defense-oriented false-accept sweep: a legitimate talker against the
/// two attack flavours, across distances and environments, with repeated
/// trials — the acceptance-rate side of the defense evaluation.
pub fn defense(quick: bool) -> CampaignSpec {
    CampaignSpec {
        deliveries: vec![
            DeliverySpec::legitimate("legitimate talker, 65 dB", 65.0),
            DeliverySpec::single_speaker("single speaker, 18.7 W", 18.7, 40_000.0),
            DeliverySpec::array("array (8 elements, 60 W)", 8, 60.0, 40_000.0),
        ],
        environments: if quick {
            vec![EnvironmentPreset::MeetingRoom]
        } else {
            vec![
                EnvironmentPreset::MeetingRoom,
                EnvironmentPreset::SummerHumid,
            ]
        },
        distances_m: if quick {
            vec![1.5, 3.0]
        } else {
            vec![1.0, 2.0, 3.0, 5.0]
        },
        trials_per_cell: if quick { 2 } else { 5 },
        base_seed: 42,
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("defense-acceptance-sweep")
    }
}

/// The shared shape of the d-series evaluation grids: a legitimate talker
/// and the standard 8-element attack, scored by the trained detector.
fn d_series_base(name: &str, quick: bool) -> CampaignSpec {
    CampaignSpec {
        detectors: vec![Some(DetectorSpec::standard(quick))],
        deliveries: vec![
            DeliverySpec::legitimate("legitimate talker, 65 dB", 65.0),
            DeliverySpec::array("array (8 elements, 40 W)", 8, 40.0, 40_000.0),
        ],
        trials_per_cell: if quick { 2 } else { 4 },
        base_seed: 100,
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new(name)
    }
}

/// E-D1/E-D2 — defense feature separation: legitimate vs attack trials
/// whose archived feature vectors (and detector probabilities) feed the
/// per-class feature-mean table.
pub fn d1(quick: bool) -> CampaignSpec {
    CampaignSpec {
        distances_m: if quick {
            vec![1.5, 3.0]
        } else {
            vec![1.0, 2.0, 3.0, 5.0]
        },
        command_indices: if quick { vec![0] } else { vec![0, 1, 2, 3] },
        ..d_series_base("d1-feature-separation", quick)
    }
}

/// E-D3 — the detector's ROC corpus: the d1 grid with more repeated
/// trials, so the per-trial `(probability, label)` pairs trace a curve.
pub fn d3(quick: bool) -> CampaignSpec {
    CampaignSpec {
        name: "d3-roc".into(),
        trials_per_cell: if quick { 3 } else { 6 },
        ..d1(quick)
    }
}

/// E-D4 — detection accuracy per device and distance.
pub fn d4(quick: bool) -> CampaignSpec {
    CampaignSpec {
        devices: vec![DevicePreset::AndroidPhone, DevicePreset::AmazonEcho],
        distances_m: if quick {
            vec![2.0]
        } else {
            vec![1.0, 3.0, 5.0]
        },
        command_indices: if quick { vec![1] } else { vec![1, 2, 4] },
        ..d_series_base("d4-detection-grid", quick)
    }
}

/// E-D5 — detection robustness vs ambient noise: one spec per noise
/// level (the ambient level is a campaign scalar, like `b3`'s cases).
pub fn d5(quick: bool) -> Vec<CampaignSpec> {
    let levels: &[f64] = if quick {
        &[40.0, 60.0]
    } else {
        &[35.0, 45.0, 55.0, 65.0]
    };
    levels
        .iter()
        .map(|&spl| CampaignSpec {
            ambient_noise_spl_db: spl,
            distances_m: vec![2.0],
            ..d_series_base(&format!("d5-noise-{spl:.0}db"), quick)
        })
        .collect()
}

/// E-D6 — the adaptive attacker: a shadow-suppression sweep of the attack
/// delivery, scored by the trained detector.
pub fn d6(quick: bool) -> CampaignSpec {
    let suppressions: &[f64] = if quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    CampaignSpec {
        detectors: vec![Some(DetectorSpec::standard(quick))],
        deliveries: suppressions
            .iter()
            .map(|&alpha| {
                DeliverySpec::array(
                    format!("array (8 elements, 60 W), suppression {alpha}"),
                    8,
                    60.0,
                    40_000.0,
                )
                .with_shadow_suppression(alpha)
            })
            .collect(),
        max_voice_duration_s: voice_cap_s(quick),
        ..CampaignSpec::new("d6-adaptive-attacker")
    }
}

/// The CI smoke campaign: a 2 x 2 grid, one trial per cell, truncated
/// commands — seconds of wall clock, exercising the whole engine.
pub fn smoke() -> CampaignSpec {
    CampaignSpec {
        deliveries: vec![
            DeliverySpec::single_speaker("single speaker, 18.7 W", 18.7, 30_000.0),
            DeliverySpec::array("array (6 elements, 60 W)", 6, 60.0, 40_000.0),
        ],
        distances_m: vec![1.0, 2.0],
        max_voice_duration_s: 0.9,
        ..CampaignSpec::new("smoke")
    }
}

/// Preset names accepted by [`by_name`], for help text.
pub const PRESET_NAMES: [&str; 17] = [
    "smoke", "a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3", "defense", "rooms", "d1", "d3",
    "d4", "d5", "d6",
];

/// Looks a preset up by name; `b3` and `d5` expand to their per-case
/// campaigns, and `d2` is an alias of `d1` (one corpus feeds both the
/// E-D1 and E-D2 tables).
pub fn by_name(name: &str, quick: bool) -> Option<Vec<CampaignSpec>> {
    match name {
        "smoke" => Some(vec![smoke()]),
        "a1" => Some(vec![a1(quick)]),
        "a2" => Some(vec![a2(quick)]),
        "a3" => Some(vec![a3(quick)]),
        "a4" => Some(vec![a4(quick)]),
        "a5" => Some(vec![a5(quick)]),
        "a6" => Some(vec![a6(quick)]),
        "b1" => Some(vec![b1(quick)]),
        "b2" => Some(vec![b2(quick)]),
        "b3" => Some(b3(quick)),
        "defense" => Some(vec![defense(quick)]),
        "rooms" => Some(vec![rooms(quick)]),
        "d1" | "d2" => Some(vec![d1(quick)]),
        "d3" => Some(vec![d3(quick)]),
        "d4" => Some(vec![d4(quick)]),
        "d5" => Some(d5(quick)),
        "d6" => Some(vec![d6(quick)]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_core::scenario::Delivery;

    #[test]
    fn presets_validate_and_have_the_documented_shapes() {
        for name in PRESET_NAMES {
            for quick in [true, false] {
                let specs = by_name(name, quick).unwrap();
                assert!(!specs.is_empty(), "{name}");
                for spec in &specs {
                    spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
                }
            }
        }
        assert!(by_name("nonexistent", true).is_none());
        // Shapes the harness depends on.
        assert_eq!(a1(true).num_cells(), 3);
        assert_eq!(a1(false).num_cells(), 7);
        assert_eq!(a2(true).num_cells(), 9);
        assert_eq!(a2(false).num_cells(), 27);
        assert_eq!(a3(true).num_cells(), 3);
        assert_eq!(a3(false).num_cells(), 7);
        assert_eq!(a4(true).num_cells(), 3);
        assert_eq!(a5(true).num_cells(), 2 * 4);
        assert_eq!(a5(false).num_cells(), 2 * 9);
        assert_eq!(a6(true).num_cells(), 3);
        assert_eq!(a6(false).num_cells(), 7);
        assert_eq!(b1(true).num_cells(), 2 * 5 * 8);
        assert_eq!(b1(false).num_cells(), 2 * 5 * 45);
        assert_eq!(b2(true).num_cells(), 1);
        assert_eq!(rooms(true).num_cells(), 4 * 3);
        assert_eq!(rooms(false).num_cells(), 5 * 6);
        // The a3/a4 sweeps pin the element-sweep scenarios of the bespoke
        // loops they replaced: one trial at seed 1 per cell.
        assert_eq!(a3(true).trials_per_cell, 1);
        assert_eq!(a3(true).base_seed, 1);
        assert_eq!(a4(true).distances_m, vec![2.0]);
        assert_eq!(b3(true).len(), 2);
        assert_eq!(b3(true)[0].num_trials(), 5);
        assert_eq!(b3(false)[0].num_trials(), 50);
        // The migrated element/carrier/power sweeps pin the scenarios of
        // the bespoke loops they replaced: one trial at seed 1 per cell.
        for spec in [a5(true), a6(true), b1(true), b2(true)] {
            assert_eq!(spec.trials_per_cell, 1, "{}", spec.name);
            assert_eq!(spec.base_seed, 1, "{}", spec.name);
        }
        // The d-series runs with a trained detector on every cell; d6
        // sweeps the adaptive attacker's suppression across deliveries.
        for spec in [d1(true), d3(true), d4(true), d6(true)] {
            assert!(spec.detectors[0].is_some(), "{}", spec.name);
        }
        // d3 is the d1 grid under its own name with more trials.
        for quick in [true, false] {
            let d3_spec = d3(quick);
            assert_eq!(d3_spec.name, "d3-roc");
            assert_eq!(d3_spec.trials_per_cell, if quick { 3 } else { 6 });
            let d1_spec = d1(quick);
            assert_eq!(
                CampaignSpec {
                    name: d1_spec.name.clone(),
                    trials_per_cell: d1_spec.trials_per_cell,
                    ..d3_spec
                },
                d1_spec
            );
        }
        assert_eq!(d4(true).devices.len(), 2);
        assert_eq!(d5(true).len(), 2);
        assert_eq!(d5(false).len(), 4);
        assert_eq!(d5(true)[1].ambient_noise_spl_db, 60.0);
        let d6_spec = d6(true);
        assert_eq!(d6_spec.deliveries.len(), 3);
        assert_eq!(d6_spec.deliveries[0].shadow_suppression, 0.0);
        assert_eq!(d6_spec.deliveries[2].shadow_suppression, 1.0);
        assert!(b2(true).recording_band_summary);
        let smoke = smoke();
        assert_eq!(smoke.num_cells(), 4);
        assert_eq!(smoke.trials_per_cell, 1);
        // The smoke campaign must stay tiny: it runs on every CI push.
        assert!(smoke.num_trials() <= 4);
        assert!(smoke.max_voice_duration_s <= 1.0);
    }

    /// Every cell of `spec` in order: its label and the single-speaker
    /// delivery its scenario runs, as `(label, carrier_hz, power_w)`.
    fn single_speaker_cells(spec: &CampaignSpec) -> Vec<(String, f64, f64)> {
        spec.cells()
            .iter()
            .map(|cell| match spec.scenario(cell, 0).delivery {
                Delivery::SingleSpeakerUltrasound {
                    power_w,
                    carrier_hz,
                } => (spec.cell_label(cell), carrier_hz, power_w),
                other => panic!("{}: {other:?} is not a single speaker", spec.name),
            })
            .collect()
    }

    #[test]
    fn a6_and_b1_sweep_one_delivery_per_point() {
        for (quick, khz) in [
            (true, &["30", "40", "60"][..]),
            (false, &["28", "32", "36", "40", "48", "56", "64"][..]),
        ] {
            let expected: Vec<_> = khz
                .iter()
                .map(|k| {
                    let label = format!(
                        "Android phone | single speaker, 10 W @ {k} kHz | free_field | \
                         meeting_room | cmd 0 | 1.5 m"
                    );
                    (label, k.parse::<f64>().unwrap() * 1_000.0, 10.0)
                })
                .collect();
            assert_eq!(single_speaker_cells(&a6(quick)), expected);
        }
        let watts = ["9.2", "11.8", "14.8", "18.7", "23.7"];
        for quick in [true, false] {
            let spec = b1(quick);
            let mut expected = Vec::new();
            for device in ["Android phone", "Amazon Echo"] {
                for w in watts {
                    for d in &spec.distances_m {
                        let label = format!(
                            "{device} | single speaker @ {w} W | free_field | meeting_room | \
                             cmd 0 | {d} m"
                        );
                        expected.push((label, 30_000.0, w.parse::<f64>().unwrap()));
                    }
                }
            }
            assert_eq!(single_speaker_cells(&spec), expected);
        }
    }

    #[test]
    fn a2_quick_and_full_differ_only_where_documented() {
        let quick = a2(true);
        let full = a2(false);
        assert_eq!(quick.deliveries.len(), full.deliveries.len());
        assert_eq!(quick.deliveries[0], full.deliveries[0]);
        assert_eq!(quick.deliveries[1], full.deliveries[1]);
        assert_ne!(quick.deliveries[2], full.deliveries[2]);
        assert!(quick.distances_m.len() < full.distances_m.len());
    }
}
