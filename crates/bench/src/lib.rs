//! # ivc-bench — the reproduction harness
//!
//! One way from a campaign preset to reports, [`run_preset`], and one
//! renderer per paper table/figure.  [`run_preset`] runs a preset's specs
//! through the campaign engine (`ivc_experiments`), in-process on the
//! worker pool or under the shard orchestrator ([`Runner`]).  Each
//! `fig_*`/`tab_*` function is a pure renderer: it turns the reports it is
//! handed into the paper's table, and [`EXPERIMENTS`] pairs every
//! experiment id with its preset and renderer.  There are no bespoke trial
//! loops here, so the staged `Prepare → Perturb → Evaluate` pipeline is the
//! one and only trial-execution path in the codebase.
//!
//! Two fidelity levels are supported to keep wall-clock time manageable:
//! [`Fidelity::Quick`] (trimmed sweeps, truncated commands — minutes) and
//! [`Fidelity::Full`] (the full grids — tens of minutes).  The experiment
//! *shapes* are identical; EXPERIMENTS.md records which level produced the
//! archived numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ivc_core::results::{fmt, Table};
use ivc_core::scenario::Delivery;
use ivc_core::telemetry;
use ivc_core::Result;
use ivc_defense::evaluation::{ConfusionMatrix, RocCurve};
use ivc_defense::features::DefenseFeatures;
use ivc_experiments::orchestrate::{orchestrate, OrchestratorConfig, ProcessLauncher};
use ivc_experiments::shard::metrics_sidecar_path;
use ivc_experiments::{
    presets, run_campaign, CampaignReport, CampaignSpec, CellCoords, TrialRecord,
};
use std::path::{Path, PathBuf};

/// How exhaustive the sweeps should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Trimmed sweeps and truncated commands; finishes in minutes.
    Quick,
    /// The full grids reported in EXPERIMENTS.md's "full" runs.
    Full,
}

impl Fidelity {
    /// Reads the fidelity from the `IVC_FULL` environment variable
    /// (`Full` when set to `1`, `Quick` otherwise).
    pub fn from_env() -> Fidelity {
        Fidelity::from_flag(std::env::var("IVC_FULL").ok().as_deref())
    }

    /// The fidelity an `IVC_FULL` value selects (`None` = unset).
    pub fn from_flag(value: Option<&str>) -> Fidelity {
        match value {
            Some("1") | Some("true") => Fidelity::Full,
            _ => Fidelity::Quick,
        }
    }

    /// The campaign-preset flavour of this fidelity.
    pub fn quick(self) -> bool {
        self == Fidelity::Quick
    }
}

/// A paper-table renderer: the text `repro` prints for the reports one
/// preset run produced.
pub type Renderer = fn(&[CampaignReport]) -> Result<String>;

/// Every paper experiment, in the order `repro all` prints them: the ids
/// that select it, the campaign preset it runs and its renderer.
#[rustfmt::skip]
pub const EXPERIMENTS: &[(&[&str], &str, Renderer)] = &[
    (&["a1"], "a1", fig_a1_leakage_vs_power),
    (&["a2"], "a2", fig_a2_accuracy_vs_distance),
    (&["a3"], "a3", fig_a3_accuracy_vs_speakers),
    (&["a4"], "a4", fig_a4_leakage_vs_speakers),
    (&["a5"], "a5", tab_a5_range_per_device),
    (&["a6"], "a6", fig_a6_carrier_frequency),
    (&["b1"], "b1", tab_b1_range_vs_power),
    (&["b2"], "b2", fig_b2_spectrogram_triplet),
    (&["b3"], "b3", tab_b3_success_rate),
    (&["rooms"], "rooms", fig_rooms_sweep),
    (&["d1", "d2"], "d1", fig_d1_d2_feature_separation),
    (&["d3"], "d3", fig_d3_roc),
    (&["d4"], "d4", tab_d4_detection_grid),
    (&["d5"], "d5", fig_d5_noise_robustness),
    (&["d6"], "d6", fig_d6_adaptive_attacker),
];

/// The preset and renderer of experiment `id`, or the one-line "unknown
/// experiment id" error.
pub fn experiment(id: &str) -> Result<(&'static str, Renderer)> {
    EXPERIMENTS
        .iter()
        .find(|(ids, ..)| ids.contains(&id))
        .map(|&(_, preset, render)| (preset, render))
        .ok_or_else(|| format!("unknown experiment id '{id}'").into())
}

/// The report of a single-spec preset.
fn only(reports: &[CampaignReport]) -> Result<&CampaignReport> {
    match reports {
        [report] => Ok(report),
        _ => Err(format!("expected one campaign report, got {}", reports.len()).into()),
    }
}

/// E-A1 — audible leakage of a single speaker versus drive power, from
/// the `a1` preset's report.
pub fn fig_a1_leakage_vs_power(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut table = Table::new(
        "E-A1: single-speaker leakage vs drive power (bystander at 1 m)",
        &[
            "Power (W)",
            "Leakage SPL (dB)",
            "Voice-band leak (dB)",
            "Audible?",
        ],
    );
    for (i, delivery) in spec.deliveries.iter().enumerate() {
        let Delivery::SingleSpeakerUltrasound { power_w, .. } = delivery.delivery else {
            unreachable!("a1 sweeps single-speaker powers");
        };
        let cell = report
            .find_cell(&CellCoords {
                delivery_index: i,
                ..CellCoords::default()
            })
            .expect("a1 grid covers every power");
        let audible = cell
            .stats
            .leak_audible_fraction
            .expect("attack delivery has leakage")
            >= 0.5;
        table.push_row(vec![
            fmt(power_w, 1),
            fmt(cell.stats.mean_bystander_spl_db.unwrap_or(f64::NAN), 1),
            fmt(
                cell.stats.mean_bystander_voice_spl_db.unwrap_or(f64::NAN),
                1,
            ),
            if audible { "yes".into() } else { "no".into() },
        ]);
    }
    Ok(table.render())
}

/// E-A2 — word accuracy versus distance: single speaker vs array, from
/// the `a2` preset's report, followed by each psychometric curve's range
/// read as an accuracy curve.
pub fn fig_a2_accuracy_vs_distance(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut table = Table::new(
        "E-A2: injected-command word accuracy vs distance",
        &["Distance (m)", "Single 3 W", "Array 16", "Array 61"],
    );
    for (di, &distance) in spec.distances_m.iter().enumerate() {
        let accuracy = |delivery_index: usize| -> f64 {
            report
                .find_cell(&CellCoords {
                    delivery_index,
                    distance_index: di,
                    ..CellCoords::default()
                })
                .expect("a2 grid covers every (delivery, distance)")
                .stats
                .mean_word_accuracy
        };
        table.push_row(vec![
            fmt(distance, 1),
            fmt(accuracy(0), 2),
            fmt(accuracy(1), 2),
            fmt(accuracy(2), 2),
        ]);
    }
    let mut out = table.render();
    for curve in &report.curves {
        out.push_str(&format!(
            "range at >= 0.8 accuracy [{}]: {:.1} m\n",
            curve.label,
            curve
                .range_at_least(&curve.mean_word_accuracy, 0.8)
                .unwrap_or(0.0)
        ));
    }
    Ok(out)
}

/// E-A3 — word accuracy versus number of array elements at long range,
/// from the `a3` preset's report.
pub fn fig_a3_accuracy_vs_speakers(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let distance = spec.distances_m[0];
    let mut table = Table::new(
        format!("E-A3: word accuracy vs number of elements (distance {distance} m)"),
        &[
            "Elements",
            "Total power (W)",
            "Word accuracy",
            "Leak voice-band SPL (dB)",
        ],
    );
    for (i, delivery) in spec.deliveries.iter().enumerate() {
        let Delivery::ArrayUltrasound {
            num_elements,
            total_power_w,
            ..
        } = delivery.delivery
        else {
            unreachable!("a3 sweeps array element counts");
        };
        let cell = report
            .find_cell(&CellCoords {
                delivery_index: i,
                ..CellCoords::default()
            })
            .expect("a3 grid covers every element count");
        table.push_row(vec![
            num_elements.to_string(),
            fmt(total_power_w, 1),
            fmt(cell.stats.mean_word_accuracy, 2),
            fmt(
                cell.stats.mean_bystander_voice_spl_db.unwrap_or(f64::NAN),
                1,
            ),
        ]);
    }
    Ok(table.render())
}

/// E-A4 — leakage audibility versus number of elements at equal total power.
///
/// From the `a4` preset's report; the A-weighted column is the report's
/// `mean_bystander_spl_dba`.
pub fn fig_a4_leakage_vs_speakers(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let Delivery::ArrayUltrasound { total_power_w, .. } = spec.deliveries[0].delivery else {
        unreachable!("a4 sweeps array element counts");
    };
    let mut table = Table::new(
        format!(
            "E-A4: leakage vs number of elements (total power {total_power_w} W, bystander 1 m)"
        ),
        &[
            "Elements",
            "Leak SPL (dB)",
            "Leak dB(A)",
            "Voice-band leak (dB)",
            "Audible?",
        ],
    );
    for (i, delivery) in spec.deliveries.iter().enumerate() {
        let Delivery::ArrayUltrasound { num_elements, .. } = delivery.delivery else {
            unreachable!("a4 sweeps array element counts");
        };
        let cell = report
            .find_cell(&CellCoords {
                delivery_index: i,
                ..CellCoords::default()
            })
            .expect("a4 grid covers every element count");
        let audible = cell
            .stats
            .leak_audible_fraction
            .expect("attack delivery has leakage")
            >= 0.5;
        table.push_row(vec![
            num_elements.to_string(),
            fmt(cell.stats.mean_bystander_spl_db.unwrap_or(f64::NAN), 1),
            fmt(cell.stats.mean_bystander_spl_dba.unwrap_or(f64::NAN), 1),
            fmt(
                cell.stats.mean_bystander_voice_spl_db.unwrap_or(f64::NAN),
                1,
            ),
            if audible { "yes".into() } else { "no".into() },
        ]);
    }
    Ok(table.render())
}

/// Room × distance sweep: the same array attack in every room preset,
/// rendered as a word-accuracy pivot (rows = distances, columns = rooms)
/// plus a bystander-leak pivot in the same table.
pub fn fig_rooms_sweep(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut columns: Vec<String> = vec!["Distance (m)".into()];
    for &room in &spec.rooms {
        columns.push(format!("{} acc.", ivc_experiments::room_token(room)));
    }
    for &room in &spec.rooms {
        columns.push(format!("{} leak dB", ivc_experiments::room_token(room)));
    }
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Rooms: word accuracy and bystander leak vs distance per room preset",
        &column_refs,
    );
    for (di, &distance) in spec.distances_m.iter().enumerate() {
        let cells: Vec<_> = (0..spec.rooms.len())
            .map(|ri| {
                report
                    .find_cell(&CellCoords {
                        room_index: ri,
                        distance_index: di,
                        ..CellCoords::default()
                    })
                    .expect("rooms grid covers every (room, distance)")
            })
            .collect();
        let mut row = vec![fmt(distance, 1)];
        row.extend(cells.iter().map(|c| fmt(c.stats.mean_word_accuracy, 2)));
        row.extend(
            cells
                .iter()
                .map(|c| fmt(c.stats.mean_bystander_spl_db.unwrap_or(f64::NAN), 1)),
        );
        table.push_row(row);
    }
    Ok(table.render())
}

/// E-A5 — attack range per device at a fixed array configuration.
///
/// From the `a5` preset's report; each device's range is read off its
/// psychometric accuracy curve.
pub fn tab_a5_range_per_device(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut table = Table::new(
        "E-A5: attack range per device (accuracy >= 0.6, 16-element array, 120 W)",
        &["Device", "Range (m)"],
    );
    for (device_index, device) in spec.devices.iter().enumerate() {
        let curve = report
            .curves
            .iter()
            .find(|c| c.coords.device_index == device_index)
            .expect("a5 produces one curve per device");
        let range = curve
            .range_at_least(&curve.mean_word_accuracy, 0.6)
            .unwrap_or(0.0);
        table.push_row(vec![device.name().to_string(), fmt(range, 1)]);
    }
    Ok(table.render())
}

/// E-A6 — demodulated quality versus carrier frequency, from the `a6`
/// preset's report (one single-speaker delivery per carrier).
pub fn fig_a6_carrier_frequency(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut table = Table::new(
        "E-A6: word accuracy vs carrier frequency (single speaker, 10 W, 1.5 m)",
        &["Carrier (kHz)", "Word accuracy"],
    );
    for (i, delivery) in spec.deliveries.iter().enumerate() {
        let Delivery::SingleSpeakerUltrasound { carrier_hz, .. } = delivery.delivery else {
            unreachable!("a6 sweeps single-speaker carriers");
        };
        let cell = report
            .find_cell(&CellCoords {
                delivery_index: i,
                ..CellCoords::default()
            })
            .expect("a6 grid covers every carrier");
        table.push_row(vec![
            fmt(carrier_hz / 1_000.0, 0),
            fmt(cell.stats.mean_word_accuracy, 2),
        ]);
    }
    Ok(table.render())
}

/// E-B1 — Song–Mittal Table 1: attack range versus speaker input power.
///
/// From the `b1` preset's report (one single-speaker delivery per power);
/// ranges are read off the per-(device, power) accuracy curves.
pub fn tab_b1_range_vs_power(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut table = Table::new(
        "E-B1: attack range vs speaker input power (single speaker)",
        &["Power (W)", "Phone range (cm)", "Echo range (cm)"],
    );
    for (i, delivery) in spec.deliveries.iter().enumerate() {
        let Delivery::SingleSpeakerUltrasound { power_w, .. } = delivery.delivery else {
            unreachable!("b1 sweeps single-speaker powers");
        };
        let mut ranges = Vec::new();
        for device_index in 0..spec.devices.len() {
            let curve = report
                .curves
                .iter()
                .find(|c| c.coords.device_index == device_index && c.coords.delivery_index == i)
                .expect("b1 produces one curve per (device, power)");
            let range_m = curve
                .range_at_least(&curve.mean_word_accuracy, 0.6)
                .unwrap_or(0.0);
            ranges.push(range_m * 100.0);
        }
        table.push_row(vec![fmt(power_w, 1), fmt(ranges[0], 0), fmt(ranges[1], 0)]);
    }
    Ok(table.render())
}

/// E-B2 — spectrogram band-energy summary of normal / attack / recorded.
///
/// The recording column comes from the `b2` campaign's archived band
/// summary; the normal-voice and attack-drive columns are pure signal
/// analysis of the synthesiser and attack-construction outputs (no trial
/// is run outside the engine).
pub fn fig_b2_spectrogram_triplet(reports: &[CampaignReport]) -> Result<String> {
    use ivc_dsp::stft::spectrogram;
    let report = only(reports)?;
    let spec = &report.spec;
    let bands = ivc_experiments::executor::BAND_SUMMARY_BANDS;

    // Normal voice (the full render — the triplet compares signal
    // classes, not the trial's truncation).
    let synth = ivc_speech::synthesis::Synthesizer::new(48_000.0)?;
    let command = &ivc_speech::commands::corpus()[spec.command_indices[0]];
    let voice = synth
        .render(command, &ivc_speech::synthesis::SpeakerProfile::canonical())?
        .signal;
    // Attack drive.
    let Delivery::SingleSpeakerUltrasound { carrier_hz, .. } = spec.deliveries[0].delivery else {
        unreachable!("b2 is the single-speaker attack");
    };
    let attack = ivc_attack::single::SingleSpeakerAttack::build(&voice, carrier_hz)?;

    let mut table = Table::new(
        "E-B2: band-energy summaries (dB) of normal voice / attack ultrasound / recording",
        &[
            "Band",
            "Normal (0-8 kHz)",
            "Attack drive (0-96 kHz)",
            "Recording (0-8 kHz)",
        ],
    );
    let sg_voice = spectrogram(voice.samples(), voice.sample_rate_hz())?;
    let sg_attack = spectrogram(attack.drive.samples(), attack.drive.sample_rate_hz())?;
    let voice_bands = sg_voice.band_summary_db(8_000.0, bands);
    let attack_bands = sg_attack.band_summary_db(96_000.0, bands);
    let rec_bands = report.cells[0].trials[0]
        .recording_band_summary_db
        .clone()
        .expect("b2 archives the recording band summary");
    for i in 0..bands {
        table.push_row(vec![
            format!("{i}"),
            fmt(voice_bands[i], 1),
            fmt(attack_bands[i], 1),
            fmt(rec_bands[i], 1),
        ]);
    }
    Ok(table.render())
}

/// E-B3 — success rates over repeated trials (Song–Mittal §4.2).
///
/// One row per report of the `b3` preset, which runs each (device,
/// distance, command) case as its own campaign so the success rates come
/// with Wilson confidence intervals for free.
pub fn tab_b3_success_rate(reports: &[CampaignReport]) -> Result<String> {
    let trials = reports
        .first()
        .ok_or("b3 ran no campaign")?
        .spec
        .trials_per_cell;
    let mut table = Table::new(
        format!("E-B3: attack success rate over {trials} trials"),
        &[
            "Device",
            "Distance (m)",
            "Command",
            "Success rate",
            "95% CI",
        ],
    );
    for report in reports {
        let spec = &report.spec;
        let cell = &report.cells[0];
        table.push_row(vec![
            spec.devices[0].name().to_string(),
            fmt(spec.distances_m[0], 1),
            ivc_speech::commands::corpus()[spec.command_indices[0]]
                .text
                .to_string(),
            fmt(cell.stats.success_rate, 2),
            format!(
                "[{}, {}]",
                fmt(cell.stats.success_ci_low, 2),
                fmt(cell.stats.success_ci_high, 2)
            ),
        ]);
    }
    Ok(table.render())
}

/// The campaign specs a preset name expands to (`b3` and `d5` expand to
/// several), or the one-line "unknown campaign preset" error listing the
/// available names.
pub fn preset_specs(name: &str, fidelity: Fidelity) -> Result<Vec<CampaignSpec>> {
    presets::by_name(name, fidelity.quick()).ok_or_else(|| {
        format!(
            "unknown campaign preset '{name}' (available: {})",
            presets::PRESET_NAMES.join(", ")
        )
        .into()
    })
}

/// A per-invocation unique scratch-directory path under the system temp
/// dir (the path is returned, not created).  The pid alone is not unique
/// enough — a failed run keeps its directory behind for inspection and
/// pids recycle — so the name also carries a timestamp and a
/// process-wide counter.
pub fn unique_scratch_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    std::env::temp_dir().join(format!(
        "ivc-{tag}-{}-{stamp}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Where [`run_preset`] executes a preset's trials.  Either way every
/// report is byte-identical to the in-process [`run_campaign`] run.
#[derive(Debug, Clone)]
pub enum Runner {
    /// In this process, on a pool of worker threads.
    InProcess {
        /// Worker threads.
        workers: usize,
    },
    /// Under [`ivc_experiments::orchestrate()`], the one multi-process shard
    /// runner (what `repro campaign --shards N` and `repro profile
    /// --shards N` select) with its one launcher, [`ProcessLauncher`]:
    /// `repro shard-worker` child processes launched from `worker_exe`,
    /// failed shards retried up to `config.max_retries`, stragglers
    /// re-issued, finished partials checkpointed into `scratch_dir` and
    /// surviving checkpoints resumed.  Shard file names carry the spec
    /// name, so one scratch directory serves every preset.
    Orchestrated {
        /// The supervision policy.
        config: OrchestratorConfig,
        /// Worker threads per shard-worker process.
        workers: usize,
        /// The executable re-entered as `shard-worker`.
        worker_exe: PathBuf,
        /// Where checkpoints, telemetry sidecars and run manifests go.
        scratch_dir: PathBuf,
    },
}

/// "4 worker(s)", or "2 shard(s) x 2 worker(s)" when orchestrated.
impl std::fmt::Display for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Runner::InProcess { workers } => write!(f, "{workers} worker(s)"),
            Runner::Orchestrated {
                config, workers, ..
            } => write!(f, "{} shard(s) x {workers} worker(s)", config.num_shards),
        }
    }
}

/// Runs campaign preset `name` on `runner`: one report per expanded spec,
/// and the telemetry sidecars this run's shard workers wrote (none in
/// process, and none for a shard resumed from an earlier run's
/// checkpoint).  This is the one way from a preset name to reports; the
/// orchestrator's status lines go to stderr.
pub fn run_preset(
    name: &str,
    fidelity: Fidelity,
    runner: &Runner,
) -> Result<(Vec<CampaignReport>, Vec<PathBuf>)> {
    let specs = preset_specs(name, fidelity)?;
    let mut sidecars = Vec::new();
    let reports = match runner {
        Runner::InProcess { workers } => specs
            .iter()
            .map(|spec| Ok(run_campaign(spec, *workers)?))
            .collect::<Result<_>>()?,
        Runner::Orchestrated {
            config,
            workers,
            worker_exe,
            scratch_dir,
        } => {
            let mut launcher = ProcessLauncher::new(worker_exe, *workers);
            let mut status = std::io::stderr();
            let mut reports = Vec::new();
            for spec in &specs {
                let run = orchestrate(spec, config, scratch_dir, &mut launcher, &mut status)?;
                sidecars.extend(
                    run.fresh_checkpoints
                        .iter()
                        .map(|c| metrics_sidecar_path(c)),
                );
                reports.push(run.report);
            }
            reports
        }
    };
    Ok((reports, sidecars))
}

/// Reads the worker telemetry sidecars [`run_preset`] returned, one
/// `ivc-metrics-v1` snapshot each.
///
/// A missing or unparseable sidecar is a **loud error**, never an
/// under-reported fleet document: a silently dropped worker is exactly
/// the failure mode fleet telemetry exists to prevent.
pub fn worker_metrics(sidecars: &[PathBuf]) -> Result<Vec<telemetry::Snapshot>> {
    sidecars
        .iter()
        .map(|sidecar| {
            let text = std::fs::read_to_string(sidecar).map_err(|e| {
                format!(
                    "a shard worker left no telemetry sidecar at {} ({e}); \
                     refusing to emit under-reported fleet metrics",
                    sidecar.display()
                )
            })?;
            Ok(telemetry::Snapshot::parse_metrics(&text)
                .map_err(|e| format!("parsing {}: {e}", sidecar.display()))?)
        })
        .collect()
}

/// Total `stage.*` time of a snapshot, in nanoseconds.
fn stage_time_ns(snapshot: &telemetry::Snapshot) -> u64 {
    [
        telemetry::SPAN_STAGE_PREPARE,
        telemetry::SPAN_STAGE_PERTURB,
        telemetry::SPAN_STAGE_EVALUATE,
    ]
    .iter()
    .map(|name| snapshot.span(name).map(|s| s.total_ns).unwrap_or(0))
    .fold(0, u64::saturating_add)
}

/// Merges worker sidecar snapshots into the coordinator's local snapshot,
/// producing the fleet-wide metrics document, and asserts the merge is
/// honest: at least 95 % of the fleet's `stage.*` time must come from the
/// workers (in a sharded run the coordinator executes no trials, so
/// anything less means worker telemetry was dropped on the floor).
pub fn merge_fleet_metrics(
    local: telemetry::Snapshot,
    workers: &[telemetry::Snapshot],
) -> Result<telemetry::Snapshot> {
    let worker_stage_ns = workers
        .iter()
        .map(stage_time_ns)
        .fold(0, u64::saturating_add);
    let mut fleet = local.with_source("coordinator");
    for worker in workers {
        fleet.merge(worker);
    }
    let fleet_stage_ns = stage_time_ns(&fleet);
    if fleet_stage_ns > 0 && (worker_stage_ns as f64) < 0.95 * fleet_stage_ns as f64 {
        return Err(format!(
            "fleet metrics report only {:.1}% of stage time from workers (worker {:.3}s of \
             fleet {:.3}s) — worker telemetry was lost in the merge",
            100.0 * worker_stage_ns as f64 / fleet_stage_ns as f64,
            worker_stage_ns as f64 / 1e9,
            fleet_stage_ns as f64 / 1e9,
        )
        .into());
    }
    Ok(fleet)
}

/// The top-level attribution rows, in pipeline order, each with the
/// sub-step spans nested inside it.  Top-level spans never overlap each
/// other, so their totals sum to attributable engine time; sub-steps
/// are informational (they nest inside their parent's total).  A sub-step
/// with no span but a counter of its name renders as a count-only row.
const PROFILE_ROWS: &[(&str, &[&str])] = &[
    ("campaign.setup", &[]),
    (
        "campaign.detector_train",
        &[
            "campaign.detector_train.corpus",
            "campaign.detector_train.features",
            "campaign.detector_train.fit",
        ],
    ),
    ("executor.cell_wait", &[]),
    (
        telemetry::SPAN_STAGE_PREPARE,
        &[
            "prepare.utterance_render",
            "prepare.attack_build",
            "prepare.rir_build",
            "prepare.source_spectrum",
            "prepare.convolution",
            "prepare.convolution.direct",
            "prepare.convolution.reflections",
            "prepare.leakage",
            "prepare.capture_spectra",
            "prepare.capture_spectrum_bytes",
            "prepare.noise_shape",
            "prepare.noise_table_bytes",
            "prepare.cache_wait",
            "prepare_cache.wait",
        ],
    ),
    (
        telemetry::SPAN_STAGE_PERTURB,
        &[
            "perturb.ambient_noise",
            "perturb.mic_capture",
            "perturb.mic_capture.front_end",
            "perturb.mic_capture.front_end.synthesis",
            "perturb.mic_capture.front_end.nonlinearity",
            "perturb.mic_capture.adc",
        ],
    ),
    (
        telemetry::SPAN_STAGE_EVALUATE,
        &[
            "evaluate.recognition",
            "evaluate.recognition.front_end",
            "evaluate.recognition.dtw",
            "evaluate.defense_features",
            "evaluate.defense_features.psd",
            "evaluate.defense_features.shadow",
            "evaluate.detector",
        ],
    ),
    ("executor.band_summary", &[]),
    ("campaign.aggregate", &[]),
];

/// The per-stage attribution table of preset `name` run on `runner`,
/// rendered from a (possibly fleet-merged) snapshot covering `wall_s`
/// seconds: span counts, totals, means, histogram-derived p50/p90/p99
/// estimates and share of wall clock.  A footer gives the seconds the
/// top-level spans cover.  Those never overlap each other, so with one
/// in-process worker their sum tracks the wall clock and the gap is
/// unattributed engine overhead; parallel workers and shards overlap
/// stage time, so the sum then exceeds wall.
pub fn attribution_report(
    name: &str,
    runner: &Runner,
    snapshot: &telemetry::Snapshot,
    wall_s: f64,
) -> String {
    let mut table = Table::new(
        format!("Stage attribution — preset '{name}' ({runner})"),
        &[
            "Stage",
            "Spans",
            "Total (s)",
            "Mean (ms)",
            "p50 (ms)",
            "p90 (ms)",
            "p99 (ms)",
            "% wall",
        ],
    );
    let mut stage_total_s = 0.0;
    let mut row = |label: String, name: &str| {
        if let Some(stat) = snapshot.span(name) {
            let total_s = stat.total_ns as f64 / 1e9;
            let mean_ms = if stat.count == 0 {
                0.0
            } else {
                stat.total_ns as f64 / stat.count as f64 / 1e6
            };
            let pct = if wall_s > 0.0 {
                100.0 * total_s / wall_s
            } else {
                0.0
            };
            table.push_row(vec![
                label,
                stat.count.to_string(),
                fmt(total_s, 3),
                fmt(mean_ms, 3),
                fmt(stat.p50_ns() as f64 / 1e6, 3),
                fmt(stat.p90_ns() as f64 / 1e6, 3),
                fmt(stat.p99_ns() as f64 / 1e6, 3),
                fmt(pct, 1),
            ]);
            return total_s;
        }
        let count = snapshot.counter(name);
        if count > 0 {
            let mut cells = vec![label, count.to_string()];
            cells.resize(8, "-".into());
            table.push_row(cells);
        }
        0.0
    };
    for (top, subs) in PROFILE_ROWS {
        stage_total_s += row((*top).to_string(), top);
        for sub in *subs {
            // Indent by nesting: `perturb.mic_capture.adc` sits under
            // `perturb.mic_capture`, and a sub-step named after its row
            // (`campaign.detector_train.fit`) one level under that row.
            let depth = sub
                .strip_prefix(top)
                .map_or(sub.matches('.').count(), |rest| rest.matches('.').count());
            let indent = "  ".repeat(depth);
            row(format!("{indent}{sub}"), sub);
        }
    }
    // Prepare-cache effectiveness: hit/miss/eviction counters plus the
    // per-product reuse counts.  Counters carry no duration, so they
    // render count-only rows and never perturb the time attribution.
    for (name, value) in snapshot.counters.iter() {
        if name.starts_with("executor.prepare_cache") || name.ends_with("_reused") {
            table.push_row(vec![
                format!("counter:{name}"),
                value.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    format!(
        "{}\nstages account for {stage_total_s:.2} s of {wall_s:.2} s wall ({:.1}%)\n",
        table.render(),
        100.0 * stage_total_s / wall_s.max(f64::EPSILON),
    )
}

/// Writes a telemetry snapshot as a pretty-printed `ivc-metrics-v1`
/// JSON document (see [`ivc_core::telemetry::Snapshot::metrics_json`]).
pub fn write_metrics_file(path: &Path, snapshot: &telemetry::Snapshot, wall_s: f64) -> Result<()> {
    let mut text = snapshot.metrics_json(wall_s).to_json_string_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(())
}

/// Writes a telemetry snapshot as a Chrome trace-event JSON document
/// loadable in `chrome://tracing` / Perfetto (see
/// [`ivc_core::telemetry::Snapshot::trace_json`]).
pub fn write_trace_file(path: &Path, snapshot: &telemetry::Snapshot) -> Result<()> {
    let mut text = snapshot.trace_json().to_json_string_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(())
}

/// Trial records of a report paired with their attack/legitimate label
/// (derived from the cell's delivery).
fn labelled_trials<'a>(
    report: &'a CampaignReport,
) -> impl Iterator<Item = (&'a TrialRecord, bool)> + 'a {
    report.cells.iter().flat_map(move |cell| {
        let is_attack = report.spec.deliveries[cell.cell.coords.delivery_index]
            .delivery
            .is_attack();
        cell.trials.iter().map(move |t| (t, is_attack))
    })
}

/// `(detection probability, is_attack)` pairs of every trial of a report.
fn scored_trials(report: &CampaignReport) -> Result<Vec<(f64, bool)>> {
    labelled_trials(report)
        .map(|(t, y)| {
            t.detection_probability
                .map(|p| (p, y))
                .ok_or_else(|| "trial is missing its detection probability".into())
        })
        .collect()
}

/// E-D1 / E-D2 — defense feature separation between legit and attack.
///
/// From the `d1` preset's report (legitimate talker vs the standard
/// attack, the trained detector on the axis): averages the archived per-trial
/// feature vectors per class; the final row is the detector's mean attack
/// probability per class — the detector-probability line the trained-
/// detector axis adds to the d-series.
pub fn fig_d1_d2_feature_separation(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let mut table = Table::new(
        "E-D1/E-D2: defense feature means (legitimate vs attack recordings)",
        &["Feature", "Legit mean", "Attack mean"],
    );
    let mut sums = [[0.0f64; 2]; DefenseFeatures::DIMENSION];
    let mut probability_sums = [0.0f64; 2];
    let mut counts = [0usize; 2];
    for (trial, is_attack) in labelled_trials(report) {
        let class = usize::from(is_attack);
        counts[class] += 1;
        for (i, v) in trial.defense_features.iter().enumerate() {
            sums[i][class] += v;
        }
        probability_sums[class] += trial.detection_probability.unwrap_or(f64::NAN);
    }
    for (i, name) in DefenseFeatures::NAMES.iter().enumerate() {
        table.push_row(vec![
            name.to_string(),
            fmt(sums[i][0] / counts[0].max(1) as f64, 2),
            fmt(sums[i][1] / counts[1].max(1) as f64, 2),
        ]);
    }
    table.push_row(vec![
        "detector P(attack)".to_string(),
        fmt(probability_sums[0] / counts[0].max(1) as f64, 2),
        fmt(probability_sums[1] / counts[1].max(1) as f64, 2),
    ]);
    Ok(table.render())
}

/// E-D3 — the detector's ROC curve, traced from the `d3` preset's
/// archived per-trial `(probability, label)` pairs.
pub fn fig_d3_roc(reports: &[CampaignReport]) -> Result<String> {
    let scored = scored_trials(only(reports)?)?;
    let roc = RocCurve::compute(&scored)?;
    let mut table = Table::new(
        format!("E-D3: detector ROC (AUC = {:.3})", roc.auc),
        &["FPR", "TPR"],
    );
    for p in roc.points.iter().take(12) {
        table.push_row(vec![
            fmt(p.false_positive_rate, 3),
            fmt(p.true_positive_rate, 3),
        ]);
    }
    Ok(table.render())
}

/// E-D4 — detection accuracy per device and distance, from the `d4`
/// preset's archived detection probabilities (threshold 0.5), with the
/// trained-detector axis's mean-probability column.
pub fn tab_d4_detection_grid(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut table = Table::new(
        "E-D4: detection accuracy / FPR per device and distance",
        &[
            "Device",
            "Distance (m)",
            "Accuracy",
            "FPR",
            "TPR",
            "Mean P(attack)",
        ],
    );
    for (device_index, device) in spec.devices.iter().enumerate() {
        for (distance_index, &distance) in spec.distances_m.iter().enumerate() {
            let mut scored = Vec::new();
            for (trial, is_attack) in labelled_trials(report) {
                let cell = &report.cells[trial.cell_index].cell.coords;
                if cell.device_index != device_index || cell.distance_index != distance_index {
                    continue;
                }
                let p = trial
                    .detection_probability
                    .ok_or("d4 trials carry detection probabilities")?;
                scored.push((p, is_attack));
            }
            let matrix = ConfusionMatrix::from_scores(&scored, 0.5);
            let mean_p = scored.iter().map(|(p, _)| p).sum::<f64>() / scored.len().max(1) as f64;
            table.push_row(vec![
                device.name().to_string(),
                fmt(distance, 1),
                fmt(matrix.accuracy(), 2),
                fmt(matrix.false_positive_rate(), 2),
                fmt(matrix.true_positive_rate(), 2),
                fmt(mean_p, 2),
            ]);
        }
    }
    Ok(table.render())
}

/// E-D5 — detection robustness versus ambient noise: one row per report
/// of the `d5` preset (a campaign per noise level), each scored by its
/// trained detector.
pub fn fig_d5_noise_robustness(reports: &[CampaignReport]) -> Result<String> {
    let mut table = Table::new(
        "E-D5: detection accuracy vs ambient noise",
        &[
            "Ambient SPL (dB)",
            "Accuracy",
            "TPR",
            "FPR",
            "Mean P(attack)",
        ],
    );
    for report in reports {
        let scored = scored_trials(report)?;
        let matrix = ConfusionMatrix::from_scores(&scored, 0.5);
        let mean_p = scored.iter().map(|(p, _)| p).sum::<f64>() / scored.len().max(1) as f64;
        table.push_row(vec![
            fmt(report.spec.ambient_noise_spl_db, 0),
            fmt(matrix.accuracy(), 2),
            fmt(matrix.true_positive_rate(), 2),
            fmt(matrix.false_positive_rate(), 2),
            fmt(mean_p, 2),
        ]);
    }
    Ok(table.render())
}

/// E-D6 — the adaptive attacker: shadow suppression vs detection and
/// command intelligibility, from the `d6` preset's suppression-swept
/// delivery axis.
pub fn fig_d6_adaptive_attacker(reports: &[CampaignReport]) -> Result<String> {
    let report = only(reports)?;
    let spec = &report.spec;
    let mut table = Table::new(
        "E-D6: adaptive attacker (shadow suppression)",
        &[
            "Suppression",
            "Detection prob.",
            "Attack word accuracy",
            "Attacker wins?",
        ],
    );
    for (i, delivery) in spec.deliveries.iter().enumerate() {
        let cell = report
            .find_cell(&CellCoords {
                delivery_index: i,
                ..CellCoords::default()
            })
            .expect("d6 grid covers every suppression");
        let outcome = ivc_defense::countermeasures::CountermeasureOutcome {
            suppression: delivery.shadow_suppression,
            detection_probability: cell
                .stats
                .mean_detection_probability
                .ok_or("d6 cells carry detection probabilities")?,
            attack_word_accuracy: cell.stats.mean_word_accuracy,
        };
        table.push_row(vec![
            fmt(outcome.suppression, 2),
            fmt(outcome.detection_probability, 2),
            fmt(outcome.attack_word_accuracy, 2),
            if outcome.attacker_wins() {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    Ok(table.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_trial_loop_escapes_the_campaign_engine() {
        // The migration's structural guarantee, checked at the source
        // level: the harness never calls the pipeline directly — every
        // experiment goes through `run_campaign`.
        let source = include_str!("lib.rs");
        // Built from pieces so this test's own text does not trip it.
        let needle = concat!("run_", "trial(");
        assert!(
            !source.contains(needle),
            "bespoke trial execution crept back into ivc-bench"
        );
    }

    #[test]
    fn every_experiment_id_is_unique_and_names_a_preset() {
        let mut seen = Vec::new();
        for (ids, preset, _) in EXPERIMENTS {
            assert!(preset_specs(preset, Fidelity::Quick).is_ok(), "{preset}");
            for id in *ids {
                assert!(!seen.contains(id), "experiment id {id} listed twice");
                seen.push(*id);
            }
        }
        assert_eq!(experiment("d2").unwrap().0, "d1");
        assert!(experiment("bench-diff").is_err());
    }

    #[test]
    fn fidelity_flag_parsing() {
        // Parsed from explicit values, not the live environment, so the
        // suite passes even in a shell that exported IVC_FULL=1.
        assert_eq!(Fidelity::from_flag(None), Fidelity::Quick);
        assert_eq!(Fidelity::from_flag(Some("0")), Fidelity::Quick);
        assert_eq!(Fidelity::from_flag(Some("1")), Fidelity::Full);
        assert_eq!(Fidelity::from_flag(Some("true")), Fidelity::Full);
        assert!(Fidelity::Quick.quick());
        assert!(!Fidelity::Full.quick());
    }
}
