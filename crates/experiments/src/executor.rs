//! The parallel campaign executor: a bounded `std::thread` worker pool
//! that fans the expanded grid's trials out and collects records in job
//! order.
//!
//! Since the staged-pipeline refactor the pool runs the **Prepare →
//! Perturb → Evaluate** stages explicitly: the first worker to reach a
//! cell runs the Prepare stage once ([`ivc_core::PreparedCell`]) and every
//! trial of that cell shares the immutable result by reference; when a
//! cell's last trial finishes, its prepared state is dropped, so peak
//! memory is bounded by the number of in-flight cells, not the grid size.
//! Detector-axis entries are likewise trained once and shared.
//!
//! Determinism contract: the same spec produces the **byte-identical**
//! archived report at any worker count.  Four design choices make that
//! hold:
//!
//! 1. every trial's seed is a pure function of the spec
//!    ([`crate::grid::CampaignSpec::trial_seed`]) — never of scheduling;
//! 2. workers pull job indices from a shared counter (handed out in a
//!    banded order that spreads concurrent workers across distinct
//!    cells) but write results into the trial's own cell-major
//!    `(cell, trial)` slot, so collection order is fixed by the spec,
//!    never by scheduling or the hand-out order;
//! 3. a `PreparedCell` is immutable and `perturb`/`evaluate` are pure
//!    functions of `(cell, seed)`, so sharing prepared state cannot leak
//!    scheduling into results; and
//! 4. detector training is a pure function of the detector spec's
//!    training corpus.

use crate::error::{ExperimentError, Result};
use crate::grid::CampaignSpec;
use crate::report::CampaignReport;
use crate::shard::{merge_shards, run_shard, ShardPlan};
use ivc_acoustics::microphone::CaptureScratch;
use ivc_core::prepare_cache::{self, DefaultRecognizer};
use ivc_core::{telemetry, PreparedCell};
use ivc_defense::classifier::LogisticRegression;
use ivc_dsp::signal::Signal;
use ivc_dsp::stft::spectrogram;
use ivc_speech::commands::corpus;
use ivc_speech::recognizer::{EvalScratch, Recognizer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of equal-width bands in a recording's band-energy summary.
pub const BAND_SUMMARY_BANDS: usize = 8;

/// Upper edge of the summarised range, in Hz: the voice band a recogniser
/// reads.
pub const BAND_SUMMARY_MAX_HZ: f64 = 8_000.0;

/// What one trial contributed to its cell — the archived unit of raw data.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The cell this trial belongs to.
    pub cell_index: usize,
    /// Trial index within the cell.
    pub trial_index: usize,
    /// The seed the trial ran with.
    pub seed: u64,
    /// Did the device accept the command end to end?
    pub accepted: bool,
    /// Word accuracy against the intended command.
    pub word_accuracy: f64,
    /// The intended command's words that were recognised.
    pub recognized_words: Vec<String>,
    /// Audible-band SPL at the bystander, in dB (attack deliveries only).
    pub bystander_spl_db: Option<f64>,
    /// A-weighted SPL at the bystander, in dB(A).
    pub bystander_spl_dba: Option<f64>,
    /// Voice-band (intelligible) SPL at the bystander, in dB.
    pub bystander_voice_spl_db: Option<f64>,
    /// Would a bystander notice the leakage?
    pub leak_audible: Option<bool>,
    /// Electrical budget the delivery could not place (see
    /// [`ivc_core::TrialOutcome::power_shortfall_w`]).
    pub power_shortfall_w: f64,
    /// The defense feature vector of the recording (one value per
    /// [`ivc_defense::features::DefenseFeatures`] dimension).
    pub defense_features: Vec<f64>,
    /// The cell's trained detector's attack probability for this
    /// recording (`None` when the cell's detector-axis entry is `None`).
    pub detection_probability: Option<f64>,
    /// Band-energy summary of the recording in dB, when the spec's
    /// [`CampaignSpec::recording_band_summary`] asks for one.
    pub recording_band_summary_db: Option<Vec<f64>>,
}

/// A sensible default worker count: the machine's parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A prepared cell shared by its trials, or the error its Prepare stage
/// produced (reported identically by every trial of the cell).
type SharedPrepared = std::result::Result<Arc<PreparedCell>, String>;

/// Per-cell Prepare-stage state: the shared context plus the number of
/// trials still to run.  When `remaining` hits zero the prepared state is
/// dropped, bounding peak memory to the in-flight cells.
struct CellSlot {
    prepared: Option<SharedPrepared>,
    remaining: usize,
}

/// A trained detector shared by its axis entry's cells (`Ok(None)` when
/// the entry is `None`).
type SharedDetector = std::result::Result<Option<Arc<LogisticRegression>>, String>;

/// Runs every trial of `spec` on a pool of `workers` threads and returns
/// the aggregated, archivable report: [`run_shard`] on the one-shard plan,
/// then [`merge_shards`], the report assembly every sharded run uses.
///
/// `workers` is clamped to `[1, number of trials]`.  The report is
/// byte-identical across worker counts (see the module docs).
pub fn run_campaign(spec: &CampaignSpec, workers: usize) -> Result<CampaignReport> {
    let job = ShardPlan::partition(spec, 1)?.jobs().remove(0);
    let shard = run_shard(&job, workers)?;
    let _span = telemetry::span("campaign.aggregate");
    merge_shards(vec![shard])
}

/// The trials one cell contributes to a job range: boundary cells of a
/// shard may cover only a sub-range of their trials.
struct CellJobs {
    cell_index: usize,
    trial_start: usize,
    trial_end: usize,
}

/// Runs the contiguous cell-major job range `[start_job, end_job)` of
/// `spec` on a pool of `workers` threads and returns the trial records in
/// slot order.
///
/// This is the core of [`run_shard`], and through it of
/// [`run_campaign`] (the one-shard range): every property that makes the
/// full run deterministic — spec-derived seeds, slot-addressed
/// collection, immutable shared [`PreparedCell`]s, pure detector training
/// — holds per range, so splitting a campaign into ranges and
/// concatenating the records reproduces the single-run records exactly.
/// The caller is responsible for having validated `spec`.
pub(crate) fn execute_jobs(
    spec: &CampaignSpec,
    start_job: usize,
    end_job: usize,
    workers: usize,
) -> Result<Vec<TrialRecord>> {
    let trials_per_cell = spec.trials_per_cell;
    debug_assert!(start_job <= end_job && end_job <= spec.num_trials());
    let num_jobs = end_job - start_job;
    if num_jobs == 0 {
        return Ok(Vec::new());
    }
    let setup_span = telemetry::span("campaign.setup");
    let recognizer = prepare_cache::get(&DefaultRecognizer)
        .map_err(|e| ExperimentError::Setup(format!("recogniser: {e}")))?;
    let recognizer = recognizer.as_ref();
    let commands = corpus();
    let cells = spec.cells();
    let workers = workers.clamp(1, num_jobs);
    drop(setup_span);

    // A contiguous job range covers a contiguous run of cells; the first
    // and last cell may contribute only a sub-range of their trials.
    let first_cell = start_job / trials_per_cell;
    let last_cell = (end_job - 1) / trials_per_cell;
    let cell_jobs: Vec<CellJobs> = (first_cell..=last_cell)
        .map(|cell_index| {
            let cell_start = cell_index * trials_per_cell;
            CellJobs {
                cell_index,
                trial_start: start_job.saturating_sub(cell_start),
                trial_end: (end_job - cell_start).min(trials_per_cell),
            }
        })
        .collect();

    // Jobs are handed out in *banded* order: cells are grouped into bands
    // of `workers`, and within a band the trial index varies slowest —
    // so the first `workers` jobs hit `workers` *distinct* cells and
    // every worker runs a Prepare stage concurrently instead of blocking
    // on the same cell's slot.  Bands keep the memory bound: at most
    // ~two bands of cells hold prepared state at once.  Results land in
    // cell-major slots, so the job hand-out order never reaches the
    // archive.
    let mut job_order: Vec<(usize, usize)> = Vec::with_capacity(num_jobs);
    for band_start in (0..cell_jobs.len()).step_by(workers.max(1)) {
        let band_end = (band_start + workers).min(cell_jobs.len());
        for trial_offset in 0..trials_per_cell {
            for (position, jobs) in cell_jobs.iter().enumerate().take(band_end).skip(band_start) {
                let trial = jobs.trial_start + trial_offset;
                if trial < jobs.trial_end {
                    job_order.push((position, trial));
                }
            }
        }
    }
    debug_assert_eq!(job_order.len(), num_jobs);

    let next_job = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<std::result::Result<TrialRecord, String>>>> =
        Mutex::new((0..num_jobs).map(|_| None).collect());
    let cell_slots: Vec<Mutex<CellSlot>> = cell_jobs
        .iter()
        .map(|jobs| {
            Mutex::new(CellSlot {
                prepared: None,
                remaining: jobs.trial_end - jobs.trial_start,
            })
        })
        .collect();
    // Train the detector entries this range touches up front (in
    // parallel, each memoised process-wide), so workers never block each
    // other on a training run.  Entries no cell of the range uses are not
    // trained: a shard only pays for the models it scores with.
    let mut touched_detectors: Vec<usize> = cell_jobs
        .iter()
        .map(|jobs| cells[jobs.cell_index].coords.detector_index)
        .collect();
    touched_detectors.sort_unstable();
    touched_detectors.dedup();
    let detector_span = telemetry::span("campaign.detector_train");
    let detectors: HashMap<usize, SharedDetector> = std::thread::scope(|scope| {
        let handles: Vec<_> = touched_detectors
            .iter()
            .map(|&detector_index| {
                let entry = &spec.detectors[detector_index];
                let handle = scope.spawn(move || match entry {
                    None => Ok(None),
                    Some(detector_spec) => prepare_cache::get(&detector_spec.corpus)
                        .map(Some)
                        .map_err(|e| e.to_string()),
                });
                (detector_index, handle)
            })
            .collect();
        handles
            .into_iter()
            .map(|(detector_index, handle)| {
                (
                    detector_index,
                    handle.join().expect("detector trainer panicked"),
                )
            })
            .collect()
    });
    drop(detector_span);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            // One pair of scratch arenas per worker: Perturb and Evaluate
            // reuse their buffers across every trial the worker runs
            // (results are scratch-independent, so worker count still
            // never reaches the archive).
            scope.spawn(|| {
                let mut scratch = CaptureScratch::new();
                let mut eval = EvalScratch::new();
                loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    if job >= num_jobs {
                        break;
                    }
                    let _trial_span = telemetry::span("executor.trial");
                    let (position, trial_index) = job_order[job];
                    let jobs = &cell_jobs[position];
                    let cell = &cells[jobs.cell_index];

                    let detector = detectors[&cell.coords.detector_index].clone();

                    // Prepare: the first trial of a cell runs the stage, the
                    // rest share the immutable result.  Only the variants of
                    // the range's own trials are rendered: each trial is a
                    // pure function of `(cell, seed)`, so preparing fewer
                    // variants cannot change any record.
                    let prepared = {
                        let wait_span = telemetry::span("executor.cell_wait");
                        let mut slot = cell_slots[position].lock().expect("cell slot poisoned");
                        drop(wait_span);
                        let freshly_prepared = slot.prepared.is_none();
                        let shared = slot
                            .prepared
                            .get_or_insert_with(|| {
                                let scenario = spec.scenario(cell, 0);
                                let command = &commands[spec.command_index(cell)];
                                let trial_seeds: Vec<u64> = (jobs.trial_start..jobs.trial_end)
                                    .map(|t| spec.trial_seed(t))
                                    .collect();
                                PreparedCell::prepare(command, &scenario, &trial_seeds)
                                    .map(Arc::new)
                                    .map_err(|e| e.to_string())
                            })
                            .clone();
                        if freshly_prepared {
                            telemetry::add_count("executor.cells_prepared", 1);
                        } else {
                            telemetry::add_count("executor.trials_shared_prepare", 1);
                        }
                        shared
                    };

                    let result = run_one_trial(
                        spec,
                        jobs.cell_index,
                        trial_index,
                        prepared,
                        detector,
                        recognizer,
                        &mut scratch,
                        &mut eval,
                    );
                    slots.lock().expect("result mutex poisoned")
                        [jobs.cell_index * trials_per_cell + trial_index - start_job] =
                        Some(result);
                    // Summed across worker sidecars, this counter is the
                    // fleet document's trial total — the cross-check that no
                    // worker's telemetry went missing in the merge.
                    telemetry::add_count("executor.trials_completed", 1);

                    // Perturb/Evaluate done: drop the prepared state with the
                    // cell's last trial.
                    let mut slot = cell_slots[position].lock().expect("cell slot poisoned");
                    slot.remaining -= 1;
                    if slot.remaining == 0 {
                        slot.prepared = None;
                        telemetry::add_count("executor.cells_dropped", 1);
                    }
                }
            });
        }
    });

    // Collect in cell-major slot order so both the record order and the
    // first failure reported are deterministic.
    let mut records = Vec::with_capacity(num_jobs);
    for (offset, slot) in slots
        .into_inner()
        .expect("result mutex poisoned")
        .into_iter()
        .enumerate()
    {
        let job = start_job + offset;
        match slot.expect("worker pool left a job unfinished") {
            Ok(record) => records.push(record),
            Err(message) => {
                return Err(ExperimentError::Trial {
                    cell_index: job / trials_per_cell,
                    trial_index: job % trials_per_cell,
                    message,
                })
            }
        }
    }
    Ok(records)
}

/// Band-energy summary of a recording (the archived E-B2 column):
/// [`BAND_SUMMARY_BANDS`] bands up to [`BAND_SUMMARY_MAX_HZ`].
fn band_summary(recording: &Signal) -> std::result::Result<Vec<f64>, String> {
    let _span = telemetry::span("executor.band_summary");
    let sg =
        spectrogram(recording.samples(), recording.sample_rate_hz()).map_err(|e| e.to_string())?;
    Ok(sg.band_summary_db(BAND_SUMMARY_MAX_HZ, BAND_SUMMARY_BANDS))
}

#[allow(clippy::too_many_arguments)]
fn run_one_trial(
    spec: &CampaignSpec,
    cell_index: usize,
    trial_index: usize,
    prepared: SharedPrepared,
    detector: SharedDetector,
    recognizer: &Recognizer,
    capture: &mut CaptureScratch,
    eval: &mut EvalScratch,
) -> std::result::Result<TrialRecord, String> {
    let prepared = prepared?;
    let detector = detector?;
    let seed = spec.trial_seed(trial_index);
    let outcome = prepared
        .run(seed, recognizer, detector.as_deref(), capture, eval)
        .map_err(|e| e.to_string())?;
    let recording_band_summary_db = if spec.recording_band_summary {
        Some(band_summary(&outcome.recording)?)
    } else {
        None
    };
    Ok(TrialRecord {
        cell_index,
        trial_index,
        seed: outcome.seed,
        accepted: outcome.accepted,
        word_accuracy: outcome.word_accuracy,
        recognized_words: outcome.recognized_words,
        bystander_spl_db: outcome.bystander_spl_db,
        bystander_spl_dba: outcome.leakage.as_ref().map(|l| l.audible_spl_dba),
        bystander_voice_spl_db: outcome.leakage.as_ref().map(|l| l.voice_band_spl_db),
        leak_audible: outcome.leakage.as_ref().map(|l| l.is_audible()),
        power_shortfall_w: outcome.power_shortfall_w,
        defense_features: outcome.defense_features.to_vector(),
        detection_probability: outcome.detection_probability,
        recording_band_summary_db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{DeliverySpec, DetectorSpec};
    use ivc_core::dataset::DatasetConfig;
    use ivc_defense::features::DefenseFeatures;

    /// A deliberately tiny campaign: 2 deliveries × 2 distances, truncated
    /// commands, so the whole thing runs in seconds even in debug builds.
    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            deliveries: vec![
                DeliverySpec::legitimate("talker 68 dB", 68.0),
                DeliverySpec::array("6-element array, 60 W", 6, 60.0, 40_000.0),
            ],
            distances_m: vec![1.0, 2.0],
            max_voice_duration_s: 0.8,
            ..CampaignSpec::new("tiny")
        }
    }

    #[test]
    fn campaign_runs_and_aggregates() {
        let spec = tiny_spec();
        let report = run_campaign(&spec, 2).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.curves.len(), 2);
        for cell_report in &report.cells {
            assert_eq!(cell_report.stats.trials, 1);
            assert_eq!(cell_report.trials.len(), 1);
            let record = &cell_report.trials[0];
            assert_eq!(record.seed, spec.base_seed);
            // Attack cells carry leakage numbers, legitimate ones do not.
            let is_attack = spec.deliveries[cell_report.cell.coords.delivery_index]
                .delivery
                .is_attack();
            assert_eq!(record.bystander_spl_db.is_some(), is_attack);
            assert_eq!(record.leak_audible.is_some(), is_attack);
            // No detector axis entry, no probabilities; features always.
            assert_eq!(record.detection_probability, None);
            assert_eq!(record.defense_features.len(), DefenseFeatures::DIMENSION);
            assert_eq!(record.recording_band_summary_db, None);
        }
        // The close-range array injection should recognise at least some
        // words; the legitimate talker should dominate it at no distance.
        let legit_curve = &report.curves[0];
        assert_eq!(legit_curve.distances_m, vec![1.0, 2.0]);
        assert!(legit_curve.mean_word_accuracy[0] > 0.5);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let spec = tiny_spec();
        let serial = run_campaign(&spec, 1).unwrap();
        let parallel = run_campaign(&spec, 8).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.to_json_string(),
            parallel.to_json_string(),
            "archived bytes must not depend on the worker count"
        );
    }

    #[test]
    fn shared_prepared_cells_match_per_trial_pipeline_runs() {
        // Trials of one cell share a PreparedCell; each must still equal
        // the standalone run_trial wrapper for its seed, bit for bit.
        let spec = CampaignSpec {
            deliveries: vec![DeliverySpec::legitimate("talker 68 dB", 68.0)],
            distances_m: vec![1.5],
            trials_per_cell: 3,
            base_seed: 5,
            max_voice_duration_s: 0.8,
            ..CampaignSpec::new("shared")
        };
        let report = run_campaign(&spec, 2).unwrap();
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let commands = corpus();
        let cell = &spec.cells()[0];
        for (t, record) in report.cells[0].trials.iter().enumerate() {
            let scenario = spec.scenario(cell, t);
            let outcome = ivc_core::run_trial(
                &commands[spec.command_index(cell)],
                &scenario,
                &recognizer,
                None,
            )
            .unwrap();
            assert_eq!(record.seed, scenario.seed);
            assert_eq!(record.accepted, outcome.accepted);
            assert_eq!(record.word_accuracy, outcome.word_accuracy);
            assert_eq!(
                record.defense_features,
                outcome.defense_features.to_vector()
            );
        }
    }

    #[test]
    fn detector_axis_scores_every_trial_and_band_summary_is_recorded() {
        let spec = CampaignSpec {
            detectors: vec![Some(DetectorSpec {
                corpus: DatasetConfig {
                    // The smallest corpus that still trains (the classifier
                    // wants >= 4 samples): 3 legitimate variants + 1 attack.
                    distances_m: vec![1.5],
                    num_speaker_variants: 3,
                    command_indices: vec![0],
                    max_voice_duration_s: 0.8,
                },
                ..DetectorSpec::standard(true)
            })],
            deliveries: vec![
                DeliverySpec::legitimate("talker 68 dB", 68.0),
                DeliverySpec::array("6-element array, 60 W", 6, 60.0, 40_000.0),
            ],
            distances_m: vec![1.5],
            max_voice_duration_s: 0.8,
            recording_band_summary: true,
            ..CampaignSpec::new("detector")
        };
        let report = run_campaign(&spec, 2).unwrap();
        for cell_report in &report.cells {
            for record in &cell_report.trials {
                let p = record
                    .detection_probability
                    .expect("trained detector scores every trial");
                assert!((0.0..=1.0).contains(&p));
                let bands = record
                    .recording_band_summary_db
                    .as_ref()
                    .expect("band summary requested");
                assert_eq!(bands.len(), BAND_SUMMARY_BANDS);
            }
            assert!(cell_report.stats.mean_detection_probability.is_some());
        }
        // The attack recording should look more attack-like than the
        // legitimate one to the trained detector.
        let legit_p = report.cells[0].trials[0].detection_probability.unwrap();
        let attack_p = report.cells[1].trials[0].detection_probability.unwrap();
        assert!(
            attack_p > legit_p,
            "attack {attack_p} should outscore legit {legit_p}"
        );
    }

    #[test]
    fn invalid_specs_are_rejected_before_any_work() {
        let spec = CampaignSpec {
            trials_per_cell: 0,
            ..tiny_spec()
        };
        assert!(matches!(
            run_campaign(&spec, 4),
            Err(ExperimentError::InvalidSpec { .. })
        ));
        // A detector corpus distance that is not positive and finite is a
        // spec error, not a trial failure while the detector trains.
        for distance_m in [-1.0, 0.0, f64::NAN] {
            let mut detector = DetectorSpec::standard(true);
            detector.corpus.distances_m = vec![distance_m];
            let spec = CampaignSpec {
                detectors: vec![Some(detector)],
                ..tiny_spec()
            };
            assert!(
                matches!(
                    run_campaign(&spec, 4),
                    Err(ExperimentError::InvalidSpec {
                        field: "detectors",
                        ..
                    })
                ),
                "{distance_m}"
            );
        }
    }
}
