//! Aggregate statistics over campaign trials: per-cell success rates with
//! Wilson confidence intervals, mean word accuracy, mean bystander SPL,
//! and success-vs-distance psychometric curves.

use crate::executor::TrialRecord;
use crate::grid::{CampaignSpec, CellCoords, CellSpec};

/// Aggregates of one grid cell's trials.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStats {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Trials in which the device accepted the command end to end.
    pub successes: usize,
    /// `successes / trials`.
    pub success_rate: f64,
    /// Lower bound of the 95 % Wilson interval on the success rate.
    pub success_ci_low: f64,
    /// Upper bound of the 95 % Wilson interval on the success rate.
    pub success_ci_high: f64,
    /// Mean word accuracy across trials.
    pub mean_word_accuracy: f64,
    /// Mean audible-band bystander SPL in dB (`None` when no trial had a
    /// leakage estimate, i.e. legitimate deliveries).
    pub mean_bystander_spl_db: Option<f64>,
    /// Mean A-weighted bystander SPL in dB(A).
    pub mean_bystander_spl_dba: Option<f64>,
    /// Mean voice-band bystander SPL in dB.
    pub mean_bystander_voice_spl_db: Option<f64>,
    /// Fraction of trials whose leakage a bystander would notice.
    pub leak_audible_fraction: Option<f64>,
    /// Mean electrical budget the delivery could not place, in watt.
    pub mean_power_shortfall_w: f64,
    /// Mean attack probability of the cell's trained detector (`None`
    /// when the cell's detector-axis entry is `None`).
    pub mean_detection_probability: Option<f64>,
}

/// One cell of a finished campaign: its grid coordinates, aggregate
/// statistics and the raw per-trial records they were computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Grid coordinates.
    pub cell: CellSpec,
    /// Human-readable description of the cell.
    pub label: String,
    /// Aggregates over `trials`.
    pub stats: CellStats,
    /// The raw trial records, in trial order.
    pub trials: Vec<TrialRecord>,
}

/// A success-vs-distance curve for one combination of the non-distance
/// axes, with per-point confidence intervals — the engine's version of the
/// paper's psychometric attack-range figures.
#[derive(Debug, Clone, PartialEq)]
pub struct PsychometricCurve {
    /// Curve label (the delivery label, or the full axis combination).
    pub label: String,
    /// Axis coordinates shared by every point of the curve (its
    /// `distance_index` is 0: the curve spans the whole distance axis).
    pub coords: CellCoords,
    /// Distances of the points, in metres (the spec's distance axis).
    pub distances_m: Vec<f64>,
    /// Success rate at each distance.
    pub success_rates: Vec<f64>,
    /// Lower 95 % Wilson bound at each distance.
    pub ci_low: Vec<f64>,
    /// Upper 95 % Wilson bound at each distance.
    pub ci_high: Vec<f64>,
    /// Mean word accuracy at each distance.
    pub mean_word_accuracy: Vec<f64>,
}

impl PsychometricCurve {
    /// The farthest distance whose entry of `values` — one per distance:
    /// the curve's `success_rates` or `mean_word_accuracy` — meets
    /// `threshold`: the curve's "attack range"; `None` if no point
    /// qualifies.
    pub fn range_at_least(&self, values: &[f64], threshold: f64) -> Option<f64> {
        ivc_core::results::last_x_with_y_at_least(&self.distances_m, values, threshold)
    }
}

/// The 95 % Wilson score interval for `successes` out of `trials`.
///
/// Preferred over the normal approximation because campaign cells are
/// routinely small (a handful of trials) and rates sit at the 0/1
/// boundary, where Wald intervals collapse to a point.
pub fn wilson_interval(successes: usize, trials: usize) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_963_984_540_054_f64; // 97.5th normal percentile
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denominator = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    // At the boundaries the exact bounds are 0 and 1; snap them so float
    // rounding does not report "0.9999999999999999" as an upper bound.
    let low = if successes == 0 {
        0.0
    } else {
        ((centre - margin) / denominator).max(0.0)
    };
    let high = if successes == trials {
        1.0
    } else {
        ((centre + margin) / denominator).min(1.0)
    };
    (low, high)
}

/// Running sum and count of an optional per-trial value: the streaming
/// form of "mean over the trials where the value was present".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct MeanAccumulator {
    sum: f64,
    count: usize,
}

impl MeanAccumulator {
    fn fold(&mut self, value: Option<f64>) {
        if let Some(value) = value {
            self.sum += value;
            self.count += 1;
        }
    }

    fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Streaming aggregation state for one cell: running counts and sums that
/// fold trial records one at a time, so per-cell statistics — success
/// counts, Wilson CIs, accuracy/SPL/shortfall/detection means — come from
/// O(1) state per cell instead of a materialized record vector.
///
/// Records must be folded in slot (trial) order: floating-point addition
/// is order-sensitive, and the byte-identity contract between reports
/// merged from different shard tilings depends on the sums folding left to
/// right in slot order, as [`crate::shard::ShardMerger`] absorbs them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellAccumulator {
    trials: usize,
    successes: usize,
    word_accuracy_sum: f64,
    power_shortfall_sum: f64,
    bystander_spl_db: MeanAccumulator,
    bystander_spl_dba: MeanAccumulator,
    bystander_voice_spl_db: MeanAccumulator,
    leak_audible: MeanAccumulator,
    detection_probability: MeanAccumulator,
}

impl CellAccumulator {
    /// A fresh accumulator with no trials folded.
    pub fn new() -> CellAccumulator {
        CellAccumulator::default()
    }

    /// Folds one trial record into the running sums.
    pub fn fold(&mut self, record: &TrialRecord) {
        self.trials += 1;
        self.successes += usize::from(record.accepted);
        self.word_accuracy_sum += record.word_accuracy;
        self.power_shortfall_sum += record.power_shortfall_w;
        self.bystander_spl_db.fold(record.bystander_spl_db);
        self.bystander_spl_dba.fold(record.bystander_spl_dba);
        self.bystander_voice_spl_db
            .fold(record.bystander_voice_spl_db);
        self.leak_audible
            .fold(record.leak_audible.map(|a| if a { 1.0 } else { 0.0 }));
        self.detection_probability
            .fold(record.detection_probability);
    }

    /// Number of trials folded so far.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Trials folded so far that were accepted end to end.
    pub fn successes(&self) -> usize {
        self.successes
    }

    /// The cell's statistics from the running sums.  Bit-identical to the
    /// batch computation over the same records in the same order.
    pub fn stats(&self) -> CellStats {
        let (ci_low, ci_high) = wilson_interval(self.successes, self.trials);
        let n = self.trials as f64;
        let mean_over_all = |sum: f64| if self.trials == 0 { 0.0 } else { sum / n };
        CellStats {
            trials: self.trials,
            successes: self.successes,
            success_rate: if self.trials == 0 {
                0.0
            } else {
                self.successes as f64 / n
            },
            success_ci_low: ci_low,
            success_ci_high: ci_high,
            mean_word_accuracy: mean_over_all(self.word_accuracy_sum),
            mean_bystander_spl_db: self.bystander_spl_db.mean(),
            mean_bystander_spl_dba: self.bystander_spl_dba.mean(),
            mean_bystander_voice_spl_db: self.bystander_voice_spl_db.mean(),
            leak_audible_fraction: self.leak_audible.mean(),
            mean_power_shortfall_w: mean_over_all(self.power_shortfall_sum),
            mean_detection_probability: self.detection_probability.mean(),
        }
    }
}

/// Builds one success-vs-distance curve per combination of the
/// non-distance axes.  Relies on distance being the innermost expansion
/// axis: each curve is a contiguous run of cells.
pub(crate) fn psychometric_curves(
    spec: &CampaignSpec,
    cells: &[CellReport],
) -> Vec<PsychometricCurve> {
    let per_curve = spec.distances_m.len();
    cells
        .chunks(per_curve)
        .map(|chunk| {
            let first = &chunk[0].cell;
            PsychometricCurve {
                label: spec.curve_label(first),
                coords: CellCoords {
                    distance_index: 0,
                    ..first.coords
                },
                distances_m: spec.distances_m.clone(),
                success_rates: chunk.iter().map(|c| c.stats.success_rate).collect(),
                ci_low: chunk.iter().map(|c| c.stats.success_ci_low).collect(),
                ci_high: chunk.iter().map(|c| c.stats.success_ci_high).collect(),
                mean_word_accuracy: chunk.iter().map(|c| c.stats.mean_word_accuracy).collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DeliverySpec;
    use crate::report::CampaignReport;
    use crate::shard::{merge_shards, ShardArchive, ShardPlan};

    /// The report of one whole-range partial holding `records`.
    fn aggregate(spec: &CampaignSpec, records: Vec<TrialRecord>) -> CampaignReport {
        let shard = ShardPlan::partition(spec, 1).unwrap().shards[0];
        merge_shards(vec![ShardArchive {
            spec: spec.clone(),
            shard,
            records,
        }])
        .unwrap()
    }

    fn record(cell_index: usize, trial_index: usize, accepted: bool, accuracy: f64) -> TrialRecord {
        TrialRecord {
            cell_index,
            trial_index,
            seed: 1 + trial_index as u64,
            accepted,
            word_accuracy: accuracy,
            recognized_words: vec!["ok".into()],
            bystander_spl_db: Some(40.0 + cell_index as f64),
            bystander_spl_dba: Some(35.0 + cell_index as f64),
            bystander_voice_spl_db: Some(20.0),
            leak_audible: Some(cell_index % 2 == 0),
            power_shortfall_w: 0.0,
            defense_features: vec![0.5; 4],
            detection_probability: Some(0.1 * (1 + cell_index) as f64),
            recording_band_summary_db: None,
        }
    }

    fn two_by_two_spec() -> CampaignSpec {
        CampaignSpec {
            deliveries: vec![
                DeliverySpec::array("a", 8, 40.0, 40_000.0),
                DeliverySpec::array("b", 16, 120.0, 40_000.0),
            ],
            distances_m: vec![1.0, 4.0],
            trials_per_cell: 2,
            ..CampaignSpec::new("agg")
        }
    }

    #[test]
    fn wilson_interval_behaves_at_the_boundaries() {
        let (low, high) = wilson_interval(0, 0);
        assert_eq!((low, high), (0.0, 1.0));
        let (low, high) = wilson_interval(0, 10);
        assert_eq!(low, 0.0);
        assert!(high > 0.0 && high < 0.4, "high {high}");
        let (low, high) = wilson_interval(10, 10);
        assert_eq!(high, 1.0);
        assert!(low > 0.6 && low < 1.0, "low {low}");
        let (low, high) = wilson_interval(5, 10);
        assert!(low < 0.5 && high > 0.5);
        // More trials tighten the interval.
        let (wide_low, wide_high) = wilson_interval(5, 10);
        let (narrow_low, narrow_high) = wilson_interval(50, 100);
        assert!(narrow_high - narrow_low < wide_high - wide_low);
    }

    #[test]
    fn cell_aggregation_and_curves() {
        let spec = two_by_two_spec();
        let cells = spec.cells();
        let mut records = Vec::new();
        for cell in &cells {
            for trial in 0..2 {
                // Cell 0 succeeds twice, cell 1 once, cells 2 and 3 never;
                // accuracy falls with distance.
                let accepted = cell.cell_index + trial < 2;
                records.push(record(
                    cell.cell_index,
                    trial,
                    accepted,
                    1.0 - 0.2 * cell.coords.distance_index as f64,
                ));
            }
        }
        let report = aggregate(&spec, records);
        let reports = &report.cells;
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].stats.successes, 2);
        assert_eq!(reports[0].stats.success_rate, 1.0);
        assert_eq!(reports[1].stats.successes, 1);
        assert_eq!(reports[3].stats.successes, 0);
        assert!(reports[0].stats.success_ci_low > 0.0);
        assert!(reports[3].stats.success_ci_high < 1.0);
        assert_eq!(reports[2].stats.mean_word_accuracy, 1.0);
        assert_eq!(reports[0].stats.leak_audible_fraction, Some(1.0));
        assert_eq!(reports[1].stats.leak_audible_fraction, Some(0.0));
        // Detection probabilities aggregate like the other optional means.
        assert_eq!(reports[0].stats.mean_detection_probability, Some(0.1));

        let curves = &report.curves;
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].label, "a");
        assert_eq!(curves[0].distances_m, vec![1.0, 4.0]);
        assert_eq!(curves[0].success_rates, vec![1.0, 0.5]);
        assert_eq!(curves[1].success_rates, vec![0.0, 0.0]);
        let range = |curve: &PsychometricCurve, threshold| {
            curve.range_at_least(&curve.success_rates, threshold)
        };
        assert_eq!(range(&curves[0], 0.6), Some(1.0));
        assert_eq!(range(&curves[0], 0.5), Some(4.0));
        assert_eq!(range(&curves[1], 0.6), None);
        // The same fold reads an accuracy range off the accuracy curve.
        let accuracy = &curves[0].mean_word_accuracy;
        assert_eq!(curves[0].range_at_least(accuracy, 0.9), Some(1.0));
        assert_eq!(curves[0].range_at_least(accuracy, 0.75), Some(4.0));
        assert_eq!(curves[0].range_at_least(accuracy, 1.5), None);
    }

    #[test]
    fn absent_leakage_aggregates_to_none() {
        let spec = CampaignSpec {
            deliveries: vec![DeliverySpec::legitimate("talker", 65.0)],
            trials_per_cell: 2,
            ..CampaignSpec::new("legit")
        };
        let records: Vec<TrialRecord> = (0..2)
            .map(|t| TrialRecord {
                bystander_spl_db: None,
                bystander_spl_dba: None,
                bystander_voice_spl_db: None,
                leak_audible: None,
                ..record(0, t, true, 1.0)
            })
            .collect();
        let reports = aggregate(&spec, records).cells;
        assert_eq!(reports[0].stats.mean_bystander_spl_db, None);
        assert_eq!(reports[0].stats.leak_audible_fraction, None);
    }
}
