//! Detector evaluation: confusion matrices and ROC curves.

use crate::classifier::LogisticRegression;
use crate::error::{DefenseError, Result};
use crate::features::FeatureVector;

/// Binary confusion matrix for attack detection ("positive" = attack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Attacks correctly flagged.
    pub true_positives: usize,
    /// Legitimate recordings wrongly flagged.
    pub false_positives: usize,
    /// Legitimate recordings correctly passed.
    pub true_negatives: usize,
    /// Attacks missed.
    pub false_negatives: usize,
}

impl ConfusionMatrix {
    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.true_positives + self.true_negatives) as f64 / self.total() as f64
    }

    /// True-positive rate (recall / detection rate).
    pub fn true_positive_rate(&self) -> f64 {
        let p = self.true_positives + self.false_negatives;
        if p == 0 {
            0.0
        } else {
            self.true_positives as f64 / p as f64
        }
    }

    /// False-positive rate.
    pub fn false_positive_rate(&self) -> f64 {
        let n = self.false_positives + self.true_negatives;
        if n == 0 {
            0.0
        } else {
            self.false_positives as f64 / n as f64
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, predicted_attack: bool, is_attack: bool) {
        match (predicted_attack, is_attack) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
            (false, true) => self.false_negatives += 1,
        }
    }

    /// Builds a confusion matrix from `(score, is_attack)` pairs at the
    /// given decision threshold (scores at or above it are flagged as
    /// attacks) — the archived-probability flavour of [`evaluate`], used
    /// by campaign-backed detection tables.
    pub fn from_scores(scored: &[(f64, bool)], threshold: f64) -> ConfusionMatrix {
        let mut matrix = ConfusionMatrix::default();
        for &(score, is_attack) in scored {
            matrix.record(score >= threshold, is_attack);
        }
        matrix
    }
}

/// Evaluates a trained model on labelled feature samples at threshold 0.5.
pub fn evaluate(
    model: &LogisticRegression,
    samples: &[(FeatureVector, bool)],
) -> Result<ConfusionMatrix> {
    let mut matrix = ConfusionMatrix::default();
    for (f, y) in samples {
        matrix.record(model.predict(f)?, *y);
    }
    Ok(matrix)
}

/// One point on an ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold that produced this point.
    pub threshold: f64,
    /// False-positive rate at this threshold.
    pub false_positive_rate: f64,
    /// True-positive rate at this threshold.
    pub true_positive_rate: f64,
}

/// A receiver-operating-characteristic curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// Points ordered by increasing false-positive rate.
    pub points: Vec<RocPoint>,
    /// Area under the curve.
    pub auc: f64,
}

impl RocCurve {
    /// Builds the ROC curve from `(score, is_attack)` pairs, where higher
    /// scores mean "more attack-like".
    pub fn compute(scored: &[(f64, bool)]) -> Result<RocCurve> {
        let positives = scored.iter().filter(|(_, y)| *y).count();
        let negatives = scored.len() - positives;
        if positives == 0 || negatives == 0 {
            return Err(DefenseError::DegenerateDataset {
                message: "ROC needs both classes".into(),
            });
        }
        // Sweep thresholds over the observed scores (plus sentinels).
        let mut thresholds: Vec<f64> = scored.iter().map(|(s, _)| *s).collect();
        thresholds.push(f64::INFINITY);
        thresholds.push(f64::NEG_INFINITY);
        thresholds.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        thresholds.dedup();
        let mut points = Vec::with_capacity(thresholds.len());
        for t in thresholds {
            let mut tp = 0usize;
            let mut fp = 0usize;
            for (s, y) in scored {
                if *s >= t {
                    if *y {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                }
            }
            points.push(RocPoint {
                threshold: t,
                false_positive_rate: fp as f64 / negatives as f64,
                true_positive_rate: tp as f64 / positives as f64,
            });
        }
        points.sort_by(|a, b| {
            a.false_positive_rate
                .partial_cmp(&b.false_positive_rate)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.true_positive_rate
                        .partial_cmp(&b.true_positive_rate)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        // Trapezoidal AUC.
        let mut auc = 0.0;
        for w in points.windows(2) {
            let dx = w[1].false_positive_rate - w[0].false_positive_rate;
            auc += dx * (w[0].true_positive_rate + w[1].true_positive_rate) / 2.0;
        }
        Ok(RocCurve { points, auc })
    }

    /// ROC curve of a trained model over labelled feature samples.
    pub fn from_model(
        model: &LogisticRegression,
        samples: &[(FeatureVector, bool)],
    ) -> Result<RocCurve> {
        let scored: Vec<(f64, bool)> = samples
            .iter()
            .map(|(f, y)| Ok((model.predict_probability(f)?, *y)))
            .collect::<Result<_>>()?;
        RocCurve::compute(&scored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::TrainingConfig;

    fn separable_samples(n: usize) -> Vec<(FeatureVector, bool)> {
        let mut out = Vec::new();
        for i in 0..n {
            let jitter = (i as f64 * 0.7).sin();
            out.push((vec![-40.0 + jitter, 0.05], false));
            out.push((vec![-15.0 + jitter, 0.8], true));
        }
        out
    }

    #[test]
    fn confusion_matrix_arithmetic() {
        let mut m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        m.record(true, true);
        m.record(true, true);
        m.record(false, true);
        m.record(false, false);
        m.record(true, false);
        assert_eq!(m.total(), 5);
        assert!((m.accuracy() - 0.6).abs() < 1e-12);
        assert!((m.true_positive_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.false_positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_scores_thresholds_like_record() {
        let scored = [(0.9, true), (0.5, true), (0.4, true), (0.2, false)];
        let m = ConfusionMatrix::from_scores(&scored, 0.5);
        assert_eq!(m.true_positives, 2);
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.true_negatives, 1);
        assert_eq!(m.false_positives, 0);
        // The boundary score counts as flagged.
        let strict = ConfusionMatrix::from_scores(&scored, 0.91);
        assert_eq!(strict.true_positives, 0);
        assert_eq!(strict.false_negatives, 3);
    }

    #[test]
    fn perfect_scores_give_auc_one() {
        let scored: Vec<(f64, bool)> = (0..20)
            .map(|i| {
                let attack = i % 2 == 0;
                (if attack { 0.9 } else { 0.1 }, attack)
            })
            .collect();
        let roc = RocCurve::compute(&scored).unwrap();
        assert!((roc.auc - 1.0).abs() < 1e-9, "auc {}", roc.auc);
        assert!(roc.points.first().unwrap().false_positive_rate <= 1e-12);
        assert!(roc.points.last().unwrap().true_positive_rate >= 1.0 - 1e-12);
    }

    #[test]
    fn random_scores_give_auc_near_half() {
        let scored: Vec<(f64, bool)> = (0..400)
            .map(|i| {
                let score = ((i as f64 * 0.61803).fract() * 10.0).fract();
                (score, i % 2 == 0)
            })
            .collect();
        let roc = RocCurve::compute(&scored).unwrap();
        assert!((roc.auc - 0.5).abs() < 0.12, "auc {}", roc.auc);
    }

    #[test]
    fn roc_requires_both_classes() {
        let only_attacks: Vec<(f64, bool)> = (0..10).map(|i| (i as f64, true)).collect();
        assert!(RocCurve::compute(&only_attacks).is_err());
    }

    #[test]
    fn evaluate_and_roc_from_trained_model() {
        let samples = separable_samples(20);
        let model = LogisticRegression::train(&samples, &TrainingConfig::default()).unwrap();
        let matrix = evaluate(&model, &samples).unwrap();
        assert_eq!(matrix.total(), samples.len());
        assert!(matrix.accuracy() > 0.99);
        let roc = RocCurve::from_model(&model, &samples).unwrap();
        assert!(roc.auc > 0.99);
    }
}
