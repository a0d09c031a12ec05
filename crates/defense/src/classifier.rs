//! A small logistic-regression classifier with feature standardisation.
//!
//! Deliberately simple: the defense features separate the classes almost
//! linearly, and a transparent model keeps the experiments interpretable
//! (weights can be read as "how much each trace contributes").

use crate::error::{DefenseError, Result};
use crate::features::FeatureVector;

/// Logistic-regression model for attack detection.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full passes over the training set.
    pub epochs: usize,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            learning_rate: 0.2,
            epochs: 400,
            l2: 1e-3,
        }
    }
}

impl LogisticRegression {
    /// Trains a model on `(feature_vector, is_attack)` pairs.
    pub fn train(samples: &[(FeatureVector, bool)], config: &TrainingConfig) -> Result<Self> {
        if samples.len() < 4 {
            return Err(DefenseError::DegenerateDataset {
                message: format!("need at least 4 samples, got {}", samples.len()),
            });
        }
        let dim = samples[0].0.len();
        if dim == 0 || samples.iter().any(|(f, _)| f.len() != dim) {
            return Err(DefenseError::DegenerateDataset {
                message: "inconsistent feature dimensions".into(),
            });
        }
        let positives = samples.iter().filter(|(_, y)| *y).count();
        if positives == 0 || positives == samples.len() {
            return Err(DefenseError::DegenerateDataset {
                message: "training set must contain both classes".into(),
            });
        }
        if config.learning_rate <= 0.0 || config.epochs == 0 {
            return Err(DefenseError::invalid(
                "TrainingConfig",
                "learning_rate must be positive and epochs at least 1",
            ));
        }

        // Standardise features.
        let n = samples.len() as f64;
        let mut means = vec![0.0; dim];
        for (f, _) in samples {
            for (m, x) in means.iter_mut().zip(f.iter()) {
                *m += x / n;
            }
        }
        let mut stds = vec![0.0; dim];
        for (f, _) in samples {
            for ((s, x), m) in stds.iter_mut().zip(f.iter()).zip(means.iter()) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt().max(1e-9);
        }
        let standardise = |f: &FeatureVector| -> Vec<f64> {
            f.iter()
                .zip(means.iter())
                .zip(stds.iter())
                .map(|((x, m), s)| (x - m) / s)
                .collect()
        };

        // Batch gradient descent on the logistic loss.
        let mut weights = vec![0.0; dim];
        let mut bias = 0.0;
        for _ in 0..config.epochs {
            let mut grad_w = vec![0.0; dim];
            let mut grad_b = 0.0;
            for (f, y) in samples {
                let x = standardise(f);
                let z: f64 = weights
                    .iter()
                    .zip(x.iter())
                    .map(|(w, v)| w * v)
                    .sum::<f64>()
                    + bias;
                let p = sigmoid(z);
                let err = p - if *y { 1.0 } else { 0.0 };
                for (g, v) in grad_w.iter_mut().zip(x.iter()) {
                    *g += err * v / n;
                }
                grad_b += err / n;
            }
            for (w, g) in weights.iter_mut().zip(grad_w.iter()) {
                *w -= config.learning_rate * (g + config.l2 * *w);
            }
            bias -= config.learning_rate * grad_b;
        }
        Ok(LogisticRegression {
            weights,
            bias,
            feature_means: means,
            feature_stds: stds,
        })
    }

    /// Probability that `features` describe an attack recording.
    pub fn predict_probability(&self, features: &FeatureVector) -> Result<f64> {
        if features.len() != self.weights.len() {
            return Err(DefenseError::invalid(
                "features",
                format!(
                    "dimension {} does not match the model's {}",
                    features.len(),
                    self.weights.len()
                ),
            ));
        }
        let z: f64 = features
            .iter()
            .zip(self.feature_means.iter())
            .zip(self.feature_stds.iter())
            .zip(self.weights.iter())
            .map(|(((x, m), s), w)| w * (x - m) / s)
            .sum::<f64>()
            + self.bias;
        Ok(sigmoid(z))
    }

    /// Hard decision at a threshold of 0.5.
    pub fn predict(&self, features: &FeatureVector) -> Result<bool> {
        Ok(self.predict_probability(features)? >= 0.5)
    }

    /// The trained weights in standardised-feature space (for inspection).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable synthetic problem in 2D.
    fn toy_dataset(n_per_class: usize) -> Vec<(FeatureVector, bool)> {
        let mut samples = Vec::new();
        for i in 0..n_per_class {
            let jitter = (i as f64 * 0.37).sin() * 0.3;
            samples.push((vec![-40.0 + jitter, 0.05 + jitter * 0.02], false));
            samples.push((vec![-15.0 + jitter, 0.75 + jitter * 0.02], true));
        }
        samples
    }

    #[test]
    fn validation() {
        assert!(LogisticRegression::train(&[], &TrainingConfig::default()).is_err());
        let one_class: Vec<(FeatureVector, bool)> =
            (0..8).map(|i| (vec![i as f64], false)).collect();
        assert!(LogisticRegression::train(&one_class, &TrainingConfig::default()).is_err());
        let mixed_dims = vec![
            (vec![1.0], true),
            (vec![1.0, 2.0], false),
            (vec![1.0], true),
            (vec![1.0], false),
        ];
        assert!(LogisticRegression::train(&mixed_dims, &TrainingConfig::default()).is_err());
        let bad_config = TrainingConfig {
            learning_rate: 0.0,
            ..TrainingConfig::default()
        };
        assert!(LogisticRegression::train(&toy_dataset(4), &bad_config).is_err());
    }

    #[test]
    fn learns_a_separable_problem() {
        let data = toy_dataset(20);
        let model = LogisticRegression::train(&data, &TrainingConfig::default()).unwrap();
        for (f, y) in &data {
            assert_eq!(model.predict(f).unwrap(), *y);
        }
        // Confident on both sides.
        assert!(model.predict_probability(&vec![-40.0, 0.05]).unwrap() < 0.1);
        assert!(model.predict_probability(&vec![-15.0, 0.75]).unwrap() > 0.9);
        assert_eq!(model.weights().len(), 2);
    }

    #[test]
    fn probability_is_monotonic_along_the_attack_direction() {
        let data = toy_dataset(20);
        let model = LogisticRegression::train(&data, &TrainingConfig::default()).unwrap();
        let mut last = 0.0;
        for step in 0..=10 {
            let x = -40.0 + 25.0 * step as f64 / 10.0;
            let c = 0.05 + 0.7 * step as f64 / 10.0;
            let p = model.predict_probability(&vec![x, c]).unwrap();
            assert!(p >= last - 1e-9, "not monotonic at step {step}");
            last = p;
        }
    }

    #[test]
    fn rejects_mismatched_dimensions_at_prediction_time() {
        let model =
            LogisticRegression::train(&toy_dataset(10), &TrainingConfig::default()).unwrap();
        assert!(model.predict_probability(&vec![1.0]).is_err());
        assert!(model.predict(&vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy_dataset(12);
        let a = LogisticRegression::train(&data, &TrainingConfig::default()).unwrap();
        let b = LogisticRegression::train(&data, &TrainingConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
