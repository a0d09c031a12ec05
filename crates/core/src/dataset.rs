//! The detector's training corpus, built by the trial stages.
//!
//! A [`DatasetConfig`] names the labelled recordings a detector fits on.
//! Its cells are projected by [`CellInputs::project`], their paths built
//! by [`Product::build`] and captured by the one Perturb body the trials
//! run, so the detector trains on exactly the recordings trials score.
//!
//! Every corpus records the same two deliveries on the same device in the
//! same quiet room: the constants below.  A corpus differs only in how
//! much it records (distances, talkers, commands, voice cap).

use crate::prepare_cache::Product;
use crate::scenario::{Delivery, Scenario};
use crate::stages::{perturb_path, shape_for_capture, CellInputs};
use crate::telemetry;
use crate::Result;
use ivc_acoustics::microphone::{CaptureScratch, DevicePreset};
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::features::{DefenseFeatures, FeatureVector};
use ivc_speech::commands::{corpus, VoiceCommand};

/// Device capturing the corpus recordings.
pub const DEVICE: DevicePreset = DevicePreset::AndroidPhone;

/// The corpus's attack recordings: an 8-element array at 40 W total on a
/// 40 kHz carrier.
pub const ATTACK: Delivery = Delivery::ArrayUltrasound {
    num_elements: 8,
    total_power_w: 40.0,
    carrier_hz: 40_000.0,
};

/// The corpus's legitimate recordings: a talker at 65 dB SPL (1 m).
pub const TALKER: Delivery = Delivery::Legitimate {
    talker_spl_db: 65.0,
};

/// Ambient room noise of every corpus recording, in dB SPL.
pub const AMBIENT_NOISE_SPL_DB: f64 = 40.0;

/// First trial seed of a trained detector's corpus.  Another first seed
/// gives a held-out corpus: other talkers and other noise draws.
pub const FIRST_SEED: u64 = 7;

/// Inputs of a trained detector: the labelled corpus it fits on.  For
/// every command × distance the corpus runs two free-field cells through
/// the trial stages — a [`TALKER`] over `num_speaker_variants`
/// consecutive trial seeds, and the [`ATTACK`] over the next seed — and
/// labels each recording's [`DefenseFeatures`] by its delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Source–device distances to cover, in metres.
    pub distances_m: Vec<f64>,
    /// Legitimate trials per (command, distance); their consecutive seeds
    /// pick the talkers through
    /// [`talker_variant`](crate::stages::talker_variant).
    pub num_speaker_variants: usize,
    /// Indices into the speech corpus to use.
    pub command_indices: Vec<usize>,
    /// Voice-duration cap, in seconds (`f64::INFINITY` keeps it all).
    pub max_voice_duration_s: f64,
}

/// One cell of a detector corpus, as
/// [`PreparedCell::prepare`](crate::stages::PreparedCell::prepare) takes it.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCell {
    /// The command spoken or injected.
    pub command: VoiceCommand,
    /// The free-field scenario (its delivery is the sample's label).
    pub scenario: Scenario,
    /// The trial seeds the cell runs.
    pub seeds: Vec<u64>,
}

impl DatasetConfig {
    /// Checks that the corpus is non-empty and physical.
    pub fn validate(&self) -> Result<()> {
        if self.distances_m.is_empty() || self.command_indices.is_empty() {
            return Err("training needs at least one distance and one command".into());
        }
        let corpus_len = corpus().len();
        if let Some(index) = self.command_indices.iter().find(|&&i| i >= corpus_len) {
            return Err(format!("training command index {index} outside the corpus").into());
        }
        if let Some(d) = self
            .distances_m
            .iter()
            .find(|d| !(d.is_finite() && **d > 0.0))
        {
            return Err(format!("training distance {d} m must be positive and finite").into());
        }
        if self.num_speaker_variants == 0 {
            return Err("need at least one speaker variant".into());
        }
        if !(self.max_voice_duration_s > 0.0) {
            return Err("max_voice_duration_s must be positive".into());
        }
        Ok(())
    }

    /// The corpus's cells: per command (outer) and distance (inner), the
    /// legitimate cell, then the attack cell.  Seeds walk on from
    /// `first_seed` ([`FIRST_SEED`] for a trained detector): each pair
    /// takes the next `num_speaker_variants` for its legitimate trials and
    /// one more for its attack, so no two recordings share a noise draw
    /// and the talkers cycle through every variant.
    pub fn cells(&self, first_seed: u64) -> Result<Vec<CorpusCell>> {
        self.validate()?;
        let commands = corpus();
        let mut next_seed = first_seed;
        let mut cells = Vec::new();
        for &index in &self.command_indices {
            for &distance_m in &self.distances_m {
                for (delivery, trials) in [(TALKER, self.num_speaker_variants), (ATTACK, 1)] {
                    let seeds = (0..trials as u64)
                        .map(|t| next_seed.wrapping_add(t))
                        .collect();
                    next_seed = next_seed.wrapping_add(trials as u64);
                    cells.push(CorpusCell {
                        command: commands[index].clone(),
                        scenario: Scenario {
                            device: DEVICE,
                            distance_m,
                            delivery,
                            ambient_noise_spl_db: AMBIENT_NOISE_SPL_DB,
                            max_voice_duration_s: self.max_voice_duration_s,
                            ..Scenario::default_attack()
                        },
                        seeds,
                    });
                }
            }
        }
        Ok(cells)
    }

    /// The corpus as labelled feature vectors (`true` = attack), one per
    /// trial of [`cells`](Self::cells) from `first_seed`, in order.  Each
    /// recording is reduced to its features as soon as it is captured, so
    /// none is held.
    pub fn labelled_features(&self, first_seed: u64) -> Result<Vec<(FeatureVector, bool)>> {
        let microphone = DEVICE.microphone();
        let mut scratch = CaptureScratch::new();
        let mut samples = Vec::new();
        for cell in self.cells(first_seed)? {
            for &seed in &cell.seeds {
                let path = match CellInputs::project(&cell.command, &cell.scenario, &[seed])? {
                    // One seed projects exactly one talker path.
                    CellInputs::Legitimate(mut paths) => paths.swap_remove(0).1,
                    CellInputs::Attack { path, .. } => path,
                };
                let recording = {
                    let _span = telemetry::span("campaign.detector_train.corpus");
                    // Built, not fetched with `prepare_cache::get`: a
                    // corpus path serves one recording, and caching the
                    // corpus as prepared cells pinned 9.9 MB (quick
                    // detector) and 145 MB (full) for the life of the
                    // process, a quarter more peak RSS on a `repeat`-shaped
                    // run.  The attack build, its half spectra, the
                    // renders and the noise tables still come through the
                    // cache.
                    let capture = {
                        let _stage = telemetry::span(telemetry::SPAN_STAGE_PREPARE);
                        shape_for_capture(DEVICE, &path.build()?, AMBIENT_NOISE_SPL_DB)?
                    };
                    perturb_path(&capture, &microphone, seed, &mut scratch)?
                };
                let _span = telemetry::span("campaign.detector_train.features");
                let features = DefenseFeatures::extract(&recording)?.to_vector();
                samples.push((features, cell.scenario.delivery.is_attack()));
            }
        }
        Ok(samples)
    }
}

/// A trained detector is a pure function of its corpus, drawn from
/// [`FIRST_SEED`] (the training hyper-parameters are constants of
/// [`LogisticRegression::train`]).  The corpus
/// records `campaign.detector_train.corpus` and `.features` spans per
/// sample, and the fit one `.fit` span.
impl Product for DatasetConfig {
    type Output = LogisticRegression;
    const REUSED_COUNTER: &'static str = "prepare.detector_reused";

    // Weights plus the per-feature means and deviations.
    fn byte_estimate(model: &LogisticRegression) -> usize {
        model.weights().len() * 3 * 8 + 128
    }

    fn build(&self) -> Result<LogisticRegression> {
        let samples = self
            .labelled_features(FIRST_SEED)
            .map_err(|e| format!("detector corpus: {e}"))?;
        let _span = telemetry::span("campaign.detector_train.fit");
        Ok(LogisticRegression::train(&samples).map_err(|e| format!("detector training: {e}"))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corpus small enough for a unit test: one command at 1.5 m, two
    /// legitimate talkers and one attack.
    fn tiny_config() -> DatasetConfig {
        DatasetConfig {
            distances_m: vec![1.5],
            num_speaker_variants: 2,
            command_indices: vec![0],
            max_voice_duration_s: 0.3,
        }
    }

    fn bits(samples: &[(FeatureVector, bool)]) -> Vec<(Vec<u64>, bool)> {
        samples
            .iter()
            .map(|(v, label)| (v.iter().map(|x| x.to_bits()).collect(), *label))
            .collect()
    }

    #[test]
    fn validation() {
        let tiny = tiny_config();
        assert!(tiny.validate().is_ok());
        let refused = [
            DatasetConfig {
                distances_m: vec![],
                ..tiny.clone()
            },
            DatasetConfig {
                command_indices: vec![],
                ..tiny.clone()
            },
            DatasetConfig {
                num_speaker_variants: 0,
                ..tiny.clone()
            },
            DatasetConfig {
                command_indices: vec![0, 99],
                ..tiny.clone()
            },
            DatasetConfig {
                distances_m: vec![1.0, -1.0],
                ..tiny.clone()
            },
            DatasetConfig {
                distances_m: vec![0.0],
                ..tiny.clone()
            },
            DatasetConfig {
                distances_m: vec![f64::NAN],
                ..tiny.clone()
            },
            DatasetConfig {
                distances_m: vec![f64::INFINITY],
                ..tiny.clone()
            },
        ];
        for config in refused {
            assert!(config.validate().is_err(), "{config:?}");
            assert!(config.cells(FIRST_SEED).is_err(), "{config:?}");
            assert!(config.labelled_features(FIRST_SEED).is_err(), "{config:?}");
        }
    }

    #[test]
    fn generates_expected_counts_and_labels() {
        let cfg = DatasetConfig {
            distances_m: vec![1.0, 2.5],
            num_speaker_variants: 3,
            command_indices: vec![0, 2],
            ..tiny_config()
        };
        let cells = cfg.cells(FIRST_SEED).unwrap();
        // Per command (outer) and distance (inner): the legitimate cell,
        // then the attack cell, on the corpus device.
        assert_eq!(cells.len(), 2 * 2 * 2);
        let commands = corpus();
        for (k, cell) in cells.iter().enumerate() {
            let pair = k / 2;
            assert_eq!(cell.command, commands[cfg.command_indices[pair / 2]]);
            assert_eq!(cell.scenario.distance_m, cfg.distances_m[pair % 2]);
            assert_eq!(cell.scenario.device, DEVICE);
            let delivery = if k % 2 == 1 { ATTACK } else { TALKER };
            assert_eq!(cell.scenario.delivery, delivery);
            assert_eq!(cell.seeds.len(), if k % 2 == 1 { 1 } else { 3 });
        }
        // Every recording draws its own seed: they run on from the first.
        let seeds: Vec<u64> = cells.into_iter().flat_map(|cell| cell.seeds).collect();
        assert_eq!(seeds, (FIRST_SEED..FIRST_SEED + 16).collect::<Vec<_>>());
        // 2 commands × 2 distances × (3 legitimate + 1 attack).
        let samples = cfg.labelled_features(FIRST_SEED).unwrap();
        assert_eq!(samples.len(), 16);
        let labels: Vec<bool> = samples.iter().map(|(_, label)| *label).collect();
        assert_eq!(labels, [false, false, false, true].repeat(4));
    }

    #[test]
    fn feature_samples_align_with_labels() {
        let cfg = tiny_config();
        let trials: usize = cfg
            .cells(FIRST_SEED)
            .unwrap()
            .iter()
            .map(|c| c.seeds.len())
            .sum();
        let samples = cfg.labelled_features(FIRST_SEED).unwrap();
        assert_eq!(samples.len(), trials);
        assert_eq!(samples.iter().filter(|(_, y)| *y).count(), 1);
        for (f, _) in &samples {
            assert_eq!(f.len(), DefenseFeatures::DIMENSION);
            assert!(f.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let cfg = tiny_config();
        let first = cfg.labelled_features(FIRST_SEED).unwrap();
        assert_eq!(
            bits(&first),
            bits(&cfg.labelled_features(FIRST_SEED).unwrap())
        );
        // A different first seed draws different noise.
        let reseeded = cfg.labelled_features(FIRST_SEED + 100).unwrap();
        assert_ne!(bits(&first), bits(&reseeded));
    }
}
