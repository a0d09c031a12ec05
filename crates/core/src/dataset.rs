//! The detector's training corpus, built by the trial stages.
//!
//! A [`DatasetConfig`] names the labelled recordings a detector fits on.
//! Its cells are projected by [`CellInputs::project`], their paths built
//! by [`Product::build`] and captured by the one Perturb body the trials
//! run, so the detector trains on exactly the recordings trials score.

use crate::prepare_cache::Product;
use crate::scenario::{Delivery, Scenario};
use crate::stages::{perturb_path, shape_for_capture, CellInputs};
use crate::telemetry;
use crate::Result;
use ivc_acoustics::microphone::{CaptureScratch, DevicePreset};
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::features::{DefenseFeatures, FeatureVector};
use ivc_speech::commands::{corpus, VoiceCommand};

/// Inputs of a trained detector: the labelled corpus it fits on.  For
/// every command × distance the corpus runs two free-field cells through
/// the trial stages — a legitimate talker over `num_speaker_variants`
/// consecutive trial seeds, and an `attack_elements`-element array (one
/// element is the single speaker) over the next seed — and labels each
/// recording's [`DefenseFeatures`] by its delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Device capturing the recordings.
    pub device: DevicePreset,
    /// Source–device distances to cover, in metres.
    pub distances_m: Vec<f64>,
    /// Legitimate trials per (command, distance); their consecutive seeds
    /// pick the talkers through
    /// [`talker_variant`](crate::stages::talker_variant).
    pub num_speaker_variants: usize,
    /// Indices into the speech corpus to use.
    pub command_indices: Vec<usize>,
    /// Array elements of the attack recordings (1 = single speaker).
    pub attack_elements: usize,
    /// Total electrical power of the attack, in watt.
    pub attack_total_power_w: f64,
    /// Carrier frequency of the attack, in Hz.
    pub carrier_hz: f64,
    /// Level of the legitimate talker, as SPL at 1 m, in dB.
    pub talker_spl_db: f64,
    /// Ambient room noise level, in dB SPL.
    pub ambient_noise_spl_db: f64,
    /// Voice-duration cap, in seconds (`f64::INFINITY` keeps it all).
    pub max_voice_duration_s: f64,
    /// First trial seed of the corpus.
    pub seed: u64,
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
        if self.num_speaker_variants == 0 || self.attack_elements == 0 {
            return Err("need at least one speaker variant and one attack element".into());
        }
        if !(self.attack_total_power_w > 0.0) || !(self.carrier_hz > 0.0) {
            return Err("attack power and carrier must be positive".into());
        }
        if !(self.max_voice_duration_s > 0.0) {
            return Err("max_voice_duration_s must be positive".into());
        }
        Ok(())
    }

    /// The corpus's cells: per command (outer) and distance (inner), the
    /// legitimate cell, then the attack cell.  Seeds walk on from `seed`:
    /// each pair takes the next `num_speaker_variants` for its legitimate
    /// trials and one more for its attack, so no two recordings share a
    /// noise draw and the talkers cycle through every variant.
    pub fn cells(&self) -> Result<Vec<CorpusCell>> {
        self.validate()?;
        let commands = corpus();
        let attack = Delivery::ArrayUltrasound {
            num_elements: self.attack_elements,
            total_power_w: self.attack_total_power_w,
            carrier_hz: self.carrier_hz,
        };
        let legitimate = Delivery::Legitimate {
            talker_spl_db: self.talker_spl_db,
        };
        let mut next_seed = self.seed;
        let mut cells = Vec::new();
        for &index in &self.command_indices {
            for &distance_m in &self.distances_m {
                for (delivery, trials) in [(legitimate, self.num_speaker_variants), (attack, 1)] {
                    let seeds = (0..trials as u64)
                        .map(|t| next_seed.wrapping_add(t))
                        .collect();
                    next_seed = next_seed.wrapping_add(trials as u64);
                    cells.push(CorpusCell {
                        command: commands[index].clone(),
                        scenario: Scenario {
                            device: self.device,
                            distance_m,
                            delivery,
                            ambient_noise_spl_db: self.ambient_noise_spl_db,
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
    /// trial of [`cells`](Self::cells), in order.  Each recording is
    /// reduced to its features as soon as it is captured, so none is held.
    pub fn labelled_features(&self) -> Result<Vec<(FeatureVector, bool)>> {
        let microphone = self.device.microphone();
        let mut scratch = CaptureScratch::new();
        // Noise shapes depend on the transform length alone (one device,
        // one ambient level), so the corpus's few are shared by all its
        // recordings.
        let mut noise = Vec::new();
        let mut samples = Vec::new();
        for cell in self.cells()? {
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
                    // run.  The attack build and the renders the path
                    // reads still come through the cache.
                    let shaped = {
                        let _stage = telemetry::span(telemetry::SPAN_STAGE_PREPARE);
                        let clean = path.build()?;
                        let noise_spl_db = self.ambient_noise_spl_db;
                        shape_for_capture(&microphone, &clean, noise_spl_db, &mut noise)?
                    };
                    perturb_path(&shaped, &noise, &microphone, seed, &mut scratch)?
                };
                let _span = telemetry::span("campaign.detector_train.features");
                let features = DefenseFeatures::extract(&recording)?.to_vector();
                samples.push((features, cell.scenario.delivery.is_attack()));
            }
        }
        Ok(samples)
    }
}

/// A trained detector is a pure function of its corpus (the training
/// hyper-parameters are constants of [`LogisticRegression::train`]).  The corpus
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
            .labelled_features()
            .map_err(|e| format!("detector corpus: {e}"))?;
        let _span = telemetry::span("campaign.detector_train.fit");
        Ok(LogisticRegression::train(&samples).map_err(|e| format!("detector training: {e}"))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A corpus small enough for a unit test: one command at 1.5 m, two
    /// legitimate talkers and one 4-element attack.
    fn tiny_config() -> DatasetConfig {
        DatasetConfig {
            device: DevicePreset::AndroidPhone,
            distances_m: vec![1.5],
            num_speaker_variants: 2,
            command_indices: vec![0],
            attack_elements: 4,
            attack_total_power_w: 30.0,
            carrier_hz: 40_000.0,
            talker_spl_db: 65.0,
            ambient_noise_spl_db: 40.0,
            max_voice_duration_s: 0.3,
            seed: 7,
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
                attack_elements: 0,
                ..tiny.clone()
            },
        ];
        for config in refused {
            assert!(config.validate().is_err(), "{config:?}");
            assert!(config.cells().is_err(), "{config:?}");
            assert!(config.labelled_features().is_err(), "{config:?}");
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
        let cells = cfg.cells().unwrap();
        // Per command (outer) and distance (inner): the legitimate cell,
        // then the attack cell, on the configured device.
        assert_eq!(cells.len(), 2 * 2 * 2);
        let commands = corpus();
        for (k, cell) in cells.iter().enumerate() {
            let pair = k / 2;
            assert_eq!(cell.command, commands[cfg.command_indices[pair / 2]]);
            assert_eq!(cell.scenario.distance_m, cfg.distances_m[pair % 2]);
            assert_eq!(cell.scenario.device, cfg.device);
            assert_eq!(cell.scenario.delivery.is_attack(), k % 2 == 1);
            assert_eq!(cell.seeds.len(), if k % 2 == 1 { 1 } else { 3 });
        }
        // Every recording draws its own seed: they run on from `seed`.
        let seeds: Vec<u64> = cells.into_iter().flat_map(|cell| cell.seeds).collect();
        assert_eq!(seeds, (cfg.seed..cfg.seed + 16).collect::<Vec<_>>());
        // 2 commands × 2 distances × (3 legitimate + 1 attack).
        let samples = cfg.labelled_features().unwrap();
        assert_eq!(samples.len(), 16);
        let labels: Vec<bool> = samples.iter().map(|(_, label)| *label).collect();
        assert_eq!(labels, [false, false, false, true].repeat(4));
    }

    #[test]
    fn feature_samples_align_with_labels() {
        let cfg = tiny_config();
        let trials: usize = cfg.cells().unwrap().iter().map(|c| c.seeds.len()).sum();
        let samples = cfg.labelled_features().unwrap();
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
        let first = cfg.labelled_features().unwrap();
        assert_eq!(bits(&first), bits(&cfg.labelled_features().unwrap()));
        // A different first seed draws different noise.
        let reseeded = DatasetConfig {
            seed: cfg.seed + 100,
            ..cfg.clone()
        };
        assert_ne!(bits(&first), bits(&reseeded.labelled_features().unwrap()));
    }
}
