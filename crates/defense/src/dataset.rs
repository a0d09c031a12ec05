//! Labelled corpus generation: legitimate and attack recordings produced by
//! the same simulated devices, for training and evaluating the detector.
//!
//! Everything is seeded and deterministic; the same configuration always
//! produces the same corpus.

use crate::error::{DefenseError, Result};
use crate::features::{DefenseFeatures, FeatureVector};
use ivc_acoustics::array::SpeakerArray;
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::microphone::DevicePreset;
use ivc_acoustics::noise::room_noise_pa;
use ivc_acoustics::propagation::{propagate, propagate_from_aperture};
use ivc_acoustics::speaker::UltrasonicSpeaker;
use ivc_acoustics::spl::spl_db_to_pressure;
use ivc_attack::baseband::BasebandConfig;
use ivc_attack::multispeaker::{single_speaker_element_drives, MultiSpeakerAttack};
use ivc_attack::single::SingleSpeakerAttack;
use ivc_dsp::signal::Signal;
use ivc_speech::commands::corpus;
use ivc_speech::synthesis::{SpeakerProfile, Synthesizer};

/// One labelled recording.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRecording {
    /// The digital recording as the device's software would see it.
    pub recording: Signal,
    /// `true` if this recording was produced by an ultrasonic injection.
    pub is_attack: bool,
    /// Distance between source (talker or array) and device, in metres.
    pub distance_m: f64,
    /// Device preset that captured the recording.
    pub device: DevicePreset,
    /// Index of the command in the speech corpus.
    pub command_index: usize,
}

/// Configuration for corpus generation.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Device capturing the recordings.
    pub device: DevicePreset,
    /// Source–device distances to cover, in metres.
    pub distances_m: Vec<f64>,
    /// Number of synthetic speaker variants for the legitimate recordings.
    pub num_speaker_variants: usize,
    /// Indices into the speech corpus to use.
    pub command_indices: Vec<usize>,
    /// Number of array elements for the attack recordings (1 = single
    /// speaker baseline, ≥2 = segmented multi-speaker attack).
    pub attack_elements: usize,
    /// Total electrical power of the attack, in watt.
    pub attack_total_power_w: f64,
    /// Carrier frequency of the attack, in Hz.
    pub carrier_hz: f64,
    /// Level of the legitimate talker, as SPL at 1 m, in dB.
    pub talker_spl_db: f64,
    /// Ambient room noise level, in dB SPL.
    pub ambient_noise_spl_db: f64,
    /// Truncate each synthesised command to at most this many seconds
    /// (keeps corpus generation affordable; `f64::INFINITY` keeps it all).
    pub max_voice_duration_s: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            device: DevicePreset::AndroidPhone,
            distances_m: vec![1.0, 2.0, 3.0],
            num_speaker_variants: 4,
            command_indices: vec![0, 1, 2],
            attack_elements: 8,
            attack_total_power_w: 40.0,
            carrier_hz: 40_000.0,
            talker_spl_db: 65.0,
            ambient_noise_spl_db: 40.0,
            max_voice_duration_s: f64::INFINITY,
            seed: 7,
        }
    }
}

/// Feature vectors paired with their attack/legitimate labels.
pub type LabeledFeatures = Vec<(FeatureVector, bool)>;

/// A labelled corpus of recordings.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// All recordings (legitimate and attack, interleaved).
    pub recordings: Vec<LabeledRecording>,
}

/// Produces a legitimate recording: the talker's voice propagated through
/// the air and captured by the device.
pub fn generate_legit_recording(
    voice: &Signal,
    device: DevicePreset,
    distance_m: f64,
    talker_spl_db: f64,
    ambient_noise_spl_db: f64,
    env: &AirEnvironment,
    seed: u64,
) -> Result<Signal> {
    // Scale the voice waveform so its SPL at the 1 m reference matches the
    // talker level.
    let rms = voice.rms().max(1e-12);
    let target_rms_pa = spl_db_to_pressure(talker_spl_db);
    let pressure_at_1m = voice.scaled(target_rms_pa / rms);
    let mut at_mic = propagate(&pressure_at_1m, distance_m, env)?;
    let noise = room_noise_pa(
        ambient_noise_spl_db,
        at_mic.duration_s(),
        at_mic.sample_rate_hz(),
        seed ^ 0xA5A5_5A5A,
    )?;
    at_mic.mix(&noise)?;
    Ok(device.microphone().capture(&at_mic, seed)?)
}

/// The distance-independent half of an attack recording: the pressure the
/// speaker (or array) emits at 1 m on-axis, plus the aperture that sets how
/// it spreads.  It depends on the voice, element count, power and carrier,
/// never on distance, device or seed, so one emission serves every
/// distance a corpus covers.
#[derive(Debug, Clone, PartialEq)]
pub struct EmittedAttack {
    /// Emitted pressure waveform at 1 m on-axis, in pascal.
    pub near_field_at_1m: Signal,
    /// Physical aperture of the emitting array, in metres.
    pub aperture_m: f64,
}

/// Builds the attack's emitted near field: modulates `voice` onto the
/// carrier, splits it across `attack_elements` speakers (1 = single
/// speaker baseline) and sums their emissions at 1 m.
pub fn emit_attack(
    voice: &Signal,
    attack_elements: usize,
    total_power_w: f64,
    carrier_hz: f64,
) -> Result<EmittedAttack> {
    if attack_elements == 0 {
        return Err(DefenseError::invalid(
            "attack_elements",
            "must be at least 1",
        ));
    }
    let speaker = UltrasonicSpeaker::default();
    let baseband_cfg = BasebandConfig::default();
    let (array, drives) = if attack_elements == 1 {
        let attack = SingleSpeakerAttack::build(voice, carrier_hz, 0.9, &baseband_cfg)?;
        let array = SpeakerArray::new(speaker.clone(), 1, 0.03)?;
        let power = total_power_w.min(speaker.max_power_w);
        (array, single_speaker_element_drives(&attack, power)?)
    } else {
        let attack = MultiSpeakerAttack::build(voice, carrier_hz, attack_elements, &baseband_cfg)?;
        let array = SpeakerArray::new(speaker.clone(), attack_elements, 0.03)?;
        let drives = attack.element_drives(total_power_w, 0.3, speaker.max_power_w)?;
        (array, drives)
    };
    Ok(EmittedAttack {
        near_field_at_1m: array.emitted_field_at_1m(&drives)?,
        aperture_m: array.aperture_m(),
    })
}

/// The per-distance half of an attack recording: propagates an emitted
/// near field `distance_m` down the beam, adds ambient noise and captures
/// it with the device.
pub fn record_attack(
    emitted: &EmittedAttack,
    device: DevicePreset,
    distance_m: f64,
    ambient_noise_spl_db: f64,
    env: &AirEnvironment,
    seed: u64,
) -> Result<Signal> {
    let mut at_mic = propagate_from_aperture(
        &emitted.near_field_at_1m,
        distance_m,
        emitted.aperture_m,
        env,
    )?;
    let noise = room_noise_pa(
        ambient_noise_spl_db,
        at_mic.duration_s(),
        at_mic.sample_rate_hz(),
        seed ^ 0x5A5A_A5A5,
    )?;
    at_mic.mix(&noise)?;
    Ok(device.microphone().capture(&at_mic, seed)?)
}

/// Produces an attack recording: the ultrasonic injection played by a
/// speaker (or array), propagated and captured by the device.  The
/// composition of [`emit_attack`] and [`record_attack`].
#[allow(clippy::too_many_arguments)]
pub fn generate_attack_recording(
    voice: &Signal,
    device: DevicePreset,
    distance_m: f64,
    attack_elements: usize,
    total_power_w: f64,
    carrier_hz: f64,
    ambient_noise_spl_db: f64,
    env: &AirEnvironment,
    seed: u64,
) -> Result<Signal> {
    let emitted = emit_attack(voice, attack_elements, total_power_w, carrier_hz)?;
    record_attack(
        &emitted,
        device,
        distance_m,
        ambient_noise_spl_db,
        env,
        seed,
    )
}

impl Dataset {
    /// Generates the corpus described by `config`.
    ///
    /// For every (command, distance) pair, one attack recording is produced,
    /// plus one legitimate recording per speaker variant — so the corpus has
    /// `commands × distances × (1 + variants)` entries.
    pub fn generate(config: &DatasetConfig) -> Result<Dataset> {
        if config.distances_m.is_empty() || config.command_indices.is_empty() {
            return Err(DefenseError::invalid(
                "DatasetConfig",
                "need at least one distance and one command",
            ));
        }
        if config.num_speaker_variants == 0 {
            return Err(DefenseError::invalid(
                "num_speaker_variants",
                "must be at least 1",
            ));
        }
        let env = AirEnvironment::default();
        let commands = corpus();
        let synth = Synthesizer::new(48_000.0)?;
        let mut recordings = Vec::new();
        let mut seed = config.seed;

        for &ci in &config.command_indices {
            let command = commands.get(ci).ok_or_else(|| {
                DefenseError::invalid("command_indices", format!("index {ci} out of range"))
            })?;
            // The attacker uses the canonical TTS voice (as in the paper),
            // and its emission does not depend on distance: build it once
            // per command, then only propagate and capture per distance.
            let utterance = synth.render(command, &SpeakerProfile::canonical())?;
            let attack_voice = clip_duration(&utterance.signal, config.max_voice_duration_s);
            let emitted = emit_attack(
                &attack_voice,
                config.attack_elements,
                config.attack_total_power_w,
                config.carrier_hz,
            )?;
            for &distance in &config.distances_m {
                // Legitimate recordings from several speakers.
                for variant in 0..config.num_speaker_variants {
                    let profile = SpeakerProfile::variant(variant + (seed as usize % 3));
                    let utterance = synth.render(command, &profile)?;
                    let voice = clip_duration(&utterance.signal, config.max_voice_duration_s);
                    seed = seed.wrapping_add(1);
                    let rec = generate_legit_recording(
                        &voice,
                        config.device,
                        distance,
                        config.talker_spl_db,
                        config.ambient_noise_spl_db,
                        &env,
                        seed,
                    )?;
                    recordings.push(LabeledRecording {
                        recording: rec,
                        is_attack: false,
                        distance_m: distance,
                        device: config.device,
                        command_index: ci,
                    });
                }
                // One attack recording.
                seed = seed.wrapping_add(1);
                let rec = record_attack(
                    &emitted,
                    config.device,
                    distance,
                    config.ambient_noise_spl_db,
                    &env,
                    seed,
                )?;
                recordings.push(LabeledRecording {
                    recording: rec,
                    is_attack: true,
                    distance_m: distance,
                    device: config.device,
                    command_index: ci,
                });
            }
        }
        Ok(Dataset { recordings })
    }

    /// Number of recordings.
    pub fn len(&self) -> usize {
        self.recordings.len()
    }

    /// `true` if the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.recordings.is_empty()
    }

    /// Number of attack recordings.
    pub fn num_attacks(&self) -> usize {
        self.recordings.iter().filter(|r| r.is_attack).count()
    }

    /// Extracts defense features for every recording.
    pub fn to_feature_samples(&self) -> Result<LabeledFeatures> {
        self.recordings
            .iter()
            .map(|r| {
                Ok((
                    DefenseFeatures::extract(&r.recording)?.to_vector(),
                    r.is_attack,
                ))
            })
            .collect()
    }

    /// Deterministic split into train and test sets: every `1/test_every`-th
    /// sample of each class goes to the test set.
    pub fn split_features(&self, test_every: usize) -> Result<(LabeledFeatures, LabeledFeatures)> {
        if test_every < 2 {
            return Err(DefenseError::invalid("test_every", "must be at least 2"));
        }
        let all = self.to_feature_samples()?;
        let mut train = Vec::new();
        let mut test = Vec::new();
        let mut class_counters = [0usize; 2];
        for (f, y) in all {
            let c = &mut class_counters[usize::from(y)];
            if *c % test_every == test_every - 1 {
                test.push((f, y));
            } else {
                train.push((f, y));
            }
            *c += 1;
        }
        Ok((train, test))
    }
}

fn clip_duration(signal: &Signal, max_s: f64) -> Signal {
    if signal.duration_s() <= max_s {
        signal.clone()
    } else {
        signal.slice_seconds(0.0, max_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DatasetConfig {
        DatasetConfig {
            distances_m: vec![1.5],
            num_speaker_variants: 2,
            command_indices: vec![0],
            attack_elements: 4,
            attack_total_power_w: 30.0,
            max_voice_duration_s: 0.9,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn validation() {
        let mut cfg = tiny_config();
        cfg.distances_m.clear();
        assert!(Dataset::generate(&cfg).is_err());
        let mut cfg = tiny_config();
        cfg.command_indices = vec![99];
        assert!(Dataset::generate(&cfg).is_err());
        let mut cfg = tiny_config();
        cfg.num_speaker_variants = 0;
        assert!(Dataset::generate(&cfg).is_err());
    }

    #[test]
    fn generates_expected_counts_and_labels() {
        let cfg = tiny_config();
        let ds = Dataset::generate(&cfg).unwrap();
        // 1 command x 1 distance x (2 legit + 1 attack) = 3 recordings.
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.num_attacks(), 1);
        assert!(!ds.is_empty());
        for r in &ds.recordings {
            assert_eq!(r.device, DevicePreset::AndroidPhone);
            assert!(r.recording.len() > 1_000);
            assert_eq!(r.distance_m, 1.5);
        }
    }

    #[test]
    fn feature_samples_align_with_labels() {
        let cfg = tiny_config();
        let ds = Dataset::generate(&cfg).unwrap();
        let samples = ds.to_feature_samples().unwrap();
        assert_eq!(samples.len(), ds.len());
        assert_eq!(samples.iter().filter(|(_, y)| *y).count(), ds.num_attacks());
        for (f, _) in &samples {
            assert_eq!(f.len(), DefenseFeatures::DIMENSION);
        }
    }

    #[test]
    fn split_keeps_both_classes_apart_deterministically() {
        let mut cfg = tiny_config();
        cfg.distances_m = vec![1.0, 2.0];
        let ds = Dataset::generate(&cfg).unwrap();
        assert!(ds.split_features(1).is_err());
        let (train, test) = ds.split_features(2).unwrap();
        assert_eq!(train.len() + test.len(), ds.len());
        assert!(!train.is_empty() && !test.is_empty());
        // Deterministic: same call gives the same split.
        let (train2, test2) = ds.split_features(2).unwrap();
        assert_eq!(train.len(), train2.len());
        assert_eq!(test.len(), test2.len());
    }

    #[test]
    fn hoisted_emission_matches_the_one_shot_attack_recording() {
        let mut cfg = tiny_config();
        cfg.distances_m = vec![1.0, 2.5];
        let ds = Dataset::generate(&cfg).unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[cfg.command_indices[0]];
        let utterance = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let voice = clip_duration(&utterance.signal, cfg.max_voice_duration_s);
        let env = AirEnvironment::default();
        // Recordings are (variants legit, 1 attack) per distance, each
        // taking the next seed in turn.
        let per_distance = cfg.num_speaker_variants + 1;
        let attacks: Vec<_> = ds.recordings.iter().filter(|r| r.is_attack).collect();
        assert_eq!(attacks.len(), cfg.distances_m.len());
        for (k, (rec, &distance)) in attacks.iter().zip(&cfg.distances_m).enumerate() {
            let seed = cfg.seed + ((k + 1) * per_distance) as u64;
            let one_shot = generate_attack_recording(
                &voice,
                cfg.device,
                distance,
                cfg.attack_elements,
                cfg.attack_total_power_w,
                cfg.carrier_hz,
                cfg.ambient_noise_spl_db,
                &env,
                seed,
            )
            .unwrap();
            assert_eq!(rec.distance_m, distance);
            assert_eq!(rec.recording, one_shot, "attack recording at {distance} m");
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let cfg = tiny_config();
        let a = Dataset::generate(&cfg).unwrap();
        let b = Dataset::generate(&cfg).unwrap();
        assert_eq!(a, b);
    }
}
