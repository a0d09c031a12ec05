//! The staged trial pipeline: **Prepare → Perturb → Evaluate**.
//!
//! A campaign runs N trials of one *cell* (a fixed scenario, varying only
//! the trial seed).  Most of a trial's cost is invariant across those
//! seeds: synthesis, attack construction and power allocation, the speaker
//! array, the room's image-source response and the propagation to the
//! device port and to the bystander.  This module factors the pipeline
//! along that boundary:
//!
//! * **Prepare** ([`PreparedCell::prepare`]) — everything cell-invariant,
//!   packaged as an immutable [`PreparedCell`]: the clean (noise-free)
//!   pressure waveform at the device port per talker, the leakage report
//!   and the power shortfall.  Prepared once per cell and shared by
//!   reference across worker threads.
//! * **Perturb** ([`PreparedCell::perturb`]) — the seed-dependent part:
//!   ambient-noise draw, microphone capture and ADC.
//! * **Evaluate** ([`PreparedCell::evaluate`]) — recognition, defense
//!   feature extraction and the optional trained detector.
//!
//! Prepare's products — the render, the attack build, the target path
//! and the leakage — are memoised process-wide in [`crate::prepare_cache`].
//! Each is named by a plain inputs struct holding exactly the fields its
//! build reads ([`UtteranceInputs`], [`AttackInputs`], [`PathInputs`],
//! [`LeakageInputs`]); [`CellInputs::project`] is the one place a
//! scenario is projected onto them, and no build sees a [`Scenario`].
//!
//! The detector's training corpus ([`crate::dataset`]) is one more
//! caller of the same stages: its cells are projected by
//! [`CellInputs::project`], their paths built by [`Product::build`] and
//! captured by the one Perturb body, so the detector trains on exactly
//! the recordings trials score.
//!
//! [`crate::pipeline::run_trial`] survives as the compose-all wrapper; the
//! staged outputs are pinned per delivery kind × room axis by the trial
//! digests in `tests/staged_pipeline.rs`.
//!
//! Sharing contract: a `PreparedCell` is immutable after construction and
//! holds no interior mutability, so `&PreparedCell` may be shared freely
//! across threads; `perturb`/`evaluate` are pure functions of `(cell,
//! seed)`, which is what keeps campaign archives byte-identical at any
//! worker count.

use crate::pipeline::TrialOutcome;
use crate::prepare_cache::{self, Product};
use crate::scenario::{Delivery, Scenario};
use crate::telemetry;
use crate::Result;
use ivc_acoustics::adc::digitize;
use ivc_acoustics::array::SpeakerArray;
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::microphone::{CaptureScratch, Microphone};
use ivc_acoustics::noise::room_noise_pa;
use ivc_acoustics::propagation::{propagate, propagate_from_aperture};
use ivc_acoustics::speaker::UltrasonicSpeaker;
use ivc_acoustics::spl::spl_db_to_pressure;
use ivc_attack::baseband::BasebandConfig;
use ivc_attack::leakage::{leakage_from_field, LeakageReport};
use ivc_attack::multispeaker::{single_speaker_element_drives, MultiSpeakerAttack};
use ivc_attack::single::SingleSpeakerAttack;
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::countermeasures::precompensated_baseband;
use ivc_defense::features::DefenseFeatures;
use ivc_dsp::signal::Signal;
use ivc_room::{propagate_in_room, RoomPreset};
use ivc_speech::cache::TalkerKey;
use ivc_speech::commands::VoiceCommand;
use ivc_speech::recognizer::Recognizer;
use ivc_speech::synthesis::{Synthesizer, Utterance};
use std::sync::Arc;

/// Number of deterministic talker variants legitimate deliveries cycle
/// through: trial seed `s` speaks with variant `s % 8`.
pub const NUM_TALKER_VARIANTS: usize = 8;

/// The talker variant a legitimate delivery uses at `seed` (the `seed % 8`
/// semantics campaigns and the detector corpus rely on).
pub fn talker_variant(seed: u64) -> usize {
    seed as usize % NUM_TALKER_VARIANTS
}

/// Inputs of a full TTS render at 48 kHz: the command and its talker.
#[derive(Debug, Clone, PartialEq)]
pub struct UtteranceInputs {
    /// The command spoken.
    pub command: VoiceCommand,
    /// Who speaks it.
    pub talker: TalkerKey,
}

impl Product for UtteranceInputs {
    type Output = Utterance;
    const REUSED_COUNTER: &'static str = "prepare.utterance_reused";

    fn byte_estimate(u: &Utterance) -> usize {
        u.signal.len() * 8 + u.word_boundaries.len() * 32 + u.text.len() + 128
    }

    fn build(&self) -> Result<Utterance> {
        let _span = telemetry::span("prepare.utterance_render");
        Ok(Synthesizer::new(48_000.0)?.render(&self.command, &self.talker.profile())?)
    }
}

impl UtteranceInputs {
    /// The cached render, truncated to `cap_s` seconds.
    fn voice(&self, cap_s: f64) -> Result<Signal> {
        let utterance = prepare_cache::get(self)?;
        Ok(if utterance.signal.duration_s() > cap_s {
            utterance.signal.slice_seconds(0.0, cap_s)
        } else {
            utterance.signal.clone()
        })
    }
}

/// Inputs of an attack build: the attacker's voice, its cap and shadow
/// pre-compensation, and the array emitting it (a single speaker is the
/// one-element array).  Distance, device, room and noise are not here:
/// the emitted near field is independent of them, which is exactly what
/// lets a distance sweep reuse one build.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackInputs {
    /// The canonical TTS render of the injected command.
    pub voice: UtteranceInputs,
    /// Voice-duration cap, in seconds.
    pub max_voice_duration_s: f64,
    /// Adaptive-attacker shadow suppression in `[0, 1]`.
    pub shadow_suppression: f64,
    /// Array elements, at least 1.
    pub num_elements: usize,
    /// Total electrical power, in watt.
    pub total_power_w: f64,
    /// Carrier frequency, in Hz.
    pub carrier_hz: f64,
}

/// The speaker-side products of one attack build, cached as a unit: the
/// emitted near field referenced to 1 m, the array aperture and the
/// electrical budget the allocation could not place.
#[derive(Debug, Clone)]
pub struct AttackBuild {
    /// Superposed element emissions at the 1 m reference.
    pub near_field_at_1m: Signal,
    /// Physical aperture of the emitting array, in metres.
    pub aperture_m: f64,
    /// Unplaced electrical budget, in watts.
    pub power_shortfall_w: f64,
}

impl Product for AttackInputs {
    type Output = AttackBuild;
    const REUSED_COUNTER: &'static str = "prepare.attack_build_reused";

    fn byte_estimate(build: &AttackBuild) -> usize {
        build.near_field_at_1m.len() * 8 + 128
    }

    fn build(&self) -> Result<AttackBuild> {
        let mut voice = self.voice.voice(self.max_voice_duration_s)?;
        if self.shadow_suppression > 0.0 {
            voice = precompensated_baseband(&voice, self.shadow_suppression)?;
        }
        let _span = telemetry::span("prepare.attack_build");
        let baseband = BasebandConfig::default();
        let (num_elements, total_power_w) = (self.num_elements, self.total_power_w);
        let speaker = UltrasonicSpeaker::default();
        let array = SpeakerArray::new(speaker.clone(), num_elements, 0.03)?;
        let (drives, shortfall_w) = if num_elements == 1 {
            let attack = SingleSpeakerAttack::build(&voice, self.carrier_hz, 0.9, &baseband)?;
            let placed_w = total_power_w.min(speaker.max_power_w);
            (
                single_speaker_element_drives(&attack, placed_w)?,
                total_power_w - placed_w,
            )
        } else {
            // `build` sizes the carrier element group against the budget, so
            // big arrays keep their carrier-to-sideband balance instead of
            // starving the carrier at one element's rating (the old E-A2
            // 61-element anomaly).
            let attack = MultiSpeakerAttack::build(
                &voice,
                self.carrier_hz,
                num_elements,
                total_power_w,
                0.3,
                speaker.max_power_w,
                &baseband,
            )?;
            let allocation = attack.allocate_power(total_power_w, 0.3, speaker.max_power_w)?;
            (allocation.drives, allocation.shortfall_w)
        };
        Ok(AttackBuild {
            near_field_at_1m: array.emitted_field_at_1m(&drives)?,
            aperture_m: array.aperture_m(),
            power_shortfall_w: shortfall_w,
        })
    }
}

/// What a target path carries from 1 m out.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A person speaking (a point source).
    Talker {
        /// The talker's render of the command.
        voice: UtteranceInputs,
        /// Voice-duration cap, in seconds.
        max_voice_duration_s: f64,
        /// Talker level as SPL at 1 m, in dB.
        talker_spl_db: f64,
    },
    /// An attack build's emitted near field, leaving the array's aperture.
    Attack(AttackInputs),
}

/// Inputs of the clean pressure at the device port: the source and the
/// channel to the target.
#[derive(Debug, Clone, PartialEq)]
pub struct PathInputs {
    /// What is propagated.
    pub source: Source,
    /// Source-to-device distance, in metres.
    pub distance_m: f64,
    /// The room (`None` = free field).
    pub room: Option<RoomPreset>,
    /// Air conditions.
    pub env: AirEnvironment,
}

impl Product for PathInputs {
    type Output = Signal;
    const REUSED_COUNTER: &'static str = "prepare.propagation_reused";

    fn byte_estimate(path: &Signal) -> usize {
        path.len() * 8 + 64
    }

    fn build(&self) -> Result<Signal> {
        match &self.source {
            Source::Talker {
                voice,
                max_voice_duration_s,
                talker_spl_db,
            } => {
                let voice = voice.voice(*max_voice_duration_s)?;
                let rms = voice.rms().max(1e-12);
                let at_1m = voice.scaled(spl_db_to_pressure(*talker_spl_db) / rms);
                self.propagate(&at_1m, 0.0)
            }
            Source::Attack(attack) => {
                let build = prepare_cache::get(attack)?;
                self.propagate(&build.near_field_at_1m, build.aperture_m)
            }
        }
    }
}

impl PathInputs {
    /// Propagates a 1 m-referenced pressure waveform from a source of
    /// `aperture_m` to the target microphone: free field, or through the
    /// room's image-source response.
    fn propagate(&self, at_1m: &Signal, aperture_m: f64) -> Result<Signal> {
        let _span = telemetry::span("prepare.convolution");
        Ok(match self.room {
            None => propagate_from_aperture(at_1m, self.distance_m, aperture_m, &self.env)?,
            Some(preset) => propagate_in_room(
                at_1m,
                &preset.target_rir(self.distance_m, aperture_m)?,
                &self.env,
            )?,
        })
    }
}

/// Inputs of the bystander's leakage report: the attack build and the
/// channel to the bystander.  The target distance is not here: the
/// bystander's path depends only on the room, the source and the
/// bystander, so every target distance shares one leakage build.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageInputs {
    /// The emitting attack build (a point source towards the bystander).
    pub source: AttackInputs,
    /// Source-to-bystander distance, in metres.
    pub bystander_distance_m: f64,
    /// The room (`None` = free field).
    pub room: Option<RoomPreset>,
    /// Air conditions.
    pub env: AirEnvironment,
}

impl Product for LeakageInputs {
    type Output = LeakageReport;
    const REUSED_COUNTER: &'static str = "prepare.leakage_reused";

    fn byte_estimate(_: &LeakageReport) -> usize {
        512
    }

    fn build(&self) -> Result<LeakageReport> {
        let build = prepare_cache::get(&self.source)?;
        let _span = telemetry::span("prepare.leakage");
        let near = &build.near_field_at_1m;
        let (distance_m, env) = (self.bystander_distance_m, &self.env);
        let field = match self.room {
            None => propagate(near, distance_m, env)?,
            Some(preset) => propagate_in_room(near, &preset.bystander_rir(distance_m)?, env)?,
        };
        Ok(leakage_from_field(&field, distance_m, 0.0)?)
    }
}

/// The Prepare products one cell reads: its `(command, scenario, seeds)`
/// projected onto product inputs (built once per cell and consumed at
/// once, so the variants' size difference costs nothing).
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum CellInputs {
    /// A legitimate delivery: one target path per talker variant the
    /// trial seeds select, sorted by variant.
    Legitimate(Vec<(usize, PathInputs)>),
    /// An attack delivery: the build, its target path and the bystander's
    /// leakage.
    Attack {
        /// The attack build (read for its power shortfall).
        build: AttackInputs,
        /// The path to the device port.
        path: PathInputs,
        /// The leakage at the bystander.
        leakage: LeakageInputs,
    },
}

impl CellInputs {
    /// Validates one cell and projects it onto the inputs of the products
    /// it reads.  `scenario.seed` is *not* consulted — the seed is a
    /// Perturb-stage input.
    pub fn project(
        command: &VoiceCommand,
        scenario: &Scenario,
        seeds: &[u64],
    ) -> Result<CellInputs> {
        if seeds.is_empty() {
            return Err("PreparedCell::prepare needs at least one trial seed".into());
        }
        if !(0.0..=1.0).contains(&scenario.shadow_suppression) {
            return Err("shadow_suppression must be within [0, 1]".into());
        }
        if let Some(preset) = scenario.room {
            // Placing both listeners checks the geometry once; each product
            // then places only the listener it reads.
            let _span = telemetry::span("prepare.rir_build");
            preset.instantiate(scenario.distance_m, scenario.bystander_distance_m)?;
        }
        let path = |source| PathInputs {
            source,
            distance_m: scenario.distance_m,
            room: scenario.room,
            env: scenario.env,
        };
        let voice = |talker| UtteranceInputs {
            command: command.clone(),
            talker,
        };
        let max_voice_duration_s = scenario.max_voice_duration_s;
        let (num_elements, total_power_w, carrier_hz) = match scenario.delivery {
            Delivery::Legitimate { talker_spl_db } => {
                let mut variants: Vec<usize> = seeds.iter().map(|&s| talker_variant(s)).collect();
                variants.sort_unstable();
                variants.dedup();
                let talker = |variant| Source::Talker {
                    voice: voice(TalkerKey::Variant(variant)),
                    max_voice_duration_s,
                    talker_spl_db,
                };
                return Ok(CellInputs::Legitimate(
                    variants.into_iter().map(|v| (v, path(talker(v)))).collect(),
                ));
            }
            Delivery::SingleSpeakerUltrasound {
                power_w,
                carrier_hz,
            } => (1, power_w, carrier_hz),
            Delivery::ArrayUltrasound {
                num_elements,
                total_power_w,
                carrier_hz,
            } => (num_elements.max(1), total_power_w, carrier_hz),
        };
        let build = AttackInputs {
            voice: voice(TalkerKey::Canonical),
            max_voice_duration_s,
            shadow_suppression: scenario.shadow_suppression,
            num_elements,
            total_power_w,
            carrier_hz,
        };
        Ok(CellInputs::Attack {
            path: path(Source::Attack(build.clone())),
            leakage: LeakageInputs {
                source: build.clone(),
                bystander_distance_m: scenario.bystander_distance_m,
                room: scenario.room,
                env: scenario.env,
            },
            build,
        })
    }
}

/// The clean (noise-free) pressure at the device port, per talker path.
///
/// Paths are `Arc`-shared with the process-wide Prepare cache: cells that
/// agree on the propagation sub-tuple hold the same allocation.
#[derive(Debug, Clone)]
enum PreparedPaths {
    /// Attack deliveries: the canonical TTS voice — one path.
    Attack(Arc<Signal>),
    /// Legitimate deliveries: one path per prepared talker variant
    /// (`(variant, clean pressure at port)`, sorted by variant).
    Legitimate(Vec<(usize, Arc<Signal>)>),
}

/// Stage 1 of the trial pipeline: everything invariant across the trials
/// of one campaign cell, packaged immutably (see the module docs for the
/// sharing contract).
#[derive(Debug, Clone)]
pub struct PreparedCell {
    scenario: Scenario,
    command: VoiceCommand,
    microphone: Microphone,
    paths: PreparedPaths,
    /// Speaker-side leakage report (attack deliveries only).
    pub leakage: Option<LeakageReport>,
    /// Electrical budget the delivery could not place (see
    /// [`TrialOutcome::power_shortfall_w`]).
    pub power_shortfall_w: f64,
}

impl PreparedCell {
    /// Runs the Prepare stage for one cell.
    ///
    /// `seeds` lists every trial seed the cell will run: legitimate
    /// deliveries render one path per distinct `seed % 8` talker variant,
    /// so the `seed`-selects-the-talker semantics are preserved exactly.
    /// Attack deliveries always use the canonical TTS voice and prepare a
    /// single path.  Every product comes from (or lands in) the Prepare
    /// cache under the inputs [`CellInputs::project`] names.
    pub fn prepare(
        command: &VoiceCommand,
        scenario: &Scenario,
        seeds: &[u64],
    ) -> Result<PreparedCell> {
        let _stage = telemetry::span(telemetry::SPAN_STAGE_PREPARE);
        let (paths, leakage, power_shortfall_w) =
            match CellInputs::project(command, scenario, seeds)? {
                CellInputs::Legitimate(paths) => {
                    let paths = paths
                        .iter()
                        .map(|(variant, path)| Ok((*variant, prepare_cache::get(path)?)))
                        .collect::<Result<_>>()?;
                    (PreparedPaths::Legitimate(paths), None, 0.0)
                }
                CellInputs::Attack {
                    build,
                    path,
                    leakage,
                } => {
                    let shortfall_w = prepare_cache::get(&build)?.power_shortfall_w;
                    let at_port = prepare_cache::get(&path)?;
                    let leakage = (*prepare_cache::get(&leakage)?).clone();
                    (PreparedPaths::Attack(at_port), Some(leakage), shortfall_w)
                }
            };
        Ok(PreparedCell {
            scenario: scenario.clone(),
            command: command.clone(),
            microphone: scenario.device.microphone(),
            paths,
            leakage,
            power_shortfall_w,
        })
    }

    /// Stage 2: the seed-dependent perturbation — ambient-noise draw,
    /// microphone capture and ADC — returning the digital recording the
    /// device's software receives for trial `seed`.
    ///
    /// `scratch` holds the pressure and capture workspaces: a worker
    /// looping over trials reuses one [`TrialScratch`] instead of
    /// re-allocating them per call.  The output is bit-identical with a
    /// fresh or a reused scratch.
    pub fn perturb(&self, seed: u64, scratch: &mut TrialScratch) -> Result<Signal> {
        let clean: &Signal = match &self.paths {
            PreparedPaths::Attack(at_port) => at_port,
            PreparedPaths::Legitimate(variants) => {
                let wanted = talker_variant(seed);
                &variants
                    .iter()
                    .find(|(variant, _)| *variant == wanted)
                    .ok_or_else(|| {
                        format!(
                            "talker variant {wanted} (seed {seed}) was not prepared; \
                             pass every trial seed to PreparedCell::prepare"
                        )
                    })?
                    .1
            }
        };
        perturb_path(
            clean,
            &self.microphone,
            self.scenario.ambient_noise_spl_db,
            seed,
            scratch,
        )
    }

    /// Stage 3: recognition, defense features and the optional trained
    /// detector, assembled into the trial's outcome.
    ///
    /// `recognizer` must have the command corpus enrolled; `seed` is
    /// echoed into [`TrialOutcome::seed`] so archives stay self-contained.
    pub fn evaluate(
        &self,
        recording: Signal,
        seed: u64,
        recognizer: &Recognizer,
        detector: Option<&LogisticRegression>,
    ) -> Result<TrialOutcome> {
        let _stage = telemetry::span(telemetry::SPAN_STAGE_EVALUATE);
        let recognition_span = telemetry::span("evaluate.recognition");
        let evaluation = recognizer.evaluate(&recording, self.command.id)?;
        drop(recognition_span);
        let word_accuracy = evaluation.word_accuracy;
        let accepted = evaluation.accepted;
        let recognized_words: Vec<String> = evaluation
            .word_recognition
            .into_iter()
            .filter(|(_, ok)| *ok)
            .map(|(word, _)| word)
            .collect();
        let features_span = telemetry::span("evaluate.defense_features");
        let defense_features = DefenseFeatures::extract(&recording)?;
        drop(features_span);
        let detection_probability = match detector {
            Some(model) => {
                let _span = telemetry::span("evaluate.detector");
                Some(model.predict_probability(&defense_features.to_vector())?)
            }
            None => None,
        };
        Ok(TrialOutcome {
            recording,
            accepted,
            word_accuracy,
            recognized_words,
            bystander_spl_db: self.leakage.as_ref().map(|leak| leak.audible_spl_db),
            power_shortfall_w: self.power_shortfall_w,
            seed,
            leakage: self.leakage.clone(),
            defense_features,
            detection_probability,
        })
    }

    /// Perturb + Evaluate for one trial seed — the shape campaign workers
    /// run after preparing (or being handed) the cell, reusing `scratch`
    /// across trials (see [`perturb`](Self::perturb)).
    pub fn run(
        &self,
        seed: u64,
        recognizer: &Recognizer,
        detector: Option<&LogisticRegression>,
        scratch: &mut TrialScratch,
    ) -> Result<TrialOutcome> {
        let recording = self.perturb(seed, scratch)?;
        self.evaluate(recording, seed, recognizer, detector)
    }
}

/// The Perturb stage's body: trial `seed`'s ambient-noise draw added to a
/// clean pressure path, captured by `microphone` (front end and ADC).
/// [`PreparedCell::perturb`] and the detector corpus both run it.
pub(crate) fn perturb_path(
    clean: &Signal,
    microphone: &Microphone,
    ambient_noise_spl_db: f64,
    seed: u64,
    scratch: &mut TrialScratch,
) -> Result<Signal> {
    let _stage = telemetry::span(telemetry::SPAN_STAGE_PERTURB);
    let mut pressure = std::mem::take(&mut scratch.pressure);
    pressure.clear();
    pressure.extend_from_slice(clean.samples());
    let mut pressure_at_port = Signal::new(pressure, clean.sample_rate_hz())?;
    {
        let _span = telemetry::span("perturb.ambient_noise");
        let noise = room_noise_pa(
            ambient_noise_spl_db,
            pressure_at_port.duration_s(),
            pressure_at_port.sample_rate_hz(),
            seed ^ 0xDEAD_BEEF,
        )?;
        pressure_at_port.mix(&noise)?;
    }
    // `Microphone::capture_with_scratch`, split so each half of the
    // capture chain gets its own span.
    let _span = telemetry::span("perturb.mic_capture");
    let analog = {
        let _span = telemetry::span("perturb.mic_capture.front_end");
        let shaped = {
            let _span = telemetry::span("perturb.mic_capture.front_end.shaping");
            microphone.front_end_shaping(&pressure_at_port, &mut scratch.capture)?
        };
        let _span = telemetry::span("perturb.mic_capture.front_end.self_noise");
        microphone.front_end_self_noise(shaped, seed)?
    };
    let recording = {
        let _span = telemetry::span("perturb.mic_capture.adc");
        digitize(&analog, &microphone.adc, seed)
    };
    scratch.capture.recycle(analog);
    scratch.pressure = pressure_at_port.into_samples();
    Ok(recording?)
}

/// Per-worker scratch buffers threaded through the Perturb stage so the
/// hot trial loop reuses its allocations instead of growing and dropping
/// ~20 `Vec`s per trial.  Purely an allocation-reuse vehicle: results are
/// bit-identical with a fresh or a reused scratch.
#[derive(Debug, Default)]
pub struct TrialScratch {
    /// Pressure-waveform assembly buffer (clean path + ambient noise).
    pressure: Vec<f64>,
    /// Microphone front-end workspaces (spectrum + time-domain).
    capture: CaptureScratch,
}

impl TrialScratch {
    /// Creates an empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_speech::commands::corpus;

    fn quick_scenario(delivery: Delivery) -> Scenario {
        Scenario {
            delivery,
            max_voice_duration_s: 0.8,
            ..Scenario::default_attack()
        }
    }

    #[test]
    fn prepared_cell_is_reusable_and_matches_the_composed_wrapper() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let scenario = quick_scenario(Delivery::ArrayUltrasound {
            num_elements: 6,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        });
        let prepared = PreparedCell::prepare(command, &scenario, &[1, 2]).unwrap();
        // The same prepared cell serves multiple seeds; each equals the
        // one-shot wrapper for that seed, bit for bit.
        let mut scratch = TrialScratch::new();
        for seed in [1u64, 2] {
            let staged = prepared.run(seed, &recognizer, None, &mut scratch).unwrap();
            let monolithic =
                crate::pipeline::run_trial(command, &scenario.with_seed(seed), &recognizer, None)
                    .unwrap();
            assert_eq!(staged, monolithic);
            assert_eq!(staged.seed, seed);
        }
        // Different seeds draw different noise: recordings differ.
        let a = prepared.perturb(1, &mut scratch).unwrap();
        let b = prepared.perturb(2, &mut scratch).unwrap();
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn a_single_speaker_is_the_one_element_array() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let mut scratch = TrialScratch::new();
        let mut outcome = |delivery: Delivery| {
            let scenario = quick_scenario(delivery);
            PreparedCell::prepare(command, &scenario, &[7])
                .unwrap()
                .run(7, &recognizer, None, &mut scratch)
                .unwrap()
        };
        let single = outcome(Delivery::SingleSpeakerUltrasound {
            power_w: 3.0,
            carrier_hz: 30_000.0,
        });
        let array = outcome(Delivery::ArrayUltrasound {
            num_elements: 1,
            total_power_w: 3.0,
            carrier_hz: 30_000.0,
        });
        assert_eq!(single, array);
    }

    #[test]
    fn legitimate_variants_follow_the_seed_modulo_contract() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let scenario = quick_scenario(Delivery::Legitimate {
            talker_spl_db: 68.0,
        });
        // Seeds 3 and 11 share variant 3: one rendered path serves both.
        let prepared = PreparedCell::prepare(command, &scenario, &[3, 11]).unwrap();
        let mut scratch = TrialScratch::new();
        let a = prepared.run(3, &recognizer, None, &mut scratch).unwrap();
        let b = prepared
            .run(
                3 + NUM_TALKER_VARIANTS as u64,
                &recognizer,
                None,
                &mut scratch,
            )
            .unwrap();
        // Same talker, different noise draw.
        assert_eq!(a.seed, 3);
        assert_ne!(a.recording.samples(), b.recording.samples());
        // A seed whose variant was not prepared is a loud error, not a
        // silent wrong-talker trial.
        assert!(prepared.perturb(4, &mut scratch).is_err());
    }

    #[test]
    fn prepare_rejects_bad_inputs() {
        let command = &corpus()[0];
        let scenario = quick_scenario(Delivery::Legitimate {
            talker_spl_db: 68.0,
        });
        assert!(PreparedCell::prepare(command, &scenario, &[]).is_err());
        let bad = Scenario {
            shadow_suppression: 1.5,
            ..quick_scenario(Delivery::SingleSpeakerUltrasound {
                power_w: 10.0,
                carrier_hz: 40_000.0,
            })
        };
        assert!(PreparedCell::prepare(command, &bad, &[1]).is_err());
    }

    #[test]
    fn shadow_suppression_changes_the_attack_but_not_the_legit_path() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let mut scratch = TrialScratch::new();
        let oblivious = quick_scenario(Delivery::ArrayUltrasound {
            num_elements: 6,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        });
        let adaptive = Scenario {
            shadow_suppression: 1.0,
            ..oblivious.clone()
        };
        let plain = PreparedCell::prepare(command, &oblivious, &[1])
            .unwrap()
            .run(1, &recognizer, None, &mut scratch)
            .unwrap();
        let suppressed = PreparedCell::prepare(command, &adaptive, &[1])
            .unwrap()
            .run(1, &recognizer, None, &mut scratch)
            .unwrap();
        assert_ne!(plain.recording.samples(), suppressed.recording.samples());
        // Suppression shrinks the shadow feature the detector keys on.
        assert!(
            suppressed.defense_features.shadow_correlation
                < plain.defense_features.shadow_correlation
        );
    }
}
