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
//! [`crate::pipeline::run_trial`] survives as the compose-all wrapper; its
//! outputs are bit-identical to the pre-staged monolith (pinned per
//! delivery kind × room preset in `tests/staged_pipeline.rs`).
//!
//! Sharing contract: a `PreparedCell` is immutable after construction and
//! holds no interior mutability, so `&PreparedCell` may be shared freely
//! across threads; `perturb`/`evaluate` are pure functions of `(cell,
//! seed)`, which is what keeps campaign archives byte-identical at any
//! worker count.

use crate::pipeline::TrialOutcome;
use crate::prepare_cache::{self, AttackBuild, ProductKind};
use crate::scenario::{Delivery, Scenario};
use crate::telemetry;
use crate::Result;
use ivc_acoustics::adc::digitize;
use ivc_acoustics::array::SpeakerArray;
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
use ivc_room::{propagate_in_room, RoomInstance};
use ivc_speech::cache::TalkerKey;
use ivc_speech::commands::VoiceCommand;
use ivc_speech::recognizer::Recognizer;
use ivc_speech::synthesis::Synthesizer;
use std::sync::Arc;

/// Number of deterministic talker variants legitimate deliveries cycle
/// through: trial seed `s` speaks with variant `s % 8`.
pub const NUM_TALKER_VARIANTS: usize = 8;

/// The talker variant a legitimate delivery uses at `seed` (the
/// `seed % 8` semantics the defense dataset and campaigns rely on).
pub fn talker_variant(seed: u64) -> usize {
    seed as usize % NUM_TALKER_VARIANTS
}

/// Shared, cell-independent preparation state: the synthesiser and the
/// baseband configuration.
///
/// Utterance renders (and every other Prepare sub-product) are memoised
/// process-wide in [`crate::prepare_cache`], keyed by the sub-tuple of
/// axes that determines them, so contexts are cheap to create and a
/// campaign's cells share work with each other *and* with later
/// campaigns in the same process.
#[derive(Debug)]
pub struct PrepareContext {
    synth: Synthesizer,
    baseband: BasebandConfig,
}

impl PrepareContext {
    /// A fresh context (sub-product reuse is process-wide, not per
    /// context).
    pub fn new() -> Result<Self> {
        Ok(PrepareContext {
            synth: Synthesizer::new(48_000.0)?,
            baseband: BasebandConfig::default(),
        })
    }

    /// The (possibly truncated) voice waveform of `command` spoken by
    /// `talker` — the process-wide cached render, clipped to the
    /// scenario's cap.
    fn voice(&self, command: &VoiceCommand, talker: TalkerKey, cap_s: f64) -> Result<Signal> {
        let key = prepare_cache::utterance_key(command, &talker, self.synth.sample_rate_hz());
        let utterance = prepare_cache::get_or_build(ProductKind::Utterance, &key, || {
            let _span = telemetry::span("prepare.utterance_render");
            Ok(self.synth.render(command, &talker.profile())?)
        })?;
        Ok(if utterance.signal.duration_s() > cap_s {
            utterance.signal.slice_seconds(0.0, cap_s)
        } else {
            utterance.signal.clone()
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
    /// single path.  `scenario.seed` itself is *not* consulted — the seed
    /// is a Perturb-stage input.
    pub fn prepare(
        ctx: &PrepareContext,
        command: &VoiceCommand,
        scenario: &Scenario,
        seeds: &[u64],
    ) -> Result<PreparedCell> {
        if seeds.is_empty() {
            return Err("PreparedCell::prepare needs at least one trial seed".into());
        }
        if !(0.0..=1.0).contains(&scenario.shadow_suppression) {
            return Err("shadow_suppression must be within [0, 1]".into());
        }
        let _stage = telemetry::span(telemetry::SPAN_STAGE_PREPARE);
        let room = match scenario.room {
            None => None,
            Some(preset) => {
                let key = prepare_cache::room_key(
                    preset,
                    scenario.distance_m,
                    scenario.bystander_distance_m,
                );
                Some(prepare_cache::get_or_build(ProductKind::Rir, &key, || {
                    let _span = telemetry::span("prepare.rir_build");
                    Ok(preset.instantiate(scenario.distance_m, scenario.bystander_distance_m)?)
                })?)
            }
        };
        let room = room.as_deref();
        let cap_s = scenario.max_voice_duration_s;
        let (paths, leakage, power_shortfall_w) = match scenario.delivery {
            Delivery::Legitimate { talker_spl_db } => {
                let mut variants: Vec<usize> = seeds.iter().map(|&s| talker_variant(s)).collect();
                variants.sort_unstable();
                variants.dedup();
                let mut prepared = Vec::with_capacity(variants.len());
                for variant in variants {
                    let source_key = prepare_cache::legitimate_source_key(
                        command,
                        variant,
                        cap_s,
                        talker_spl_db,
                    );
                    let prop_key =
                        prepare_cache::target_propagation_key(&source_key, 0.0, scenario);
                    let at_port =
                        prepare_cache::get_or_build(ProductKind::Propagation, &prop_key, || {
                            let voice = ctx.voice(command, TalkerKey::Variant(variant), cap_s)?;
                            let rms = voice.rms().max(1e-12);
                            let pressure_at_1m =
                                voice.scaled(spl_db_to_pressure(talker_spl_db) / rms);
                            propagate_to_target(&pressure_at_1m, 0.0, scenario, room)
                        })?;
                    prepared.push((variant, at_port));
                }
                (PreparedPaths::Legitimate(prepared), None, 0.0)
            }
            Delivery::SingleSpeakerUltrasound {
                power_w,
                carrier_hz,
            } => prepare_attack(ctx, command, scenario, room, 1, power_w, carrier_hz)?,
            Delivery::ArrayUltrasound {
                num_elements,
                total_power_w,
                carrier_hz,
            } => prepare_attack(
                ctx,
                command,
                scenario,
                room,
                num_elements,
                total_power_w,
                carrier_hz,
            )?,
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

    /// The scenario this cell was prepared for (its `seed` field is the
    /// template's and carries no per-trial meaning).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The command this cell injects (or speaks).
    pub fn command(&self) -> &VoiceCommand {
        &self.command
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
        let _stage = telemetry::span(telemetry::SPAN_STAGE_PERTURB);
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
        let mut pressure = std::mem::take(&mut scratch.pressure);
        pressure.clear();
        pressure.extend_from_slice(clean.samples());
        let mut pressure_at_port = Signal::new(pressure, clean.sample_rate_hz())?;
        {
            let _span = telemetry::span("perturb.ambient_noise");
            let noise = room_noise_pa(
                self.scenario.ambient_noise_spl_db,
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
                self.microphone
                    .front_end_shaping(&pressure_at_port, &mut scratch.capture)?
            };
            let _span = telemetry::span("perturb.mic_capture.front_end.self_noise");
            self.microphone.front_end_self_noise(shaped, seed)?
        };
        let recording = {
            let _span = telemetry::span("perturb.mic_capture.adc");
            digitize(&analog, &self.microphone.adc, seed)
        };
        scratch.capture.recycle(analog);
        scratch.pressure = pressure_at_port.into_samples();
        Ok(recording?)
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

/// The attacker's baseband voice: the canonical TTS render, truncated,
/// with the adaptive attacker's shadow pre-compensation applied when the
/// scenario asks for it.
fn attack_voice(
    ctx: &PrepareContext,
    command: &VoiceCommand,
    scenario: &Scenario,
) -> Result<Signal> {
    let voice = ctx.voice(command, TalkerKey::Canonical, scenario.max_voice_duration_s)?;
    if scenario.shadow_suppression > 0.0 {
        Ok(precompensated_baseband(
            &voice,
            scenario.shadow_suppression,
        )?)
    } else {
        Ok(voice)
    }
}

/// Prepares an ultrasonic attack from `num_elements` speakers sharing
/// `total_power_w` (a single speaker is the one-element array): builds
/// the emitted near field, or fetches it from the Prepare cache, and
/// delivers it to the target and the bystander.
fn prepare_attack(
    ctx: &PrepareContext,
    command: &VoiceCommand,
    scenario: &Scenario,
    room: Option<&RoomInstance>,
    num_elements: usize,
    total_power_w: f64,
    carrier_hz: f64,
) -> Result<(PreparedPaths, Option<LeakageReport>, f64)> {
    let build_key = prepare_cache::attack_build_key(command, scenario, &ctx.baseband);
    let build = prepare_cache::get_or_build(ProductKind::AttackBuild, &build_key, || {
        let voice = attack_voice(ctx, command, scenario)?;
        let _span = telemetry::span("prepare.attack_build");
        let speaker = UltrasonicSpeaker::default();
        let array = SpeakerArray::new(speaker.clone(), num_elements.max(1), 0.03)?;
        let (drives, shortfall_w) = if num_elements <= 1 {
            let attack = SingleSpeakerAttack::build(&voice, carrier_hz, 0.9, &ctx.baseband)?;
            let placed_w = total_power_w.min(speaker.max_power_w);
            (
                single_speaker_element_drives(&attack, placed_w)?,
                total_power_w - placed_w,
            )
        } else {
            // `build_balanced` sizes the carrier element group against the
            // budget, so big arrays keep their carrier-to-sideband balance
            // instead of starving the carrier at one element's rating (the
            // old E-A2 61-element anomaly).
            let attack = MultiSpeakerAttack::build_balanced(
                &voice,
                carrier_hz,
                num_elements,
                total_power_w,
                0.3,
                speaker.max_power_w,
                &ctx.baseband,
            )?;
            let allocation = attack.allocate_power(total_power_w, 0.3, speaker.max_power_w)?;
            (allocation.drives, allocation.shortfall_w)
        };
        Ok(AttackBuild {
            near_field_at_1m: array.emitted_field_at_1m(&drives)?,
            aperture_m: array.aperture_m(),
            power_shortfall_w: shortfall_w,
        })
    })?;
    let (at_port, leak) = deliver_attack(&build, &build_key, scenario, room)?;
    Ok((
        PreparedPaths::Attack(at_port),
        Some(leak),
        build.power_shortfall_w,
    ))
}

/// Propagates a 1 m-referenced pressure waveform from a source of
/// `aperture_m` to the target microphone: free field when the scenario has
/// no room, through the room's image-source response otherwise.
fn propagate_to_target(
    source_at_1m: &Signal,
    aperture_m: f64,
    scenario: &Scenario,
    room: Option<&RoomInstance>,
) -> Result<Signal> {
    let _span = telemetry::span("prepare.convolution");
    match room {
        None => Ok(propagate_from_aperture(
            source_at_1m,
            scenario.distance_m,
            aperture_m,
            &scenario.env,
        )?),
        Some(instance) => Ok(propagate_in_room(
            source_at_1m,
            &instance.target_rir(aperture_m)?,
            &scenario.env,
        )?),
    }
}

/// Propagates an attack build's emitted near field to the target
/// (aperture-aware, room-aware) and to the bystander (point source,
/// room-aware), analysing the leakage there.  Both products are
/// content-addressed off `build_key`, so a sweep that varies only trial
/// seeds or unrelated axes reuses them.
fn deliver_attack(
    build: &AttackBuild,
    build_key: &str,
    scenario: &Scenario,
    room: Option<&RoomInstance>,
) -> Result<(Arc<Signal>, LeakageReport)> {
    let prop_key = prepare_cache::target_propagation_key(build_key, build.aperture_m, scenario);
    let at_port = prepare_cache::get_or_build(ProductKind::Propagation, &prop_key, || {
        propagate_to_target(&build.near_field_at_1m, build.aperture_m, scenario, room)
    })?;
    let leak_key = prepare_cache::leakage_key(build_key, scenario);
    let leak = prepare_cache::get_or_build(ProductKind::Leakage, &leak_key, || {
        let _span = telemetry::span("prepare.leakage");
        let near = &build.near_field_at_1m;
        let bystander_field = match room {
            None => propagate(near, scenario.bystander_distance_m, &scenario.env)?,
            Some(instance) => propagate_in_room(near, &instance.bystander_rir()?, &scenario.env)?,
        };
        Ok(leakage_from_field(
            &bystander_field,
            scenario.bystander_distance_m,
            0.0,
        )?)
    })?;
    Ok((at_port, (*leak).clone()))
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
        let ctx = PrepareContext::new().unwrap();
        let prepared = PreparedCell::prepare(&ctx, command, &scenario, &[1, 2]).unwrap();
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
        let ctx = PrepareContext::new().unwrap();
        let mut scratch = TrialScratch::new();
        let mut outcome = |delivery: Delivery| {
            let scenario = quick_scenario(delivery);
            PreparedCell::prepare(&ctx, command, &scenario, &[7])
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
        let ctx = PrepareContext::new().unwrap();
        // Seeds 3 and 11 share variant 3: one rendered path serves both.
        let prepared = PreparedCell::prepare(&ctx, command, &scenario, &[3, 11]).unwrap();
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
        let ctx = PrepareContext::new().unwrap();
        let scenario = quick_scenario(Delivery::Legitimate {
            talker_spl_db: 68.0,
        });
        assert!(PreparedCell::prepare(&ctx, command, &scenario, &[]).is_err());
        let bad = Scenario {
            shadow_suppression: 1.5,
            ..quick_scenario(Delivery::SingleSpeakerUltrasound {
                power_w: 10.0,
                carrier_hz: 40_000.0,
            })
        };
        assert!(PreparedCell::prepare(&ctx, command, &bad, &[1]).is_err());
    }

    #[test]
    fn shadow_suppression_changes_the_attack_but_not_the_legit_path() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let ctx = PrepareContext::new().unwrap();
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
        let plain = PreparedCell::prepare(&ctx, command, &oblivious, &[1])
            .unwrap()
            .run(1, &recognizer, None, &mut scratch)
            .unwrap();
        let suppressed = PreparedCell::prepare(&ctx, command, &adaptive, &[1])
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
