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
//!   pressure at the device port per talker, through the microphone's
//!   front end as a spectrum ([`ShapedPath`]), with the noise table
//!   ([`NoiseShape`], the per-bin deviation of ambient plus self noise)
//!   its captures draw from; the leakage report and the power shortfall.
//!   Prepared once per cell and shared by reference across worker
//!   threads.
//! * **Perturb** ([`PreparedCell::perturb`]) — the seed-dependent part,
//!   synthesised in the frequency domain: one Gaussian draw of the noise
//!   bins, their sum with the path's spectrum through one inverse FFT,
//!   the microphone's non-linearity and the ADC.  Noise only has to reach
//!   the non-linearity together with the ultrasound, and everything before
//!   it is linear, so this equals in distribution adding pink ambient
//!   noise at the port and white self noise after the front end (see
//!   [`ivc_acoustics::microphone`]).
//! * **Evaluate** ([`PreparedCell::evaluate`]) — recognition, defense
//!   feature extraction and the optional trained detector.
//!
//! Prepare's products — the render, the attack build, the build's near
//! field as a half spectrum, the leakage and the noise table — are
//! memoised process-wide in [`crate::prepare_cache`].  Each is named by a
//! plain inputs struct holding exactly the fields its build reads
//! ([`UtteranceInputs`], [`AttackInputs`], [`SpectrumInputs`],
//! [`LeakageInputs`], [`NoiseInputs`]); [`CellInputs::project`] is the one
//! place a scenario is projected onto them, and no build sees a
//! [`Scenario`].
//!
//! Propagation reads the source only as half spectra
//! ([`SourceSpectrum`]): the direct path at `next_power_of_two(len)`
//! points and a room's reflections at the longer length that holds its
//! latest tap.  An attack's spectra are cached per `(build, length)`, so
//! every distance, room and the bystander of one build share two
//! transforms; a talker's path transforms its own render.  The target
//! path ([`PathInputs`]) is built, not cached: a cell reads it once, into
//! its capture spectrum.  Every transform sees the samples the
//! signal-taking propagation would and every bin gets the same
//! arithmetic, so the output is bit for bit what transforming per path
//! gave.
//!
//! The detector's training corpus ([`crate::dataset`]) is one more
//! caller of the same stages: its cells are projected by
//! [`CellInputs::project`], their paths built by [`Product::build`],
//! shaped for capture like a cell's (sharing the cells' noise tables) and
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
use crate::scenario::{Delivery, Scenario, BYSTANDER_DISTANCE_M};
use crate::telemetry;
use crate::Result;
use ivc_acoustics::adc::digitize;
use ivc_acoustics::array::SpeakerArray;
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::microphone::{CaptureScratch, DevicePreset, Microphone, NoiseShape, ShapedPath};
use ivc_acoustics::propagation::{propagate_spectrum_with_gain_curve, SourceSpectrum};
use ivc_acoustics::speaker::MAX_POWER_W;
use ivc_acoustics::spl::spl_db_to_pressure;
use ivc_attack::leakage::{leakage_from_field, LeakageReport};
use ivc_attack::multispeaker::{single_speaker_element_drives, MultiSpeakerAttack};
use ivc_attack::single::SingleSpeakerAttack;
use ivc_defense::classifier::LogisticRegression;
use ivc_defense::countermeasures::precompensated_baseband;
use ivc_defense::features::DefenseFeatures;
use ivc_dsp::fft::next_power_of_two;
use ivc_dsp::signal::Signal;
use ivc_room::propagate::{add_reflections, direct_in_room, reflections_transform_len};
use ivc_room::{RoomImpulseResponse, RoomPreset};
use ivc_speech::cache::TalkerKey;
use ivc_speech::commands::VoiceCommand;
use ivc_speech::recognizer::{EvalScratch, Recognizer};
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
        let (num_elements, total_power_w) = (self.num_elements, self.total_power_w);
        let array = SpeakerArray::new(num_elements)?;
        let (drives, shortfall_w) = if num_elements == 1 {
            let attack = SingleSpeakerAttack::build(&voice, self.carrier_hz)?;
            let placed_w = total_power_w.min(MAX_POWER_W);
            (
                single_speaker_element_drives(&attack, placed_w)?,
                total_power_w - placed_w,
            )
        } else {
            // `build` sizes the carrier element group against the budget, so
            // big arrays keep their carrier-to-sideband balance instead of
            // starving the carrier at one element's rating (the old E-A2
            // 61-element anomaly).
            let attack =
                MultiSpeakerAttack::build(&voice, self.carrier_hz, num_elements, total_power_w)?;
            let allocation = attack.allocate_power()?;
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

    /// An attack's path reads the build's shared half spectra
    /// ([`SpectrumInputs`]); a talker's transforms its own render.
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
                self.propagate(&at_1m, 0.0, |n| {
                    let _span = telemetry::span("prepare.source_spectrum");
                    Ok(Arc::new(SourceSpectrum::new(&at_1m, n)?))
                })
            }
            Source::Attack(attack) => {
                let build = prepare_cache::get(attack)?;
                self.propagate(&build.near_field_at_1m, build.aperture_m, |n| {
                    attack.spectrum(n)
                })
            }
        }
    }
}

impl PathInputs {
    /// Propagates a 1 m-referenced pressure waveform from a source of
    /// `aperture_m` to the target microphone, free field or through the
    /// room's image-source response, reading the source's half spectra
    /// from `spectrum_at` before the convolution's span opens.
    fn propagate(
        &self,
        at_1m: &Signal,
        aperture_m: f64,
        spectrum_at: impl Fn(usize) -> Result<Arc<SourceSpectrum>>,
    ) -> Result<Signal> {
        let channel = match self.room {
            None => Channel::Free {
                distance_m: self.distance_m,
                aperture_m,
            },
            Some(preset) => {
                let _span = telemetry::span("prepare.rir_build");
                Channel::Room(preset.target_rir(self.distance_m, aperture_m)?)
            }
        };
        let (direct, reflections) = channel.spectra(at_1m, &self.env, spectrum_at)?;
        let _span = telemetry::span("prepare.convolution");
        let direct = {
            let _span = telemetry::span("prepare.convolution.direct");
            channel.direct(&direct, &self.env)?
        };
        let _span = matches!(channel, Channel::Room(_))
            .then(|| telemetry::span("prepare.convolution.reflections"));
        channel.reflect(direct, reflections.as_deref(), &self.env)
    }
}

/// The channel from a source's 1 m reference to one listener.
enum Channel {
    /// The free field over `distance_m` from a source of `aperture_m`.
    Free { distance_m: f64, aperture_m: f64 },
    /// A room's image-source response.
    Room(RoomImpulseResponse),
}

impl Channel {
    /// The half spectra a propagation of `at_1m` over this channel reads,
    /// from `spectrum_at`: the direct path's, and the reflections' when
    /// the room has any.
    fn spectra(
        &self,
        at_1m: &Signal,
        env: &AirEnvironment,
        spectrum_at: impl Fn(usize) -> Result<Arc<SourceSpectrum>>,
    ) -> Result<(Arc<SourceSpectrum>, Option<Arc<SourceSpectrum>>)> {
        let (len, fs) = (at_1m.len(), at_1m.sample_rate_hz());
        let direct = spectrum_at(next_power_of_two(len))?;
        let reflections = match self {
            Channel::Free { .. } => None,
            Channel::Room(rir) => reflections_transform_len(rir, len, fs, env)
                .map(&spectrum_at)
                .transpose()?,
        };
        Ok((direct, reflections))
    }

    /// The direct path from the source's spectrum at
    /// `next_power_of_two(len)` points.
    fn direct(&self, spectrum: &SourceSpectrum, env: &AirEnvironment) -> Result<Signal> {
        Ok(match self {
            Channel::Free {
                distance_m,
                aperture_m,
            } => propagate_spectrum_with_gain_curve(spectrum, *distance_m, *aperture_m, &[], env)?,
            Channel::Room(rir) => direct_in_room(spectrum, rir, env)?,
        })
    }

    /// `direct` with the room's reflections added, from the source's
    /// spectrum at the reflections' length; the free field has none.
    fn reflect(
        &self,
        direct: Signal,
        reflections: Option<&SourceSpectrum>,
        env: &AirEnvironment,
    ) -> Result<Signal> {
        Ok(match self {
            Channel::Free { .. } => direct,
            Channel::Room(rir) => add_reflections(direct, reflections, rir, env)?,
        })
    }
}

/// Inputs of an attack build's near field as a half spectrum at one
/// transform length: what every propagation of the build reads, so a
/// sweep over distances, rooms and the bystander transforms the near
/// field once per length (`next_power_of_two(len)` for direct paths, and
/// per room the reflections' longer one).
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumInputs {
    /// The attack build whose near field is transformed.
    pub source: AttackInputs,
    /// Transform length, a power of two no shorter than the near field.
    pub transform_len: usize,
}

impl Product for SpectrumInputs {
    type Output = SourceSpectrum;
    const REUSED_COUNTER: &'static str = "prepare.source_spectrum_reused";

    fn byte_estimate(spectrum: &SourceSpectrum) -> usize {
        spectrum.byte_size() + 64
    }

    fn build(&self) -> Result<SourceSpectrum> {
        let build = prepare_cache::get(&self.source)?;
        let _span = telemetry::span("prepare.source_spectrum");
        Ok(SourceSpectrum::new(
            &build.near_field_at_1m,
            self.transform_len,
        )?)
    }
}

impl AttackInputs {
    /// The build's near field as a half spectrum of `transform_len` points,
    /// from the Prepare cache.
    fn spectrum(&self, transform_len: usize) -> Result<Arc<SourceSpectrum>> {
        prepare_cache::get(&SpectrumInputs {
            source: self.clone(),
            transform_len,
        })
    }
}

/// Inputs of the bystander's leakage report: the attack build and the
/// channel to the bystander, who stands [`BYSTANDER_DISTANCE_M`] from the
/// source.  The target distance is not here: the bystander's path depends
/// only on the room and the source, so every target distance shares one
/// leakage build.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageInputs {
    /// The emitting attack build (a point source towards the bystander).
    pub source: AttackInputs,
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

    /// Reads the build's shared half spectra, like the target path.
    fn build(&self) -> Result<LeakageReport> {
        let build = prepare_cache::get(&self.source)?;
        let near = &build.near_field_at_1m;
        let distance_m = BYSTANDER_DISTANCE_M;
        let channel = match self.room {
            None => Channel::Free {
                distance_m,
                aperture_m: 0.0,
            },
            Some(preset) => {
                let _span = telemetry::span("prepare.rir_build");
                Channel::Room(preset.bystander_rir(distance_m)?)
            }
        };
        let (direct, reflections) =
            channel.spectra(near, &self.env, |n| self.source.spectrum(n))?;
        let _span = telemetry::span("prepare.leakage");
        let direct = channel.direct(&direct, &self.env)?;
        let field = channel.reflect(direct, reflections.as_deref(), &self.env)?;
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
            preset.check_placement(scenario.distance_m, BYSTANDER_DISTANCE_M)?;
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
                num_elements: 0, ..
            } => {
                return Err("an array delivery needs at least one element".into());
            }
            Delivery::ArrayUltrasound {
                num_elements,
                total_power_w,
                carrier_hz,
            } => (num_elements, total_power_w, carrier_hz),
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
                room: scenario.room,
                env: scenario.env,
            },
            build,
        })
    }
}

/// Inputs of the noise table captures draw from: the device, the
/// transform length and rate of the paths it serves, and the ambient
/// level.  Every cell of one device and ambient level whose paths share a
/// transform shares one table.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseInputs {
    /// The capturing device.
    pub device: DevicePreset,
    /// Length of the paths' transform, a power of two.
    pub transform_len: usize,
    /// Sample rate of the paths, in Hz.
    pub sample_rate_hz: f64,
    /// Ambient room noise, in dB SPL.
    pub ambient_noise_spl_db: f64,
}

impl Product for NoiseInputs {
    type Output = NoiseShape;
    const REUSED_COUNTER: &'static str = "prepare.noise_shape_reused";

    fn byte_estimate(shape: &NoiseShape) -> usize {
        shape.byte_size() + 64
    }

    fn build(&self) -> Result<NoiseShape> {
        let _span = telemetry::span("prepare.noise_shape");
        let shape = self.device.microphone().noise_shape(
            self.transform_len,
            self.sample_rate_hz,
            Some(self.ambient_noise_spl_db),
        )?;
        telemetry::add_count("prepare.noise_table_bytes", shape.byte_size() as u64);
        Ok(shape)
    }
}

/// Prepare's capture products for one clean path: the path through the
/// microphone's front end as a spectrum, which belongs to the cell and is
/// dropped with it, and the shared noise table its captures draw from.
#[derive(Debug, Clone)]
pub(crate) struct Capture {
    path: ShapedPath,
    noise: Arc<NoiseShape>,
}

/// The capture products of `clean` on `device` at `ambient_noise_spl_db`.
/// The noise table comes from the Prepare cache, fetched outside the
/// `prepare.capture_spectra` span so its build and any wait on it keep
/// spans of their own.
pub(crate) fn shape_for_capture(
    device: DevicePreset,
    clean: &Signal,
    ambient_noise_spl_db: f64,
) -> Result<Capture> {
    let path = {
        let _span = telemetry::span("prepare.capture_spectra");
        let path = device.microphone().shape_path(clean)?;
        telemetry::add_count("prepare.capture_spectrum_bytes", path.byte_size() as u64);
        path
    };
    let noise = prepare_cache::get(&NoiseInputs {
        device,
        transform_len: path.transform_len(),
        sample_rate_hz: path.sample_rate_hz(),
        ambient_noise_spl_db,
    })?;
    Ok(Capture { path, noise })
}

/// The capture products of a cell, per talker path.
#[derive(Debug, Clone)]
enum PreparedPaths {
    /// Attack deliveries: the canonical TTS voice — one path.
    Attack(Capture),
    /// Legitimate deliveries: one path per prepared talker variant
    /// (`(variant, capture)`, sorted by variant).
    Legitimate(Vec<(usize, Capture)>),
}

/// Stage 1 of the trial pipeline: everything invariant across the trials
/// of one campaign cell, packaged immutably (see the module docs for the
/// sharing contract).
#[derive(Debug, Clone)]
pub struct PreparedCell {
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
    /// single path.  The attack build, its half spectra, the leakage and
    /// the noise tables come from (or land in) the Prepare cache under the
    /// inputs [`CellInputs::project`] names.  The target paths are built,
    /// not cached: each is read once, by its capture spectrum, which
    /// belongs to the cell alone.
    pub fn prepare(
        command: &VoiceCommand,
        scenario: &Scenario,
        seeds: &[u64],
    ) -> Result<PreparedCell> {
        let _stage = telemetry::span(telemetry::SPAN_STAGE_PREPARE);
        let shape = |path: &PathInputs| {
            shape_for_capture(
                scenario.device,
                &path.build()?,
                scenario.ambient_noise_spl_db,
            )
        };
        let (paths, leakage, power_shortfall_w) =
            match CellInputs::project(command, scenario, seeds)? {
                CellInputs::Legitimate(paths) => {
                    let paths = paths
                        .iter()
                        .map(|(variant, path)| Ok((*variant, shape(path)?)))
                        .collect::<Result<_>>()?;
                    (PreparedPaths::Legitimate(paths), None, 0.0)
                }
                CellInputs::Attack {
                    build,
                    path,
                    leakage,
                } => {
                    let shortfall_w = prepare_cache::get(&build)?.power_shortfall_w;
                    let at_port = shape(&path)?;
                    let leakage = (*prepare_cache::get(&leakage)?).clone();
                    (PreparedPaths::Attack(at_port), Some(leakage), shortfall_w)
                }
            };
        Ok(PreparedCell {
            command: command.clone(),
            microphone: scenario.device.microphone(),
            paths,
            leakage,
            power_shortfall_w,
        })
    }

    /// Stage 2: the seed-dependent perturbation — the noise draw, the
    /// microphone capture and the ADC — returning the digital recording
    /// the device's software receives for trial `seed`.
    ///
    /// `scratch` holds the capture workspaces: a worker looping over
    /// trials reuses one [`CaptureScratch`] instead of re-allocating them
    /// per call.  The output is bit-identical with a fresh or a reused
    /// scratch.
    pub fn perturb(&self, seed: u64, scratch: &mut CaptureScratch) -> Result<Signal> {
        let capture = match &self.paths {
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
        perturb_path(capture, &self.microphone, seed, scratch)
    }

    /// Stage 3: recognition, defense features and the optional trained
    /// detector, assembled into the trial's outcome.
    ///
    /// `recognizer` must have the command corpus enrolled; `seed` is
    /// echoed into [`TrialOutcome::seed`] so archives stay self-contained.
    /// `scratch` holds the recogniser's and the Welch PSD's buffers, reused
    /// across a worker's trials like [`CaptureScratch`]; the outcome is
    /// bit-identical with a fresh or a reused one.
    pub fn evaluate(
        &self,
        recording: Signal,
        seed: u64,
        recognizer: &Recognizer,
        detector: Option<&LogisticRegression>,
        scratch: &mut EvalScratch,
    ) -> Result<TrialOutcome> {
        let _stage = telemetry::span(telemetry::SPAN_STAGE_EVALUATE);
        // `Recognizer::evaluate`, split so each half gets its own span.
        let recognition_span = telemetry::span("evaluate.recognition");
        {
            let _span = telemetry::span("evaluate.recognition.front_end");
            recognizer.front_end(&recording, scratch)?;
        }
        let evaluation = {
            let _span = telemetry::span("evaluate.recognition.dtw");
            recognizer.score(self.command.id, scratch)?
        };
        drop(recognition_span);
        let word_accuracy = evaluation.word_accuracy;
        let accepted = evaluation.accepted;
        let recognized_words: Vec<String> = evaluation
            .word_recognition
            .into_iter()
            .filter(|(_, ok)| *ok)
            .map(|(word, _)| word)
            .collect();
        // `DefenseFeatures::extract`, split so each half gets its own span.
        let features_span = telemetry::span("evaluate.defense_features");
        let normalized = DefenseFeatures::normalize(&recording)?;
        let (shadow_power_ratio_db, spectral_tilt_db_per_khz) = {
            let _span = telemetry::span("evaluate.defense_features.psd");
            DefenseFeatures::psd_half(&normalized, &mut scratch.welch)?
        };
        let shadow_correlation = {
            let _span = telemetry::span("evaluate.defense_features.shadow");
            DefenseFeatures::shadow_half(&normalized)?
        };
        drop(features_span);
        let defense_features = DefenseFeatures {
            shadow_power_ratio_db,
            shadow_correlation,
            spectral_tilt_db_per_khz,
        };
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
    /// run after preparing (or being handed) the cell, reusing both arenas
    /// across trials (see [`perturb`](Self::perturb) and
    /// [`evaluate`](Self::evaluate)).
    pub fn run(
        &self,
        seed: u64,
        recognizer: &Recognizer,
        detector: Option<&LogisticRegression>,
        capture: &mut CaptureScratch,
        eval: &mut EvalScratch,
    ) -> Result<TrialOutcome> {
        let recording = self.perturb(seed, capture)?;
        self.evaluate(recording, seed, recognizer, detector, eval)
    }
}

/// The Perturb stage's body: trial `seed`'s noise bins drawn from the
/// capture's noise table, added to its path's spectrum and captured by
/// `microphone` (inverse FFT, non-linearity and ADC).
/// [`PreparedCell::perturb`] and the detector corpus both run it.
pub(crate) fn perturb_path(
    capture: &Capture,
    microphone: &Microphone,
    seed: u64,
    scratch: &mut CaptureScratch,
) -> Result<Signal> {
    let _stage = telemetry::span(telemetry::SPAN_STAGE_PERTURB);
    let path = &capture.path;
    {
        // Ambient and self noise in one draw of Gaussian bins.
        let _span = telemetry::span("perturb.ambient_noise");
        capture.noise.draw(seed, scratch);
    }
    // `Microphone::capture_shaped`, split so each step gets its own span.
    let _span = telemetry::span("perturb.mic_capture");
    let analog = {
        let _span = telemetry::span("perturb.mic_capture.front_end");
        let synthesized = {
            let _span = telemetry::span("perturb.mic_capture.front_end.synthesis");
            microphone.front_end_synthesis(path, scratch)?
        };
        let _span = telemetry::span("perturb.mic_capture.front_end.nonlinearity");
        microphone.front_end_nonlinearity(synthesized)
    };
    let recording = {
        let _span = telemetry::span("perturb.mic_capture.adc");
        digitize(&analog, microphone.adc_noise_floor_dbfs, seed)
    };
    scratch.recycle(analog);
    Ok(recording?)
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
        let mut scratch = CaptureScratch::new();
        let mut eval = EvalScratch::new();
        for seed in [1u64, 2] {
            let staged = prepared
                .run(seed, &recognizer, None, &mut scratch, &mut eval)
                .unwrap();
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
        let mut scratch = CaptureScratch::new();
        let mut eval = EvalScratch::new();
        let mut outcome = |delivery: Delivery| {
            let scenario = quick_scenario(delivery);
            PreparedCell::prepare(command, &scenario, &[7])
                .unwrap()
                .run(7, &recognizer, None, &mut scratch, &mut eval)
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
        let mut scratch = CaptureScratch::new();
        let mut eval = EvalScratch::new();
        let a = prepared
            .run(3, &recognizer, None, &mut scratch, &mut eval)
            .unwrap();
        let b = prepared
            .run(
                3 + NUM_TALKER_VARIANTS as u64,
                &recognizer,
                None,
                &mut scratch,
                &mut eval,
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
        // An array of no elements is refused.
        let empty_array = quick_scenario(Delivery::ArrayUltrasound {
            num_elements: 0,
            total_power_w: 60.0,
            carrier_hz: 40_000.0,
        });
        let err = PreparedCell::prepare(command, &empty_array, &[1]).unwrap_err();
        assert!(err.to_string().contains("at least one element"), "{err}");
    }

    #[test]
    fn shadow_suppression_changes_the_attack_but_not_the_legit_path() {
        let recognizer = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        let mut scratch = CaptureScratch::new();
        let mut eval = EvalScratch::new();
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
            .run(1, &recognizer, None, &mut scratch, &mut eval)
            .unwrap();
        let suppressed = PreparedCell::prepare(command, &adaptive, &[1])
            .unwrap()
            .run(1, &recognizer, None, &mut scratch, &mut eval)
            .unwrap();
        assert_ne!(plain.recording.samples(), suppressed.recording.samples());
        // Suppression shrinks the shadow feature the detector keys on.
        assert!(
            suppressed.defense_features.shadow_correlation
                < plain.defense_features.shadow_correlation
        );
    }

    fn bits(signal: &Signal) -> Vec<u64> {
        let mut bits = vec![signal.sample_rate_hz().to_bits()];
        bits.extend(signal.samples().iter().map(|x| x.to_bits()));
        bits
    }

    /// The shared-spectrum paths against the signal-taking wrappers, which
    /// transform the source themselves: free field, an order-2 and an
    /// order-3 room, a single speaker, a 16-element array and a talker.
    #[test]
    fn propagation_from_shared_spectra_is_bit_identical_to_the_signal_path() {
        use ivc_acoustics::propagation::{propagate, propagate_from_aperture};
        use ivc_room::propagate_in_room;
        let env = AirEnvironment::default();
        let distance_m = 2.0;
        let command = corpus()[0].clone();
        let rooms = [
            None,
            Some(RoomPreset::Office),
            Some(RoomPreset::ConferenceRoom),
        ];
        let mut longer_reflections = false;
        for num_elements in [1, 16] {
            let attack = AttackInputs {
                voice: UtteranceInputs {
                    command: command.clone(),
                    talker: TalkerKey::Canonical,
                },
                max_voice_duration_s: 0.25,
                shadow_suppression: 0.0,
                num_elements,
                total_power_w: 20.0,
                carrier_hz: 40_000.0,
            };
            let build = prepare_cache::get(&attack).unwrap();
            let (near, aperture_m) = (&build.near_field_at_1m, build.aperture_m);
            for room in rooms {
                let path = PathInputs {
                    source: Source::Attack(attack.clone()),
                    distance_m,
                    room,
                    env,
                };
                let (signal_path, bystander) = match room {
                    None => (
                        propagate_from_aperture(near, distance_m, aperture_m, &env).unwrap(),
                        propagate(near, BYSTANDER_DISTANCE_M, &env).unwrap(),
                    ),
                    Some(preset) => {
                        let rir = preset.target_rir(distance_m, aperture_m).unwrap();
                        let n = reflections_transform_len(
                            &rir,
                            near.len(),
                            near.sample_rate_hz(),
                            &env,
                        );
                        longer_reflections |= n > Some(next_power_of_two(near.len()));
                        let bystander_rir = preset.bystander_rir(BYSTANDER_DISTANCE_M).unwrap();
                        (
                            propagate_in_room(near, &rir, &env).unwrap(),
                            propagate_in_room(near, &bystander_rir, &env).unwrap(),
                        )
                    }
                };
                let label = format!("{num_elements} elements, {room:?}");
                assert_eq!(bits(&path.build().unwrap()), bits(&signal_path), "{label}");
                let leakage = LeakageInputs {
                    source: attack.clone(),
                    room,
                    env,
                };
                let expected = leakage_from_field(&bystander, BYSTANDER_DISTANCE_M, 0.0).unwrap();
                assert_eq!(
                    format!("{:?}", leakage.build().unwrap()),
                    format!("{expected:?}"),
                    "{label}"
                );
            }
        }
        // Some room read the near field at a longer transform than the
        // direct path, so the shared spectrum served two lengths.
        assert!(longer_reflections);

        let voice = UtteranceInputs {
            command,
            talker: TalkerKey::Variant(3),
        };
        for room in rooms {
            let path = PathInputs {
                source: Source::Talker {
                    voice: voice.clone(),
                    max_voice_duration_s: 0.25,
                    talker_spl_db: 65.0,
                },
                distance_m,
                room,
                env,
            };
            let render = voice.voice(0.25).unwrap();
            let at_1m = render.scaled(spl_db_to_pressure(65.0) / render.rms().max(1e-12));
            let signal_path = match room {
                None => propagate(&at_1m, distance_m, &env).unwrap(),
                Some(preset) => {
                    let rir = preset.target_rir(distance_m, 0.0).unwrap();
                    propagate_in_room(&at_1m, &rir, &env).unwrap()
                }
            };
            assert_eq!(
                bits(&path.build().unwrap()),
                bits(&signal_path),
                "talker, {room:?}"
            );
        }
    }

    #[test]
    fn noise_tables_are_keyed_on_device_length_rate_and_ambient_level() {
        prepare_cache::set_enabled(true);
        let base = NoiseInputs {
            device: DevicePreset::AndroidPhone,
            transform_len: 1 << 12,
            sample_rate_hz: 48_000.0,
            ambient_noise_spl_db: 40.0,
        };
        let table = prepare_cache::get(&base).unwrap();
        // Equal inputs share one table.
        assert!(Arc::ptr_eq(
            &table,
            &prepare_cache::get(&base.clone()).unwrap()
        ));
        let changed = [
            NoiseInputs {
                device: DevicePreset::AmazonEcho,
                ..base.clone()
            },
            NoiseInputs {
                transform_len: 1 << 13,
                ..base.clone()
            },
            NoiseInputs {
                sample_rate_hz: 192_000.0,
                ..base.clone()
            },
            NoiseInputs {
                ambient_noise_spl_db: 50.0,
                ..base.clone()
            },
        ];
        for inputs in changed {
            assert_ne!(*prepare_cache::get(&inputs).unwrap(), *table, "{inputs:?}");
        }
    }
}
