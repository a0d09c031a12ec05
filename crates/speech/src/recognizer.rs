//! The template-matching recogniser that stands in for Google Assistant /
//! Alexa in the evaluation.
//!
//! Templates are the corpus commands rendered by the canonical synthetic
//! speaker; a recording is accepted when its MFCC sequence DTW-aligns to a
//! template with a small normalised distance, and per-word accuracy is the
//! fraction of the template's words whose aligned path cost stays below a
//! threshold.  The recogniser is intentionally simple — what matters is that
//! its accuracy *degrades monotonically* with band-limiting, distortion and
//! noise, mirroring a production recogniser's behaviour across the attack
//! distance sweep.
//!
//! A recording is scored in two halves: the [front end](Recognizer::front_end)
//! resamples it to the 16 kHz analysis rate, trims it to the detected
//! speech, normalises its level and extracts MFCC frames with the tables
//! the recogniser built once; [scoring](Recognizer::score) aligns those
//! frames with every template and reads the verdicts.  Both work in an
//! [`EvalScratch`] a worker keeps across trials, so a trial allocates no
//! per-template or per-frame buffers.

use std::borrow::Cow;
use std::ops::Range;

use crate::commands::{corpus, CommandId, VoiceCommand};
use crate::dtw::{align, by_dimension, cost_matrix, mean_cost_in_template_range, PathStep};
use crate::mfcc::{frame_at_time, MfccScratch, MfccTables, FRAME_DIMENSION};
use crate::synthesis::{SpeakerProfile, Synthesizer, Utterance};
use crate::vad::detect_speech;
use ivc_dsp::resample::resample;
use ivc_dsp::signal::Signal;
use ivc_dsp::spectrum::WelchScratch;
use ivc_dsp::{DspError, Result};

/// Internal analysis rate; recordings are resampled to this before
/// feature extraction.
const ANALYSIS_RATE_HZ: f64 = 16_000.0;
/// Mean per-frame DTW distance below which a word counts as recognised.
const WORD_DISTANCE_THRESHOLD: f64 = 11.0;
/// Overall normalised distance above which a recording is rejected
/// outright (treated as "not a known command").
const REJECTION_DISTANCE: f64 = 14.0;
/// Minimum fraction of words that must be recognised for the command to
/// count as accepted end-to-end (the wake word plus most of the payload).
const ACCEPTANCE_WORD_FRACTION: f64 = 0.6;
/// Seconds of context kept around the detected speech when trimming.
const TRIM_MARGIN_S: f64 = 0.05;

/// The error of a query against a recogniser with no template for it.
fn no_templates() -> DspError {
    DspError::invalid("templates", "recogniser has no enrolled command templates")
}

/// A command template: features plus per-word frame ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandTemplate {
    /// The command this template renders.
    pub command: VoiceCommand,
    /// MFCC frames, flat ([`FRAME_DIMENSION`] values per frame).
    frames: Vec<f64>,
    /// `(start_frame, end_frame)` for each word.
    word_frame_ranges: Vec<(usize, usize)>,
}

/// Outcome of recognising one recording.
#[derive(Debug, Clone, PartialEq)]
pub struct RecognitionOutcome {
    /// The best-matching command, or `None` if every template was rejected.
    pub command: Option<CommandId>,
    /// Normalised DTW distance to the best template.
    pub best_distance: f64,
    /// Normalised DTW distance to the runner-up template.
    pub second_distance: f64,
    /// Fraction of the best template's words recognised.
    pub word_accuracy: f64,
}

/// Everything a trial needs from the recogniser about one recording,
/// measured against one expected command — computed from a single prepared
/// query (see [`Recognizer::evaluate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialEvaluation {
    /// Open-set recognition against every enrolled template.
    pub outcome: RecognitionOutcome,
    /// Per-word `(word, recognised)` verdicts against the expected
    /// command's template, in word order.
    pub word_recognition: Vec<(String, bool)>,
    /// Recognised fraction of `word_recognition`.
    pub word_accuracy: f64,
    /// The end-to-end acceptance verdict — **the** acceptance rule (the
    /// expected command must win recognition and enough of its words must
    /// be intelligible).
    pub accepted: bool,
}

/// The Evaluate stage's reusable buffers, one per worker next to the
/// capture's: the recogniser's prepared query, MFCC work buffers, the query
/// frames and their dimension-major copy, one cost and one accumulator
/// matrix, every template's optimal path, and the Welch PSD buffers the
/// defense features use.  Buffers grow on first use and are then reused;
/// results are bit-identical with a fresh or a reused scratch.
#[derive(Debug, Default)]
pub struct EvalScratch {
    prepared: Vec<f64>,
    mfcc: MfccScratch,
    query: Vec<f64>,
    query_by_dimension: Vec<f64>,
    costs: Vec<f64>,
    acc: Vec<f64>,
    paths: Vec<PathStep>,
    /// The window, frame and spectrum of the defense features' Welch PSD.
    pub welch: WelchScratch,
}

impl EvalScratch {
    /// An empty arena.
    pub fn new() -> Self {
        EvalScratch::default()
    }
}

/// The template-matching recogniser.
#[derive(Debug, Clone, PartialEq)]
pub struct Recognizer {
    tables: MfccTables,
    templates: Vec<CommandTemplate>,
}

impl Default for Recognizer {
    fn default() -> Self {
        Recognizer::new()
    }
}

impl Recognizer {
    /// Creates an empty recogniser.
    pub fn new() -> Self {
        Recognizer {
            tables: MfccTables::new(ANALYSIS_RATE_HZ)
                .expect("the analysis rate holds a 25 ms frame"),
            templates: Vec::new(),
        }
    }

    /// Creates a recogniser pre-enrolled with the full command corpus,
    /// rendered by the canonical speaker.
    pub fn with_default_corpus() -> Result<Self> {
        let mut recognizer = Recognizer::new();
        let synth = Synthesizer::new(48_000.0)?;
        for command in corpus() {
            let utterance = synth.render(&command, &SpeakerProfile::canonical())?;
            recognizer.enroll(&utterance, command)?;
        }
        Ok(recognizer)
    }

    /// Number of enrolled templates.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Enrolls `utterance` as the template for `command`.
    pub fn enroll(&mut self, utterance: &Utterance, command: VoiceCommand) -> Result<()> {
        if utterance.word_boundaries.len() != command.num_words() {
            return Err(DspError::invalid(
                "utterance",
                "word boundary count does not match the command's word count",
            ));
        }
        let mut prepared = Vec::new();
        let trim_offset = self.prepare_into(&utterance.signal, &mut prepared)?;
        let mut frames = Vec::new();
        let n = self
            .tables
            .extract_into(&prepared, &mut MfccScratch::default(), &mut frames)?;
        // Word boundaries are expressed in the original signal's time base;
        // preparation trims leading silence, so shift accordingly.
        let word_frame_ranges = utterance
            .word_boundaries
            .iter()
            .map(|b| {
                let start = frame_at_time(n, (b.start_s - trim_offset).max(0.0));
                let end = frame_at_time(n, (b.end_s - trim_offset).max(0.0)).max(start + 1);
                (start, end)
            })
            .collect();
        self.templates.push(CommandTemplate {
            command,
            frames,
            word_frame_ranges,
        });
        Ok(())
    }

    /// Recognition, per-word verdicts and the acceptance rule from **one**
    /// prepared query: the [front end](Self::front_end) then
    /// [scoring](Self::score).  This is what the trial pipeline (and
    /// therefore every campaign trial) runs.
    pub fn evaluate(
        &self,
        recording: &Signal,
        expected: CommandId,
        scratch: &mut EvalScratch,
    ) -> Result<TrialEvaluation> {
        if self.templates.is_empty() {
            return Err(no_templates());
        }
        self.front_end(recording, scratch)?;
        self.score(expected, scratch)
    }

    /// The front-end half of [`evaluate`](Self::evaluate): resamples
    /// `recording` to the analysis rate, trims it to the detected speech,
    /// normalises its level and extracts its MFCC frames into `scratch`
    /// as the query [`score`](Self::score) reads.
    pub fn front_end(&self, recording: &Signal, scratch: &mut EvalScratch) -> Result<()> {
        self.prepare_into(recording, &mut scratch.prepared)?;
        self.tables
            .extract_into(&scratch.prepared, &mut scratch.mfcc, &mut scratch.query)?;
        by_dimension(
            &scratch.query,
            FRAME_DIMENSION,
            &mut scratch.query_by_dimension,
        );
        Ok(())
    }

    /// The scoring half of [`evaluate`](Self::evaluate): aligns the query
    /// the last [`front_end`](Self::front_end) left in `scratch` with every
    /// template, recognises the closest one and reads the per-word verdicts
    /// of the closest and of `expected`'s template.
    pub fn score(&self, expected: CommandId, scratch: &mut EvalScratch) -> Result<TrialEvaluation> {
        if self.templates.is_empty() {
            return Err(no_templates());
        }
        let EvalScratch {
            query_by_dimension,
            costs,
            acc,
            paths,
            ..
        } = scratch;
        let m = query_by_dimension.len() / FRAME_DIMENSION;
        paths.clear();
        // The first template with the smallest distance wins (the order a
        // stable sort by distance gives); the runner-up distance is the
        // smallest among the rest.
        let mut best: Option<(usize, f64, Range<usize>)> = None;
        let mut second_distance = f64::INFINITY;
        let mut expected_path = None;
        for (idx, template) in self.templates.iter().enumerate() {
            cost_matrix(&template.frames, query_by_dimension, FRAME_DIMENSION, costs);
            let start = paths.len();
            let total = align(costs, m, acc, paths)?;
            let path = start..paths.len();
            let distance = total / path.len() as f64;
            if template.command.id == expected {
                expected_path = Some((idx, path.clone()));
            }
            match &best {
                Some((_, best_distance, _)) if !(distance < *best_distance) => {
                    second_distance = second_distance.min(distance);
                }
                _ => {
                    if let Some((_, previous, _)) = best.replace((idx, distance, path)) {
                        second_distance = previous;
                    }
                }
            }
        }
        let (best_idx, best_distance, best_path) = best.expect("at least one template");
        let best_template = &self.templates[best_idx];
        let recognized = word_verdicts(best_template, &paths[best_path])
            .filter(|(_, ok)| *ok)
            .count();
        let outcome = RecognitionOutcome {
            command: (best_distance <= REJECTION_DISTANCE).then_some(best_template.command.id),
            best_distance,
            second_distance,
            word_accuracy: fraction(recognized, best_template.word_frame_ranges.len()),
        };
        // `None` here means `expected` is not enrolled.
        let (expected_idx, expected_path) = expected_path.ok_or_else(no_templates)?;
        let template = &self.templates[expected_idx];
        let word_recognition: Vec<(String, bool)> = word_verdicts(template, &paths[expected_path])
            .map(|(word, ok)| (word.to_string(), ok))
            .collect();
        let recognized = word_recognition.iter().filter(|(_, ok)| *ok).count();
        let word_accuracy = fraction(recognized, word_recognition.len());
        let accepted =
            outcome.command == Some(expected) && word_accuracy >= ACCEPTANCE_WORD_FRACTION;
        Ok(TrialEvaluation {
            outcome,
            word_recognition,
            word_accuracy,
            accepted,
        })
    }

    /// Resamples `signal` to the analysis rate, trims it to the detected
    /// speech (with [`TRIM_MARGIN_S`] either side) and normalises its DC
    /// and peak level into `out` — the same preparation for templates and
    /// queries.  Returns the seconds trimmed from the start.
    fn prepare_into(&self, signal: &Signal, out: &mut Vec<f64>) -> Result<f64> {
        if signal.is_empty() {
            return Err(DspError::invalid("recording", "empty signal"));
        }
        let analysis = to_analysis_rate(signal)?;
        let regions = detect_speech(&analysis)?;
        let (range, leading_trim_s) = match (regions.first(), regions.last()) {
            (Some(first), Some(last)) => {
                let start_s = (first.start_s - TRIM_MARGIN_S).max(0.0);
                let end_s = (last.end_s + TRIM_MARGIN_S).min(analysis.duration_s());
                (analysis.seconds_range(start_s, end_s), start_s)
            }
            _ => (0..analysis.len(), 0.0),
        };
        out.clear();
        out.extend_from_slice(&analysis.samples()[range]);
        // `Signal`'s own level steps, on the reused buffer.
        let mut normalised = Signal::new(std::mem::take(out), ANALYSIS_RATE_HZ)?;
        normalised.remove_dc();
        normalised.normalize_peak(0.5);
        *out = normalised.into_samples();
        Ok(leading_trim_s)
    }
}

/// The `(word, recognised)` verdicts of `template`'s words along `path`,
/// its optimal path against a query: a word is recognised when the mean
/// cost of its frames' path cells stays within the threshold.
fn word_verdicts<'a>(
    template: &'a CommandTemplate,
    path: &'a [PathStep],
) -> impl Iterator<Item = (&'static str, bool)> + 'a {
    template
        .word_frame_ranges
        .iter()
        .zip(template.command.words.iter())
        .map(move |((start, end), (word, _))| {
            let recognized = mean_cost_in_template_range(path, *start, *end)
                .map(|d| d <= WORD_DISTANCE_THRESHOLD)
                .unwrap_or(false);
            (*word, recognized)
        })
}

/// `recognized` of `total` as a fraction (0 when there are no words).
fn fraction(recognized: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    recognized as f64 / total as f64
}

/// `signal` at [`ANALYSIS_RATE_HZ`], resampled only if it is not already.
fn to_analysis_rate(signal: &Signal) -> Result<Cow<'_, Signal>> {
    if (signal.sample_rate_hz() - ANALYSIS_RATE_HZ).abs() > 1e-6 {
        Ok(Cow::Owned(resample(signal, ANALYSIS_RATE_HZ)?))
    } else {
        Ok(Cow::Borrowed(signal))
    }
}

/// The recogniser the tables, flat buffers and scratch replaced: per-call
/// MFCC, nested cost matrices and backpointer DTW, with its own templates.
/// Kept as the oracle [`Recognizer::evaluate`] is checked against bit for
/// bit.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::dtw::reference::{align_with_costs, cost_matrix, DtwAlignment};
    use crate::mfcc::reference::mfcc;

    /// A template: one MFCC vector per frame plus per-word frame ranges.
    pub(super) struct Template {
        pub command: VoiceCommand,
        pub frames: Vec<Vec<f64>>,
        pub word_frame_ranges: Vec<(usize, usize)>,
    }

    /// The reference recogniser.
    #[derive(Default)]
    pub(super) struct Recognizer {
        pub templates: Vec<Template>,
    }

    impl Recognizer {
        /// The full command corpus, rendered by the canonical speaker.
        pub fn with_default_corpus() -> Result<Self> {
            let mut recognizer = Recognizer::default();
            let synth = Synthesizer::new(48_000.0)?;
            for command in corpus() {
                let utterance = synth.render(&command, &SpeakerProfile::canonical())?;
                recognizer.enroll(&utterance, command)?;
            }
            Ok(recognizer)
        }

        fn enroll(&mut self, utterance: &Utterance, command: VoiceCommand) -> Result<()> {
            let frames = mfcc(&prepare(&utterance.signal)?)?;
            let trim_offset = leading_trim_s(&utterance.signal)?;
            let frame_at = |time_s: f64| crate::mfcc::frame_at_time(frames.len(), time_s);
            let word_frame_ranges = utterance
                .word_boundaries
                .iter()
                .map(|b| {
                    let start = frame_at((b.start_s - trim_offset).max(0.0));
                    let end = frame_at((b.end_s - trim_offset).max(0.0)).max(start + 1);
                    (start, end)
                })
                .collect();
            self.templates.push(Template {
                command,
                frames,
                word_frame_ranges,
            });
            Ok(())
        }

        fn recognize_with_flags(
            &self,
            recording: &Signal,
            expected: Option<CommandId>,
        ) -> Result<(RecognitionOutcome, Option<Vec<(String, bool)>>)> {
            if self.templates.is_empty() {
                return Err(no_templates());
            }
            let query = mfcc(&prepare(recording)?)?;
            let mut scored: Vec<(usize, f64, f64)> = Vec::new();
            let mut expected_flags: Option<Vec<(String, bool)>> = None;
            for (idx, template) in self.templates.iter().enumerate() {
                let costs = cost_matrix(&template.frames, &query);
                let alignment = align_with_costs(&costs)?;
                let flags = per_word_recognition(template, &alignment, &costs);
                if expected == Some(template.command.id) {
                    expected_flags = Some(flags.clone());
                }
                scored.push((
                    idx,
                    alignment.normalized_distance,
                    fraction_recognized(&flags),
                ));
            }
            scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let best = scored[0];
            let second_distance = scored.get(1).map(|s| s.1).unwrap_or(f64::INFINITY);
            let accepted = best.1 <= REJECTION_DISTANCE;
            let outcome = RecognitionOutcome {
                command: accepted.then(|| self.templates[best.0].command.id),
                best_distance: best.1,
                second_distance,
                word_accuracy: best.2,
            };
            Ok((outcome, expected_flags))
        }

        pub fn evaluate(&self, recording: &Signal, expected: CommandId) -> Result<TrialEvaluation> {
            let (outcome, expected_flags) = self.recognize_with_flags(recording, Some(expected))?;
            let word_recognition = expected_flags.ok_or_else(no_templates)?;
            let word_accuracy = fraction_recognized(&word_recognition);
            let accepted =
                outcome.command == Some(expected) && word_accuracy >= ACCEPTANCE_WORD_FRACTION;
            Ok(TrialEvaluation {
                outcome,
                word_recognition,
                word_accuracy,
                accepted,
            })
        }
    }

    fn fraction_recognized(flags: &[(String, bool)]) -> f64 {
        if flags.is_empty() {
            return 0.0;
        }
        flags.iter().filter(|(_, recognized)| *recognized).count() as f64 / flags.len() as f64
    }

    fn per_word_recognition(
        template: &Template,
        alignment: &DtwAlignment,
        costs: &[Vec<f64>],
    ) -> Vec<(String, bool)> {
        template
            .word_frame_ranges
            .iter()
            .zip(template.command.words.iter())
            .map(|((start, end), (word, _))| {
                let recognized = alignment
                    .mean_distance_in_template_range(*start, *end, costs)
                    .map(|d| d <= WORD_DISTANCE_THRESHOLD)
                    .unwrap_or(false);
                (word.to_string(), recognized)
            })
            .collect()
    }

    fn prepare(signal: &Signal) -> Result<Signal> {
        if signal.is_empty() {
            return Err(DspError::invalid("recording", "empty signal"));
        }
        let mut normalised = trim_to_speech(&to_analysis_rate(signal)?)?;
        normalised.remove_dc();
        normalised.normalize_peak(0.5);
        Ok(normalised)
    }

    fn trim_to_speech(signal: &Signal) -> Result<Signal> {
        let regions = detect_speech(signal)?;
        if regions.is_empty() {
            return Ok(signal.clone());
        }
        let start = regions.first().unwrap().start_s;
        let end = regions.last().unwrap().end_s;
        Ok(signal.slice_seconds(
            (start - 0.05).max(0.0),
            (end + 0.05).min(signal.duration_s()),
        ))
    }

    fn leading_trim_s(signal: &Signal) -> Result<f64> {
        let regions = detect_speech(&to_analysis_rate(signal)?)?;
        Ok(regions
            .first()
            .map(|r| (r.start_s - 0.05).max(0.0))
            .unwrap_or(0.0))
    }

    fn to_analysis_rate(signal: &Signal) -> Result<Signal> {
        if (signal.sample_rate_hz() - ANALYSIS_RATE_HZ).abs() > 1e-6 {
            Ok(resample(signal, ANALYSIS_RATE_HZ)?)
        } else {
            Ok(signal.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Recognizer {
        /// Per-word recognition verdicts of `recording` against the template
        /// for `expected`, from a pass of its own: the reference
        /// [`Recognizer::evaluate`]'s shared pass is checked against.
        fn word_recognition(
            &self,
            recording: &Signal,
            expected: CommandId,
        ) -> Result<Vec<(String, bool)>> {
            let template = self
                .templates
                .iter()
                .find(|t| t.command.id == expected)
                .ok_or_else(no_templates)?;
            let mut scratch = EvalScratch::new();
            self.front_end(recording, &mut scratch)?;
            let mut costs = Vec::new();
            cost_matrix(
                &template.frames,
                &scratch.query_by_dimension,
                FRAME_DIMENSION,
                &mut costs,
            );
            let mut path = Vec::new();
            let m = scratch.query.len() / FRAME_DIMENSION;
            align(&costs, m, &mut Vec::new(), &mut path)?;
            Ok(word_verdicts(template, &path)
                .map(|(word, ok)| (word.to_string(), ok))
                .collect())
        }

        /// [`Recognizer::evaluate`] with a fresh scratch.
        fn evaluate_fresh(
            &self,
            recording: &Signal,
            expected: CommandId,
        ) -> Result<TrialEvaluation> {
            self.evaluate(recording, expected, &mut EvalScratch::new())
        }
    }

    fn noisy(signal: &Signal, rms: f64, seed: u64) -> Signal {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise: Vec<f64> = (0..signal.len())
            .map(|_| rng.gen_range(-1.0..1.0) * rms)
            .collect();
        let mut out = signal.clone();
        for (s, n) in out.samples_mut().iter_mut().zip(noise.iter()) {
            *s += n;
        }
        out
    }

    #[test]
    fn empty_recogniser_rejects_queries() {
        let r = Recognizer::new();
        let s = Signal::tone(440.0, 0.5, 0.5, 16_000.0).unwrap();
        let err = r.evaluate_fresh(&s, CommandId(0)).unwrap_err();
        assert!(err.to_string().contains("templates"), "{err}");
        assert_eq!(r.num_templates(), 0);
        // Scoring alone refuses too, before it reads the (empty) query.
        let err = r.score(CommandId(0), &mut EvalScratch::new()).unwrap_err();
        assert!(err.to_string().contains("templates"), "{err}");
    }

    #[test]
    fn clean_template_playback_is_recognised_with_full_word_accuracy() {
        let r = Recognizer::with_default_corpus().unwrap();
        assert_eq!(r.num_templates(), corpus().len());
        let synth = Synthesizer::new(48_000.0).unwrap();
        for command in corpus().iter().take(3) {
            let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
            let evaluation = r.evaluate_fresh(&utt.signal, command.id).unwrap();
            let outcome = &evaluation.outcome;
            assert_eq!(
                outcome.command,
                Some(command.id),
                "command {}",
                command.text
            );
            assert!(
                outcome.word_accuracy > 0.99,
                "accuracy {}",
                outcome.word_accuracy
            );
            assert!(evaluation.accepted);
        }
    }

    #[test]
    fn commands_are_not_confused_with_each_other() {
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let commands = corpus();
        let utt = synth
            .render(&commands[1], &SpeakerProfile::canonical())
            .unwrap();
        // The Alexa shopping-list command must not be accepted as the
        // camera command.
        assert!(
            !r.evaluate_fresh(&utt.signal, commands[0].id)
                .unwrap()
                .accepted
        );
    }

    #[test]
    fn moderate_noise_degrades_but_does_not_destroy_recognition() {
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[0];
        let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let slightly_noisy = noisy(&utt.signal, 0.01, 1);
        let acc_clean = r
            .evaluate_fresh(&utt.signal, command.id)
            .unwrap()
            .word_accuracy;
        let acc_noisy = r
            .evaluate_fresh(&slightly_noisy, command.id)
            .unwrap()
            .word_accuracy;
        assert!(acc_clean >= acc_noisy - 1e-9);
        assert!(acc_noisy > 0.5, "accuracy {acc_noisy}");
    }

    #[test]
    fn heavy_noise_is_rejected() {
        let r = Recognizer::with_default_corpus().unwrap();
        let command = &corpus()[0];
        // Pure noise, no speech at all.
        let noise = noisy(&Signal::silence(2.0, 48_000.0).unwrap(), 0.3, 2);
        let evaluation = r.evaluate_fresh(&noise, command.id).unwrap();
        let acc = evaluation.word_accuracy;
        assert!(acc < 0.4, "accuracy {acc}");
        assert!(!evaluation.accepted);
    }

    #[test]
    fn level_invariance() {
        // The recogniser normalises level, so a quiet recording of the right
        // command is still accepted (this models the tiny demodulated
        // amplitude of an attack recording).
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[2];
        let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let quiet = utt.signal.scaled(0.002);
        assert!(r.evaluate_fresh(&quiet, command.id).unwrap().accepted);
    }

    #[test]
    fn word_recognition_lists_words_and_matches_accuracy() {
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[0];
        let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let evaluation = r.evaluate_fresh(&utt.signal, command.id).unwrap();
        let flags = &evaluation.word_recognition;
        assert_eq!(flags.len(), command.num_words());
        // The words come back in command order.
        for (flag, (word, _)) in flags.iter().zip(command.words.iter()) {
            assert_eq!(flag.0, *word);
        }
        // A clean rendition recognises every word, and the accuracy is
        // exactly the recognised fraction.
        assert!(flags.iter().all(|(_, ok)| *ok));
        let accuracy = evaluation.word_accuracy;
        let fraction = flags.iter().filter(|(_, ok)| *ok).count() as f64 / flags.len() as f64;
        assert_eq!(accuracy, fraction);
        // Pure noise recognises (essentially) nothing.
        let noise = noisy(&Signal::silence(1.5, 48_000.0).unwrap(), 0.3, 7);
        let noise_flags = r
            .evaluate_fresh(&noise, command.id)
            .unwrap()
            .word_recognition;
        assert!(noise_flags.iter().filter(|(_, ok)| *ok).count() <= 1);
    }

    #[test]
    fn evaluate_agrees_with_the_separate_passes() {
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[1];
        let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let evaluation = r.evaluate_fresh(&utt.signal, command.id).unwrap();
        let flags = r.word_recognition(&utt.signal, command.id).unwrap();
        assert_eq!(evaluation.word_recognition, flags);
        let recognized = flags.iter().filter(|(_, ok)| *ok).count();
        assert_eq!(evaluation.word_accuracy, fraction(recognized, flags.len()));
        assert!(evaluation.accepted);
        // Evaluating against a different expected command flips acceptance
        // but keeps the open-set outcome.
        let other = r.evaluate_fresh(&utt.signal, corpus()[0].id).unwrap();
        assert!(!other.accepted);
        assert_eq!(other.outcome, evaluation.outcome);
        // An unenrolled command id is an error.
        assert!(r.evaluate_fresh(&utt.signal, CommandId(999)).is_err());
        // The two halves compose to `evaluate`.
        let mut scratch = EvalScratch::new();
        r.front_end(&utt.signal, &mut scratch).unwrap();
        assert_eq!(r.score(command.id, &mut scratch).unwrap(), evaluation);
    }

    #[test]
    fn enrollment_validates_word_boundaries() {
        let mut r = Recognizer::new();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let commands = corpus();
        let utt = synth
            .render(&commands[0], &SpeakerProfile::canonical())
            .unwrap();
        // Enrolling with a mismatched command (different word count) fails.
        assert!(r.enroll(&utt, commands[1].clone()).is_err());
        assert!(r.enroll(&utt, commands[0].clone()).is_ok());
        assert_eq!(r.num_templates(), 1);
    }

    #[test]
    fn evaluate_matches_the_reference_bit_for_bit() {
        let r = Recognizer::with_default_corpus().unwrap();
        let old = reference::Recognizer::with_default_corpus().unwrap();
        // Enrollment resamples and runs the detector once, and gives the
        // same frames and word ranges.
        assert_eq!(r.templates.len(), old.templates.len());
        for (new, old) in r.templates.iter().zip(&old.templates) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&new.frames), bits(&old.frames.concat()));
            assert_eq!(new.word_frame_ranges, old.word_frame_ranges);
        }

        let synth = Synthesizer::new(48_000.0).unwrap();
        let commands = corpus();
        let first = synth
            .render(&commands[0], &SpeakerProfile::canonical())
            .unwrap()
            .signal;
        // Long queries first, so the one reused scratch must shrink.
        let mut recordings: Vec<(Signal, CommandId)> = Vec::new();
        for command in &commands {
            for variant in 0..8 {
                let utt = synth
                    .render(command, &SpeakerProfile::variant(variant))
                    .unwrap();
                recordings.push((utt.signal, command.id));
            }
        }
        for (i, rms) in [0.001, 0.01, 0.05, 0.2].into_iter().enumerate() {
            recordings.push((noisy(&first, rms, 10 + i as u64), commands[0].id));
        }
        recordings.push((first.scaled(0.002), commands[0].id));
        recordings.push((
            noisy(&Signal::silence(2.0, 48_000.0).unwrap(), 0.3, 3),
            commands[1].id,
        ));
        let at_16k = Synthesizer::new(16_000.0)
            .unwrap()
            .render(&commands[2], &SpeakerProfile::variant(5))
            .unwrap()
            .signal;
        recordings.push((at_16k, commands[2].id));
        // One 25 ms analysis frame after resampling.
        recordings.push((first.slice_seconds(0.3, 0.31), commands[0].id));

        let mut scratch = EvalScratch::new();
        for (index, (recording, expected)) in recordings.iter().enumerate() {
            let new = r.evaluate(recording, *expected, &mut scratch).unwrap();
            let old = old.evaluate(recording, *expected).unwrap();
            let (a, b) = (&new.outcome, &old.outcome);
            assert_eq!(
                a.best_distance.to_bits(),
                b.best_distance.to_bits(),
                "recording {index}"
            );
            assert_eq!(
                a.second_distance.to_bits(),
                b.second_distance.to_bits(),
                "recording {index}"
            );
            assert_eq!(new, old, "recording {index}");
        }
        let one_frame = &recordings.last().unwrap().0;
        r.front_end(one_frame, &mut scratch).unwrap();
        assert_eq!(scratch.query.len(), FRAME_DIMENSION);
    }
}
