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

use crate::commands::{corpus, CommandId, VoiceCommand};
use crate::dtw::{align_with_costs, cost_matrix};
use crate::mfcc::{mfcc, MfccFrames};
use crate::synthesis::{SpeakerProfile, Synthesizer, Utterance};
use crate::vad::detect_speech;
use ivc_dsp::resample::resample;
use ivc_dsp::signal::Signal;
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

/// The error of a query against a recogniser with no template for it.
fn no_templates() -> DspError {
    DspError::invalid("templates", "recogniser has no enrolled command templates")
}

/// A command template: features plus per-word frame ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandTemplate {
    /// The command this template renders.
    pub command: VoiceCommand,
    frames: MfccFrames,
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

/// The template-matching recogniser.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Recognizer {
    templates: Vec<CommandTemplate>,
}

impl Recognizer {
    /// Creates an empty recogniser.
    pub fn new() -> Self {
        Recognizer::default()
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
        let frames = mfcc(&self.prepare(&utterance.signal)?)?;
        // Word boundaries are expressed in the original signal's time base;
        // preparation trims leading silence, so shift accordingly.
        let trim_offset = self.leading_trim_s(&utterance.signal)?;
        let word_frame_ranges = utterance
            .word_boundaries
            .iter()
            .map(|b| {
                let start = frames.frame_at_time((b.start_s - trim_offset).max(0.0));
                let end = frames
                    .frame_at_time((b.end_s - trim_offset).max(0.0))
                    .max(start + 1);
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

    /// Shared scoring pass: one prepared query aligned against every
    /// template, optionally also extracting the per-word verdicts for
    /// `expected` from the same alignments.
    fn recognize_with_flags(
        &self,
        recording: &Signal,
        expected: Option<CommandId>,
    ) -> Result<(RecognitionOutcome, Option<Vec<(String, bool)>>)> {
        if self.templates.is_empty() {
            return Err(no_templates());
        }
        let query = mfcc(&self.prepare(recording)?)?;
        let mut scored: Vec<(usize, f64, f64)> = Vec::new(); // (template idx, distance, word accuracy)
        let mut expected_flags: Option<Vec<(String, bool)>> = None;
        for (idx, template) in self.templates.iter().enumerate() {
            let costs = cost_matrix(&template.frames.frames, &query.frames);
            let alignment = align_with_costs(&costs)?;
            let accuracy = self.word_accuracy_from_alignment(template, &alignment, &costs);
            if expected == Some(template.command.id) {
                expected_flags = Some(self.per_word_recognition(template, &alignment, &costs));
            }
            scored.push((idx, alignment.normalized_distance, accuracy));
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

    fn fraction_recognized(flags: &[(String, bool)]) -> f64 {
        if flags.is_empty() {
            return 0.0;
        }
        flags.iter().filter(|(_, recognized)| *recognized).count() as f64 / flags.len() as f64
    }

    /// Recognition, per-word verdicts and the acceptance rule from **one**
    /// prepared query: the recording is resampled/trimmed/featurised once
    /// and every template aligned once.  This is what the trial pipeline
    /// (and therefore every campaign trial) runs.
    pub fn evaluate(&self, recording: &Signal, expected: CommandId) -> Result<TrialEvaluation> {
        let (outcome, expected_flags) = self.recognize_with_flags(recording, Some(expected))?;
        // `None` here means `expected` is not enrolled.
        let word_recognition = expected_flags.ok_or_else(no_templates)?;
        let word_accuracy = Self::fraction_recognized(&word_recognition);
        let accepted =
            outcome.command == Some(expected) && word_accuracy >= ACCEPTANCE_WORD_FRACTION;
        Ok(TrialEvaluation {
            outcome,
            word_recognition,
            word_accuracy,
            accepted,
        })
    }

    fn word_accuracy_from_alignment(
        &self,
        template: &CommandTemplate,
        alignment: &crate::dtw::DtwAlignment,
        costs: &[Vec<f64>],
    ) -> f64 {
        Self::fraction_recognized(&self.per_word_recognition(template, alignment, costs))
    }

    fn per_word_recognition(
        &self,
        template: &CommandTemplate,
        alignment: &crate::dtw::DtwAlignment,
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

    /// Resamples to the analysis rate, trims silence around the detected
    /// speech and normalises the level — the same preparation for templates
    /// and queries.
    fn prepare(&self, signal: &Signal) -> Result<Signal> {
        if signal.is_empty() {
            return Err(DspError::invalid("recording", "empty signal"));
        }
        let trimmed = self.trim_to_speech(&to_analysis_rate(signal)?)?;
        let mut normalised = trimmed;
        normalised.remove_dc();
        normalised.normalize_peak(0.5);
        Ok(normalised)
    }

    fn trim_to_speech(&self, signal: &Signal) -> Result<Signal> {
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

    fn leading_trim_s(&self, signal: &Signal) -> Result<f64> {
        let regions = detect_speech(&to_analysis_rate(signal)?)?;
        Ok(regions
            .first()
            .map(|r| (r.start_s - 0.05).max(0.0))
            .unwrap_or(0.0))
    }
}

/// `signal` at [`ANALYSIS_RATE_HZ`], resampled only if it is not already.
fn to_analysis_rate(signal: &Signal) -> Result<Signal> {
    if (signal.sample_rate_hz() - ANALYSIS_RATE_HZ).abs() > 1e-6 {
        Ok(resample(signal, ANALYSIS_RATE_HZ)?)
    } else {
        Ok(signal.clone())
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
            let query = mfcc(&self.prepare(recording)?)?;
            let costs = cost_matrix(&template.frames.frames, &query.frames);
            let alignment = align_with_costs(&costs)?;
            Ok(self.per_word_recognition(template, &alignment, &costs))
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
        let err = r.evaluate(&s, CommandId(0)).unwrap_err();
        assert!(err.to_string().contains("templates"), "{err}");
        assert_eq!(r.num_templates(), 0);
    }

    #[test]
    fn clean_template_playback_is_recognised_with_full_word_accuracy() {
        let r = Recognizer::with_default_corpus().unwrap();
        assert_eq!(r.num_templates(), corpus().len());
        let synth = Synthesizer::new(48_000.0).unwrap();
        for command in corpus().iter().take(3) {
            let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
            let evaluation = r.evaluate(&utt.signal, command.id).unwrap();
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
        assert!(!r.evaluate(&utt.signal, commands[0].id).unwrap().accepted);
    }

    #[test]
    fn moderate_noise_degrades_but_does_not_destroy_recognition() {
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[0];
        let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let slightly_noisy = noisy(&utt.signal, 0.01, 1);
        let acc_clean = r.evaluate(&utt.signal, command.id).unwrap().word_accuracy;
        let acc_noisy = r
            .evaluate(&slightly_noisy, command.id)
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
        let evaluation = r.evaluate(&noise, command.id).unwrap();
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
        assert!(r.evaluate(&quiet, command.id).unwrap().accepted);
    }

    #[test]
    fn word_recognition_lists_words_and_matches_accuracy() {
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[0];
        let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let evaluation = r.evaluate(&utt.signal, command.id).unwrap();
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
        let noise_flags = r.evaluate(&noise, command.id).unwrap().word_recognition;
        assert!(noise_flags.iter().filter(|(_, ok)| *ok).count() <= 1);
    }

    #[test]
    fn evaluate_agrees_with_the_separate_passes() {
        let r = Recognizer::with_default_corpus().unwrap();
        let synth = Synthesizer::new(48_000.0).unwrap();
        let command = &corpus()[1];
        let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
        let evaluation = r.evaluate(&utt.signal, command.id).unwrap();
        let flags = r.word_recognition(&utt.signal, command.id).unwrap();
        assert_eq!(evaluation.word_recognition, flags);
        assert_eq!(
            evaluation.word_accuracy,
            Recognizer::fraction_recognized(&flags)
        );
        assert!(evaluation.accepted);
        // Evaluating against a different expected command flips acceptance
        // but keeps the open-set outcome.
        let other = r.evaluate(&utt.signal, corpus()[0].id).unwrap();
        assert!(!other.accepted);
        assert_eq!(other.outcome, evaluation.outcome);
        // An unenrolled command id is an error.
        assert!(r.evaluate(&utt.signal, CommandId(999)).is_err());
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
}
