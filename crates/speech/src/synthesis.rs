//! Utterance-level synthesis: rendering a [`VoiceCommand`] as a waveform.
//!
//! The synthesiser concatenates per-phoneme renderings (see
//! [`crate::formant`]) under a pitch contour and speaker profile, and keeps
//! track of where each word starts and ends — the recogniser uses those
//! boundaries to score per-word accuracy.

use crate::commands::VoiceCommand;
use crate::formant::render_phoneme;
use crate::phoneme::Phoneme;
use crate::prosody::PitchContour;
use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};

/// A speaker profile: what distinguishes one synthetic talker from another.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeakerProfile {
    /// Pitch contour (base F0, declination, intonation).
    pub pitch: PitchContour,
    /// Multiplicative shift applied to all formant frequencies (vocal-tract
    /// length difference); 1.0 is the canonical talker.
    pub formant_shift: f64,
    /// Speaking-rate multiplier applied to phoneme durations.
    pub rate: f64,
    /// Seed for the stochastic components (noise sources).
    pub seed: u64,
}

impl SpeakerProfile {
    /// The canonical adult male profile used for recogniser templates.
    pub fn canonical() -> Self {
        SpeakerProfile {
            pitch: PitchContour::male(),
            formant_shift: 1.0,
            rate: 1.0,
            seed: 0,
        }
    }

    /// A deterministic family of profiles indexed by `index`, spanning a
    /// plausible range of pitch, vocal-tract length and speaking rate.  Used
    /// to build multi-speaker datasets for the defense.
    pub fn variant(index: usize) -> Self {
        let base_f0 = 95.0 + 20.0 * (index % 8) as f64; // 95..235 Hz
        let pitch = PitchContour::new(
            base_f0.min(250.0),
            0.1 + 0.02 * (index % 5) as f64,
            0.04 + 0.01 * (index % 4) as f64,
            2.0 + 0.3 * (index % 3) as f64,
        )
        .expect("variant parameters are in range");
        SpeakerProfile {
            pitch,
            formant_shift: 0.92 + 0.04 * (index % 6) as f64,
            rate: 0.85 + 0.07 * (index % 5) as f64,
            seed: index as u64,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(0.7..=1.4).contains(&self.formant_shift) {
            return Err(DspError::invalid(
                "formant_shift",
                "must be within [0.7, 1.4]",
            ));
        }
        if !(0.5..=2.0).contains(&self.rate) {
            return Err(DspError::invalid("rate", "must be within [0.5, 2.0]"));
        }
        Ok(())
    }
}

/// Word-level timing of a synthesised utterance.
#[derive(Debug, Clone, PartialEq)]
pub struct WordBoundary {
    /// The word's text.
    pub word: String,
    /// Start time in seconds.
    pub start_s: f64,
    /// End time in seconds.
    pub end_s: f64,
}

/// A synthesised utterance: the waveform plus word timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Utterance {
    /// The rendered waveform (peak-normalised to 0.5).
    pub signal: Signal,
    /// Word boundaries, in order.
    pub word_boundaries: Vec<WordBoundary>,
    /// The text that was rendered.
    pub text: String,
}

/// The utterance synthesiser.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesizer {
    sample_rate_hz: f64,
}

impl Synthesizer {
    /// Creates a synthesiser producing waveforms at `sample_rate_hz`.
    pub fn new(sample_rate_hz: f64) -> Result<Self> {
        if !(16_000.0..=384_000.0).contains(&sample_rate_hz) {
            return Err(DspError::invalid(
                "sample_rate_hz",
                "must be within [16 kHz, 384 kHz]",
            ));
        }
        Ok(Synthesizer { sample_rate_hz })
    }

    /// Renders `command` with the given speaker profile.
    pub fn render(&self, command: &VoiceCommand, profile: &SpeakerProfile) -> Result<Utterance> {
        profile.validate()?;
        let symbols = command.phoneme_symbols();
        if symbols.is_empty() {
            return Err(DspError::invalid("command", "has no phonemes"));
        }
        // Total nominal duration for the pitch contour's normalised clock.
        let total_nominal: f64 = symbols
            .iter()
            .map(|s| phoneme_for(s).duration_s * profile.rate)
            .sum();

        let mut signal = Signal::new(Vec::new(), self.sample_rate_hz)?;
        // Leading silence so that onsets are not at t = 0.
        signal.pad_end(0.05);
        let mut word_boundaries = Vec::new();
        let mut elapsed = 0.0f64;

        let mut word_iter = command.words.iter();
        let mut current_word = word_iter.next();
        let mut word_start = signal.duration_s();
        let mut phones_left_in_word = current_word.map(|(_, p)| p.len()).unwrap_or(0);

        for symbol in &symbols {
            let mut phoneme = phoneme_for(symbol);
            // Apply the speaker's formant shift to voiced sonorants.
            for f in phoneme.formants_hz.iter_mut() {
                *f *= profile.formant_shift;
            }
            let x = (elapsed / total_nominal.max(1e-9)).clamp(0.0, 1.0);
            let f0 = profile.pitch.f0_at(x);
            let seed = profile
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(elapsed.to_bits());
            let rendered = render_phoneme(&phoneme, f0, profile.rate, self.sample_rate_hz, seed)?;
            elapsed += phoneme.duration_s * profile.rate;
            signal.append(&rendered)?;

            if *symbol == "sil" {
                continue;
            }
            phones_left_in_word = phones_left_in_word.saturating_sub(1);
            if phones_left_in_word == 0 {
                if let Some((word, _)) = current_word {
                    word_boundaries.push(WordBoundary {
                        word: (*word).to_string(),
                        start_s: word_start,
                        end_s: signal.duration_s(),
                    });
                }
                current_word = word_iter.next();
                phones_left_in_word = current_word.map(|(_, p)| p.len()).unwrap_or(0);
                // The next word starts after the upcoming pause; we simply
                // mark it at the current end and let the pause be part of
                // the gap.
                word_start = signal.duration_s() + Phoneme::PAUSE.duration_s * profile.rate;
            }
        }
        // Trailing silence.
        signal.pad_end(0.05);
        signal.normalize_peak(0.5);
        Ok(Utterance {
            signal,
            word_boundaries,
            text: command.text.to_string(),
        })
    }
}

fn phoneme_for(symbol: &str) -> Phoneme {
    if symbol == "sil" {
        Phoneme::PAUSE
    } else {
        Phoneme::lookup(symbol).unwrap_or(Phoneme::PAUSE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::corpus;
    use ivc_dsp::spectrum::band_power;

    #[test]
    fn validation() {
        assert!(Synthesizer::new(8_000.0).is_err());
        assert!(Synthesizer::new(48_000.0).is_ok());
        let synth = Synthesizer::new(48_000.0).unwrap();
        let bad_profile = SpeakerProfile {
            formant_shift: 2.0,
            ..SpeakerProfile::canonical()
        };
        assert!(synth.render(&corpus()[0], &bad_profile).is_err());
    }

    #[test]
    fn rendered_command_has_speechlike_properties() {
        let synth = Synthesizer::new(48_000.0).unwrap();
        let utt = synth
            .render(&corpus()[0], &SpeakerProfile::canonical())
            .unwrap();
        // A five-word command takes on the order of 1-3 seconds.
        assert!(utt.signal.duration_s() > 0.8 && utt.signal.duration_s() < 4.0);
        assert_eq!(utt.word_boundaries.len(), corpus()[0].num_words());
        // Speech energy is concentrated below 8 kHz.
        let low = band_power(utt.signal.samples(), 48_000.0, 80.0, 8_000.0).unwrap();
        let high = band_power(utt.signal.samples(), 48_000.0, 10_000.0, 20_000.0).unwrap();
        assert!(low / high.max(1e-18) > 100.0);
        assert!((utt.signal.peak() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn word_boundaries_are_ordered_and_inside_the_signal() {
        let synth = Synthesizer::new(48_000.0).unwrap();
        for command in corpus().iter().take(4) {
            let utt = synth.render(command, &SpeakerProfile::canonical()).unwrap();
            let mut last_end = 0.0;
            for b in &utt.word_boundaries {
                assert!(
                    b.start_s >= last_end - 1e-9,
                    "overlapping words in {}",
                    command.text
                );
                assert!(b.end_s > b.start_s);
                assert!(b.end_s <= utt.signal.duration_s() + 1e-9);
                last_end = b.end_s;
            }
        }
    }

    #[test]
    fn different_speakers_produce_different_waveforms() {
        let synth = Synthesizer::new(48_000.0).unwrap();
        let c = &corpus()[0];
        let a = synth.render(c, &SpeakerProfile::canonical()).unwrap();
        let b = synth.render(c, &SpeakerProfile::variant(3)).unwrap();
        assert_ne!(a.signal.samples(), b.signal.samples());
        // Variants are all valid.
        for i in 0..12 {
            let v = SpeakerProfile::variant(i);
            assert!(synth.render(c, &v).is_ok(), "variant {i}");
        }
    }

    #[test]
    fn same_profile_is_deterministic() {
        let synth = Synthesizer::new(48_000.0).unwrap();
        let c = &corpus()[1];
        let a = synth.render(c, &SpeakerProfile::canonical()).unwrap();
        let b = synth.render(c, &SpeakerProfile::canonical()).unwrap();
        assert_eq!(a.signal.samples(), b.signal.samples());
    }

    #[test]
    fn rendering_at_high_rate_supports_ultrasonic_pipelines() {
        let synth = Synthesizer::new(192_000.0).unwrap();
        let utt = synth
            .render(&corpus()[4], &SpeakerProfile::canonical())
            .unwrap();
        assert_eq!(utt.signal.sample_rate_hz(), 192_000.0);
        assert!(utt.signal.duration_s() > 0.5);
    }
}
