//! The voice-command corpus.
//!
//! These are the commands the paper (and its companion work) actually
//! injects: camera, airplane-mode and shopping-list commands prefixed with
//! the wake words "OK Google" / "Alexa", plus a few extra commands so the
//! recogniser has a non-trivial vocabulary to confuse.

/// Identifier of a command in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommandId(pub usize);

/// A voice command: its text and its phonetic transcription word by word.
#[derive(Debug, Clone, PartialEq)]
pub struct VoiceCommand {
    /// Identifier (index into the corpus).
    pub id: CommandId,
    /// Human-readable text.
    pub text: &'static str,
    /// Words, each a list of phoneme symbols from the inventory.
    pub words: Vec<(&'static str, Vec<&'static str>)>,
}

impl VoiceCommand {
    /// Number of words in the command.
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Flat list of phoneme symbols with pauses between words.
    pub fn phoneme_symbols(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (i, (_, phones)) in self.words.iter().enumerate() {
            if i > 0 {
                out.push("sil");
            }
            out.extend(phones.iter().copied());
        }
        out
    }
}

/// Returns the full command corpus.
///
/// Index 0 and 1 are the two commands used in the paper's end-to-end attack
/// demonstrations; the rest give the recogniser distractors.
pub fn corpus() -> Vec<VoiceCommand> {
    let defs: Vec<(&'static str, Vec<(&'static str, Vec<&'static str>)>)> = vec![
        (
            "ok google take a picture",
            vec![
                ("ok", vec!["OW", "K", "EY"]),
                ("google", vec!["G", "UW", "G", "AH", "L"]),
                ("take", vec!["T", "EY", "K"]),
                ("a", vec!["AH"]),
                ("picture", vec!["P", "IH", "K", "CH", "ER"]),
            ],
        ),
        (
            "alexa add milk to my shopping list",
            vec![
                ("alexa", vec!["AH", "L", "EH", "K", "S", "AH"]),
                ("add", vec!["AE", "D"]),
                ("milk", vec!["M", "IH", "L", "K"]),
                ("to", vec!["T", "UW"]),
                ("my", vec!["M", "AY"]),
                ("shopping", vec!["SH", "AA", "P", "IH", "NG"]),
                ("list", vec!["L", "IH", "S", "T"]),
            ],
        ),
        (
            "ok google turn on airplane mode",
            vec![
                ("ok", vec!["OW", "K", "EY"]),
                ("google", vec!["G", "UW", "G", "AH", "L"]),
                ("turn", vec!["T", "ER", "N"]),
                ("on", vec!["AA", "N"]),
                ("airplane", vec!["EH", "R", "P", "L", "EY", "N"]),
                ("mode", vec!["M", "OW", "D"]),
            ],
        ),
        (
            "alexa what is the weather",
            vec![
                ("alexa", vec!["AH", "L", "EH", "K", "S", "AH"]),
                ("what", vec!["W", "AH", "T"]),
                ("is", vec!["IH", "Z"]),
                ("the", vec!["TH", "AH"]),
                ("weather", vec!["W", "EH", "TH", "ER"]),
            ],
        ),
        (
            "ok google call mom",
            vec![
                ("ok", vec!["OW", "K", "EY"]),
                ("google", vec!["G", "UW", "G", "AH", "L"]),
                ("call", vec!["K", "AO", "L"]),
                ("mom", vec!["M", "AA", "M"]),
            ],
        ),
        (
            "alexa open the garage door",
            vec![
                ("alexa", vec!["AH", "L", "EH", "K", "S", "AH"]),
                ("open", vec!["OW", "P", "AH", "N"]),
                ("the", vec!["TH", "AH"]),
                ("garage", vec!["G", "AH", "R", "AA", "ZH_FALLBACK"]),
                ("door", vec!["D", "AO", "R"]),
            ],
        ),
        (
            "ok google send a message",
            vec![
                ("ok", vec!["OW", "K", "EY"]),
                ("google", vec!["G", "UW", "G", "AH", "L"]),
                ("send", vec!["S", "EH", "N", "D"]),
                ("a", vec!["AH"]),
                ("message", vec!["M", "EH", "S", "IH", "JH"]),
            ],
        ),
        (
            "alexa turn off the lights",
            vec![
                ("alexa", vec!["AH", "L", "EH", "K", "S", "AH"]),
                ("turn", vec!["T", "ER", "N"]),
                ("off", vec!["AO", "F"]),
                ("the", vec!["TH", "AH"]),
                ("lights", vec!["L", "AY", "T", "S"]),
            ],
        ),
    ];
    defs.into_iter()
        .enumerate()
        .map(|(i, (text, words))| {
            // Map the one placeholder symbol to an in-inventory phoneme.
            let words = words
                .into_iter()
                .map(|(w, phones)| {
                    let phones = phones
                        .into_iter()
                        .map(|p| if p == "ZH_FALLBACK" { "SH" } else { p })
                        .collect();
                    (w, phones)
                })
                .collect();
            VoiceCommand {
                id: CommandId(i),
                text,
                words,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phoneme::Phoneme;

    #[test]
    fn corpus_is_nonempty_and_renderable() {
        let commands = corpus();
        assert!(commands.len() >= 8);
        for c in &commands {
            assert!(
                c.phoneme_symbols()
                    .iter()
                    .all(|s| *s == "sil" || Phoneme::lookup(s).is_some()),
                "command {:?} uses unknown phonemes",
                c.text
            );
            assert!(c.num_words() >= 3);
            assert!(!c.phoneme_symbols().is_empty());
        }
    }

    #[test]
    fn ids_match_positions() {
        for (i, c) in corpus().iter().enumerate() {
            assert_eq!(c.id, CommandId(i));
        }
    }

    #[test]
    fn paper_commands_are_present() {
        let texts: Vec<&str> = corpus().iter().map(|c| c.text).collect();
        assert!(texts.contains(&"ok google take a picture"));
        assert!(texts.contains(&"alexa add milk to my shopping list"));
        assert!(texts.contains(&"ok google turn on airplane mode"));
    }

    #[test]
    fn phoneme_symbols_insert_pauses_between_words() {
        let c = corpus()
            .into_iter()
            .find(|c| c.text == "ok google call mom")
            .unwrap();
        let symbols = c.phoneme_symbols();
        let pauses = symbols.iter().filter(|s| **s == "sil").count();
        assert_eq!(pauses, c.num_words() - 1);
    }

    #[test]
    fn texts_are_unique() {
        let commands = corpus();
        for (i, a) in commands.iter().enumerate() {
            for b in &commands[i + 1..] {
                assert_ne!(a.text, b.text);
            }
        }
    }
}
