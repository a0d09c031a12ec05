//! A compact phoneme inventory sufficient to render the voice commands the
//! paper uses.
//!
//! Each phoneme carries the acoustic recipe the synthesiser needs: whether
//! it is voiced, its typical duration, and either formant targets (voiced
//! sonorants) or a noise band (obstruents).

/// Manner class of a phoneme, which selects the synthesis recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Manner {
    /// Vowels and approximants: voiced source through formant resonators.
    Vowel,
    /// Nasals: voiced source, low-passed, weak upper formants.
    Nasal,
    /// Fricatives: shaped noise, possibly with a voiced component.
    Fricative,
    /// Stops/plosives: brief silence followed by a noise burst.
    Stop,
    /// Silence / pause.
    Silence,
}

/// One phoneme of the synthesiser's inventory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phoneme {
    /// ARPAbet-style symbol.
    pub symbol: &'static str,
    /// Manner class.
    pub manner: Manner,
    /// Whether the source is voiced.
    pub voiced: bool,
    /// Nominal duration in seconds (scaled by speaking rate).
    pub duration_s: f64,
    /// Formant frequencies in Hz (used by vowels, nasals, approximants).
    pub formants_hz: [f64; 3],
    /// Formant bandwidths in Hz.
    pub bandwidths_hz: [f64; 3],
    /// Noise band for obstruents `(low_hz, high_hz)`.
    pub noise_band_hz: (f64, f64),
    /// Relative amplitude (1.0 = typical vowel).
    pub amplitude: f64,
}

impl Phoneme {
    const fn vowel(symbol: &'static str, f1: f64, f2: f64, f3: f64, duration_s: f64) -> Self {
        Phoneme {
            symbol,
            manner: Manner::Vowel,
            voiced: true,
            duration_s,
            formants_hz: [f1, f2, f3],
            bandwidths_hz: [80.0, 110.0, 160.0],
            noise_band_hz: (0.0, 0.0),
            amplitude: 1.0,
        }
    }

    const fn nasal(symbol: &'static str, f1: f64, f2: f64, f3: f64) -> Self {
        Phoneme {
            symbol,
            manner: Manner::Nasal,
            voiced: true,
            duration_s: 0.07,
            formants_hz: [f1, f2, f3],
            bandwidths_hz: [100.0, 150.0, 200.0],
            noise_band_hz: (0.0, 0.0),
            amplitude: 0.55,
        }
    }

    const fn fricative(
        symbol: &'static str,
        low: f64,
        high: f64,
        voiced: bool,
        amplitude: f64,
    ) -> Self {
        Phoneme {
            symbol,
            manner: Manner::Fricative,
            voiced,
            duration_s: 0.09,
            formants_hz: [0.0, 0.0, 0.0],
            bandwidths_hz: [0.0, 0.0, 0.0],
            noise_band_hz: (low, high),
            amplitude,
        }
    }

    const fn stop(symbol: &'static str, low: f64, high: f64, voiced: bool) -> Self {
        Phoneme {
            symbol,
            manner: Manner::Stop,
            voiced,
            duration_s: 0.06,
            formants_hz: [0.0, 0.0, 0.0],
            bandwidths_hz: [0.0, 0.0, 0.0],
            noise_band_hz: (low, high),
            amplitude: 0.7,
        }
    }

    /// The inter-word / inter-phrase pause.
    pub const PAUSE: Phoneme = Phoneme {
        symbol: "sil",
        manner: Manner::Silence,
        voiced: false,
        duration_s: 0.08,
        formants_hz: [0.0, 0.0, 0.0],
        bandwidths_hz: [0.0, 0.0, 0.0],
        noise_band_hz: (0.0, 0.0),
        amplitude: 0.0,
    };

    /// Looks a phoneme up by its ARPAbet-style symbol.
    pub fn lookup(symbol: &str) -> Option<Phoneme> {
        INVENTORY.iter().copied().find(|p| p.symbol == symbol)
    }
}

/// The synthesiser's phoneme inventory.  Formant targets follow the classic
/// Peterson–Barney style average values for an adult speaker.
static INVENTORY: &[Phoneme] = &[
    // Vowels.
    Phoneme::vowel("AA", 730.0, 1090.0, 2440.0, 0.14), // f-a-ther
    Phoneme::vowel("AE", 660.0, 1720.0, 2410.0, 0.13), // c-a-t
    Phoneme::vowel("AH", 640.0, 1190.0, 2390.0, 0.10), // b-u-t
    Phoneme::vowel("AO", 570.0, 840.0, 2410.0, 0.14),  // c-augh-t
    Phoneme::vowel("EH", 530.0, 1840.0, 2480.0, 0.11), // b-e-d
    Phoneme::vowel("ER", 490.0, 1350.0, 1690.0, 0.12), // b-ir-d
    Phoneme::vowel("EY", 480.0, 2000.0, 2600.0, 0.13), // b-ai-t
    Phoneme::vowel("IH", 390.0, 1990.0, 2550.0, 0.09), // b-i-t
    Phoneme::vowel("IY", 270.0, 2290.0, 3010.0, 0.11), // b-ee-t
    Phoneme::vowel("OW", 490.0, 910.0, 2450.0, 0.13),  // b-oa-t
    Phoneme::vowel("UH", 440.0, 1020.0, 2240.0, 0.09), // b-oo-k
    Phoneme::vowel("UW", 300.0, 870.0, 2240.0, 0.12),  // b-oo-t
    Phoneme::vowel("AY", 660.0, 1200.0, 2550.0, 0.15), // b-uy (rendered as a single target)
    // Approximants rendered as short vowels.
    Phoneme::vowel("L", 360.0, 1300.0, 2600.0, 0.06),
    Phoneme::vowel("R", 420.0, 1300.0, 1600.0, 0.06),
    Phoneme::vowel("W", 320.0, 720.0, 2300.0, 0.06),
    Phoneme::vowel("Y", 290.0, 2200.0, 3000.0, 0.06),
    // Nasals.
    Phoneme::nasal("M", 280.0, 1050.0, 2200.0),
    Phoneme::nasal("N", 280.0, 1700.0, 2600.0),
    Phoneme::nasal("NG", 280.0, 2300.0, 2750.0),
    // Fricatives.
    Phoneme::fricative("S", 4_000.0, 8_000.0, false, 0.45),
    Phoneme::fricative("SH", 2_000.0, 6_000.0, false, 0.5),
    Phoneme::fricative("F", 1_500.0, 7_000.0, false, 0.3),
    Phoneme::fricative("TH", 1_400.0, 7_500.0, false, 0.25),
    Phoneme::fricative("Z", 3_500.0, 7_500.0, true, 0.4),
    Phoneme::fricative("V", 1_000.0, 5_000.0, true, 0.3),
    Phoneme::fricative("HH", 500.0, 4_000.0, false, 0.25),
    // Stops.
    Phoneme::stop("P", 800.0, 2_000.0, false),
    Phoneme::stop("B", 400.0, 1_500.0, true),
    Phoneme::stop("T", 3_000.0, 6_000.0, false),
    Phoneme::stop("D", 2_500.0, 4_500.0, true),
    Phoneme::stop("K", 1_500.0, 3_500.0, false),
    Phoneme::stop("G", 1_200.0, 2_800.0, true),
    Phoneme::stop("CH", 2_500.0, 6_000.0, false),
    Phoneme::stop("JH", 2_000.0, 5_000.0, true),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_lookup_works() {
        let aa = Phoneme::lookup("AA").unwrap();
        assert_eq!(aa.manner, Manner::Vowel);
        assert!(aa.voiced);
        assert!(Phoneme::lookup("ZZ").is_none());
        assert!(INVENTORY.len() > 30);
    }

    #[test]
    fn symbols_are_unique() {
        let inv = INVENTORY;
        for (i, a) in inv.iter().enumerate() {
            for b in &inv[i + 1..] {
                assert_ne!(a.symbol, b.symbol, "duplicate symbol {}", a.symbol);
            }
        }
    }

    #[test]
    fn vowels_have_ordered_formants() {
        for p in INVENTORY {
            if p.manner == Manner::Vowel {
                assert!(p.formants_hz[0] < p.formants_hz[1]);
                assert!(p.formants_hz[1] < p.formants_hz[2]);
                assert!(p.formants_hz[0] > 200.0 && p.formants_hz[2] < 4_000.0);
            }
        }
    }

    #[test]
    fn obstruents_have_valid_noise_bands() {
        for p in INVENTORY {
            match p.manner {
                Manner::Fricative | Manner::Stop => {
                    assert!(p.noise_band_hz.0 < p.noise_band_hz.1, "{}", p.symbol);
                    assert!(p.noise_band_hz.1 <= 8_000.0, "{}", p.symbol);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn durations_are_reasonable() {
        for p in INVENTORY {
            assert!(p.duration_s > 0.02 && p.duration_s < 0.3, "{}", p.symbol);
        }
        assert_eq!(Phoneme::PAUSE.amplitude, 0.0);
        assert_eq!(Phoneme::PAUSE.manner, Manner::Silence);
    }
}
