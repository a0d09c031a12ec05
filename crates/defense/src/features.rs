//! Non-linearity-trace features.
//!
//! Three features are extracted from every recording, all motivated directly
//! by the physics of square-law demodulation:
//!
//! 1. **Shadow-band power ratio** — power in the sub-fundamental band
//!    (5–80 Hz) relative to the voice band (300–4000 Hz), in dB.  Acoustic
//!    speech carries essentially nothing below its fundamental; the attack's
//!    `m(t)²` term does.
//! 2. **Shadow correlation** — Pearson correlation between the low-band
//!    waveform and the low-pass-filtered *squared envelope* of the voice
//!    band.  For an attack these are the same physical quantity
//!    (`m²` appears in both); for legitimate speech the low band is
//!    unrelated rumble or noise.
//! 3. **Spectral tilt** — the slope of the recording's PSD in dB/kHz.  The
//!    demodulated attack is band-limited to the attacker's 8 kHz baseband
//!    and inherits a squared-envelope low-frequency boost, tilting the
//!    spectrum down harder than natural speech recorded through the same
//!    microphone.
//!
//! Extraction runs in two halves on one level-normalised copy of the
//! recording ([`DefenseFeatures::normalize`]): features 1 and 3 come from
//! one Welch PSD ([`DefenseFeatures::psd_half`]), feature 2 from one real
//! transform ([`DefenseFeatures::shadow_half`]).
//!
//! # The shadow correlation from one transform
//!
//! Both tracks of feature 2 live below 80 Hz, so they are never built at
//! the recording's rate.  The recording, zero-padded to `N` points (the
//! next power of two), is transformed once and every filter acts on bins:
//!
//! * **Voice envelope.**  The positive bins are weighted by `2·|H_bp|²`:
//!   the analytic-signal mask and the zero-phase gain of a forward-backward
//!   pass of the 300–4000 Hz Butterworth band-pass (order 4 at each edge)
//!   in one.  For an order-`n` edge at `f_c` that gain is
//!   `1 / (1 + (tan(πf/fs) / tan(πf_c/fs))^(±2n))` (`+` for a low-pass,
//!   `−` for a high-pass), the bilinear-transform design of
//!   [`BiquadCascade`] in closed form; the upper edge is clipped at the
//!   recording's Nyquist.  One complex inverse of the `P` bins below
//!   12 kHz, where the band-pass mask is already below −38 dB, gives the
//!   analytic signal `a` at every `N/P`-th sample exactly (`P = N/4` at
//!   48 kHz).  `|a|²` inside the recording is transformed once more.
//! * **Low band.**  Each track — the recording's spectrum or `|a|²`'s —
//!   goes through the 80 Hz low-pass (order 4) and then the 5 Hz
//!   high-pass (order 2) the way `filtfilt` runs them: a forward pass, a
//!   cut at the recording's end and a backward pass, so every pass starts
//!   from rest at the recording's ends.  The first pass multiplies the
//!   bins up to the grid's Nyquist (at least 375 Hz) by the low-pass's
//!   response and one `M`-point inverse puts the track on a grid of every
//!   `N/M`-th sample; a 0.6 s recording at 48 kHz has `N = 32768` and
//!   `M = 512`, a 750 Hz grid.  The other three passes multiply a
//!   `2M`-point transform of the cut grid track by the response or its
//!   conjugate, so their tails decay into the padding instead of
//!   wrapping.  The responses are the cascades' own
//!   ([`Biquad::response`](ivc_dsp::filter::biquad::Biquad::response)),
//!   evaluated per call on those `M + 1` bins.
//!
//! The correlation is Pearson's over the grid samples inside the
//! recording, with 50 ms trimmed at each end when more than 16 samples
//! remain.  Against the full-rate `filtfilt` passes and Hilbert transform
//! this replaced, features 1 and 3 are bit-identical and the shadow
//! correlation of trial captures moves by less than 0.002.

use std::f64::consts::PI;

use ivc_dsp::complex::Complex;
use ivc_dsp::correlation::pearson_correlation;
use ivc_dsp::db::power_to_db;
use ivc_dsp::fft::{fft_in_place, irfft_into, next_power_of_two, rfft_into};
use ivc_dsp::filter::biquad::BiquadCascade;
use ivc_dsp::signal::Signal;
use ivc_dsp::spectrum::{welch_psd_into, WelchScratch};
use ivc_dsp::window::WindowKind;
use ivc_dsp::{DspError, Result};

/// The shadow band searched for the non-linearity trace, in Hz.
pub const SHADOW_BAND_HZ: (f64, f64) = (5.0, 80.0);
/// The voice band used as the reference, in Hz.
pub const VOICE_BAND_HZ: (f64, f64) = (300.0, 4_000.0);

/// Butterworth order of the shadow band's low-pass edge.
const SHADOW_LOW_PASS_ORDER: usize = 4;
/// Butterworth order of the shadow band's high-pass edge.
const SHADOW_HIGH_PASS_ORDER: usize = 2;
/// Butterworth order of each edge of the voice band-pass.
const VOICE_BAND_ORDER: usize = 4;
/// The lowest Nyquist frequency of the low-band grid, in Hz; the shadow
/// band's low-pass is below −50 dB there.
const LOW_GRID_NYQUIST_HZ: f64 = 375.0;
/// The band the voice envelope's analytic signal keeps, in Hz; the voice
/// band-pass mask is below −38 dB above it.
const ENVELOPE_BAND_HZ: f64 = 12_000.0;
/// Seconds trimmed at each end of the tracks before correlating.
const EDGE_TRIM_S: f64 = 0.05;

/// A feature vector ready for classification.
pub type FeatureVector = Vec<f64>;

/// Extracted defense features for one recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseFeatures {
    /// Shadow-band to voice-band power ratio, in dB.
    pub shadow_power_ratio_db: f64,
    /// Correlation between the shadow band and the squared voice envelope.
    pub shadow_correlation: f64,
    /// Spectral tilt of the recording, in dB per kHz.
    pub spectral_tilt_db_per_khz: f64,
}

/// A recording ready for feature extraction: non-empty, sampled at 8 kHz
/// or more, with its DC removed and its RMS normalised to 0.1 so every
/// feature is level-invariant.  Built by [`DefenseFeatures::normalize`].
#[derive(Debug, Clone)]
pub struct NormalizedRecording(Signal);

impl DefenseFeatures {
    /// Number of features.
    pub const DIMENSION: usize = 3;

    /// Names of the features, index-aligned with [`DefenseFeatures::to_vector`].
    pub const NAMES: [&'static str; 3] = [
        "shadow_power_ratio_db",
        "shadow_correlation",
        "spectral_tilt_db_per_khz",
    ];

    /// Extracts the features from a digital recording (any rate ≥ 8 kHz):
    /// [`normalize`](Self::normalize), then
    /// [`psd_half`](Self::psd_half) and [`shadow_half`](Self::shadow_half).
    pub fn extract(recording: &Signal) -> Result<Self> {
        let normalized = Self::normalize(recording)?;
        let (shadow_power_ratio_db, spectral_tilt_db_per_khz) =
            Self::psd_half(&normalized, &mut WelchScratch::new())?;
        Ok(DefenseFeatures {
            shadow_power_ratio_db,
            shadow_correlation: Self::shadow_half(&normalized)?,
            spectral_tilt_db_per_khz,
        })
    }

    /// The level-normalised copy of `recording` both halves read; an empty
    /// recording or one sampled below 8 kHz is refused.
    pub fn normalize(recording: &Signal) -> Result<NormalizedRecording> {
        if recording.is_empty() {
            return Err(DspError::invalid("recording", "empty signal"));
        }
        if recording.sample_rate_hz() < 8_000.0 {
            return Err(DspError::invalid(
                "recording",
                "sample rate must be at least 8 kHz",
            ));
        }
        let mut signal = recording.clone();
        signal.remove_dc();
        signal.normalize_rms(0.1);
        Ok(NormalizedRecording(signal))
    }

    /// Features 1 and 3 from one Welch PSD:
    /// `(shadow_power_ratio_db, spectral_tilt_db_per_khz)`.  `scratch`
    /// holds the PSD's window and frame, so a worker reuses them across
    /// trials; the features are the same with a fresh or a reused one.
    pub fn psd_half(
        normalized: &NormalizedRecording,
        scratch: &mut WelchScratch,
    ) -> Result<(f64, f64)> {
        let signal = &normalized.0;
        let samples = signal.samples();
        let seg = samples.len().clamp(1_024, 16_384);
        let psd = welch_psd_into(
            samples,
            signal.sample_rate_hz(),
            seg,
            0.5,
            WindowKind::Hann,
            scratch,
        )?;
        let shadow_power = psd.band_power(SHADOW_BAND_HZ.0, SHADOW_BAND_HZ.1);
        let voice_power = psd.band_power(VOICE_BAND_HZ.0, VOICE_BAND_HZ.1);
        Ok((
            power_to_db(shadow_power.max(1e-24) / voice_power.max(1e-24)),
            psd.tilt_db_per_khz(),
        ))
    }

    /// Feature 2, the shadow correlation, from one transform of the
    /// recording (see the [module documentation](self)).
    pub fn shadow_half(normalized: &NormalizedRecording) -> Result<f64> {
        let signal = &normalized.0;
        let (samples, fs) = (signal.samples(), signal.sample_rate_hz());
        let n = next_power_of_two(samples.len()).max(4);
        // The smallest power-of-two transform whose bins reach `hz`.
        let bins_reaching = |hz: f64| next_power_of_two((n as f64 * hz / fs).ceil() as usize);
        let grid = bins_reaching(2.0 * LOW_GRID_NYQUIST_HZ).clamp(2, n);
        let envelope_len = bins_reaching(ENVELOPE_BAND_HZ).clamp(grid, n);
        // Grid sample `j` is recording sample `j·step`.
        let step = n / grid;
        let low_band = LowBand::new(fs, n, grid, samples.len().div_ceil(step))?;

        let mut spectrum = Vec::new();
        rfft_into(samples, n, &mut spectrum)?;
        let shadow = low_band.track(&spectrum)?;

        let voice_high_pass = Butterworth::high_pass(VOICE_BAND_HZ.0, VOICE_BAND_ORDER, fs);
        let voice_low_pass = Butterworth::low_pass(VOICE_BAND_HZ.1, VOICE_BAND_ORDER, fs);
        let mut analytic = vec![Complex::ZERO; envelope_len];
        for (k, (slot, x)) in analytic.iter_mut().zip(&spectrum).enumerate() {
            // Bin `k` sits at the prewarped frequency tan(π·k/n) = tan(πf/fs).
            let t = (PI * k as f64 / n as f64).tan();
            let sides = if k == 0 || k == n / 2 { 1.0 } else { 2.0 };
            *slot = x.scale(sides * voice_high_pass.gain(t) * voice_low_pass.gain(t));
        }
        fft_in_place(&mut analytic, true)?;
        // |a|² inside the recording; the transform pads it with zeros.
        let power: Vec<f64> = analytic
            .iter()
            .take(samples.len().div_ceil(n / envelope_len))
            .map(|a| a.norm_sqr())
            .collect();
        rfft_into(&power, envelope_len, &mut spectrum)?;
        let envelope = low_band.track(&spectrum)?;

        let trim = (fs * EDGE_TRIM_S) as usize;
        let first = trim.div_ceil(step);
        let last = samples.len().saturating_sub(trim).div_ceil(step);
        let kept = if last > first + 16 {
            first..last
        } else {
            0..low_band.end
        };
        pearson_correlation(&shadow[kept.clone()], &envelope[kept])
    }

    /// The features as a vector (for the classifier).
    pub fn to_vector(self) -> FeatureVector {
        vec![
            self.shadow_power_ratio_db,
            self.shadow_correlation,
            self.spectral_tilt_db_per_khz,
        ]
    }
}

/// One Butterworth edge as a zero-phase mask, in terms of the prewarped
/// frequency `t = tan(πf/fs)`.
#[derive(Debug, Clone, Copy)]
struct Butterworth {
    /// `tan(πf_c/fs)`; infinite for a low-pass at or above Nyquist, which
    /// passes every bin.
    prewarped_cutoff: f64,
    /// Twice the order.
    exponent: i32,
    high_pass: bool,
}

impl Butterworth {
    fn low_pass(cutoff_hz: f64, order: usize, sample_rate_hz: f64) -> Self {
        let prewarped_cutoff = if cutoff_hz < sample_rate_hz / 2.0 {
            (PI * cutoff_hz / sample_rate_hz).tan()
        } else {
            f64::INFINITY
        };
        Butterworth {
            prewarped_cutoff,
            exponent: 2 * order as i32,
            high_pass: false,
        }
    }

    fn high_pass(cutoff_hz: f64, order: usize, sample_rate_hz: f64) -> Self {
        Butterworth {
            prewarped_cutoff: (PI * cutoff_hz / sample_rate_hz).tan(),
            exponent: 2 * order as i32,
            high_pass: true,
        }
    }

    /// `|H|²` at the prewarped frequency `t`: the gain a forward-backward
    /// pass of the design applies.
    fn gain(self, t: f64) -> f64 {
        let ratio = if self.high_pass {
            self.prewarped_cutoff / t
        } else {
            t / self.prewarped_cutoff
        };
        1.0 / (1.0 + ratio.powi(self.exponent))
    }
}

/// The shadow band's two cascades on the low-band grid: their responses
/// on the `M + 1` bins of a `2M`-point grid transform, and the number of
/// grid samples inside the recording.
struct LowBand {
    low_pass: Vec<Complex>,
    high_pass: Vec<Complex>,
    end: usize,
}

impl LowBand {
    /// The cascades for an `n`-point transform at `fs` and an `m`-point
    /// grid whose first `end` samples fall inside the recording.
    fn new(fs: f64, n: usize, m: usize, end: usize) -> Result<Self> {
        let response = |cascade: BiquadCascade| -> Vec<Complex> {
            (0..=m)
                .map(|k| {
                    let z_inv = Complex::cis(-PI * k as f64 / n as f64);
                    cascade
                        .sections()
                        .iter()
                        .fold(Complex::ONE, |h, section| h * section.response(z_inv))
                })
                .collect()
        };
        Ok(LowBand {
            low_pass: response(BiquadCascade::butterworth_low_pass(
                SHADOW_BAND_HZ.1,
                SHADOW_LOW_PASS_ORDER,
                fs,
            )?),
            high_pass: response(BiquadCascade::butterworth_high_pass(
                SHADOW_BAND_HZ.0,
                SHADOW_HIGH_PASS_ORDER,
                fs,
            )?),
            end,
        })
    }

    /// The low-band track on the grid of the signal whose transform, at
    /// the recording's bin spacing, is `spectrum`: the low-pass and then
    /// the high-pass, each forward, cut at the recording's end and
    /// backward.  `end` samples long.
    fn track(&self, spectrum: &[Complex]) -> Result<Vec<f64>> {
        // The recording's bins are every other bin of the 2M-point grid
        // transform.
        let mut bins: Vec<Complex> = spectrum
            .iter()
            .zip(self.low_pass.iter().step_by(2))
            .map(|(&x, &h)| x * h)
            .collect();
        let mut track = Vec::new();
        irfft_into(&mut bins, &mut track)?;
        let passes = [
            (&self.low_pass, true),
            (&self.high_pass, false),
            (&self.high_pass, true),
        ];
        for (response, backward) in passes {
            track.truncate(self.end);
            rfft_into(&track, 2 * (response.len() - 1), &mut bins)?;
            for (bin, &h) in bins.iter_mut().zip(response) {
                *bin *= if backward { h.conj() } else { h };
            }
            irfft_into(&mut bins, &mut track)?;
        }
        track.truncate(self.end);
        Ok(track)
    }
}

/// The extraction trials ran before the one-transform shadow correlation:
/// `filtfilt` passes of the Butterworth cascades and a full-rate Hilbert
/// envelope.  Kept as the reference the mask path is checked against.
#[cfg(test)]
mod reference {
    use super::{DefenseFeatures, WelchScratch, SHADOW_BAND_HZ, VOICE_BAND_HZ};
    use ivc_dsp::correlation::pearson_correlation;
    use ivc_dsp::envelope::hilbert_envelope;
    use ivc_dsp::filter::biquad::BiquadCascade;
    use ivc_dsp::signal::Signal;
    use ivc_dsp::Result;

    pub(super) fn extract(recording: &Signal) -> Result<DefenseFeatures> {
        let normalized = DefenseFeatures::normalize(recording)?;
        let (shadow_power_ratio_db, spectral_tilt_db_per_khz) =
            DefenseFeatures::psd_half(&normalized, &mut WelchScratch::new())?;
        let fs = recording.sample_rate_hz();
        let samples = normalized.0.samples();
        // Low band: everything below ~80 Hz.
        let low_lpf = BiquadCascade::butterworth_low_pass(SHADOW_BAND_HZ.1, 4, fs)?;
        let high_cut = BiquadCascade::butterworth_high_pass(SHADOW_BAND_HZ.0.max(2.0), 2, fs)?;
        let shadow_track = high_cut.filtfilt(&low_lpf.filtfilt(samples));
        // Voice band envelope squared, then restricted to the same low band.
        let voice_bpf =
            BiquadCascade::butterworth_band_pass(VOICE_BAND_HZ.0, VOICE_BAND_HZ.1, 4, fs)?;
        let voice_band = voice_bpf.filtfilt(samples);
        let envelope = hilbert_envelope(&voice_band)?;
        let squared_env: Vec<f64> = envelope.iter().map(|e| e * e).collect();
        let env_low = high_cut.filtfilt(&low_lpf.filtfilt(&squared_env));
        // Trim filter edge transients before correlating.
        let trim = (fs * 0.05) as usize;
        let shadow_correlation = if shadow_track.len() > 2 * trim + 16 {
            pearson_correlation(
                &shadow_track[trim..shadow_track.len() - trim],
                &env_low[trim..env_low.len() - trim],
            )?
        } else {
            pearson_correlation(&shadow_track, &env_low)?
        };
        Ok(DefenseFeatures {
            shadow_power_ratio_db,
            shadow_correlation,
            spectral_tilt_db_per_khz,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_acoustics::environment::AirEnvironment;
    use ivc_acoustics::microphone::{CaptureScratch, DevicePreset};
    use ivc_acoustics::propagation::propagate;
    use ivc_acoustics::speaker;
    use ivc_acoustics::spl::spl_db_to_pressure;
    use ivc_attack::single::SingleSpeakerAttack;
    use ivc_core::scenario::{Delivery, Scenario};
    use ivc_core::stages::PreparedCell;

    /// Amplitude-modulated voice-like signal at `fs`: components at
    /// 350/1200/2500 Hz with a 4 Hz syllabic envelope (gives the
    /// envelope² trace something to correlate with).
    fn synthetic_voice_at(fs: f64) -> Signal {
        let n = (0.6 * fs) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let syllable = 0.55 + 0.45 * (2.0 * std::f64::consts::PI * 4.0 * t).sin();
                syllable
                    * (0.5 * (2.0 * std::f64::consts::PI * 350.0 * t).sin()
                        + 0.35 * (2.0 * std::f64::consts::PI * 1_200.0 * t).sin()
                        + 0.2 * (2.0 * std::f64::consts::PI * 2_500.0 * t).sin())
            })
            .collect();
        let mut s = Signal::new(samples, fs).unwrap();
        s.normalize_peak(0.5);
        s
    }

    fn synthetic_voice() -> Signal {
        synthetic_voice_at(48_000.0)
    }

    fn legit_recording() -> Signal {
        // Voice at conversational level propagated 1.5 m to the phone.
        let voice = synthetic_voice();
        let pressure =
            voice.scaled(spl_db_to_pressure(68.0) * std::f64::consts::SQRT_2 / voice.peak());
        let env = AirEnvironment::default();
        let at_mic = propagate(&pressure, 1.5, &env).unwrap();
        DevicePreset::AndroidPhone
            .microphone()
            .capture(&at_mic, 11)
            .unwrap()
    }

    fn attack_recording() -> Signal {
        let voice = synthetic_voice();
        let attack = SingleSpeakerAttack::build(&voice, 40_000.0).unwrap();
        let emitted = speaker::emit_at_1m(&attack.drive, 25.0).unwrap();
        let env = AirEnvironment::default();
        let at_mic = propagate(&emitted, 1.5, &env).unwrap();
        DevicePreset::AndroidPhone
            .microphone()
            .capture(&at_mic, 12)
            .unwrap()
    }

    /// Features 1 and 3 bit-equal to the reference's, feature 2 within
    /// `0.01` of it.
    fn assert_matches_reference(recording: &Signal, what: &str) {
        let fast = DefenseFeatures::extract(recording).unwrap();
        let slow = reference::extract(recording).unwrap();
        assert_eq!(
            fast.shadow_power_ratio_db.to_bits(),
            slow.shadow_power_ratio_db.to_bits(),
            "{what}"
        );
        assert_eq!(
            fast.spectral_tilt_db_per_khz.to_bits(),
            slow.spectral_tilt_db_per_khz.to_bits(),
            "{what}"
        );
        assert!(
            (fast.shadow_correlation - slow.shadow_correlation).abs() < 0.01,
            "{what}: shadow correlation {} vs reference {}",
            fast.shadow_correlation,
            slow.shadow_correlation
        );
    }

    #[test]
    fn validation() {
        assert!(DefenseFeatures::extract(&Signal::new(vec![], 48_000.0).unwrap()).is_err());
        assert!(
            DefenseFeatures::extract(&Signal::tone(100.0, 0.3, 0.2, 4_000.0).unwrap()).is_err()
        );
        assert_eq!(DefenseFeatures::NAMES.len(), DefenseFeatures::DIMENSION);
    }

    #[test]
    fn feature_vector_has_fixed_dimension() {
        let rec = legit_recording();
        let f = DefenseFeatures::extract(&rec).unwrap();
        assert_eq!(f.to_vector().len(), DefenseFeatures::DIMENSION);
        for v in f.to_vector() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn attack_recordings_have_stronger_shadow_band() {
        let legit = DefenseFeatures::extract(&legit_recording()).unwrap();
        let attack = DefenseFeatures::extract(&attack_recording()).unwrap();
        assert!(
            attack.shadow_power_ratio_db > legit.shadow_power_ratio_db + 6.0,
            "attack {} dB vs legit {} dB",
            attack.shadow_power_ratio_db,
            legit.shadow_power_ratio_db
        );
    }

    #[test]
    fn attack_recordings_have_higher_shadow_correlation() {
        let legit = DefenseFeatures::extract(&legit_recording()).unwrap();
        let attack = DefenseFeatures::extract(&attack_recording()).unwrap();
        assert!(
            attack.shadow_correlation > legit.shadow_correlation + 0.15,
            "attack {} vs legit {}",
            attack.shadow_correlation,
            legit.shadow_correlation
        );
    }

    #[test]
    fn features_are_level_invariant() {
        let rec = attack_recording();
        let quiet = rec.scaled(0.05);
        let a = DefenseFeatures::extract(&rec).unwrap();
        let b = DefenseFeatures::extract(&quiet).unwrap();
        assert!((a.shadow_power_ratio_db - b.shadow_power_ratio_db).abs() < 1.0);
        assert!((a.shadow_correlation - b.shadow_correlation).abs() < 0.1);
    }

    #[test]
    fn halves_compose_to_extract() {
        let rec = attack_recording();
        let normalized = DefenseFeatures::normalize(&rec).unwrap();
        // A scratch that already served a shorter recording.
        let mut scratch = WelchScratch::new();
        let shorter = DefenseFeatures::normalize(&rec.slice_seconds(0.0, 0.1)).unwrap();
        DefenseFeatures::psd_half(&shorter, &mut scratch).unwrap();
        let (ratio, tilt) = DefenseFeatures::psd_half(&normalized, &mut scratch).unwrap();
        let correlation = DefenseFeatures::shadow_half(&normalized).unwrap();
        let whole = DefenseFeatures::extract(&rec).unwrap();
        assert_eq!(
            [ratio, correlation, tilt].map(f64::to_bits),
            [
                whole.shadow_power_ratio_db,
                whole.shadow_correlation,
                whole.spectral_tilt_db_per_khz
            ]
            .map(f64::to_bits)
        );
    }

    #[test]
    fn voice_band_masks_are_the_zero_phase_gain_of_the_butterworth_designs() {
        for fs in [16_000.0, 48_000.0, 192_000.0] {
            let edges = [
                (
                    Butterworth::high_pass(VOICE_BAND_HZ.0, VOICE_BAND_ORDER, fs),
                    BiquadCascade::butterworth_high_pass(VOICE_BAND_HZ.0, VOICE_BAND_ORDER, fs),
                ),
                (
                    Butterworth::low_pass(VOICE_BAND_HZ.1, VOICE_BAND_ORDER, fs),
                    BiquadCascade::butterworth_low_pass(VOICE_BAND_HZ.1, VOICE_BAND_ORDER, fs),
                ),
            ];
            for (mask, cascade) in edges {
                let cascade = cascade.unwrap();
                for f in [20.0, 100.0, 300.0, 1_000.0, 4_000.0, 7_000.0] {
                    let w = 2.0 * PI * f / fs;
                    let design: f64 = cascade
                        .sections()
                        .iter()
                        .map(|s| s.response(Complex::cis(-w)).norm_sqr())
                        .product();
                    let closed = mask.gain((PI * f / fs).tan());
                    assert!(
                        (closed - design).abs() <= 1e-7 * design + 1e-15,
                        "{fs} Hz rate, {f} Hz: mask {closed} vs design {design}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_voice_band_is_clipped_at_nyquist() {
        let mask = Butterworth::low_pass(VOICE_BAND_HZ.1, VOICE_BAND_ORDER, 8_000.0);
        for k in 0..=64 {
            assert_eq!(mask.gain((PI * k as f64 / 128.0).tan()), 1.0, "bin {k}");
        }
    }

    #[test]
    fn low_rate_recordings_give_finite_features() {
        for fs in [8_000.0, 16_000.0] {
            let voice = synthetic_voice_at(fs);
            // The square-law trace of an AM attack: voice plus its square.
            let demodulated: Vec<f64> = voice.samples().iter().map(|v| v + 0.5 * v * v).collect();
            for rec in [voice.clone(), Signal::new(demodulated, fs).unwrap()] {
                let f = DefenseFeatures::extract(&rec)
                    .unwrap_or_else(|e| panic!("{fs} Hz recording refused: {e}"));
                assert!(
                    f.to_vector().iter().all(|v| v.is_finite()),
                    "{fs} Hz: {f:?}"
                );
            }
        }
    }

    #[test]
    fn degenerate_recordings_never_panic() {
        let fs = 48_000.0;
        let short: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).sin()).collect();
        for samples in [short, vec![0.0; 4_800], vec![0.25; 4_800], vec![1.0]] {
            let len = samples.len();
            if let Ok(f) = DefenseFeatures::extract(&Signal::new(samples, fs).unwrap()) {
                assert!(f.to_vector().iter().all(|v| v.is_finite()), "{len}: {f:?}");
            }
        }
    }

    #[test]
    fn matches_the_filtfilt_reference_on_module_recordings() {
        assert_matches_reference(&legit_recording(), "legitimate");
        assert_matches_reference(&attack_recording(), "attack");
    }

    /// Trial-path captures of the benchmark's `repeat` shape: a legitimate
    /// talker at 65 dB and an 8-element 40 W array, at 1.5 and 3 m, on both
    /// devices, over four seeds, each through Prepare and Perturb.
    #[test]
    fn matches_the_filtfilt_reference_on_trial_captures() {
        let command = &ivc_speech::commands::corpus()[0];
        let seeds = [1u64, 2, 3, 4];
        let mut scratch = CaptureScratch::new();
        for device in [DevicePreset::AndroidPhone, DevicePreset::AmazonEcho] {
            for delivery in [
                Delivery::Legitimate {
                    talker_spl_db: 65.0,
                },
                Delivery::ArrayUltrasound {
                    num_elements: 8,
                    total_power_w: 40.0,
                    carrier_hz: 40_000.0,
                },
            ] {
                for distance_m in [1.5, 3.0] {
                    let scenario = Scenario {
                        device,
                        distance_m,
                        delivery,
                        max_voice_duration_s: 0.6,
                        ..Scenario::default_attack()
                    };
                    let cell = PreparedCell::prepare(command, &scenario, &seeds).unwrap();
                    for seed in seeds {
                        let recording = cell.perturb(seed, &mut scratch).unwrap();
                        let what = format!("{device:?} {delivery:?} {distance_m} m seed {seed}");
                        assert_matches_reference(&recording, &what);
                    }
                }
            }
        }
    }
}
