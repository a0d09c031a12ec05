//! The victim device's capture chain.
//!
//! A MEMS microphone followed by an amplifier and an ADC, as sketched in the
//! paper's Figure 2: transducer → amplifier → low-pass filter → ADC.  The
//! security-relevant property is that the transducer + amplifier are *not*
//! perfectly linear and they see the full ultrasonic pressure before any
//! filtering happens; the quadratic term therefore demodulates AM ultrasound
//! into the audible band, where it sails through the anti-alias filter and
//! into the speech recogniser.

use crate::adc::{digitize, AdcConfig};
use crate::error::{AcousticsError, Result};
use crate::noise::add_white_noise;
use crate::nonlinearity::Polynomial;
use crate::shaping::{one_pole_low_pass_gain, shape_spectrum_into};
use crate::spl::spl_db_to_pressure;
use ivc_dsp::complex::Complex;
use ivc_dsp::signal::Signal;

/// Reusable buffers for [`Microphone::capture_with_scratch`]: the
/// half-spectrum workspace of the front-end shaping stage and the
/// analog-chain work buffer.  One arena per worker thread removes the
/// per-trial allocations of the capture path.
#[derive(Debug, Default)]
pub struct CaptureScratch {
    spectrum: Vec<Complex>,
    work: Vec<f64>,
}

impl CaptureScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        CaptureScratch::default()
    }

    /// Returns the buffer of an analog signal from
    /// [`Microphone::analog_front_end`] to the arena for the next capture.
    pub fn recycle(&mut self, analog: Signal) {
        self.work = analog.into_samples();
    }
}

/// [`Microphone::front_end_gain`] with its per-capture invariants — both
/// grille losses as linear gains and the mechanical roll-off's reference
/// at 20 kHz — computed once instead of at every spectrum bin.
struct FrontEndResponse {
    grille_audible: f64,
    grille_ultrasonic: f64,
    corner_hz: f64,
    roll_off_reference: f64,
}

impl FrontEndResponse {
    fn new(mic: &Microphone) -> Self {
        FrontEndResponse {
            grille_audible: 10f64.powf(-mic.grille_loss_audible_db / 20.0),
            grille_ultrasonic: 10f64.powf(-mic.grille_loss_ultrasonic_db / 20.0),
            corner_hz: mic.transducer_corner_hz,
            roll_off_reference: one_pole_low_pass_gain(20_000.0, mic.transducer_corner_hz),
        }
    }

    /// Bit-equal to [`Microphone::front_end_gain`] at every frequency.
    fn gain(&self, frequency_hz: f64) -> f64 {
        let grille = if frequency_hz >= 20_000.0 {
            self.grille_ultrasonic
        } else {
            self.grille_audible
        };
        let mechanical = if frequency_hz <= 20_000.0 {
            1.0
        } else {
            one_pole_low_pass_gain(frequency_hz, self.corner_hz) / self.roll_off_reference
        };
        grille * mechanical
    }
}

/// Device presets with parameters representative of the paper's targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevicePreset {
    /// A smartphone with an exposed bottom-port MEMS microphone.
    AndroidPhone,
    /// A smart speaker whose microphones sit behind a plastic grille, which
    /// adds insertion loss that is worst in the ultrasonic range.
    AmazonEcho,
    /// An idealised perfectly linear microphone (for ablations: with no
    /// non-linearity the attack cannot work at all).
    LinearReference,
}

impl DevicePreset {
    /// All presets, in a stable order (useful for tables).
    pub const ALL: [DevicePreset; 3] = [
        DevicePreset::AndroidPhone,
        DevicePreset::AmazonEcho,
        DevicePreset::LinearReference,
    ];

    /// Human-readable device name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            DevicePreset::AndroidPhone => "Android phone",
            DevicePreset::AmazonEcho => "Amazon Echo",
            DevicePreset::LinearReference => "Linear reference",
        }
    }

    /// Builds the microphone model for this preset.
    pub fn microphone(&self) -> Microphone {
        match self {
            DevicePreset::AndroidPhone => Microphone {
                acoustic_overload_point_db_spl: 120.0,
                grille_loss_audible_db: 0.0,
                grille_loss_ultrasonic_db: 2.0,
                transducer_corner_hz: 35_000.0,
                nonlinearity: Polynomial {
                    g1: 1.0,
                    g2: 0.6,
                    g3: 0.08,
                },
                self_noise_db_spl: 29.0,
                adc: AdcConfig {
                    output_rate_hz: 48_000.0,
                    bits: 16,
                    noise_floor_dbfs: -92.0,
                    anti_alias_fraction: 0.9,
                },
            },
            DevicePreset::AmazonEcho => Microphone {
                acoustic_overload_point_db_spl: 120.0,
                grille_loss_audible_db: 1.0,
                grille_loss_ultrasonic_db: 9.0,
                transducer_corner_hz: 30_000.0,
                nonlinearity: Polynomial {
                    g1: 1.0,
                    g2: 0.55,
                    g3: 0.07,
                },
                self_noise_db_spl: 31.0,
                adc: AdcConfig {
                    output_rate_hz: 48_000.0,
                    bits: 16,
                    noise_floor_dbfs: -90.0,
                    anti_alias_fraction: 0.9,
                },
            },
            DevicePreset::LinearReference => Microphone {
                acoustic_overload_point_db_spl: 120.0,
                grille_loss_audible_db: 0.0,
                grille_loss_ultrasonic_db: 0.0,
                transducer_corner_hz: 35_000.0,
                nonlinearity: Polynomial::LINEAR,
                self_noise_db_spl: 25.0,
                adc: AdcConfig {
                    output_rate_hz: 48_000.0,
                    bits: 16,
                    noise_floor_dbfs: -95.0,
                    anti_alias_fraction: 0.9,
                },
            },
        }
    }
}

/// Full microphone + ADC capture-chain model.
#[derive(Debug, Clone, PartialEq)]
pub struct Microphone {
    /// SPL (dB) that maps to digital full scale.
    pub acoustic_overload_point_db_spl: f64,
    /// Insertion loss of the device's grille/port below 20 kHz, in dB.
    pub grille_loss_audible_db: f64,
    /// Insertion loss of the grille/port above 20 kHz, in dB.  Plastic
    /// covers attenuate ultrasound more than audible sound, which is why the
    /// paper's Echo needed the attacker to stand closer than the phone.
    pub grille_loss_ultrasonic_db: f64,
    /// Corner frequency of the transducer's mechanical response, in Hz.
    /// Ultrasound above this corner still reaches the non-linearity, just
    /// attenuated.
    pub transducer_corner_hz: f64,
    /// Non-linearity of the transducer + amplifier, applied to the
    /// full-scale-normalised analog signal.
    pub nonlinearity: Polynomial,
    /// Equivalent self-noise of the capsule, as an SPL in dB.
    pub self_noise_db_spl: f64,
    /// ADC stage configuration.
    pub adc: AdcConfig,
}

impl Microphone {
    /// Gain of the acoustic front-end (grille + transducer response) at
    /// `frequency_hz`, linear.
    pub fn front_end_gain(&self, frequency_hz: f64) -> f64 {
        let grille_db = if frequency_hz >= 20_000.0 {
            self.grille_loss_ultrasonic_db
        } else {
            self.grille_loss_audible_db
        };
        let grille = 10f64.powf(-grille_db / 20.0);
        // The transducer is flat through the audio band and rolls off above
        // its mechanical corner.
        let mechanical = if frequency_hz <= 20_000.0 {
            1.0
        } else {
            one_pole_low_pass_gain(frequency_hz, self.transducer_corner_hz)
                / one_pole_low_pass_gain(20_000.0, self.transducer_corner_hz)
        };
        grille * mechanical
    }

    /// Converts a pressure waveform at the microphone port (pascal) into the
    /// digital recording the device's software receives.
    ///
    /// The stages, in order: grille/transducer response → capsule self noise
    /// → normalisation against the acoustic overload point → polynomial
    /// non-linearity → anti-alias filter + resampling + quantisation.
    pub fn capture(&self, pressure_at_port: &Signal, seed: u64) -> Result<Signal> {
        self.capture_with_scratch(pressure_at_port, seed, &mut CaptureScratch::new())
    }

    /// [`Microphone::capture`] reusing a caller-owned scratch arena for the
    /// intermediate buffers (front-end shaping workspace and the analog
    /// chain), bit-identical to the allocating path.
    pub fn capture_with_scratch(
        &self,
        pressure_at_port: &Signal,
        seed: u64,
        scratch: &mut CaptureScratch,
    ) -> Result<Signal> {
        let analog = self.analog_front_end(pressure_at_port, seed, scratch)?;
        let digital = digitize(&analog, &self.adc, seed);
        scratch.recycle(analog);
        digital
    }

    /// The analog half of [`Microphone::capture`]: grille/transducer
    /// response, capsule self noise, normalisation against the acoustic
    /// overload point and the non-linearity.  The result, at the input
    /// rate and relative to full scale, is what [`digitize`] with this
    /// microphone's `adc` turns into the recording.
    ///
    /// It is [`Microphone::front_end_shaping`] followed by
    /// [`Microphone::front_end_self_noise`]; callers that time the two
    /// halves separately call them in turn.
    ///
    /// The returned signal owns the arena's work buffer; hand it back with
    /// [`CaptureScratch::recycle`] once digitised.
    pub fn analog_front_end(
        &self,
        pressure_at_port: &Signal,
        seed: u64,
        scratch: &mut CaptureScratch,
    ) -> Result<Signal> {
        let shaped = self.front_end_shaping(pressure_at_port, scratch)?;
        self.front_end_self_noise(shaped, seed)
    }

    /// The first half of [`Microphone::analog_front_end`]: the
    /// grille/transducer response applied in the frequency domain, in
    /// pascal, written into the arena's work buffer.
    pub fn front_end_shaping(
        &self,
        pressure_at_port: &Signal,
        scratch: &mut CaptureScratch,
    ) -> Result<Signal> {
        if pressure_at_port.is_empty() {
            return Err(AcousticsError::invalid("pressure_at_port", "empty signal"));
        }
        let mut work = std::mem::take(&mut scratch.work);
        let response = FrontEndResponse::new(self);
        shape_spectrum_into(
            pressure_at_port,
            |f| response.gain(f),
            &mut scratch.spectrum,
            &mut work,
        )?;
        Ok(Signal::new(work, pressure_at_port.sample_rate_hz())?)
    }

    /// The second half of [`Microphone::analog_front_end`]: capsule self
    /// noise, normalisation to full scale and the non-linearity, in place
    /// on the output of [`Microphone::front_end_shaping`].
    pub fn front_end_self_noise(&self, shaped: Signal, seed: u64) -> Result<Signal> {
        let sample_rate_hz = shaped.sample_rate_hz();
        let mut work = shaped.into_samples();
        // Capsule self noise (pressure-equivalent, added before the
        // non-linearity like the real thermal-acoustic noise is).
        let noise_rms_pa = spl_db_to_pressure(self.self_noise_db_spl);
        add_white_noise(
            &mut work,
            noise_rms_pa,
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )?;

        // Normalise to full scale at the acoustic overload point.
        let fs_pressure_peak =
            spl_db_to_pressure(self.acoustic_overload_point_db_spl) * std::f64::consts::SQRT_2;
        let gain = 1.0 / fs_pressure_peak;
        for s in work.iter_mut() {
            *s *= gain;
        }

        // Transducer/amplifier non-linearity (memoryless).
        self.nonlinearity.apply_in_place(&mut work);
        Ok(Signal::new(work, sample_rate_hz)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivc_dsp::spectrum::band_power;

    fn pressure_tone(freq: f64, spl_db: f64, dur: f64, fs: f64) -> Signal {
        let amp = spl_db_to_pressure(spl_db) * std::f64::consts::SQRT_2;
        Signal::tone(freq, amp, dur, fs).unwrap()
    }

    #[test]
    fn presets_have_expected_ordering() {
        let phone = DevicePreset::AndroidPhone.microphone();
        let echo = DevicePreset::AmazonEcho.microphone();
        let linear = DevicePreset::LinearReference.microphone();
        assert!(echo.grille_loss_ultrasonic_db > phone.grille_loss_ultrasonic_db);
        assert!(linear.nonlinearity.is_linear());
        assert!(!phone.nonlinearity.is_linear());
        assert_eq!(DevicePreset::AndroidPhone.name(), "Android phone");
        assert_eq!(DevicePreset::ALL.len(), 3);
    }

    #[test]
    fn capture_rejects_empty_input() {
        let mic = DevicePreset::AndroidPhone.microphone();
        assert!(mic
            .capture(&Signal::new(vec![], 192_000.0).unwrap(), 0)
            .is_err());
    }

    #[test]
    fn normal_speech_level_records_cleanly() {
        // 70 dB SPL of 1 kHz at the port: a normal conversational level.
        let mic = DevicePreset::AndroidPhone.microphone();
        let p = pressure_tone(1_000.0, 70.0, 0.3, 192_000.0);
        let rec = mic.capture(&p, 1).unwrap();
        assert_eq!(rec.sample_rate_hz(), 48_000.0);
        let tone = band_power(rec.samples(), 48_000.0, 800.0, 1_200.0).unwrap();
        let rest = band_power(rec.samples(), 48_000.0, 2_000.0, 20_000.0).unwrap();
        assert!(tone / rest > 100.0, "tone/rest {}", tone / rest);
        // Recording level: 70 dB SPL is 50 dB below the 120 dB AOP,
        // i.e. amplitude ~3e-3 of full scale.
        assert!(
            rec.peak() > 1e-3 && rec.peak() < 1e-2,
            "peak {}",
            rec.peak()
        );
    }

    #[test]
    fn ultrasonic_tone_alone_leaves_almost_nothing_in_recording() {
        // A single strong 40 kHz tone: the non-linearity produces only DC
        // and 80 kHz terms, so the recording should be near the noise floor.
        let mic = DevicePreset::AndroidPhone.microphone();
        let p = pressure_tone(40_000.0, 110.0, 0.3, 192_000.0);
        let rec = mic.capture(&p, 1).unwrap();
        let audible = band_power(rec.samples(), 48_000.0, 300.0, 20_000.0).unwrap();
        assert!(audible < 1e-6, "audible power {audible}");
    }

    #[test]
    fn am_ultrasound_demodulates_into_the_voice_band() {
        // Carrier at 40 kHz, sidebands at 40 +- 1 kHz (an AM pair carrying a
        // 1 kHz "voice"): the quadratic term must put a clear 1 kHz tone in
        // the recording even though nothing below 20 kHz was transmitted.
        let fs = 192_000.0;
        let mic = DevicePreset::AndroidPhone.microphone();
        let spl = 105.0;
        let amp = spl_db_to_pressure(spl) * std::f64::consts::SQRT_2;
        let n = (0.4 * fs) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let m = 1.0 + 0.9 * (2.0 * std::f64::consts::PI * 1_000.0 * t).cos();
                0.5 * amp * m * (2.0 * std::f64::consts::PI * 40_000.0 * t).cos()
            })
            .collect();
        let p = Signal::new(samples, fs).unwrap();
        let rec = mic.capture(&p, 1).unwrap();
        let tone = band_power(rec.samples(), 48_000.0, 900.0, 1_100.0).unwrap();
        let background = band_power(rec.samples(), 48_000.0, 5_000.0, 15_000.0).unwrap();
        assert!(
            tone / background > 30.0,
            "demodulated tone/background {}",
            tone / background
        );
    }

    #[test]
    fn linear_reference_microphone_defeats_the_injection() {
        let fs = 192_000.0;
        let mic = DevicePreset::LinearReference.microphone();
        let spl = 105.0;
        let amp = spl_db_to_pressure(spl) * std::f64::consts::SQRT_2;
        let n = (0.4 * fs) as usize;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                let m = 1.0 + 0.9 * (2.0 * std::f64::consts::PI * 1_000.0 * t).cos();
                0.5 * amp * m * (2.0 * std::f64::consts::PI * 40_000.0 * t).cos()
            })
            .collect();
        let p = Signal::new(samples, fs).unwrap();
        let rec = mic.capture(&p, 1).unwrap();
        let tone = band_power(rec.samples(), 48_000.0, 900.0, 1_100.0).unwrap();
        // With no non-linearity the only in-band content is noise.
        let noise = band_power(rec.samples(), 48_000.0, 5_000.0, 15_000.0).unwrap();
        assert!(tone < noise * 10.0, "tone {tone} vs noise {noise}");
    }

    #[test]
    fn echo_grille_attenuates_ultrasound_more_than_phone() {
        let phone = DevicePreset::AndroidPhone.microphone();
        let echo = DevicePreset::AmazonEcho.microphone();
        assert!(echo.front_end_gain(40_000.0) < phone.front_end_gain(40_000.0));
        // Audible band gains are comparable.
        assert!((echo.front_end_gain(1_000.0) - phone.front_end_gain(1_000.0)).abs() < 0.2);
    }

    #[test]
    fn hoisted_front_end_response_is_bit_equal_at_every_bin() {
        use ivc_dsp::fft::bin_frequency;
        for device in DevicePreset::ALL {
            let mic = device.microphone();
            let response = FrontEndResponse::new(&mic);
            for (n, fs) in [(1usize << 15, 48_000.0), (1 << 17, 192_000.0)] {
                for k in 0..=n / 2 {
                    let f = bin_frequency(k, n, fs);
                    assert_eq!(
                        response.gain(f).to_bits(),
                        mic.front_end_gain(f).to_bits(),
                        "{device:?} at bin {k} of {n} ({f} Hz)"
                    );
                }
            }
            // Both boundaries sit exactly at 20 kHz.
            for f in [19_999.999, 20_000.0, 20_000.001] {
                assert_eq!(response.gain(f).to_bits(), mic.front_end_gain(f).to_bits());
            }
        }
    }

    #[test]
    fn front_end_halves_compose_to_the_whole() {
        let mic = DevicePreset::AmazonEcho.microphone();
        let p = pressure_tone(40_000.0, 100.0, 0.05, 192_000.0);
        let mut scratch = CaptureScratch::new();
        let whole = mic.analog_front_end(&p, 5, &mut scratch).unwrap();
        let shaped = mic
            .front_end_shaping(&p, &mut CaptureScratch::new())
            .unwrap();
        let halves = mic.front_end_self_noise(shaped, 5).unwrap();
        assert_eq!(whole, halves);
    }

    #[test]
    fn capture_is_deterministic_per_seed() {
        let mic = DevicePreset::AndroidPhone.microphone();
        let p = pressure_tone(1_000.0, 70.0, 0.2, 192_000.0);
        let a = mic.capture(&p, 7).unwrap();
        let b = mic.capture(&p, 7).unwrap();
        let c = mic.capture(&p, 8).unwrap();
        assert_eq!(a.samples(), b.samples());
        assert_ne!(a.samples(), c.samples());
    }
}
