//! The victim device's capture chain.
//!
//! A MEMS microphone followed by an amplifier and an ADC, as sketched in the
//! paper's Figure 2: transducer → amplifier → low-pass filter → ADC.  The
//! security-relevant property is that the transducer + amplifier are *not*
//! perfectly linear and they see the full ultrasonic pressure before any
//! filtering happens; the quadratic term therefore demodulates AM ultrasound
//! into the audible band, where it sails through the anti-alias filter and
//! into the speech recogniser.
//!
//! Everything before the non-linearity is linear, so the chain runs there
//! in the frequency domain.  The grille/transducer response `H(f)` is a
//! zero-phase gain, and ambient noise and capsule self noise both enter
//! before the non-linearity, so `shape(clean + ambient) + self` is equal in
//! distribution to `H·X + G`: `X` is the clean pressure's spectrum and `G`
//! one Gaussian process with power spectrum `|H|²·S_ambient + σ²_self`.
//! A capture therefore splits into what is fixed per path and what is
//! drawn per seed:
//!
//! * [`Microphone::shape_path`] — `H·X`, once per clean path
//!   ([`ShapedPath`]);
//! * [`Microphone::noise_shape`] — `√PSD` per bin ([`NoiseShape`]), a
//!   pure function of the device, the transform length, the rate and the
//!   ambient level, so every path of one device, length, rate and level
//!   shares one table (the Prepare stage caches it under those four);
//! * per capture: one Gaussian draw of the noise bins
//!   ([`NoiseShape::draw`]), the sum with `H·X` and one inverse FFT
//!   ([`Microphone::front_end_synthesis`]), the non-linearity
//!   ([`Microphone::front_end_nonlinearity`]) and the ADC
//!   ([`digitize`]).
//!
//! [`Microphone::capture`] runs all of it for one pressure waveform.

use crate::adc::digitize;
use crate::noise::{ambient_psd, NormalSampler};
use crate::nonlinearity::Polynomial;
use crate::shaping::one_pole_low_pass_gain;
use crate::spl::spl_db_to_pressure;
use ivc_dsp::complex::Complex;
use ivc_dsp::fft::{bin_frequency, irfft_into, next_power_of_two, rfft_into};
use ivc_dsp::signal::Signal;
use ivc_dsp::{DspError, Result};

/// Reusable buffers for [`Microphone::capture_shaped`]: the half spectrum
/// the noise is drawn into and the analog-chain work buffer.  One arena
/// per worker thread removes the per-trial allocations of the capture
/// path.
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
    /// [`Microphone::front_end_synthesis`] to the arena for the next
    /// capture.
    pub fn recycle(&mut self, analog: Signal) {
        self.work = analog.into_samples();
    }
}

/// A clean pressure path at the device port, through the front end: the
/// half spectrum `H·X` of its `transform_len`-point transform, scaled to
/// digital full scale.  Fixed per path, so every capture of it shares one.
///
/// It is computed in double precision and held in single precision
/// (`[re, im]` per bin), which halves what a prepared cell keeps: the
/// rounding, about −144 dB relative to each bin, is far below the 16-bit
/// converter's quantisation step (−98 dBFS).
#[derive(Debug, Clone, PartialEq)]
pub struct ShapedPath {
    spectrum: Vec<[f32; 2]>,
    len: usize,
    sample_rate_hz: f64,
}

impl ShapedPath {
    /// Length of the transform, a power of two no shorter than the path.
    pub fn transform_len(&self) -> usize {
        2 * (self.spectrum.len() - 1)
    }

    /// Sample rate of the path, in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// Bytes the spectrum holds.
    pub fn byte_size(&self) -> usize {
        self.spectrum.len() * std::mem::size_of::<[f32; 2]>()
    }
}

/// The noise at the non-linearity's input — ambient room noise through the
/// front end plus capsule self noise — as the standard deviation of each
/// real component of each bin of a `transform_len`-point half spectrum,
/// scaled to digital full scale.  Held in single precision, like
/// [`ShapedPath`].
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseShape {
    deviation: Vec<f32>,
}

impl NoiseShape {
    /// Bytes the table holds.
    pub fn byte_size(&self) -> usize {
        self.deviation.len() * std::mem::size_of::<f32>()
    }

    /// Draws capture `seed`'s noise bins into the arena's spectrum: one
    /// complex Gaussian per bin (real at DC and Nyquist), scaled by the
    /// shape.  The stream is the seed's front-end stream; the ADC's noise
    /// floor draws from the seed itself.
    pub fn draw(&self, seed: u64, scratch: &mut CaptureScratch) {
        let mut sampler = NormalSampler::new(seed ^ 0xDEAD_BEEF);
        let bins = &mut scratch.spectrum;
        bins.clear();
        bins.reserve_exact(self.deviation.len());
        let (&dc, rest) = self.deviation.split_first().expect("at least two bins");
        let (&nyquist, interior) = rest.split_last().expect("at least two bins");
        bins.push(Complex::from_real(f64::from(dc) * sampler.sample()));
        for &deviation in interior {
            let deviation = f64::from(deviation);
            let re = deviation * sampler.sample();
            bins.push(Complex::new(re, deviation * sampler.sample()));
        }
        bins.push(Complex::from_real(f64::from(nyquist) * sampler.sample()));
    }
}

/// The acoustic front-end's gain (grille + transducer response) with its
/// per-capture invariants — both grille losses as linear gains and the
/// mechanical roll-off's reference at 20 kHz — computed once instead of at
/// every spectrum bin.
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

    /// Linear gain at `frequency_hz`.  The grille loss switches to its
    /// ultrasonic value at 20 kHz; the transducer is flat through the
    /// audio band and rolls off above its mechanical corner.
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
                adc_noise_floor_dbfs: -92.0,
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
                adc_noise_floor_dbfs: -90.0,
            },
            DevicePreset::LinearReference => Microphone {
                acoustic_overload_point_db_spl: 120.0,
                grille_loss_audible_db: 0.0,
                grille_loss_ultrasonic_db: 0.0,
                transducer_corner_hz: 35_000.0,
                nonlinearity: Polynomial::LINEAR,
                self_noise_db_spl: 25.0,
                adc_noise_floor_dbfs: -95.0,
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
    /// The ADC's equivalent input noise, in dB relative to full scale
    /// (the converter's other settings are the constants of
    /// [`crate::adc`]).
    pub adc_noise_floor_dbfs: f64,
}

impl Microphone {
    /// Converts a pressure waveform at the microphone port (pascal) into the
    /// digital recording the device's software receives, with capsule self
    /// noise and no ambient noise.
    ///
    /// The stages, in order: grille/transducer response and capsule self
    /// noise (one frequency-domain synthesis) → normalisation against the
    /// acoustic overload point → polynomial non-linearity → anti-alias
    /// filter + resampling + quantisation.
    pub fn capture(&self, pressure_at_port: &Signal, seed: u64) -> Result<Signal> {
        let path = self.shape_path(pressure_at_port)?;
        let noise = self.noise_shape(path.transform_len(), path.sample_rate_hz(), None)?;
        self.capture_shaped(&path, &noise, seed, &mut CaptureScratch::new())
    }

    /// Captures `path` with noise drawn from `noise` for `seed`, reusing a
    /// caller-owned scratch arena: [`NoiseShape::draw`],
    /// [`front_end_synthesis`](Self::front_end_synthesis),
    /// [`front_end_nonlinearity`](Self::front_end_nonlinearity) and
    /// [`digitize`] in turn.  The result does not depend on the arena's
    /// history.
    pub fn capture_shaped(
        &self,
        path: &ShapedPath,
        noise: &NoiseShape,
        seed: u64,
        scratch: &mut CaptureScratch,
    ) -> Result<Signal> {
        noise.draw(seed, scratch);
        let analog = self.analog_front_end(path, scratch)?;
        let digital = digitize(&analog, self.adc_noise_floor_dbfs, seed);
        scratch.recycle(analog);
        digital
    }

    /// Full-scale gain: the pressure peak at the acoustic overload point
    /// maps to 1.
    fn full_scale_gain(&self) -> f64 {
        1.0 / (spl_db_to_pressure(self.acoustic_overload_point_db_spl) * std::f64::consts::SQRT_2)
    }

    /// The clean part of a capture: the grille/transducer response applied
    /// to the spectrum of `pressure_at_port` (pascal), normalised to full
    /// scale.
    pub fn shape_path(&self, pressure_at_port: &Signal) -> Result<ShapedPath> {
        if pressure_at_port.is_empty() {
            return Err(DspError::invalid("pressure_at_port", "empty signal"));
        }
        let fs = pressure_at_port.sample_rate_hz();
        let n = next_power_of_two(pressure_at_port.len()).max(2);
        let mut spectrum = Vec::new();
        rfft_into(pressure_at_port.samples(), n, &mut spectrum)?;
        let response = FrontEndResponse::new(self);
        let full_scale = self.full_scale_gain();
        let spectrum = spectrum
            .iter()
            .enumerate()
            .map(|(k, value)| {
                let shaped = value.scale(response.gain(bin_frequency(k, n, fs)) * full_scale);
                [shaped.re as f32, shaped.im as f32]
            })
            .collect();
        Ok(ShapedPath {
            spectrum,
            len: pressure_at_port.len(),
            sample_rate_hz: fs,
        })
    }

    /// The noise part of a capture for a `transform_len`-point transform at
    /// `sample_rate_hz`: ambient room noise at `ambient_spl_db` (none for
    /// `None`; see [`ambient_psd`]) through the front-end response, plus
    /// white capsule self noise at `self_noise_db_spl`.  Each bin's
    /// deviation makes the inverse transform's samples carry exactly that
    /// power spectrum.
    pub fn noise_shape(
        &self,
        transform_len: usize,
        sample_rate_hz: f64,
        ambient_spl_db: Option<f64>,
    ) -> Result<NoiseShape> {
        let n = transform_len;
        if n < 2 || !n.is_power_of_two() {
            return Err(DspError::invalid(
                "transform_len",
                "must be a power of two, at least 2",
            ));
        }
        let ambient = match ambient_spl_db {
            Some(spl_db) => ambient_psd(spl_db, n, sample_rate_hz)?,
            None => vec![0.0; n / 2 + 1],
        };
        let self_noise = spl_db_to_pressure(self.self_noise_db_spl).powi(2);
        let response = FrontEndResponse::new(self);
        let full_scale = self.full_scale_gain();
        // An inverse transform scaled by 1/n turns bins of mean power
        // n·P(k) into samples of spectrum P; the interior bins split that
        // power between their real and imaginary parts.
        let deviation = ambient
            .iter()
            .enumerate()
            .map(|(k, ambient)| {
                let gain = response.gain(bin_frequency(k, n, sample_rate_hz));
                let psd = gain * gain * ambient + self_noise;
                let components = if k == 0 || k == n / 2 { 1.0 } else { 2.0 };
                (full_scale * (n as f64 * psd / components).sqrt()) as f32
            })
            .collect();
        Ok(NoiseShape { deviation })
    }

    /// The analog half of a capture, after [`NoiseShape::draw`]:
    /// [`front_end_synthesis`](Self::front_end_synthesis) then
    /// [`front_end_nonlinearity`](Self::front_end_nonlinearity).  The
    /// result, at the path's rate and relative to full scale, is what
    /// [`digitize`] at this microphone's `adc_noise_floor_dbfs` turns into
    /// the recording.
    pub fn analog_front_end(
        &self,
        path: &ShapedPath,
        scratch: &mut CaptureScratch,
    ) -> Result<Signal> {
        let synthesized = self.front_end_synthesis(path, scratch)?;
        Ok(self.front_end_nonlinearity(synthesized))
    }

    /// The signal at the non-linearity's input: the noise bins drawn into
    /// the arena plus `path`'s spectrum, through one inverse transform and
    /// truncated to the path's length.  The draw is used up: each
    /// synthesis needs a fresh [`NoiseShape::draw`] for the path's
    /// transform.  The signal is written into the arena's work buffer;
    /// hand it back with [`CaptureScratch::recycle`].
    pub fn front_end_synthesis(
        &self,
        path: &ShapedPath,
        scratch: &mut CaptureScratch,
    ) -> Result<Signal> {
        let bins = &mut scratch.spectrum;
        if bins.len() != path.spectrum.len() {
            return Err(DspError::invalid(
                "path",
                format!(
                    "no noise drawn for the path's {}-point transform",
                    path.transform_len()
                ),
            ));
        }
        for (bin, &[re, im]) in bins.iter_mut().zip(&path.spectrum) {
            *bin += Complex::new(f64::from(re), f64::from(im));
        }
        let mut work = std::mem::take(&mut scratch.work);
        irfft_into(bins, &mut work)?;
        // The transform left its workspace behind, not a draw.
        bins.clear();
        work.truncate(path.len);
        Signal::new(work, path.sample_rate_hz)
    }

    /// Transducer/amplifier non-linearity (memoryless), in place on the
    /// output of [`front_end_synthesis`](Self::front_end_synthesis).
    pub fn front_end_nonlinearity(&self, synthesized: Signal) -> Signal {
        let mut analog = synthesized;
        self.nonlinearity.apply_in_place(analog.samples_mut());
        analog
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
        let is_linear = |p: Polynomial| p.g2 == 0.0 && p.g3 == 0.0;
        assert!(is_linear(linear.nonlinearity));
        assert!(!is_linear(phone.nonlinearity));
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
        let (phone, echo) = (FrontEndResponse::new(&phone), FrontEndResponse::new(&echo));
        assert!(echo.gain(40_000.0) < phone.gain(40_000.0));
        // Audible band gains are comparable.
        assert!((echo.gain(1_000.0) - phone.gain(1_000.0)).abs() < 0.2);
    }

    impl Microphone {
        /// The front-end gain computed from the microphone's fields at every
        /// call: the reference [`FrontEndResponse::gain`] is checked against.
        fn front_end_gain(&self, frequency_hz: f64) -> f64 {
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
    }

    #[test]
    fn hoisted_front_end_response_is_bit_equal_at_every_bin() {
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
        let path = mic.shape_path(&p).unwrap();
        let noise = mic
            .noise_shape(path.transform_len(), 192_000.0, Some(45.0))
            .unwrap();
        let mut scratch = CaptureScratch::new();
        let whole = mic.capture_shaped(&path, &noise, 5, &mut scratch).unwrap();
        // The steps one by one, with a fresh arena.
        let mut fresh = CaptureScratch::new();
        noise.draw(5, &mut fresh);
        let synthesized = mic.front_end_synthesis(&path, &mut fresh).unwrap();
        let analog = mic.front_end_nonlinearity(synthesized);
        assert_eq!(analog.len(), p.len());
        assert_eq!(
            digitize(&analog, mic.adc_noise_floor_dbfs, 5).unwrap(),
            whole
        );
        // A reused arena gives the same capture.
        assert_eq!(
            mic.capture_shaped(&path, &noise, 5, &mut scratch).unwrap(),
            whole
        );
    }

    #[test]
    fn noise_must_be_drawn_for_the_paths_transform() {
        let mic = DevicePreset::AndroidPhone.microphone();
        let path = mic
            .shape_path(&pressure_tone(1_000.0, 70.0, 0.05, 48_000.0))
            .unwrap();
        let other = mic.noise_shape(1 << 10, 48_000.0, None).unwrap();
        let mut scratch = CaptureScratch::new();
        assert!(mic.capture_shaped(&path, &other, 1, &mut scratch).is_err());
        // A draw serves one synthesis.
        let noise = mic
            .noise_shape(path.transform_len(), 48_000.0, None)
            .unwrap();
        noise.draw(1, &mut scratch);
        let synthesized = mic.front_end_synthesis(&path, &mut scratch).unwrap();
        scratch.recycle(synthesized);
        assert!(mic.front_end_synthesis(&path, &mut scratch).is_err());
        assert!(mic.noise_shape(1000, 48_000.0, None).is_err());
        assert!(mic.noise_shape(1 << 10, 48_000.0, Some(130.0)).is_err());
    }

    #[test]
    fn noise_free_synthesis_is_the_time_domain_shaping() {
        // With no noise, the synthesis is the front-end response applied by
        // the shaping pass, scaled to full scale.
        let mut mic = DevicePreset::AmazonEcho.microphone();
        mic.self_noise_db_spl = f64::NEG_INFINITY;
        let fs = 192_000.0;
        let mut p = pressure_tone(40_000.0, 100.0, 0.05, fs);
        p.mix(&pressure_tone(1_000.0, 80.0, 0.05, fs)).unwrap();
        let path = mic.shape_path(&p).unwrap();
        let noise = mic.noise_shape(path.transform_len(), fs, None).unwrap();
        let mut scratch = CaptureScratch::new();
        noise.draw(3, &mut scratch);
        let synthesized = mic.front_end_synthesis(&path, &mut scratch).unwrap();
        let response = FrontEndResponse::new(&mic);
        let reference = crate::shaping::shape_spectrum(&p, |f| response.gain(f)).unwrap();
        let full_scale = mic.full_scale_gain();
        let peak = reference.peak() * full_scale;
        for (a, b) in synthesized.samples().iter().zip(reference.samples()) {
            // Within the single-precision rounding of the held spectrum.
            assert!(
                (a - b * full_scale).abs() < 1e-6 * peak,
                "{a} vs {}",
                b * full_scale
            );
        }
    }

    /// The noise at the non-linearity's input, averaged as a Welch PSD over
    /// `seeds` and integrated over each 1/3-octave band from 20 Hz to
    /// 0.47·fs: by the time-domain reference chain (pink ambient noise at
    /// the port, the front-end shaping pass, white self noise, full-scale
    /// normalisation) and by the frequency-domain synthesis.
    fn pre_nonlinearity_band_powers(
        device: DevicePreset,
        fs: f64,
        len: usize,
        seeds: std::ops::Range<u64>,
    ) -> Vec<(f64, f64, f64)> {
        use crate::noise::reference::{add_white_noise, room_noise_pa};
        use ivc_dsp::spectrum::welch_psd;
        use ivc_dsp::window::WindowKind;
        let mic = device.microphone();
        let ambient_spl_db = 40.0;
        let response = FrontEndResponse::new(&mic);
        let full_scale = mic.full_scale_gain();
        let self_noise_rms = spl_db_to_pressure(mic.self_noise_db_spl);
        let path = mic
            .shape_path(&Signal::new(vec![0.0; len], fs).unwrap())
            .unwrap();
        let noise = mic
            .noise_shape(path.transform_len(), fs, Some(ambient_spl_db))
            .unwrap();
        // 1.5 Hz bins: the 20 Hz band (4.6 Hz wide) spans three.
        let segment = (fs / 1.5).log2().ceil().exp2() as usize;
        let welch =
            |samples: &[f64]| welch_psd(samples, fs, segment, 0.5, WindowKind::Hann).unwrap();
        let mut scratch = CaptureScratch::new();
        let (mut old, mut new) = (None::<Vec<f64>>, None::<Vec<f64>>);
        let accumulate = |sum: &mut Option<Vec<f64>>, psd: Vec<f64>| match sum {
            Some(sum) => sum.iter_mut().zip(psd).for_each(|(s, p)| *s += p),
            None => *sum = Some(psd),
        };
        let mut frequencies = Vec::new();
        for seed in seeds {
            let ambient = room_noise_pa(ambient_spl_db, len as f64 / fs, fs, seed).unwrap();
            let mut chain = crate::shaping::shape_spectrum(&ambient, |f| response.gain(f))
                .unwrap()
                .into_samples();
            add_white_noise(
                &mut chain,
                self_noise_rms,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            chain.iter_mut().for_each(|x| *x *= full_scale);
            accumulate(&mut old, welch(&chain).power);

            noise.draw(seed, &mut scratch);
            let synthesized = mic.front_end_synthesis(&path, &mut scratch).unwrap();
            let psd = welch(synthesized.samples());
            frequencies = psd.frequencies_hz;
            accumulate(&mut new, psd.power);
            scratch.recycle(synthesized);
        }
        let (old, new) = (old.unwrap(), new.unwrap());
        let band = |psd: &[f64], low: f64, high: f64| -> f64 {
            frequencies
                .iter()
                .zip(psd)
                .filter(|(f, _)| (low..=high).contains(*f))
                .map(|(_, p)| p)
                .sum()
        };
        let edge = 2f64.powf(1.0 / 6.0);
        (0..)
            .map(|i| 20.0 * 2f64.powf(i as f64 / 3.0))
            .take_while(|centre| centre * edge <= 0.47 * fs)
            .map(|centre| {
                let (low, high) = (centre / edge, centre * edge);
                (centre, band(&old, low, high), band(&new, low, high))
            })
            .collect()
    }

    fn assert_pre_nonlinearity_psd_matches(device: DevicePreset, fs: f64, len: usize) {
        let bands = pre_nonlinearity_band_powers(device, fs, len, 0..64);
        for (centre, old, new) in bands {
            let delta_db = 10.0 * (new / old).log10();
            assert!(
                delta_db.abs() <= 0.5,
                "{device:?} at {fs} Hz: the {centre:.0} Hz band is {delta_db:+.2} dB off"
            );
        }
    }

    #[test]
    fn synthesized_noise_matches_the_time_domain_chain_phone_48k() {
        assert_pre_nonlinearity_psd_matches(DevicePreset::AndroidPhone, 48_000.0, 1 << 17);
    }

    #[test]
    fn synthesized_noise_matches_the_time_domain_chain_echo_48k() {
        assert_pre_nonlinearity_psd_matches(DevicePreset::AmazonEcho, 48_000.0, 1 << 17);
    }

    #[test]
    fn synthesized_noise_matches_the_time_domain_chain_phone_192k() {
        assert_pre_nonlinearity_psd_matches(DevicePreset::AndroidPhone, 192_000.0, 1 << 19);
    }

    #[test]
    fn synthesized_noise_matches_the_time_domain_chain_echo_192k() {
        assert_pre_nonlinearity_psd_matches(DevicePreset::AmazonEcho, 192_000.0, 1 << 19);
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
