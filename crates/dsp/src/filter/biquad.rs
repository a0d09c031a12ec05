//! Second-order IIR sections (biquads) and Butterworth cascades.
//!
//! Biquads are used where a cheap recursive filter is preferable to a long
//! FIR: the microphone model's anti-alias filter, the defense's sub-band
//! isolators, and the envelope detector's smoothing stage.

use crate::error::{DspError, Result};
use crate::signal::Signal;

/// The delay line of one direct-form-I section: its last two inputs and
/// outputs (all zero at the start of a buffer).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BiquadState {
    x1: f64,
    x2: f64,
    y1: f64,
    y2: f64,
}

/// One direct-form-I second-order section.
#[derive(Debug, Clone, PartialEq)]
pub struct Biquad {
    // Feed-forward coefficients.
    b0: f64,
    b1: f64,
    b2: f64,
    // Feedback coefficients (a0 normalised to 1).
    a1: f64,
    a2: f64,
}

impl Biquad {
    /// Creates a section from raw coefficients (`a0` is used to normalise).
    pub fn new(b0: f64, b1: f64, b2: f64, a0: f64, a1: f64, a2: f64) -> Result<Self> {
        if a0 == 0.0 || !a0.is_finite() {
            return Err(DspError::invalid_parameter(
                "a0",
                "must be finite and non-zero",
            ));
        }
        Ok(Biquad {
            b0: b0 / a0,
            b1: b1 / a0,
            b2: b2 / a0,
            a1: a1 / a0,
            a2: a2 / a0,
        })
    }

    /// RBJ-cookbook low-pass section.
    pub fn low_pass(cutoff_hz: f64, q: f64, sample_rate_hz: f64) -> Result<Self> {
        let (w0, alpha) = omega_alpha(cutoff_hz, q, sample_rate_hz)?;
        let cos_w0 = w0.cos();
        Biquad::new(
            (1.0 - cos_w0) / 2.0,
            1.0 - cos_w0,
            (1.0 - cos_w0) / 2.0,
            1.0 + alpha,
            -2.0 * cos_w0,
            1.0 - alpha,
        )
    }

    /// RBJ-cookbook high-pass section.
    pub fn high_pass(cutoff_hz: f64, q: f64, sample_rate_hz: f64) -> Result<Self> {
        let (w0, alpha) = omega_alpha(cutoff_hz, q, sample_rate_hz)?;
        let cos_w0 = w0.cos();
        Biquad::new(
            (1.0 + cos_w0) / 2.0,
            -(1.0 + cos_w0),
            (1.0 + cos_w0) / 2.0,
            1.0 + alpha,
            -2.0 * cos_w0,
            1.0 - alpha,
        )
    }

    /// RBJ-cookbook band-pass section (constant 0 dB peak gain).
    pub fn band_pass(center_hz: f64, q: f64, sample_rate_hz: f64) -> Result<Self> {
        let (w0, alpha) = omega_alpha(center_hz, q, sample_rate_hz)?;
        let cos_w0 = w0.cos();
        Biquad::new(alpha, 0.0, -alpha, 1.0 + alpha, -2.0 * cos_w0, 1.0 - alpha)
    }

    /// Filters a buffer, returning a new vector (initial state is zero).
    pub fn filter(&self, input: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; input.len()];
        self.filter_to_slice(input, &mut out);
        out
    }

    /// Filters a buffer into a caller-owned slice of the same length
    /// (initial state is zero).
    ///
    /// # Panics
    ///
    /// If `out.len()` differs from `input.len()`: a longer `out` would keep
    /// stale samples past the input and a shorter one would drop its tail.
    pub fn filter_to_slice(&self, input: &[f64], out: &mut [f64]) {
        assert_eq!(
            input.len(),
            out.len(),
            "Biquad::filter_to_slice needs an output as long as its input"
        );
        let mut state = BiquadState::default();
        for (slot, &x) in out.iter_mut().zip(input.iter()) {
            *slot = self.step(&mut state, x);
        }
    }

    /// One sample through the section: returns `y[n]` for input `x[n]`
    /// and advances `state` past it.  Filtering a sequence by repeated
    /// steps from [`BiquadState::default`] is bit-identical to
    /// [`Biquad::filter`], so callers can interleave several independent
    /// sections sample by sample.
    #[inline]
    pub fn step(&self, state: &mut BiquadState, x: f64) -> f64 {
        let y = self.b0 * x + self.b1 * state.x1 + self.b2 * state.x2
            - self.a1 * state.y1
            - self.a2 * state.y2;
        state.x2 = state.x1;
        state.x1 = x;
        state.y2 = state.y1;
        state.y1 = y;
        y
    }
}

fn omega_alpha(frequency_hz: f64, q: f64, sample_rate_hz: f64) -> Result<(f64, f64)> {
    if !(sample_rate_hz > 0.0) {
        return Err(DspError::InvalidSampleRate { sample_rate_hz });
    }
    let nyquist = sample_rate_hz / 2.0;
    if frequency_hz <= 0.0 || frequency_hz >= nyquist {
        return Err(DspError::InvalidFrequency {
            frequency_hz,
            nyquist_hz: nyquist,
        });
    }
    if q <= 0.0 {
        return Err(DspError::invalid_parameter("q", "must be positive"));
    }
    let w0 = 2.0 * std::f64::consts::PI * frequency_hz / sample_rate_hz;
    let alpha = w0.sin() / (2.0 * q);
    Ok((w0, alpha))
}

/// A cascade of biquad sections, e.g. a higher-order Butterworth filter.
#[derive(Debug, Clone, PartialEq)]
pub struct BiquadCascade {
    sections: Vec<Biquad>,
}

/// Conventional name for a second-order-sections filter: a
/// [`BiquadCascade`] under the alias most DSP literature uses.
pub type SosFilter = BiquadCascade;

impl BiquadCascade {
    /// Builds a cascade from explicit sections.
    pub fn new(sections: Vec<Biquad>) -> Result<Self> {
        if sections.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "BiquadCascade::new",
            });
        }
        Ok(BiquadCascade { sections })
    }

    /// Butterworth low-pass of even order `order` (rounded up), built as
    /// `order / 2` cascaded sections with the standard Butterworth Q values.
    pub fn butterworth_low_pass(cutoff_hz: f64, order: usize, sample_rate_hz: f64) -> Result<Self> {
        let sections = butterworth_qs(order)?
            .into_iter()
            .map(|q| Biquad::low_pass(cutoff_hz, q, sample_rate_hz))
            .collect::<Result<Vec<_>>>()?;
        BiquadCascade::new(sections)
    }

    /// Butterworth high-pass of even order `order` (rounded up).
    pub fn butterworth_high_pass(
        cutoff_hz: f64,
        order: usize,
        sample_rate_hz: f64,
    ) -> Result<Self> {
        let sections = butterworth_qs(order)?
            .into_iter()
            .map(|q| Biquad::high_pass(cutoff_hz, q, sample_rate_hz))
            .collect::<Result<Vec<_>>>()?;
        BiquadCascade::new(sections)
    }

    /// Band-pass built as a Butterworth high-pass at `low_hz` followed by a
    /// Butterworth low-pass at `high_hz` (each of order `order`).
    pub fn butterworth_band_pass(
        low_hz: f64,
        high_hz: f64,
        order: usize,
        sample_rate_hz: f64,
    ) -> Result<Self> {
        if low_hz >= high_hz {
            return Err(DspError::invalid_parameter(
                "band edges",
                format!("low {low_hz} Hz must be below high {high_hz} Hz"),
            ));
        }
        let mut sections =
            BiquadCascade::butterworth_high_pass(low_hz, order, sample_rate_hz)?.sections;
        sections
            .extend(BiquadCascade::butterworth_low_pass(high_hz, order, sample_rate_hz)?.sections);
        BiquadCascade::new(sections)
    }

    /// The second-order sections, in filtering order.
    pub fn sections(&self) -> &[Biquad] {
        &self.sections
    }

    /// Filters a buffer through all sections in sequence.
    pub fn filter(&self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.filter_into(input, &mut out);
        out
    }

    /// Filters a buffer through all sections into a caller-owned vector
    /// (cleared and resized), allocating nothing beyond `out`'s capacity.
    pub fn filter_into(&self, input: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(input);
        self.filter_in_place(out);
    }

    /// Filters a buffer through all sections in place.
    ///
    /// Sample-major: each sample passes through every section before the
    /// next sample is read, so the sections' serial recursions overlap
    /// instead of running one whole-buffer sweep after another.  Each
    /// section still sees exactly the sequence it would section-major, so
    /// the output is bit-identical.
    pub fn filter_in_place(&self, buffer: &mut [f64]) {
        self.run(buffer, false);
    }

    /// Filters a [`Signal`], preserving its sample rate.
    pub fn filter_signal(&self, input: &Signal) -> Result<Signal> {
        Signal::new(self.filter(input.samples()), input.sample_rate_hz())
    }

    /// Zero-phase filtering: a forward pass, then a second pass run from
    /// the last sample back to the first, both in place on one copy.
    pub fn filtfilt(&self, input: &[f64]) -> Vec<f64> {
        let mut out = input.to_vec();
        self.run(&mut out, false);
        self.run(&mut out, true);
        out
    }

    /// The sample-major loop over `buffer` (last sample first if
    /// `reverse`), in groups of up to four sections so each group's
    /// states stay in registers.
    fn run(&self, buffer: &mut [f64], reverse: bool) {
        for group in self.sections.chunks(4) {
            match group {
                [a] => run_group([a], buffer, reverse),
                [a, b] => run_group([a, b], buffer, reverse),
                [a, b, c] => run_group([a, b, c], buffer, reverse),
                [a, b, c, d] => run_group([a, b, c, d], buffer, reverse),
                _ => unreachable!("chunks(4) yields one to four sections"),
            }
        }
    }
}

/// Passes every sample of `buffer` (last first if `reverse`) through
/// `N` sections in turn.
#[inline]
fn run_group<const N: usize>(sections: [&Biquad; N], buffer: &mut [f64], reverse: bool) {
    let mut states = [BiquadState::default(); N];
    let mut step = |slot: &mut f64| {
        let mut v = *slot;
        for (section, state) in sections.iter().zip(states.iter_mut()) {
            v = section.step(state, v);
        }
        *slot = v;
    };
    if reverse {
        buffer.iter_mut().rev().for_each(&mut step);
    } else {
        buffer.iter_mut().for_each(&mut step);
    }
}

/// Q values of the second-order sections of an order-`order` Butterworth
/// filter (order is rounded up to the next even number).
fn butterworth_qs(order: usize) -> Result<Vec<f64>> {
    if order == 0 {
        return Err(DspError::invalid_parameter("order", "must be at least 1"));
    }
    let order = if order % 2 == 0 { order } else { order + 1 };
    let n_sections = order / 2;
    let mut qs = Vec::with_capacity(n_sections);
    for k in 0..n_sections {
        let theta = std::f64::consts::PI * (2.0 * k as f64 + 1.0) / (2.0 * order as f64);
        qs.push(1.0 / (2.0 * theta.sin()));
    }
    Ok(qs)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Biquad {
        /// Magnitude response at `frequency_hz`: the reference the designs
        /// are checked against.
        fn magnitude_response(&self, frequency_hz: f64, sample_rate_hz: f64) -> f64 {
            let w = 2.0 * std::f64::consts::PI * frequency_hz / sample_rate_hz;
            let (c1, s1) = (w.cos(), w.sin());
            let (c2, s2) = ((2.0 * w).cos(), (2.0 * w).sin());
            // H(e^jw) = (b0 + b1 e^-jw + b2 e^-2jw) / (1 + a1 e^-jw + a2 e^-2jw)
            let num_re = self.b0 + self.b1 * c1 + self.b2 * c2;
            let num_im = -(self.b1 * s1 + self.b2 * s2);
            let den_re = 1.0 + self.a1 * c1 + self.a2 * c2;
            let den_im = -(self.a1 * s1 + self.a2 * s2);
            (num_re.hypot(num_im)) / (den_re.hypot(den_im))
        }
    }

    impl BiquadCascade {
        /// Combined magnitude response of the cascade.
        fn magnitude_response(&self, frequency_hz: f64, sample_rate_hz: f64) -> f64 {
            self.sections
                .iter()
                .map(|s| s.magnitude_response(frequency_hz, sample_rate_hz))
                .product()
        }
    }

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn parameter_validation() {
        assert!(Biquad::low_pass(0.0, 0.707, 48_000.0).is_err());
        assert!(Biquad::low_pass(30_000.0, 0.707, 48_000.0).is_err());
        assert!(Biquad::low_pass(1_000.0, -1.0, 48_000.0).is_err());
        assert!(Biquad::low_pass(1_000.0, 0.707, 0.0).is_err());
        assert!(Biquad::new(1.0, 0.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(BiquadCascade::new(vec![]).is_err());
        assert!(BiquadCascade::butterworth_low_pass(1_000.0, 0, 48_000.0).is_err());
        assert!(BiquadCascade::butterworth_band_pass(5_000.0, 1_000.0, 4, 48_000.0).is_err());
    }

    #[test]
    fn butterworth_order_rounds_up() {
        let c = BiquadCascade::butterworth_low_pass(1_000.0, 5, 48_000.0).unwrap();
        assert_eq!(c.sections().len(), 3);
        let c = BiquadCascade::butterworth_low_pass(1_000.0, 4, 48_000.0).unwrap();
        assert_eq!(c.sections().len(), 2);
    }

    #[test]
    fn low_pass_response_at_cutoff_is_minus_3db() {
        let c = BiquadCascade::butterworth_low_pass(1_000.0, 2, 48_000.0).unwrap();
        let mag = c.magnitude_response(1_000.0, 48_000.0);
        assert!(
            (mag - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02,
            "mag = {mag}"
        );
        assert!((c.magnitude_response(10.0, 48_000.0) - 1.0).abs() < 1e-3);
        assert!(c.magnitude_response(10_000.0, 48_000.0) < 0.02);
    }

    #[test]
    fn butterworth_low_pass_filters_tones() {
        let fs = 48_000.0;
        let c = BiquadCascade::butterworth_low_pass(2_000.0, 6, fs).unwrap();
        let low = tone(500.0, fs, 9_600);
        let high = tone(10_000.0, fs, 9_600);
        let steady = 2_000..9_000;
        assert!(rms(&c.filter(&low)[steady.clone()]) / rms(&low[steady.clone()]) > 0.95);
        assert!(rms(&c.filter(&high)[steady.clone()]) / rms(&high[steady]) < 1e-3);
    }

    #[test]
    fn butterworth_high_pass_filters_tones() {
        let fs = 48_000.0;
        let c = BiquadCascade::butterworth_high_pass(2_000.0, 6, fs).unwrap();
        let low = tone(200.0, fs, 9_600);
        let high = tone(8_000.0, fs, 9_600);
        let steady = 2_000..9_000;
        assert!(rms(&c.filter(&low)[steady.clone()]) / rms(&low[steady.clone()]) < 1e-3);
        assert!(rms(&c.filter(&high)[steady.clone()]) / rms(&high[steady]) > 0.95);
    }

    #[test]
    fn band_pass_selects_band() {
        let fs = 48_000.0;
        let c = BiquadCascade::butterworth_band_pass(1_000.0, 4_000.0, 4, fs).unwrap();
        let inside = tone(2_000.0, fs, 9_600);
        let below = tone(100.0, fs, 9_600);
        let above = tone(12_000.0, fs, 9_600);
        let steady = 2_000..9_000;
        assert!(rms(&c.filter(&inside)[steady.clone()]) / rms(&inside[steady.clone()]) > 0.9);
        assert!(rms(&c.filter(&below)[steady.clone()]) / rms(&below[steady.clone()]) < 0.01);
        assert!(rms(&c.filter(&above)[steady.clone()]) / rms(&above[steady]) < 0.01);
    }

    #[test]
    fn single_section_band_pass_peaks_at_centre() {
        let fs = 8_000.0;
        let bp = Biquad::band_pass(1_000.0, 2.0, fs).unwrap();
        let at_centre = bp.magnitude_response(1_000.0, fs);
        assert!((at_centre - 1.0).abs() < 0.01);
        assert!(bp.magnitude_response(100.0, fs) < 0.2);
    }

    #[test]
    fn filtfilt_doubles_attenuation_without_phase() {
        let fs = 8_000.0;
        let c = BiquadCascade::butterworth_low_pass(1_000.0, 2, fs).unwrap();
        let x = tone(500.0, fs, 4_000);
        let y = c.filtfilt(&x);
        assert_eq!(y.len(), x.len());
        // A 500 Hz tone is in the passband; filtfilt keeps it near unity.
        let steady = 1_000..3_000;
        assert!(rms(&y[steady.clone()]) / rms(&x[steady]) > 0.9);
    }

    #[test]
    fn in_place_and_into_variants_match_the_allocating_path() {
        let fs = 8_000.0;
        let x = tone(700.0, fs, 512);
        let cascade: SosFilter = BiquadCascade::butterworth_low_pass(1_000.0, 4, fs).unwrap();
        let cascade_baseline = cascade.filter(&x);
        let mut reused = vec![42.0; 3];
        cascade.filter_into(&x, &mut reused);
        assert_eq!(cascade_baseline, reused);
        let mut cascade_in_place = x.clone();
        cascade.filter_in_place(&mut cascade_in_place);
        assert_eq!(cascade_baseline, cascade_in_place);
    }

    /// The section-major cascade: each section sweeps the whole buffer
    /// before the next one starts.
    fn section_major(cascade: &BiquadCascade, input: &[f64]) -> Vec<f64> {
        let mut out = input.to_vec();
        for section in cascade.sections() {
            out = section.filter(&out);
        }
        out
    }

    /// Cascades of 1 to 6 sections mixing low-, high- and band-pass
    /// sections, over an input with a click, a tone and a DC step.
    fn cascades_and_input() -> (Vec<BiquadCascade>, Vec<f64>) {
        let fs = 48_000.0;
        let pool = [
            Biquad::low_pass(3_000.0, 0.54, fs).unwrap(),
            Biquad::high_pass(80.0, 1.31, fs).unwrap(),
            Biquad::band_pass(1_200.0, 4.0, fs).unwrap(),
            Biquad::low_pass(9_000.0, 0.707, fs).unwrap(),
            Biquad::low_pass(50.0, 2.0, fs).unwrap(),
            Biquad::high_pass(300.0, 0.52, fs).unwrap(),
        ];
        let cascades = (1..=pool.len())
            .map(|n| BiquadCascade::new(pool[..n].to_vec()).unwrap())
            .collect();
        let mut input: Vec<f64> = tone(440.0, fs, 2_903)
            .iter()
            .enumerate()
            .map(|(i, x)| x + if i > 1_500 { 0.25 } else { 0.0 })
            .collect();
        input[17] += 3.0;
        (cascades, input)
    }

    #[test]
    fn sample_major_cascades_match_section_major_bit_for_bit() {
        let (cascades, input) = cascades_and_input();
        for cascade in &cascades {
            let reference = section_major(cascade, &input);
            assert_eq!(cascade.filter(&input), reference, "{cascade:?}");
            let mut in_place = input.clone();
            cascade.filter_in_place(&mut in_place);
            assert_eq!(in_place, reference);
        }
    }

    #[test]
    fn in_place_filtfilt_matches_the_reversed_copies_bit_for_bit() {
        let (cascades, input) = cascades_and_input();
        for cascade in &cascades {
            let forward = section_major(cascade, &input);
            let reversed: Vec<f64> = forward.into_iter().rev().collect();
            let mut reference = section_major(cascade, &reversed);
            reference.reverse();
            assert_eq!(cascade.filtfilt(&input), reference, "{cascade:?}");
        }
    }

    #[test]
    fn stepping_a_section_matches_filtering_it() {
        let (_, input) = cascades_and_input();
        let section = Biquad::band_pass(700.0, 3.0, 48_000.0).unwrap();
        let mut state = BiquadState::default();
        let stepped: Vec<f64> = input.iter().map(|&x| section.step(&mut state, x)).collect();
        assert_eq!(stepped, section.filter(&input));
    }

    #[test]
    #[should_panic(expected = "as long as its input")]
    fn filter_to_slice_rejects_a_longer_output() {
        let section = Biquad::low_pass(1_000.0, 0.707, 8_000.0).unwrap();
        section.filter_to_slice(&[1.0, 2.0], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "as long as its input")]
    fn filter_to_slice_rejects_a_shorter_output() {
        let section = Biquad::low_pass(1_000.0, 0.707, 8_000.0).unwrap();
        section.filter_to_slice(&[1.0, 2.0, 3.0], &mut [0.0; 2]);
    }

    #[test]
    fn filter_signal_preserves_rate() {
        let s = Signal::tone(440.0, 1.0, 0.25, 8_000.0).unwrap();
        let c = BiquadCascade::butterworth_low_pass(1_000.0, 4, 8_000.0).unwrap();
        let out = c.filter_signal(&s).unwrap();
        assert_eq!(out.sample_rate_hz(), 8_000.0);
        assert_eq!(out.len(), s.len());
    }
}
