//! FIR filter design by the windowed-sinc method, plus application helpers.
//!
//! The designs here are the standard textbook constructions: an ideal
//! brick-wall response is truncated to `taps` coefficients and shaped with a
//! window (Hamming by default).  [`FirFilter::filtfilt`] applies the filter
//! forward and backward for zero phase distortion, which matters when the
//! filtered signal is later compared sample-aligned against a reference
//! (e.g. the defense's shadow-correlation feature).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::complex::Complex;
use crate::error::{DspError, Result};
use crate::fft::{irfft_into, next_power_of_two, rfft_into, KernelSpectrum};
use crate::signal::Signal;
use crate::window::WindowKind;

/// The process-wide [`FirFilter::low_pass_cached`] memo, keyed by the
/// design parameters.
fn design_memo() -> &'static Mutex<HashMap<String, Arc<FirFilter>>> {
    static MEMO: OnceLock<Mutex<HashMap<String, Arc<FirFilter>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A finite-impulse-response filter described by its coefficients.
///
/// The kernel spectrum used by the FFT application path is computed
/// lazily on first use and kept for the filter's lifetime, so applying
/// the same filter to many signals transforms the kernel only once.  The
/// same holds for the last [`FoldedDecimator`] built on this filter.
#[derive(Debug, Clone)]
pub struct FirFilter {
    coefficients: Vec<f64>,
    spectrum: OnceLock<Arc<KernelSpectrum>>,
    decimator: OnceLock<Arc<FoldedDecimator>>,
}

impl PartialEq for FirFilter {
    fn eq(&self, other: &Self) -> bool {
        // The cached spectrum is derived state; identity is the taps.
        self.coefficients == other.coefficients
    }
}

impl FirFilter {
    fn from_raw(coefficients: Vec<f64>) -> Self {
        FirFilter {
            coefficients,
            spectrum: OnceLock::new(),
            decimator: OnceLock::new(),
        }
    }

    /// Designs a low-pass filter with the given cutoff.
    ///
    /// `taps` is forced odd so the filter has a symmetric (linear-phase)
    /// impulse response with an integer group delay of `(taps - 1) / 2`.
    pub fn low_pass(
        cutoff_hz: f64,
        sample_rate_hz: f64,
        taps: usize,
        window: WindowKind,
    ) -> Result<Self> {
        validate(cutoff_hz, sample_rate_hz, taps)?;
        let taps = make_odd(taps);
        let fc = cutoff_hz / sample_rate_hz; // normalised (cycles per sample)
        let mid = (taps / 2) as isize;
        let win = window.symmetric(taps);
        let coefficients: Vec<f64> = (0..taps)
            .map(|i| {
                let n = i as isize - mid;
                sinc(2.0 * fc * n as f64) * 2.0 * fc * win[i]
            })
            .collect();
        let mut filter = FirFilter::from_raw(coefficients);
        filter.normalize_dc_gain();
        Ok(filter)
    }

    /// Designs a band-pass filter between `low_hz` and `high_hz`.
    pub fn band_pass(
        low_hz: f64,
        high_hz: f64,
        sample_rate_hz: f64,
        taps: usize,
        window: WindowKind,
    ) -> Result<Self> {
        if low_hz >= high_hz {
            return Err(DspError::invalid(
                "band edges",
                format!("low {low_hz} Hz must be below high {high_hz} Hz"),
            ));
        }
        validate(low_hz, sample_rate_hz, taps)?;
        validate(high_hz, sample_rate_hz, taps)?;
        let taps = make_odd(taps);
        let f1 = low_hz / sample_rate_hz;
        let f2 = high_hz / sample_rate_hz;
        let mid = (taps / 2) as isize;
        let win = window.symmetric(taps);
        let coefficients: Vec<f64> = (0..taps)
            .map(|i| {
                let n = (i as isize - mid) as f64;
                (2.0 * f2 * sinc(2.0 * f2 * n) - 2.0 * f1 * sinc(2.0 * f1 * n)) * win[i]
            })
            .collect();
        Ok(FirFilter::from_raw(coefficients))
    }

    /// A process-wide memoised [`FirFilter::low_pass`]: the same design
    /// parameters return the same `Arc`'d filter (with its kernel spectrum
    /// already warm after first use), so per-call hot paths like the ADC
    /// anti-alias stage stop re-running the windowed-sinc design.
    pub fn low_pass_cached(
        cutoff_hz: f64,
        sample_rate_hz: f64,
        taps: usize,
        window: WindowKind,
    ) -> Result<Arc<Self>> {
        let key = format!(
            "{:x}|{:x}|{taps}|{window:?}",
            cutoff_hz.to_bits(),
            sample_rate_hz.to_bits()
        );
        // Entries are inserted whole, so a panic elsewhere while the lock
        // was held leaves the map consistent: recover a poisoned lock.
        let memo = || design_memo().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = memo().get(&key) {
            return Ok(Arc::clone(hit));
        }
        // Design outside the lock; on a race the first insert wins, which
        // is harmless because the design is deterministic.
        let designed = Arc::new(FirFilter::low_pass(
            cutoff_hz,
            sample_rate_hz,
            taps,
            window,
        )?);
        let mut guard = memo();
        let entry = guard.entry(key).or_insert(designed);
        Ok(Arc::clone(entry))
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// `true` if the filter has no taps (cannot occur for designed filters).
    pub fn is_empty(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// Group delay in samples (exact for the symmetric designs above).
    pub fn group_delay_samples(&self) -> usize {
        (self.coefficients.len() - 1) / 2
    }

    /// Applies the filter by linear convolution, keeping the central portion
    /// so the output has the same length as the input and is time-aligned
    /// with it (the group delay is compensated).
    pub fn filter(&self, input: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.filter_into(input, &mut out)?;
        Ok(out)
    }

    /// [`FirFilter::filter`] writing into a caller-owned vector (cleared
    /// and resized), so hot loops can reuse the output allocation.
    ///
    /// Large products of `input.len() · taps` go through overlap-save FFT
    /// convolution against the filter's cached kernel spectrum; small ones
    /// use direct convolution.
    pub fn filter_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if input.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "FirFilter::filter",
            });
        }
        let delay = self.group_delay_samples();
        if input.len().saturating_mul(self.coefficients.len()) > 16_384 {
            let mut full = Vec::new();
            self.kernel_spectrum().convolve_into(input, &mut full)?;
            out.clear();
            out.extend_from_slice(&full[delay..delay + input.len()]);
        } else {
            let full = direct_convolve(input, &self.coefficients);
            out.clear();
            out.extend_from_slice(&full[delay..delay + input.len()]);
        }
        Ok(())
    }

    /// The filter's kernel spectrum, transformed once on first use.
    pub fn kernel_spectrum(&self) -> &KernelSpectrum {
        self.spectrum.get_or_init(|| {
            // Designed/validated filters are never empty, so this cannot
            // fail.
            Arc::new(KernelSpectrum::new(&self.coefficients).expect("FirFilter taps are non-empty"))
        })
    }

    /// The folded decimator for "this filter, then `second`, then keep
    /// every `factor`-th sample" (see [`FoldedDecimator`]), or `None` if
    /// `factor` is not a power of two the decimator's block can serve.
    ///
    /// The first decimator built on a filter is kept for its lifetime,
    /// next to its kernel spectrum; a request for a different `second` or
    /// `factor` builds a fresh one.
    pub fn folded_decimator(
        &self,
        second: &FirFilter,
        factor: usize,
    ) -> Option<Arc<FoldedDecimator>> {
        let build = || FoldedDecimator::new(self, second, factor).map(Arc::new);
        let cached = match self.decimator.get() {
            Some(cached) => cached,
            None => {
                let built = build()?;
                self.decimator.get_or_init(|| built)
            }
        };
        if cached.factor == factor && cached.second == second.coefficients {
            Some(Arc::clone(cached))
        } else {
            build()
        }
    }

    /// Applies the filter to a [`Signal`], preserving its sample rate.
    pub fn filter_signal(&self, input: &Signal) -> Result<Signal> {
        let samples = self.filter(input.samples())?;
        Signal::new(samples, input.sample_rate_hz())
    }

    /// Zero-phase filtering: forward pass, reverse, forward pass, reverse.
    /// The magnitude response is applied twice (squared) but the phase is
    /// exactly zero.
    pub fn filtfilt(&self, input: &[f64]) -> Result<Vec<f64>> {
        let forward = self.filter(input)?;
        let mut reversed: Vec<f64> = forward.into_iter().rev().collect();
        reversed = self.filter(&reversed)?;
        reversed.reverse();
        Ok(reversed)
    }

    /// Scales the coefficients so the DC gain is exactly 1 (for low-pass
    /// prototypes).
    fn normalize_dc_gain(&mut self) {
        let sum: f64 = self.coefficients.iter().sum();
        if sum.abs() > 1e-15 {
            for c in &mut self.coefficients {
                *c /= sum;
            }
        }
    }
}

/// Two FIR passes and a decimation, computing only the samples kept.
///
/// The reference is `first.filter`, then `second.filter` on its output,
/// then every `factor`-th sample (as [`crate::resample::downsample`]
/// keeps them).  In the interior the two passes are one convolution with
/// the combined kernel `first * second`, so the decimator runs overlap-save
/// at the *output* rate: each block is one real transform of `block`
/// input-rate points, multiplied by the combined kernel's spectrum and
/// folded onto `block / factor` bins (sampling every `factor`-th point of
/// a sequence sums its spectrum's `factor` aliases), then one
/// `block / factor`-point inverse.  Near each end `second` reads `first`'s
/// output cut off to the input's length, which the combined kernel does
/// not see; those few outputs are computed by direct sums over the cut-off
/// first stage, as the two passes define them.
///
/// The result matches the two passes to rounding (within 1e-12 of the
/// output's peak), not bit for bit.
#[derive(Debug)]
pub struct FoldedDecimator {
    first: Vec<f64>,
    second: Vec<f64>,
    factor: usize,
    block: usize,
    /// The combined kernel's half spectrum at `block` points, divided by
    /// `factor` (exact: `factor` is a power of two).
    spectrum: Vec<Complex>,
}

impl FoldedDecimator {
    fn new(first: &FirFilter, second: &FirFilter, factor: usize) -> Option<Self> {
        let combined = direct_convolve(&first.coefficients, &second.coefficients);
        let block = (4 * next_power_of_two(combined.len())).max(256);
        if factor < 2 || !factor.is_power_of_two() || first_kept(combined.len(), factor) >= block {
            return None;
        }
        let mut spectrum = Vec::new();
        rfft_into(&combined, block, &mut spectrum).expect("the block is a power of two");
        let scale = 1.0 / factor as f64;
        for bin in &mut spectrum {
            *bin = bin.scale(scale);
        }
        Some(FoldedDecimator {
            first: first.coefficients.clone(),
            second: second.coefficients.clone(),
            factor,
            block,
            spectrum,
        })
    }

    /// Filters `input` by both kernels and keeps samples `0, factor,
    /// 2·factor, …`: `input.len().div_ceil(factor)` outputs.
    pub fn decimate(&self, input: &[f64]) -> Result<Vec<f64>> {
        if input.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "FoldedDecimator::decimate",
            });
        }
        let len = input.len();
        let m = self.factor;
        let count = len.div_ceil(m);
        let (behind, ahead) = self.second_reach();
        // Output `j` reads the cut-off first stage from `m·j - behind` to
        // `m·j + ahead`; it lies in the interior when both ends fall
        // inside the input.
        let interior_start = behind.div_ceil(m).min(count);
        let interior_end = if len > ahead {
            ((len - 1 - ahead) / m + 1).max(interior_start)
        } else {
            interior_start
        };
        let mut out = vec![0.0; count];
        self.edge_outputs(input, 0..interior_start, &mut out);
        self.interior_outputs(input, interior_start..interior_end, &mut out);
        self.edge_outputs(input, interior_end..count, &mut out);
        Ok(out)
    }

    /// How far `second`'s time-aligned output at `n` reads behind and
    /// ahead of `n` (equal for an odd number of taps).
    fn second_reach(&self) -> (usize, usize) {
        let ahead = (self.second.len() - 1) / 2;
        (self.second.len() - 1 - ahead, ahead)
    }

    /// Outputs `range` by overlap-save with the folded combined spectrum.
    fn interior_outputs(&self, input: &[f64], range: std::ops::Range<usize>, out: &mut [f64]) {
        let (m, n) = (self.factor, self.block);
        let combined_len = self.first.len() + self.second.len() - 1;
        let combined_delay = (self.first.len() - 1) / 2 + (self.second.len() - 1) / 2;
        // Within a block, circular sample `t` is a valid linear output for
        // `t >= combined_len - 1`; the kept ones are `t = lead + m·i`.
        let lead = first_kept(combined_len, m);
        let per_block = (n - lead) / m;
        let folded_len = n / m;
        let mut padded = Vec::new();
        let mut spectrum = Vec::new();
        let mut folded = vec![Complex::ZERO; folded_len / 2 + 1];
        let mut decimated = Vec::new();
        let mut first_output = range.start;
        while first_output < range.end {
            // Block input sample 0 sits at `start`, so circular sample
            // `lead` is linear output `m·first_output + combined_delay`.
            let start = (m * first_output + combined_delay) as isize - lead as isize;
            let segment = if start >= 0 {
                let start = start as usize;
                &input[start.min(input.len())..(start + n).min(input.len())]
            } else {
                let skip = start.unsigned_abs();
                padded.clear();
                padded.resize(skip.min(n), 0.0);
                padded.extend_from_slice(&input[..(n - padded.len()).min(input.len())]);
                &padded[..]
            };
            rfft_into(segment, n, &mut spectrum).expect("the block is a power of two");
            for (x, h) in spectrum.iter_mut().zip(&self.spectrum) {
                *x *= *h;
            }
            // Sampling every m-th point sums the m aliases
            // `k + q·folded_len`; bins past n/2 are mirror images.
            let half = n / 2;
            for (k, slot) in folded.iter_mut().enumerate() {
                let mut sum = Complex::ZERO;
                for q in 0..m {
                    let bin = k + q * folded_len;
                    sum += if bin <= half {
                        spectrum[bin]
                    } else {
                        spectrum[n - bin].conj()
                    };
                }
                *slot = sum;
            }
            irfft_into(&mut folded, &mut decimated).expect("the folded block is a power of two");
            let take = per_block.min(range.end - first_output);
            out[first_output..first_output + take]
                .copy_from_slice(&decimated[lead / m..lead / m + take]);
            first_output += take;
        }
    }

    /// Outputs `range` by direct sums, exactly as the two passes define
    /// them: `second` over `first`'s output cut off to `[0, input.len())`.
    fn edge_outputs(&self, input: &[f64], range: std::ops::Range<usize>, out: &mut [f64]) {
        if range.is_empty() {
            return;
        }
        let m = self.factor;
        let first_delay = (self.first.len() - 1) / 2;
        let (behind, ahead) = self.second_reach();
        // The cut-off first-stage samples these outputs read.
        let lo = (m * range.start).saturating_sub(behind);
        let hi = (m * (range.end - 1) + ahead + 1).min(input.len());
        let stage: Vec<f64> = (lo..hi)
            .map(|i| dot_at(input, &self.first, i + first_delay))
            .collect();
        for j in range {
            let centre = m * j + ahead;
            out[j] = self
                .second
                .iter()
                .enumerate()
                .filter_map(|(k, &c)| {
                    let i = centre.checked_sub(k)?;
                    (lo..hi).contains(&i).then(|| c * stage[i - lo])
                })
                .sum();
        }
    }
}

/// The first circular sample of an overlap-save block that is both a
/// valid linear output (at or past `kernel_len - 1`) and a multiple of
/// `factor`.
fn first_kept(kernel_len: usize, factor: usize) -> usize {
    (kernel_len - 1).div_ceil(factor) * factor
}

/// Sample `at` of the full linear convolution of `input` with `kernel`.
fn dot_at(input: &[f64], kernel: &[f64], at: usize) -> f64 {
    kernel
        .iter()
        .enumerate()
        .filter_map(|(k, &c)| {
            let i = at.checked_sub(k)?;
            input.get(i).map(|&x| c * x)
        })
        .sum()
}

/// Normalised sinc: `sin(pi x) / (pi x)`.
fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

fn make_odd(taps: usize) -> usize {
    if taps % 2 == 0 {
        taps + 1
    } else {
        taps
    }
}

fn validate(cutoff_hz: f64, sample_rate_hz: f64, taps: usize) -> Result<()> {
    if !(sample_rate_hz > 0.0) {
        return Err(DspError::InvalidSampleRate { sample_rate_hz });
    }
    let nyquist = sample_rate_hz / 2.0;
    if cutoff_hz <= 0.0 || cutoff_hz >= nyquist {
        return Err(DspError::InvalidFrequency {
            frequency_hz: cutoff_hz,
            nyquist_hz: nyquist,
        });
    }
    if taps < 3 {
        return Err(DspError::invalid(
            "taps",
            format!("{taps} is too few; need at least 3"),
        ));
    }
    Ok(())
}

fn direct_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FirFilter {
        /// Wraps raw taps as a filter, so tests can build the even-length
        /// kernels no design produces.
        pub(crate) fn from_coefficients(coefficients: Vec<f64>) -> Self {
            FirFilter::from_raw(coefficients)
        }

        /// Filter coefficients (impulse response).
        pub(crate) fn coefficients(&self) -> &[f64] {
            &self.coefficients
        }

        /// Magnitude response at `frequency_hz` given `sample_rate_hz`:
        /// the reference the designs are checked against.
        fn magnitude_response(&self, frequency_hz: f64, sample_rate_hz: f64) -> f64 {
            let w = 2.0 * std::f64::consts::PI * frequency_hz / sample_rate_hz;
            let mut re = 0.0;
            let mut im = 0.0;
            for (n, &c) in self.coefficients.iter().enumerate() {
                re += c * (w * n as f64).cos();
                im -= c * (w * n as f64).sin();
            }
            re.hypot(im)
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
    fn design_validation() {
        assert!(FirFilter::low_pass(0.0, 48_000.0, 101, WindowKind::Hamming).is_err());
        assert!(FirFilter::low_pass(30_000.0, 48_000.0, 101, WindowKind::Hamming).is_err());
        assert!(FirFilter::low_pass(1_000.0, 0.0, 101, WindowKind::Hamming).is_err());
        assert!(FirFilter::low_pass(1_000.0, 48_000.0, 2, WindowKind::Hamming).is_err());
        assert!(
            FirFilter::band_pass(2_000.0, 1_000.0, 48_000.0, 101, WindowKind::Hamming).is_err()
        );
    }

    #[test]
    fn even_tap_requests_are_made_odd() {
        let f = FirFilter::low_pass(1_000.0, 48_000.0, 100, WindowKind::Hamming).unwrap();
        assert_eq!(f.len() % 2, 1);
    }

    #[test]
    fn low_pass_passes_low_and_rejects_high() {
        let fs = 48_000.0;
        let f = FirFilter::low_pass(4_000.0, fs, 201, WindowKind::Hamming).unwrap();
        let low = tone(1_000.0, fs, 4_800);
        let high = tone(12_000.0, fs, 4_800);
        let low_out = f.filter(&low).unwrap();
        let high_out = f.filter(&high).unwrap();
        // Compare only the steady-state middle to avoid edge transients.
        let mid = 1_000..3_800;
        let low_ratio = rms(&low_out[mid.clone()]) / rms(&low[mid.clone()]);
        let high_ratio = rms(&high_out[mid.clone()]) / rms(&high[mid]);
        assert!(
            low_ratio > 0.95,
            "passband attenuation too high: {low_ratio}"
        );
        assert!(high_ratio < 0.01, "stopband leakage too high: {high_ratio}");
    }

    #[test]
    fn band_pass_selects_the_band() {
        let fs = 48_000.0;
        let f = FirFilter::band_pass(2_000.0, 6_000.0, fs, 301, WindowKind::Hamming).unwrap();
        let inside = tone(4_000.0, fs, 4_800);
        let below = tone(500.0, fs, 4_800);
        let above = tone(12_000.0, fs, 4_800);
        let mid = 1_000..3_800;
        assert!(rms(&f.filter(&inside).unwrap()[mid.clone()]) / rms(&inside[mid.clone()]) > 0.9);
        assert!(rms(&f.filter(&below).unwrap()[mid.clone()]) / rms(&below[mid.clone()]) < 0.03);
        assert!(rms(&f.filter(&above).unwrap()[mid.clone()]) / rms(&above[mid]) < 0.03);
    }

    #[test]
    fn magnitude_response_matches_filtering() {
        let fs = 48_000.0;
        let f = FirFilter::low_pass(4_000.0, fs, 201, WindowKind::Hamming).unwrap();
        assert!((f.magnitude_response(0.0, fs) - 1.0).abs() < 1e-6);
        assert!(f.magnitude_response(1_000.0, fs) > 0.95);
        assert!(f.magnitude_response(12_000.0, fs) < 0.01);
    }

    #[test]
    fn filter_output_is_time_aligned() {
        let fs = 8_000.0;
        let f = FirFilter::low_pass(1_000.0, fs, 101, WindowKind::Hamming).unwrap();
        // An impulse in the middle should come out centred at the same index.
        let mut x = vec![0.0; 400];
        x[200] = 1.0;
        let y = f.filter(&x).unwrap();
        assert_eq!(y.len(), x.len());
        let peak_index = y
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak_index, 200);
    }

    #[test]
    fn filtfilt_has_zero_phase() {
        let fs = 8_000.0;
        let f = FirFilter::low_pass(1_500.0, fs, 101, WindowKind::Hamming).unwrap();
        let x = tone(500.0, fs, 2_000);
        let y = f.filtfilt(&x).unwrap();
        assert_eq!(y.len(), x.len());
        // Zero phase: peak cross-correlation at zero lag within the steady state.
        let mid = 500..1_500usize;
        let mut best_lag = 0isize;
        let mut best = f64::MIN;
        for lag in -10isize..=10 {
            let mut acc = 0.0;
            for i in mid.clone() {
                let j = i as isize + lag;
                if j >= 0 && (j as usize) < x.len() {
                    acc += x[i] * y[j as usize];
                }
            }
            if acc > best {
                best = acc;
                best_lag = lag;
            }
        }
        assert_eq!(best_lag, 0);
    }

    #[test]
    fn filter_signal_preserves_rate() {
        let s = Signal::tone(440.0, 1.0, 0.2, 8_000.0).unwrap();
        let f = FirFilter::low_pass(1_000.0, 8_000.0, 51, WindowKind::Hamming).unwrap();
        let out = f.filter_signal(&s).unwrap();
        assert_eq!(out.sample_rate_hz(), 8_000.0);
        assert_eq!(out.len(), s.len());
    }

    #[test]
    fn rejects_empty_input() {
        let f = FirFilter::low_pass(1_000.0, 8_000.0, 51, WindowKind::Hamming).unwrap();
        assert!(f.filter(&[]).is_err());
    }

    #[test]
    fn design_memo_survives_a_poisoned_lock() {
        let poisoner = std::thread::spawn(|| {
            let _guard = design_memo().lock().unwrap();
            panic!("poison the design memo");
        });
        assert!(poisoner.join().is_err());
        assert!(design_memo().is_poisoned());
        let first = FirFilter::low_pass_cached(3_000.0, 44_100.0, 33, WindowKind::Hann).unwrap();
        let again = FirFilter::low_pass_cached(3_000.0, 44_100.0, 33, WindowKind::Hann).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let designed = FirFilter::low_pass(3_000.0, 44_100.0, 33, WindowKind::Hann).unwrap();
        assert_eq!(*first, designed);
    }
}
