//! Radix-2 fast Fourier transform.
//!
//! The transform sizes used throughout the workspace are powers of two
//! (analysis frames, fast convolution, analytic-signal computation), so one
//! iterative radix-2 Cooley–Tukey kernel serves every caller.
//!
//! Twiddle factors come from a single process-wide table of directly
//! computed `cis(-2πk/n)` for the largest `n` transformed so far (its
//! first quadrant, `k < n/4`; the second is an exact rotation of it); a
//! smaller transform reads it with a stride.  `-2π·2k/n` and
//! `-2π·k/(n/2)` round to the same double (scaling by two is exact), so a
//! strided entry is bit-equal to the one a table of the smaller size would
//! hold: results never depend on which sizes a process transformed before.
//!
//! Real signals go through [`rfft_into`] / [`irfft_into`], which pack an
//! `n`-point real transform into one `n/2`-point complex transform, and
//! [`KernelSpectrum`] convolves two real overlap-save segments per complex
//! transform.

use std::f64::consts::PI;
use std::sync::{Arc, Mutex, PoisonError};

use crate::complex::Complex;
use crate::error::{DspError, Result};

/// Returns the smallest power of two that is `>= n` (and at least 1).
#[inline]
pub fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns `true` if `n` is a non-zero power of two.
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && (n & (n - 1)) == 0
}

/// The directly computed twiddle factors `cis(-2πk/n)` for the first
/// quadrant, `k < n/4`.  The second quadrant follows exactly:
/// `cis(-2π(k + n/4)/n) = -i·cis(-2πk/n)`, a swap and a negation.
struct Twiddles {
    n: usize,
    table: Vec<Complex>,
}

impl Twiddles {
    fn new(n: usize) -> Self {
        let n = n.max(4);
        let table = (0..n / 4)
            .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64))
            .collect();
        Twiddles { n, table }
    }

    /// `cis(-2πk/len)` for `k = 0, 1, …, len/4 - 1` (`len` a power of two,
    /// at least 4 and no larger than the table's `n`).
    #[inline]
    fn stage(&self, len: usize) -> impl Iterator<Item = &Complex> {
        self.table.iter().step_by(self.n / len)
    }

    /// `cis(-2πk/len)` for a single `k < len/2`.
    #[inline]
    fn at(&self, k: usize, len: usize) -> Complex {
        let quarter = len / 4;
        if k < quarter {
            self.table[k * (self.n / len)]
        } else {
            minus_i(self.table[(k - quarter) * (self.n / len)])
        }
    }
}

/// `-i·w`, exactly.
#[inline]
fn minus_i(w: Complex) -> Complex {
    Complex::new(w.im, -w.re)
}

/// The shared twiddle table, covering transforms of at least `n` points.
///
/// It only ever grows (to the largest `n` requested), so plan memory stays
/// at `n_max/4` complex values.  A panic while the lock is held cannot
/// leave a half-built table behind — the new table is swapped in whole —
/// so a poisoned lock is recovered rather than propagated.
fn twiddles(n: usize) -> Arc<Twiddles> {
    static PLAN: Mutex<Option<Arc<Twiddles>>> = Mutex::new(None);
    let mut plan = PLAN.lock().unwrap_or_else(PoisonError::into_inner);
    match plan.as_ref() {
        Some(table) if table.n >= n => Arc::clone(table),
        _ => {
            let table = Arc::new(Twiddles::new(n));
            *plan = Some(Arc::clone(&table));
            table
        }
    }
}

/// Bit-reversal permutation, conjugating every value on the way when
/// `conjugate` is set (the inverse transform runs the forward kernel on the
/// conjugated input).
fn bit_reverse(buffer: &mut [Complex], conjugate: bool) {
    let n = buffer.len();
    if n < 2 {
        if conjugate {
            buffer.iter_mut().for_each(|v| *v = v.conj());
        }
        return;
    }
    let shift = usize::BITS - n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            buffer.swap(i, j);
            if conjugate {
                buffer[i] = buffer[i].conj();
                buffer[j] = buffer[j].conj();
            }
        } else if i == j && conjugate {
            buffer[i] = buffer[i].conj();
        }
    }
}

/// The butterflies of a forward transform on bit-reversed input.
///
/// Stages run two at a time: one pass over a block of `2·len` values does
/// stage `len`'s butterflies and then stage `2·len`'s on the same four
/// values — the operations of two radix-2 passes, in the same order, for
/// half the memory traffic.
fn butterflies(buffer: &mut [Complex], twiddles: &Twiddles) {
    let n = buffer.len();
    if n < 4 {
        if let [even, odd] = buffer {
            (*even, *odd) = (*even + *odd, *even - *odd);
        }
        return;
    }
    // Stages 2 and 4, whose twiddles are exactly 1 and -i.
    for quad in buffer.chunks_exact_mut(4) {
        let (a, b) = (quad[0] + quad[1], quad[0] - quad[1]);
        let (c, d) = (quad[2] + quad[3], minus_i(quad[2] - quad[3]));
        quad[0] = a + c;
        quad[2] = a - c;
        quad[1] = b + d;
        quad[3] = b - d;
    }
    let mut len = 8usize;
    while 2 * len <= n {
        for block in buffer.chunks_exact_mut(2 * len) {
            let (lo, hi) = block.split_at_mut(len);
            let (x0, x1) = lo.split_at_mut(len / 2);
            let (x2, x3) = hi.split_at_mut(len / 2);
            // Stage `len` pairs x0/x1 and x2/x3 under `cis(-2πk/len)`
            // (`-i·` the table past its quadrant); stage `2·len` pairs
            // x0/x2 under `v = cis(-2πk/(2·len))` and x1/x3 under `-i·v`.
            let inner = twiddles
                .stage(len)
                .copied()
                .chain(twiddles.stage(len).map(|&w| minus_i(w)));
            for ((((a, b), c), d), (w, &v)) in x0
                .iter_mut()
                .zip(x1.iter_mut())
                .zip(x2.iter_mut())
                .zip(x3.iter_mut())
                .zip(inner.zip(twiddles.stage(2 * len)))
            {
                let t = *b * w;
                let (a1, b1) = (*a + t, *a - t);
                let t = *d * w;
                let (c1, d1) = (*c + t, *c - t);
                let t = c1 * v;
                (*a, *c) = (a1 + t, a1 - t);
                let t = d1 * minus_i(v);
                (*b, *d) = (b1 + t, b1 - t);
            }
        }
        len *= 4;
    }
    if len == n {
        // An odd number of stages leaves the last one: a radix-2 pass whose
        // butterflies `k` and `k + len/4` share one table read.
        let (evens, odds) = buffer.split_at_mut(len / 2);
        let (evens_lo, evens_hi) = evens.split_at_mut(len / 4);
        let (odds_lo, odds_hi) = odds.split_at_mut(len / 4);
        for ((((even_lo, odd_lo), even_hi), odd_hi), &w) in evens_lo
            .iter_mut()
            .zip(odds_lo.iter_mut())
            .zip(evens_hi.iter_mut())
            .zip(odds_hi.iter_mut())
            .zip(twiddles.stage(len))
        {
            let t = *odd_lo * w;
            (*even_lo, *odd_lo) = (*even_lo + t, *even_lo - t);
            let t = *odd_hi * minus_i(w);
            (*even_hi, *odd_hi) = (*even_hi + t, *even_hi - t);
        }
    }
}

/// Forward transform of a power-of-two `buffer` with a table covering it.
fn forward(buffer: &mut [Complex], twiddles: &Twiddles) {
    bit_reverse(buffer, false);
    butterflies(buffer, twiddles);
}

/// Inverse transform (scaled by `1/n`): `conj(fft(conj(x))) / n`, which is
/// bit-identical to running the butterflies with conjugated twiddles
/// because negation is exact.
fn inverse(buffer: &mut [Complex], twiddles: &Twiddles) {
    bit_reverse(buffer, true);
    butterflies(buffer, twiddles);
    let scale = 1.0 / buffer.len() as f64;
    for value in buffer.iter_mut() {
        *value = Complex::new(value.re * scale, -(value.im * scale));
    }
}

fn check_length(n: usize, what: &'static str) -> Result<()> {
    if is_power_of_two(n) {
        Ok(())
    } else {
        Err(DspError::invalid_parameter(
            what,
            format!("{n} is not a power of two"),
        ))
    }
}

/// In-place iterative radix-2 FFT.
///
/// `buffer.len()` must be a power of two.  `inverse` selects the inverse
/// transform; the inverse is scaled by `1/N` so that
/// `ifft(fft(x)) == x`.
pub fn fft_in_place(buffer: &mut [Complex], inverse: bool) -> Result<()> {
    let n = buffer.len();
    if n == 0 {
        return Err(DspError::EmptyInput { operation: "fft" });
    }
    check_length(n, "fft length")?;
    let table = twiddles(n);
    if inverse {
        self::inverse(buffer, &table);
    } else {
        forward(buffer, &table);
    }
    Ok(())
}

/// Forward FFT of a complex buffer, returning a new vector.
pub fn fft(input: &[Complex]) -> Result<Vec<Complex>> {
    let mut buffer = input.to_vec();
    fft_in_place(&mut buffer, false)?;
    Ok(buffer)
}

/// Inverse FFT of a complex buffer, returning a new vector.
pub fn ifft(input: &[Complex]) -> Result<Vec<Complex>> {
    let mut buffer = input.to_vec();
    fft_in_place(&mut buffer, true)?;
    Ok(buffer)
}

/// Forward FFT of a real signal zero-padded (or truncated) to `n` points
/// (`n` a power of two), writing the non-negative-frequency half of the
/// spectrum — bins `0..=n/2`, `n/2 + 1` values — into `spectrum` (cleared
/// and resized).  The other half is its mirror image, `X[n-k] = conj(X[k])`.
///
/// The `n` real samples are packed as `n/2` complex ones (even samples in
/// the real part, odd in the imaginary part), transformed once and
/// separated, which halves the work of a complex transform.
pub fn rfft_into(input: &[f64], n: usize, spectrum: &mut Vec<Complex>) -> Result<()> {
    check_length(n, "rfft length")?;
    spectrum.clear();
    if n == 1 {
        spectrum.push(Complex::from_real(input.first().copied().unwrap_or(0.0)));
        return Ok(());
    }
    let m = n / 2;
    // Exactly the m + 1 bins: growing by `extend`, `resize` and the final
    // Nyquist `push` would otherwise double the capacity past them.
    spectrum.reserve_exact(m + 1);
    let input = &input[..input.len().min(n)];
    spectrum.extend(
        input
            .chunks(2)
            .map(|pair| Complex::new(pair[0], pair.get(1).copied().unwrap_or(0.0))),
    );
    spectrum.resize(m, Complex::ZERO);
    let table = twiddles(n);
    forward(spectrum, &table);
    // With Z = FFT(z): the even samples' spectrum is E[k] = (Z[k] +
    // conj Z[m-k]) / 2, the odd samples' is O[k] = -i (Z[k] - conj Z[m-k]) / 2,
    // and X[k] = E[k] + W^k O[k], X[m-k] = conj(E[k] - W^k O[k]).
    let z0 = spectrum[0];
    spectrum[0] = Complex::from_real(z0.re + z0.im);
    spectrum.push(Complex::from_real(z0.re - z0.im));
    for k in 1..=m / 2 {
        let (a, b) = (spectrum[k], spectrum[m - k].conj());
        let even = (a + b) * 0.5;
        let diff = (a - b) * 0.5;
        let odd = table.at(k, n) * Complex::new(diff.im, -diff.re);
        spectrum[k] = even + odd;
        spectrum[m - k] = (even - odd).conj();
    }
    Ok(())
}

/// Inverse of [`rfft_into`]: turns the half spectrum `spectrum` (bins
/// `0..=n/2` of an `n`-point transform, `n` a power of two) into the `n`
/// real samples, scaled by `1/n`, written into `out` (cleared and resized).
///
/// The negative-frequency half is taken to be the mirror image of the
/// given one, as it is for the spectrum of any real signal.  `spectrum` is
/// the transform's workspace and holds no meaningful values afterwards.
pub fn irfft_into(spectrum: &mut [Complex], out: &mut Vec<f64>) -> Result<()> {
    if spectrum.is_empty() {
        return Err(DspError::EmptyInput { operation: "irfft" });
    }
    out.clear();
    if spectrum.len() == 1 {
        out.push(spectrum[0].re);
        return Ok(());
    }
    let m = spectrum.len() - 1;
    let n = 2 * m;
    check_length(n, "irfft length")?;
    let table = twiddles(n);
    // Rebuild Z[k] = E[k] + i O[k] from E[k] = (X[k] + conj X[m-k]) / 2 and
    // O[k] = conj(W^k) (X[k] - conj X[m-k]) / 2; E and O are the spectra of
    // the even and odd samples, so E[m-k] = conj E[k] and O[m-k] = conj O[k].
    let (x0, xm) = (spectrum[0], spectrum[m].conj());
    let (even, odd) = ((x0 + xm) * 0.5, (x0 - xm) * 0.5);
    spectrum[0] = even + Complex::new(-odd.im, odd.re);
    for k in 1..=m / 2 {
        let (a, b) = (spectrum[k], spectrum[m - k].conj());
        let even = (a + b) * 0.5;
        let odd = table.at(k, n).conj() * ((a - b) * 0.5);
        spectrum[k] = even + Complex::new(-odd.im, odd.re);
        spectrum[m - k] = even.conj() + Complex::new(odd.im, odd.re);
    }
    let packed = &mut spectrum[..m];
    inverse(packed, &table);
    out.reserve(n);
    for z in packed.iter() {
        out.push(z.re);
        out.push(z.im);
    }
    Ok(())
}

/// Forward FFT of a real signal padded/truncated to exactly `n` points
/// (`n` must be a power of two), returning the full `n`-bin spectrum.
/// Computed by [`rfft_into`]; the upper half is filled in by symmetry.
pub fn fft_real_n(input: &[f64], n: usize) -> Result<Vec<Complex>> {
    if input.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "fft_real_n",
        });
    }
    let mut spectrum = Vec::with_capacity(n);
    rfft_into(input, n, &mut spectrum)?;
    for k in n / 2 + 1..n {
        spectrum.push(spectrum[n - k].conj());
    }
    Ok(spectrum)
}

/// Frequency in Hz corresponding to FFT bin `bin` for a transform of length
/// `n` at `sample_rate_hz`.  Bins above `n/2` map to negative frequencies.
#[inline]
pub fn bin_frequency(bin: usize, n: usize, sample_rate_hz: f64) -> f64 {
    let k = bin % n;
    if k <= n / 2 {
        k as f64 * sample_rate_hz / n as f64
    } else {
        (k as f64 - n as f64) * sample_rate_hz / n as f64
    }
}

/// A precomputed kernel spectrum for overlap-save convolution.
///
/// Transforming the kernel is the fixed cost of FFT convolution; when the
/// same kernel is applied to many signals (anti-alias filters, band
/// shaping, room taps) it pays to do it once.  Overlap-save also keeps the
/// transform size proportional to the *kernel* rather than the signal, so
/// convolving a one-second 192 kHz capture with a 255-tap filter runs many
/// small FFTs instead of one 2^18-point pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpectrum {
    block: usize,
    kernel_len: usize,
    spectrum: Vec<Complex>,
}

impl KernelSpectrum {
    /// Transform `kernel` once, picking a block size a few times larger
    /// than the kernel so the overlap overhead stays small.
    pub fn new(kernel: &[f64]) -> Result<Self> {
        if kernel.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "kernel spectrum",
            });
        }
        let block = (4 * next_power_of_two(kernel.len())).max(256);
        let mut spectrum = vec![Complex::ZERO; block];
        for (slot, &x) in spectrum.iter_mut().zip(kernel.iter()) {
            *slot = Complex::from_real(x);
        }
        fft_in_place(&mut spectrum, false)?;
        Ok(KernelSpectrum {
            block,
            kernel_len: kernel.len(),
            spectrum,
        })
    }

    /// Full linear convolution written into `out` (cleared and resized),
    /// so callers in hot loops can reuse the output allocation.
    ///
    /// Each complex transform carries two consecutive real segments, one in
    /// the real part and one in the imaginary part.  The kernel is real, so
    /// its spectrum acts on both parts independently and the inverse hands
    /// back both segments' convolutions at once.
    pub fn convolve_into(&self, input: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if input.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "overlap-save convolve",
            });
        }
        let k = self.kernel_len;
        let b = self.block;
        // Each segment produces `l` valid output samples; the first `k - 1`
        // slots of every inverse transform are circular wrap and discarded.
        let l = b - k + 1;
        let out_len = input.len() + k - 1;
        out.clear();
        out.resize(out_len, 0.0);
        let sample = |idx: isize| {
            if idx >= 0 && (idx as usize) < input.len() {
                input[idx as usize]
            } else {
                0.0
            }
        };
        let table = twiddles(b);
        let mut segment = vec![Complex::ZERO; b];
        let mut start = 0usize;
        while start < out_len {
            // Output samples [start, start + l) depend on input samples
            // [start - k + 1, start + l); out-of-range taps are zero.  The
            // imaginary part carries the next segment, `l` samples on.
            let first = start as isize - (k as isize - 1);
            for (j, slot) in segment.iter_mut().enumerate() {
                let idx = first + j as isize;
                *slot = Complex::new(sample(idx), sample(idx + l as isize));
            }
            forward(&mut segment, &table);
            for (x, h) in segment.iter_mut().zip(self.spectrum.iter()) {
                *x *= *h;
            }
            inverse(&mut segment, &table);
            let wrapped = &segment[k - 1..];
            let valid = l.min(out_len - start);
            for (slot, value) in out[start..start + valid].iter_mut().zip(wrapped) {
                *slot = value.re;
            }
            let next = start + l;
            if next < out_len {
                let valid = l.min(out_len - next);
                for (slot, value) in out[next..next + valid].iter_mut().zip(wrapped) {
                    *slot = value.im;
                }
            }
            start += 2 * l;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn rejects_empty_and_non_power_of_two() {
        assert!(fft(&[]).is_err());
        let mut buf = vec![Complex::ZERO; 3];
        assert!(fft_in_place(&mut buf, false).is_err());
        assert!(fft_real_n(&[1.0], 3).is_err());
    }

    #[test]
    fn transform_of_impulse_is_flat() {
        let mut input = vec![Complex::ZERO; 8];
        input[0] = Complex::ONE;
        let out = fft(&input).unwrap();
        for bin in out {
            assert!(approx(bin.re, 1.0, 1e-12));
            assert!(approx(bin.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn transform_of_constant_concentrates_at_dc() {
        let input = vec![Complex::ONE; 16];
        let out = fft(&input).unwrap();
        assert!(approx(out[0].re, 16.0, 1e-9));
        for bin in &out[1..] {
            assert!(bin.abs() < 1e-9);
        }
    }

    #[test]
    fn sine_peaks_at_expected_bin() {
        let n = 256;
        let fs = 8_000.0;
        let f = 1_000.0; // exactly bin 32
        let samples: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let spec = fft_real_n(&samples, n).unwrap();
        let k = 32;
        let peak_mag = spec[k].abs();
        assert!(approx(peak_mag, n as f64 / 2.0, 1e-6));
        // All other positive-frequency bins are tiny.
        for (i, bin) in spec.iter().enumerate().take(n / 2) {
            if i != k {
                assert!(bin.abs() < 1e-6, "bin {i} leaked {}", bin.abs());
            }
        }
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let n = 128;
        let samples: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), (i as f64 * 0.05).cos()))
            .collect();
        let back = ifft(&fft(&samples).unwrap()).unwrap();
        for (a, b) in samples.iter().zip(back.iter()) {
            assert!(approx(a.re, b.re, 1e-9));
            assert!(approx(a.im, b.im, 1e-9));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 64;
        let samples: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64 - 3.0) / 3.0).collect();
        let spec = fft_real_n(&samples, n).unwrap();
        let time_energy: f64 = samples.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!(approx(time_energy, freq_energy, 1e-9));
    }

    #[test]
    fn bin_frequency_maps_both_halves() {
        assert!(approx(bin_frequency(0, 8, 8000.0), 0.0, 1e-12));
        assert!(approx(bin_frequency(1, 8, 8000.0), 1000.0, 1e-12));
        assert!(approx(bin_frequency(4, 8, 8000.0), 4000.0, 1e-12));
        assert!(approx(bin_frequency(7, 8, 8000.0), -1000.0, 1e-12));
    }

    #[test]
    fn fft_convolution_matches_direct() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [0.5, -1.0, 0.25];
        let fast = fft_convolve(&a, &b).unwrap();
        let mut direct = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                direct[i + j] += x * y;
            }
        }
        assert_eq!(fast.len(), direct.len());
        for (f, d) in fast.iter().zip(direct.iter()) {
            assert!(approx(*f, *d, 1e-9));
        }
    }

    /// Reference for [`KernelSpectrum`]: one full-size FFT convolution of
    /// two real sequences, output length `a.len() + b.len() - 1`.
    fn fft_convolve(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
        if a.is_empty() || b.is_empty() {
            return Err(DspError::EmptyInput {
                operation: "fft_convolve",
            });
        }
        let out_len = a.len() + b.len() - 1;
        let n = next_power_of_two(out_len);
        let mut fa = vec![Complex::ZERO; n];
        let mut fb = vec![Complex::ZERO; n];
        for (slot, &x) in fa.iter_mut().zip(a.iter()) {
            *slot = Complex::from_real(x);
        }
        for (slot, &x) in fb.iter_mut().zip(b.iter()) {
            *slot = Complex::from_real(x);
        }
        fft_in_place(&mut fa, false)?;
        fft_in_place(&mut fb, false)?;
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x *= *y;
        }
        fft_in_place(&mut fa, true)?;
        Ok(fa.into_iter().take(out_len).map(|c| c.re).collect())
    }

    /// Full linear convolution through [`KernelSpectrum::convolve_into`].
    fn convolve(spec: &KernelSpectrum, input: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        spec.convolve_into(input, &mut out)?;
        Ok(out)
    }

    fn direct_convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut direct = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                direct[i + j] += x * y;
            }
        }
        direct
    }

    #[test]
    fn overlap_save_matches_direct_across_odd_lengths() {
        // Each transform carries two segments, so cover odd segment counts
        // (the last transform carries one), even ones, signals shorter than
        // one block and a kernel longer than the signal.
        let mut parities = [false; 2];
        for (signal_len, kernel_len) in [
            (1, 1),
            (37, 5),
            (255, 17),
            (1023, 63),
            (500, 101),
            (700, 17),
            (1500, 33),
            (2000, 5),
            (3, 64),
            (40, 300),
        ] {
            let signal: Vec<f64> = (0..signal_len)
                .map(|i| ((i * 31 % 13) as f64 - 6.0) / 6.0)
                .collect();
            let kernel: Vec<f64> = (0..kernel_len)
                .map(|i| ((i * 7 % 5) as f64 - 2.0) / 4.0)
                .collect();
            let spec = KernelSpectrum::new(&kernel).unwrap();
            let valid_per_segment = spec.block - kernel_len + 1;
            let segments = (signal_len + kernel_len - 1).div_ceil(valid_per_segment);
            parities[segments % 2] = true;
            let fast = convolve(&spec, &signal).unwrap();
            let direct = direct_convolve(&signal, &kernel);
            assert_eq!(fast.len(), direct.len());
            for (f, d) in fast.iter().zip(direct.iter()) {
                assert!(
                    approx(*f, *d, 1e-9),
                    "mismatch at ({signal_len}, {kernel_len}): {f} vs {d}"
                );
            }
        }
        assert_eq!(
            parities,
            [true, true],
            "both segment-count parities covered"
        );
    }

    #[test]
    fn rfft_into_allocates_exactly_the_half_spectrum() {
        // A short input zero-padded to many times its length: the Nyquist
        // bin must not double a fresh buffer's capacity.
        for n in [2, 8, 1 << 12] {
            let mut spectrum = Vec::new();
            rfft_into(&[1.0, -0.5, 0.25], n, &mut spectrum).unwrap();
            assert_eq!(spectrum.len(), n / 2 + 1);
            assert_eq!(spectrum.capacity(), n / 2 + 1, "n = {n}");
        }
    }

    #[test]
    fn overlap_save_on_silence_is_silent() {
        let kernel = [0.25, 0.5, 0.25];
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let out = convolve(&spec, &vec![0.0; 777]).unwrap();
        assert_eq!(out.len(), 779);
        assert!(out.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn overlap_save_kernel_longer_than_signal() {
        let signal = [1.0, -2.0, 0.5];
        let kernel: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() / 8.0).collect();
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let fast = convolve(&spec, &signal).unwrap();
        let direct = direct_convolve(&signal, &kernel);
        assert_eq!(fast.len(), direct.len());
        for (f, d) in fast.iter().zip(direct.iter()) {
            assert!(approx(*f, *d, 1e-9));
        }
    }

    #[test]
    fn overlap_save_matches_full_size_fft_convolve() {
        let signal: Vec<f64> = (0..4096)
            .map(|i| ((i * 131 % 97) as f64 - 48.0) / 48.0)
            .collect();
        let kernel: Vec<f64> = (0..255)
            .map(|i| ((i * 11 % 23) as f64 - 11.0) / 64.0)
            .collect();
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let blocked = convolve(&spec, &signal).unwrap();
        let full = fft_convolve(&signal, &kernel).unwrap();
        assert_eq!(blocked.len(), full.len());
        for (b, f) in blocked.iter().zip(full.iter()) {
            assert!(approx(*b, *f, 1e-9));
        }
    }

    #[test]
    fn convolve_into_reuses_the_output_allocation() {
        let kernel = [1.0, 1.0];
        let spec = KernelSpectrum::new(&kernel).unwrap();
        let mut out = vec![9.0; 4];
        spec.convolve_into(&[1.0, 2.0, 3.0], &mut out).unwrap();
        assert_eq!(out.len(), 4);
        for (got, want) in out.iter().zip([1.0, 3.0, 5.0, 3.0].iter()) {
            assert!(approx(*got, *want, 1e-9));
        }
        assert!(convolve(&spec, &[]).is_err());
        assert!(KernelSpectrum::new(&[]).is_err());
    }

    /// Largest deviation of `spectrum` from an exact-bin cosine's spectrum
    /// (`n/2` at bins `bin` and `n - bin`, zero elsewhere), relative to
    /// that peak.
    fn cosine_spectrum_error(spectrum: &[Complex], n: usize, bin: usize) -> f64 {
        let peak = n as f64 / 2.0;
        let worst = spectrum
            .iter()
            .enumerate()
            .map(|(k, v)| {
                let want = if k == bin || k == n - bin { peak } else { 0.0 };
                (*v - Complex::from_real(want)).abs()
            })
            .fold(0.0, f64::max);
        worst / peak
    }

    fn exact_bin_cosine(n: usize, bin: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * ((bin * i) % n) as f64 / n as f64).cos())
            .collect()
    }

    #[test]
    fn exact_bin_cosine_is_accurate_at_large_sizes() {
        for log2 in [16, 18] {
            let n = 1usize << log2;
            let bin = n / 8 + 3;
            let samples = exact_bin_cosine(n, bin);
            let mut complex: Vec<Complex> =
                samples.iter().map(|&x| Complex::from_real(x)).collect();
            fft_in_place(&mut complex, false).unwrap();
            let error = cosine_spectrum_error(&complex, n, bin);
            assert!(
                error <= 1e-14,
                "complex n = 2^{log2}: error {error:e} x peak"
            );
            let mut half = Vec::new();
            rfft_into(&samples, n, &mut half).unwrap();
            assert_eq!(half.len(), n / 2 + 1);
            let error = cosine_spectrum_error(&half, n, bin);
            assert!(error <= 1e-14, "real n = 2^{log2}: error {error:e} x peak");
        }
    }

    #[test]
    fn strided_twiddles_are_bit_equal_to_a_direct_table() {
        let big = Twiddles::new(1 << 16);
        for log2 in 2..=16 {
            let n = 1usize << log2;
            let direct = Twiddles::new(n);
            let strided: Vec<Complex> = big.stage(n).copied().collect();
            assert_eq!(strided, direct.table, "n = {n}");
            // Both quadrants, the second one rotated from the first.
            for k in 0..n / 2 {
                let want = Complex::cis(-2.0 * PI * k as f64 / n as f64);
                assert!((big.at(k, n) - want).abs() < 1e-15, "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn plan_holds_one_table_for_the_largest_size() {
        fft(&vec![Complex::ONE; 1 << 12]).unwrap();
        fft(&[Complex::ONE; 8]).unwrap();
        let plan = twiddles(1);
        assert!(plan.n >= 1 << 12);
        assert_eq!(plan.table.len(), plan.n / 4);
    }

    #[test]
    fn real_transform_matches_the_complex_one() {
        for n in [1usize, 2, 4, 8, 64, 512] {
            // Inputs shorter than, equal to and longer than `n`.
            for len in [n / 2 + 1, n, n + 3] {
                let samples: Vec<f64> = (0..len)
                    .map(|i| ((i * 37 % 11) as f64 - 5.0) / 5.0)
                    .collect();
                let mut padded: Vec<Complex> = samples
                    .iter()
                    .take(n)
                    .map(|&x| Complex::from_real(x))
                    .collect();
                padded.resize(n, Complex::ZERO);
                let full = fft(&padded).unwrap();
                let mut half = Vec::new();
                rfft_into(&samples, n, &mut half).unwrap();
                assert_eq!(half.len(), n / 2 + 1);
                for (k, (h, f)) in half.iter().zip(full.iter()).enumerate() {
                    assert!(
                        (*h - *f).abs() < 1e-12,
                        "n {n} len {len} bin {k}: {h:?} vs {f:?}"
                    );
                }
                assert_eq!(fft_real_n(&samples, n).unwrap().len(), n);
                let mut back = Vec::new();
                irfft_into(&mut half, &mut back).unwrap();
                assert_eq!(back.len(), n);
                for (b, p) in back.iter().zip(padded.iter()) {
                    assert!(approx(*b, p.re, 1e-12), "n {n} len {len}: {b} vs {}", p.re);
                }
            }
        }
    }

    #[test]
    fn real_transforms_reject_bad_lengths() {
        let mut spectrum = Vec::new();
        assert!(rfft_into(&[1.0, 2.0], 0, &mut spectrum).is_err());
        assert!(rfft_into(&[1.0, 2.0], 6, &mut spectrum).is_err());
        let mut out = Vec::new();
        assert!(irfft_into(&mut [], &mut out).is_err());
        // Four bins would be a six-point transform.
        assert!(irfft_into(&mut [Complex::ONE; 4], &mut out).is_err());
    }

    #[test]
    fn next_power_of_two_helper() {
        assert_eq!(next_power_of_two(0), 1);
        assert_eq!(next_power_of_two(1), 1);
        assert_eq!(next_power_of_two(5), 8);
        assert_eq!(next_power_of_two(1024), 1024);
        assert!(is_power_of_two(64));
        assert!(!is_power_of_two(65));
        assert!(!is_power_of_two(0));
    }
}
