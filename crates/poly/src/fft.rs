//! In-place radix-2 Cooley–Tukey FFT over a prime field with high 2-adicity.
//!
//! [`fft_with`]/[`ifft_with`] split a large transform into `2^log_w`
//! interleaved sub-transforms computed on scoped worker threads (the
//! classic `bellman`/`halo2` decomposition), each running the serial
//! kernel. The parallel form computes exactly the same field values — the
//! DFT is a fixed function of its input — so callers may mix thread counts
//! freely without affecting any downstream bytes.

use poneglyph_arith::PrimeField;
use poneglyph_par::{par_chunks_mut, Parallelism};
use std::sync::OnceLock;

/// Transforms below this size run serially even under a parallel budget:
/// scoped-thread spawn latency would exceed the butterfly work saved.
const MIN_PARALLEL_N: usize = 1 << 11;

/// Record one transform's element count into
/// `poneglyph_fft_size` (handle cached: the registry mutex is taken once
/// per process, not per FFT).
fn observe_fft_size(n: usize) {
    static HIST: OnceLock<poneglyph_obs::Histogram> = OnceLock::new();
    HIST.get_or_init(|| {
        poneglyph_obs::global().histogram(
            "poneglyph_fft_size",
            &[],
            poneglyph_obs::size_buckets(),
            "Element count of each FFT invocation",
        )
    })
    .observe(n as u64);
}

/// Bit-reversal permutation of `a` (length must be a power of two).
fn bit_reverse<F>(a: &mut [F]) {
    let n = a.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() as usize >> (64 - bits);
        if i < j {
            a.swap(i, j);
        }
    }
}

/// The serial kernel: interprets `a` as coefficients and replaces it with
/// evaluations at successive powers of `omega` (an `n`-th root of unity).
pub(crate) fn fft<F: PrimeField>(a: &mut [F], omega: F) {
    let n = a.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    if n == 1 {
        return;
    }
    bit_reverse(a);

    // Precompute twiddles for the largest stage once; every smaller stage
    // strides through them.
    let half = n / 2;
    let mut twiddles = Vec::with_capacity(half);
    let mut t = F::ONE;
    for _ in 0..half {
        twiddles.push(t);
        t *= omega;
    }

    let mut len = 2;
    while len <= n {
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for i in 0..len / 2 {
                let w = twiddles[i * stride];
                let u = a[start + i];
                let v = a[start + i + len / 2] * w;
                a[start + i] = u + v;
                a[start + i + len / 2] = u - v;
            }
        }
        len <<= 1;
    }
}

/// In-place forward FFT under an explicit thread budget.
///
/// With a serial budget (or a small transform) this is the serial kernel;
/// otherwise the transform is decomposed into `w = 2^log_w` sub-transforms
/// of size `n/w` — worker `j` gathers the twiddle-weighted residue class
/// `Σ_s a[i + s·(n/w)]·ω^{j(i + s·(n/w))}`, runs a serial sub-FFT over it,
/// and the results interleave back (`out[i] = tmp[i mod w][i div w]`).
pub fn fft_with<F: PrimeField>(a: &mut [F], omega: F, par: Parallelism) {
    let n = a.len();
    assert!(n.is_power_of_two(), "fft length must be a power of two");
    observe_fft_size(n);
    let log_n = n.trailing_zeros();
    // Sub-transforms must stay big enough to amortize the gather pass.
    let max_log_w = log_n.saturating_sub(MIN_PARALLEL_N.trailing_zeros());
    let log_w = par.threads().ilog2().min(max_log_w);
    if log_w == 0 || n < MIN_PARALLEL_N {
        fft(a, omega);
        return;
    }
    let w = 1usize << log_w;
    let log_sub_n = log_n - log_w;
    let sub_n = 1usize << log_sub_n;
    let new_omega = omega.pow(&[w as u64, 0, 0, 0]);

    let mut tmp = vec![vec![F::ZERO; sub_n]; w];
    // `w <= par.threads()`, so each worker gets exactly one sub-transform.
    let input = &*a;
    par_chunks_mut(par, &mut tmp, 1, |first, subs| {
        for (j, tmp) in (first..).zip(subs) {
            // Gather residue class j, weighted so the sub-FFT of size
            // n/w lands on every w-th output of the full transform.
            let omega_j = omega.pow(&[j as u64, 0, 0, 0]);
            let omega_step = omega.pow(&[(j as u64) << log_sub_n, 0, 0, 0]);
            let mut elt = F::ONE;
            for (i, t) in tmp.iter_mut().enumerate() {
                for s in 0..w {
                    let idx = (i + (s << log_sub_n)) & (n - 1);
                    *t += input[idx] * elt;
                    elt *= omega_step;
                }
                elt *= omega_j;
            }
            fft(tmp, new_omega);
        }
    });

    // Interleave the sub-transforms back into natural order.
    let mask = w - 1;
    par_chunks_mut(par, a, MIN_PARALLEL_N / 2, |offset, chunk| {
        for (i, v) in chunk.iter_mut().enumerate() {
            let idx = offset + i;
            *v = tmp[idx & mask][idx >> log_w];
        }
    });
}

/// In-place inverse FFT (requires `omega_inv` and `1/n`) under an explicit
/// thread budget.
pub fn ifft_with<F: PrimeField>(a: &mut [F], omega_inv: F, n_inv: F, par: Parallelism) {
    fft_with(a, omega_inv, par);
    par_chunks_mut(par, a, MIN_PARALLEL_N, |_, chunk| {
        for v in chunk.iter_mut() {
            *v *= n_inv;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use poneglyph_arith::Fq;

    fn domain(k: u32) -> (Fq, Fq, Fq) {
        let n = 1u64 << k;
        let mut omega = Fq::root_of_unity();
        for _ in k..Fq::TWO_ADICITY {
            omega = omega.square();
        }
        let omega_inv = omega.invert().unwrap();
        let n_inv = Fq::from_u64(n).invert().unwrap();
        (omega, omega_inv, n_inv)
    }

    #[test]
    fn fft_matches_naive_evaluation() {
        let k = 4;
        let n = 1usize << k;
        let (omega, _, _) = domain(k);
        let coeffs: Vec<Fq> = (0..n as u64).map(|i| Fq::from_u64(i * i + 1)).collect();
        let mut evals = coeffs.clone();
        fft(&mut evals, omega);
        // naive Horner at each ω^i
        let mut x = Fq::ONE;
        for e in &evals {
            let mut acc = Fq::ZERO;
            for c in coeffs.iter().rev() {
                acc = acc * x + *c;
            }
            assert_eq!(*e, acc);
            x *= omega;
        }
    }

    #[test]
    fn parallel_matches_serial_at_every_thread_count() {
        // Above and below the parallel threshold, odd and power-of-two
        // budgets: the transform is the same function of its input.
        for k in [8u32, 11, 13] {
            let n = 1usize << k;
            let (omega, omega_inv, n_inv) = domain(k);
            let coeffs: Vec<Fq> = (0..n as u64)
                .map(|i| Fq::from_u64(i.wrapping_mul(0x9e37_79b9) ^ 0xabcd))
                .collect();
            let mut reference = coeffs.clone();
            fft(&mut reference, omega);
            for threads in [1usize, 2, 3, 4, 8] {
                let par = Parallelism::new(threads);
                let mut work = coeffs.clone();
                fft_with(&mut work, omega, par);
                assert_eq!(work, reference, "k={k} threads={threads}");
                ifft_with(&mut work, omega_inv, n_inv, par);
                assert_eq!(work, coeffs, "inverse k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn roundtrip() {
        for k in [1u32, 3, 6, 10] {
            let n = 1usize << k;
            let (omega, omega_inv, n_inv) = domain(k);
            let coeffs: Vec<Fq> = (0..n as u64)
                .map(|i| Fq::from_u64(i.wrapping_mul(0x9e37) ^ 0x123))
                .collect();
            let mut work = coeffs.clone();
            fft_with(&mut work, omega, Parallelism::serial());
            ifft_with(&mut work, omega_inv, n_inv, Parallelism::serial());
            assert_eq!(work, coeffs, "k={k}");
        }
    }
}
