//! Vectorizable slice primitives shared by the fused kernels.
//!
//! Written so the autovectorizer emits SIMD: fixed-width lane
//! accumulators for reductions, branch-free fused loops for updates.
//! The lane-parallel reduction order is part of each kernel's numerical
//! contract — it never changes with the worker count.

/// Lane width of the blocked dot-product reduction.
const LANES: usize = 8;

/// `Σ a[i]·b[i]` with eight parallel partial sums (SIMD-friendly).
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for (acc, (&xv, &yv)) in lanes.iter_mut().zip(x.iter().zip(y)) {
            *acc += xv * yv;
        }
    }
    let mut s: f32 = lanes.iter().sum();
    for (&xv, &yv) in ca.remainder().iter().zip(cb.remainder()) {
        s += xv * yv;
    }
    s
}

/// Polynomial `e^x` with ≈2·10⁻⁷ relative error — a branch-free Cephes
/// `expf`: range-reduce to `r ∈ [-ln2/2, ln2/2]`, a degree-5 minimax
/// polynomial, and an exponent rebuild via the f32 bit layout (no
/// `unsafe`; `from_bits` is a plain transmute intrinsic).
///
/// `f32::exp` goes through libm at ~10 ns a call and cannot inline;
/// softmax, SiLU and cross-entropy together evaluate the exponential
/// millions of times per training iteration. This version inlines, and
/// every step is lane-wise float or integer arithmetic, so a loop that
/// applies it to a slice and does nothing else vectorizes: keep
/// reductions (a softmax's sum, a loss's denominator) out of that loop.
/// The result is deterministic (pure arithmetic, no table lookups),
/// monotone over the clamped range, and exact at `x = 0`.
#[inline]
pub(crate) fn fast_exp(x: f32) -> f32 {
    // Past these bounds e^x over/underflows f32 anyway; clamping also
    // keeps the rebuilt exponent within [-126, 127].
    let x = x.clamp(-87.0, 88.0);
    // `round_ties_even`, not `round`: ties-away-from-zero has no single
    // x86/NEON instruction, so `round` becomes a libm call that also
    // blocks vectorization of the surrounding loop. Ties-to-even lowers
    // to one `vroundps`, and either tie rule keeps |r| ≤ ln2/2.
    let n = (std::f32::consts::LOG2_E * x).round_ties_even();
    // Two-constant Cody–Waite reduction keeps r accurate although n·ln2
    // itself is not representable.
    let r = (x - n * 0.693_359_4) - n * -2.121_944_4e-4;
    let mut p = 1.987_569_1e-4_f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let z = (r * r) * p + r + 1.0;
    z * exp2i(n)
}

/// `2^n` for an integer-valued `n ∈ [-126, 127]`, built in the exponent
/// field without a float-to-int conversion: adding `2^23 + 127` puts
/// `n + 127` in the low mantissa bits (floats in `[2^23, 2^24)` are
/// spaced 1 apart), and the shift moves them into the exponent while
/// the high bits fall off. An `n as i32` cast would do the same for
/// this range, but its saturating semantics cost a compare-and-select
/// per value that keeps the callers' loops scalar. A NaN `n` yields
/// `0.0`, so `fast_exp` still returns NaN for NaN.
#[inline(always)]
fn exp2i(n: f32) -> f32 {
    f32::from_bits((n + (127.0 + 8_388_608.0)).to_bits() << 23)
}

/// `m` raised to `x` if `x` is larger: one compare-and-select (a single
/// `vmaxss`), where `f32::max` adds a NaN fix-up to every step of a
/// running maximum. A NaN `x` is skipped, as `f32::max` skips it. The two
/// can differ only in the sign of a zero maximum, and the softmax and
/// loss kernels subtract the maximum, where `x − 0.0` and `x − (−0.0)`
/// differ only as the signed zeros that `fast_exp` maps both to 1.
#[inline(always)]
pub(crate) fn max_step(m: f32, x: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// Folds each of `N` rows in index order (`acc = f(acc, x)` from `init`),
/// the `N` dependency chains interleaved so they overlap instead of
/// waiting on one another. Each row's result is exactly the sequential
/// fold of that row; pad a short block by repeating a row and ignore the
/// extra results.
#[inline]
pub(crate) fn fold_rows<const N: usize, T: Copy>(
    rows: [&[f32]; N],
    init: T,
    f: impl Fn(T, f32) -> T,
) -> [T; N] {
    let common = rows.iter().map(|r| r.len()).min().unwrap_or(0);
    let heads: [&[f32]; N] = rows.map(|r| &r[..common]);
    let mut acc = [init; N];
    for j in 0..common {
        for (a, row) in acc.iter_mut().zip(&heads) {
            *a = f(*a, row[j]);
        }
    }
    for (a, row) in acc.iter_mut().zip(&rows) {
        for &x in &row[common..] {
            *a = f(*a, x);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_handles_remainders() {
        for n in [0usize, 1, 7, 8, 9, 17, 64] {
            let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let b = vec![2.0f32; n];
            let expect: f32 = (0..n).map(|i| 2.0 * i as f32).sum();
            assert!((dot(&a, &b) - expect).abs() < 1e-3, "n={n}");
        }
    }

    #[test]
    fn fast_exp_matches_libm_to_relative_3e7() {
        // Sweep the range the kernels actually use (softmax arguments are
        // ≤ 0 after max subtraction; SiLU sees both signs) plus the tails.
        let mut worst = 0.0f64;
        let mut x = -30.0f32;
        while x <= 30.0 {
            let want = f64::from(x).exp();
            let got = f64::from(fast_exp(x));
            worst = worst.max(((got - want) / want).abs());
            x += 0.001;
        }
        assert!(worst < 3e-7, "worst relative error {worst:.3e}");
        assert_eq!(fast_exp(0.0), 1.0);
        // Deep negative tail: must underflow cleanly, never produce junk.
        assert!(fast_exp(-100.0) >= 0.0 && fast_exp(-100.0) < 1e-37);
        assert!(fast_exp(-f32::INFINITY) >= 0.0);
    }
    /// `fast_exp` with its `2^n` built through a saturating `n as i32`
    /// cast: the reference [`exp2i`] must match bit for bit.
    fn fast_exp_cast_reference(x: f32) -> f32 {
        let x = x.clamp(-87.0, 88.0);
        let n = (std::f32::consts::LOG2_E * x).round_ties_even();
        let r = (x - n * 0.693_359_4) - n * -2.121_944_4e-4;
        let mut p = 1.987_569_1e-4_f32;
        p = p * r + 1.398_199_9e-3;
        p = p * r + 8.333_452e-3;
        p = p * r + 4.166_579_6e-2;
        p = p * r + 1.666_666_6e-1;
        p = p * r + 0.5;
        let z = (r * r) * p + r + 1.0;
        z * f32::from_bits((((n as i32) + 127) << 23) as u32)
    }

    #[test]
    fn fast_exp_matches_the_cast_rebuild_bit_for_bit() {
        let check = |x: f32| {
            assert_eq!(
                fast_exp(x).to_bits(),
                fast_exp_cast_reference(x).to_bits(),
                "x = {x:e} ({:#010x})",
                x.to_bits()
            );
        };
        // Every 613th bit pattern from +0 up to 100, both signs: ~1.8M
        // values per sign, every exponent (subnormals included) hit
        // thousands of times at scattered mantissas.
        let top = 100.0f32.to_bits();
        for bits in (0..=top).step_by(613).chain([top]) {
            let x = f32::from_bits(bits);
            check(x);
            check(-x);
        }
        // The clamp edges, the last values whose `n` is in range, the
        // infinities and the signed zeros.
        for x in [
            -87.0f32,
            88.0,
            f32::from_bits((-87.0f32).to_bits() + 1),
            f32::from_bits((-87.0f32).to_bits() - 1),
            f32::from_bits(88.0f32.to_bits() + 1),
            f32::from_bits(88.0f32.to_bits() - 1),
            -100.0,
            100.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
        ] {
            check(x);
        }
        assert_eq!(fast_exp(f32::INFINITY), fast_exp(88.0));
        assert_eq!(fast_exp(f32::NEG_INFINITY), fast_exp(-87.0));
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_dead)] {
            assert!(fast_exp(nan).is_nan());
        }
    }

    #[test]
    fn fold_rows_is_the_sequential_fold_of_each_row() {
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|r| {
                (0..9 + r)
                    .map(|j| ((r * 31 + j * 7) % 13) as f32 * 0.37 - 2.0)
                    .collect()
            })
            .collect();
        let lanes: [&[f32]; 4] = std::array::from_fn(|i| &rows[i][..]);
        let sums = fold_rows(lanes, 0.0f32, |a, x| a + x);
        let maxes = fold_rows(lanes, f32::NEG_INFINITY, f32::max);
        for (i, row) in rows.iter().take(4).enumerate() {
            let seq = row.iter().fold(0.0f32, |a, &x| a + x);
            assert_eq!(sums[i].to_bits(), seq.to_bits(), "row {i}");
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(maxes[i], m, "row {i}");
        }
        // An empty row folds to the initial value.
        let empty = fold_rows([&rows[0][..], &[]], 1.5f64, |a, x| a + f64::from(x));
        assert_eq!(empty[1], 1.5);
    }
}
