//! Token-level cross-entropy over logits, with gradient, as a
//! row-parallel fused kernel on the worker pool.

use std::array;

use crate::{
    ops::vecops::{fast_exp, fold_rows, max_step},
    pool::{row_blocks, KernelPool},
    tensor::Tensor,
};

/// Rows per parallel work item — fixed so the chunk-ordered f64 loss
/// reduction is bit-identical across worker counts.
const ROW_GRAIN: usize = 4;

/// Output of the loss computation.
#[derive(Debug, Clone)]
pub struct CrossEntropyOut {
    /// Sum of per-token negative log-likelihoods (callers divide by the
    /// *global* token count so that slice losses add up exactly).
    pub loss_sum: f64,
    /// Gradient of `loss_sum` w.r.t. the logits.
    pub dlogits: Tensor,
}

/// Cross-entropy of `logits: [t, vocab]` against `targets` (one id per
/// row), computed with a stable log-softmax (single-threaded).
///
/// # Panics
///
/// Panics if row counts disagree or a target is out of range.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> CrossEntropyOut {
    cross_entropy_in(KernelPool::shared_serial(), logits, targets)
}

/// Cross-entropy with the loss and gradient rows fanned out over a
/// worker pool. Per-chunk f64 loss partials are summed in chunk order,
/// so the result is bit-identical across worker counts.
///
/// # Panics
///
/// Panics if row counts disagree or a target is out of range.
pub fn cross_entropy_in(pool: &KernelPool, logits: &Tensor, targets: &[usize]) -> CrossEntropyOut {
    assert_eq!(logits.rows(), targets.len(), "target count mismatch");
    let v = logits.cols();
    let mut dlogits = Tensor::uninit(logits.rows(), v);
    let mut items = row_blocks(dlogits.data_mut(), v, ROW_GRAIN);
    let partials: Vec<f64> = pool.for_each(&mut items, |_, (r0, chunk)| {
        let rows = chunk.len() / v;
        // A short chunk repeats its last row in the spare lanes.
        let lrows: [&[f32]; ROW_GRAIN] = array::from_fn(|i| logits.row(*r0 + i.min(rows - 1)));
        // Each row's max and denominator are folded in index order; the
        // rows' chains run interleaved, and the exponentials in their own
        // vectorizable pass. The f32 exponentials are staged in the
        // gradient rows (one exp per logit instead of two), and the
        // denominator accumulates in f64 so the log-sum-exp keeps its
        // precision.
        let max = fold_rows(lrows, f32::NEG_INFINITY, max_step);
        for (i, drow) in chunk.chunks_exact_mut(v).enumerate() {
            for (&x, d) in lrows[i].iter().zip(drow) {
                *d = fast_exp(x - max[i]);
            }
        }
        let erows: [&[f32]; ROW_GRAIN] = array::from_fn(|i| &chunk[i.min(rows - 1) * v..][..v]);
        let denom = fold_rows(erows, 0.0f64, |a, e| a + f64::from(e));
        let mut loss_part = 0.0f64;
        for (i, drow) in chunk.chunks_exact_mut(v).enumerate() {
            let tgt = targets[*r0 + i];
            assert!(tgt < v, "target {tgt} out of vocab");
            loss_part += denom[i].ln() - f64::from(lrows[i][tgt] - max[i]);
            let inv = 1.0 / denom[i];
            for d in drow.iter_mut() {
                *d = (f64::from(*d) * inv) as f32;
            }
            drow[tgt] -= 1.0;
        }
        loss_part
    });
    let loss_sum = partials.into_iter().sum();
    CrossEntropyOut { loss_sum, dlogits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng, uniform};

    #[test]
    fn uniform_logits_give_log_vocab() {
        let logits = Tensor::zeros(2, 8);
        let out = cross_entropy(&logits, &[3, 5]);
        assert!((out.loss_sum - 2.0 * (8.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut r = rng(51);
        let logits = uniform(2, 5, 1.0, &mut r);
        let targets = [1usize, 4];
        let out = cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for rr in 0..2 {
            for c in 0..5 {
                let mut lp = logits.clone();
                lp.set(rr, c, logits.at(rr, c) + eps);
                let mut lm = logits.clone();
                lm.set(rr, c, logits.at(rr, c) - eps);
                let num = ((cross_entropy(&lp, &targets).loss_sum
                    - cross_entropy(&lm, &targets).loss_sum)
                    / (2.0 * eps as f64)) as f32;
                assert!(
                    (num - out.dlogits.at(rr, c)).abs() < 1e-2,
                    "({rr},{c}): {num} vs {}",
                    out.dlogits.at(rr, c)
                );
            }
        }
    }

    #[test]
    fn slice_losses_sum_to_full_loss() {
        let mut r = rng(52);
        let logits = uniform(6, 7, 1.0, &mut r);
        let targets = [0usize, 1, 2, 3, 4, 5];
        let full = cross_entropy(&logits, &targets);
        let a = cross_entropy(&logits.slice_rows(0, 3), &targets[..3]);
        let b = cross_entropy(&logits.slice_rows(3, 3), &targets[3..]);
        assert!((full.loss_sum - (a.loss_sum + b.loss_sum)).abs() < 1e-9);
    }

    #[test]
    fn multi_worker_is_bit_identical_to_serial() {
        let mut r = rng(53);
        // More rows than one grain so the pool actually splits.
        let rows = 3 * ROW_GRAIN + 2;
        let logits = uniform(rows, 13, 1.0, &mut r);
        let targets: Vec<usize> = (0..rows).map(|i| i % 13).collect();
        let serial = cross_entropy(&logits, &targets);
        for workers in [2, 4] {
            let pool = KernelPool::new(workers);
            let out = cross_entropy_in(&pool, &logits, &targets);
            assert_eq!(serial.loss_sum.to_bits(), out.loss_sum.to_bits());
            assert_eq!(serial.dlogits.data(), out.dlogits.data());
        }
    }
}
