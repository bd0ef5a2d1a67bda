//! Deterministic batch derivation shared by every training entry point.
//!
//! Multi-iteration jobs need each process — gang workers, the control
//! plane's in-process verifier, tests — to derive *the same* batch for
//! iteration `k` from nothing but the job's seed. This module is that
//! single definition: change it and every consumer moves together, so
//! bit-identity checks between a recovered gang and an uninterrupted
//! replay keep meaning something.

use mepipe_model::config::TransformerConfig;
use mepipe_tensor::init::synthetic_tokens;

/// Offset separating batch seeds from the model-init seed space (the
/// single-iteration scenarios use `seed + 1000 + mb`; iteration 0 of a
/// job reproduces exactly that, so a one-iteration job sees their
/// batch).
const BATCH_SEED_BASE: u64 = 1000;

/// Large odd stride separating the seed ranges of consecutive
/// iterations (odd, so it stays coprime with any power-of-two
/// micro-batch count).
const ITER_SEED_STRIDE: u64 = 1_000_003;

/// The batch every participant runs for iteration `iter` of a job
/// seeded `seed`: `micro_batches` sequences of `seq_len + 1` token ids.
pub fn batch_for_iter(
    cfg: &TransformerConfig,
    micro_batches: usize,
    seed: u64,
    iter: usize,
) -> Vec<Vec<usize>> {
    (0..micro_batches)
        .map(|mb| {
            let s = seed
                .wrapping_add(BATCH_SEED_BASE)
                .wrapping_add((iter as u64).wrapping_mul(ITER_SEED_STRIDE))
                .wrapping_add(mb as u64);
            synthetic_tokens(cfg.seq_len + 1, cfg.vocab, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_and_iteration_dependent() {
        let cfg = TransformerConfig::tiny(2);
        let a = batch_for_iter(&cfg, 4, 7, 3);
        let b = batch_for_iter(&cfg, 4, 7, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for s in &a {
            assert_eq!(s.len(), cfg.seq_len + 1);
        }
        let c = batch_for_iter(&cfg, 4, 7, 4);
        assert_ne!(a, c, "different iterations must see different data");
        let d = batch_for_iter(&cfg, 4, 8, 3);
        assert_ne!(a, d, "different seeds must see different data");
    }

    #[test]
    fn iteration_zero_matches_the_single_shot_scenarios() {
        // The single-iteration scenarios (the fidelity test, the `train`
        // and `comm` benches) build `synthetic_tokens(seq + 1, vocab,
        // seed + 1000 + mb)`; a job's iteration 0 must reproduce it so
        // one-iteration jobs are comparable with them.
        let cfg = TransformerConfig::tiny(2);
        let job = batch_for_iter(&cfg, 2, 42, 0);
        let single_shot: Vec<Vec<usize>> = (0..2)
            .map(|mb| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, 42 + 1000 + mb as u64))
            .collect();
        assert_eq!(job, single_shot);
    }
}
