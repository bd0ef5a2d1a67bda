//! FLOP accounting for decoder layers and sequence slices.
//!
//! Two observations from the paper drive this module's shape:
//!
//! * Section 5: the *dense* (GEMM) part of a layer's work is proportional
//!   to the number of tokens processed, while the attention-score part is
//!   proportional to `tokens × context`. Under slice-level scheduling the
//!   context grows with the slice index, so later slices are more
//!   expensive — the imbalance that fine-grained weight-gradient
//!   computation absorbs.
//! * The weight-gradient half of the backward pass contains *only* dense
//!   GEMMs ("weight gradient computation does not include the imbalanced
//!   computation of the attention score"), so its cost is slice-independent.

use crate::config::TransformerConfig;

/// FLOPs for the dense (token-proportional) part of one decoder layer's
/// forward pass over `tokens` tokens: QKV/out projections plus the SwiGLU
/// MLP. Each GEMM of shape `[t, a] × [a, b]` costs `2·t·a·b`.
pub fn dense_forward_flops(cfg: &TransformerConfig, tokens: usize) -> f64 {
    let t = tokens as f64;
    let h = cfg.hidden as f64;
    let kvh = cfg.kv_hidden() as f64;
    let f = cfg.ffn_hidden as f64;
    let attn_proj = 2.0 * t * h * h /* q */
        + 2.0 * t * h * kvh /* k */
        + 2.0 * t * h * kvh /* v */
        + 2.0 * t * h * h /* out */;
    let mlp = 3.0 * 2.0 * t * h * f; // Gate, up, down projections.
    attn_proj + mlp
}

/// Average causal context for `tokens` query positions starting at absolute
/// position `start`: position `i` attends to `i + 1` keys, so the mean is
/// `start + (tokens + 1) / 2`.
pub fn causal_context(start: usize, tokens: usize) -> f64 {
    start as f64 + (tokens as f64 + 1.0) / 2.0
}

/// Forward FLOPs of one layer for slice `slice_idx` out of `num_slices`
/// equal slices of a `seq_len`-token sample, honouring causal masking.
pub fn slice_forward_flops(
    cfg: &TransformerConfig,
    seq_len: usize,
    num_slices: usize,
    slice_idx: usize,
) -> f64 {
    let t = seq_len / num_slices;
    let start = slice_idx * t;
    let ctx = causal_context(start, t);
    dense_forward_flops(cfg, t) + 4.0 * t as f64 * ctx * cfg.hidden as f64
}

/// Backward FLOPs of one layer for a slice: gradient w.r.t. inputs *and*
/// weights, conventionally 2× forward (each forward GEMM spawns a dX and a
/// dW GEMM of the same cost; attention backward recomputes both score
/// matmuls for dQ/dK/dV, also ≈ 2×).
pub fn slice_backward_flops(
    cfg: &TransformerConfig,
    seq_len: usize,
    num_slices: usize,
    slice_idx: usize,
) -> f64 {
    2.0 * slice_forward_flops(cfg, seq_len, num_slices, slice_idx)
}

/// The weight-gradient-only half of a slice's backward pass: one dW GEMM
/// per forward GEMM — dense cost only, *no* attention-score term.
pub fn slice_wgrad_flops(cfg: &TransformerConfig, seq_len: usize, num_slices: usize) -> f64 {
    dense_forward_flops(cfg, seq_len / num_slices)
}

/// The input-gradient half of a slice's backward pass: everything in
/// [`slice_backward_flops`] minus [`slice_wgrad_flops`].
pub fn slice_dgrad_flops(
    cfg: &TransformerConfig,
    seq_len: usize,
    num_slices: usize,
    slice_idx: usize,
) -> f64 {
    slice_backward_flops(cfg, seq_len, num_slices, slice_idx)
        - slice_wgrad_flops(cfg, seq_len, num_slices)
}

/// Number of weight-gradient GEMMs in one decoder layer (q, k, v, out,
/// gate, up, down) — the granularity at which Section 5 schedules W work.
pub const WGRAD_GEMMS_PER_LAYER: usize = 7;

/// Forward FLOPs of the output head (logits GEMM) over `tokens` tokens.
pub fn head_forward_flops(cfg: &TransformerConfig, tokens: usize) -> f64 {
    2.0 * tokens as f64 * cfg.hidden as f64 * cfg.vocab as f64
}

/// Total model FLOPs for one training iteration (forward + backward over
/// every layer, embedding lookup ignored, head included), used as the MFU
/// numerator exactly as Megatron-LM reports it.
pub fn iteration_model_flops(cfg: &TransformerConfig, samples: usize) -> f64 {
    let per_sample_layer_fwd = dense_forward_flops(cfg, cfg.seq_len)
        + 4.0 * cfg.seq_len as f64 * causal_context(0, cfg.seq_len) * cfg.hidden as f64;
    let fwd = cfg.layers as f64 * per_sample_layer_fwd + head_forward_flops(cfg, cfg.seq_len);
    3.0 * fwd * samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TransformerConfig {
        TransformerConfig::llama2_13b()
    }

    #[test]
    fn later_slices_cost_more() {
        let c = cfg();
        let f0 = slice_forward_flops(&c, 4096, 8, 0);
        let f7 = slice_forward_flops(&c, 4096, 8, 7);
        assert!(f7 > f0);
        // The last slice attends to ~15x the context of the first.
        assert!(f7 / f0 < 1.5, "dense work dominates at 4k context");
    }

    #[test]
    fn slices_sum_to_whole_sample() {
        let c = cfg();
        for s in [1usize, 2, 4, 8, 16] {
            let sum: f64 = (0..s).map(|i| slice_forward_flops(&c, 4096, s, i)).sum();
            let whole = slice_forward_flops(&c, 4096, 1, 0);
            let rel = (sum - whole).abs() / whole;
            assert!(rel < 1e-9, "slice sum deviates by {rel} at s={s}");
        }
    }

    #[test]
    fn attention_share_is_under_10_percent_at_4k() {
        // Section 4.4: attention score is <10% of total computation for a
        // 7B model at context 4096.
        let c = TransformerConfig::llama2_7b();
        let dense = dense_forward_flops(&c, 4096);
        let attn = 4.0 * 4096.0 * causal_context(0, 4096) * c.hidden as f64;
        assert!(
            attn / (attn + dense) < 0.10,
            "share = {}",
            attn / (attn + dense)
        );
    }

    #[test]
    fn dgrad_plus_wgrad_equals_backward() {
        let c = cfg();
        for i in 0..4 {
            let b = slice_backward_flops(&c, 4096, 4, i);
            let d = slice_dgrad_flops(&c, 4096, 4, i);
            let w = slice_wgrad_flops(&c, 4096, 4);
            assert!((d + w - b).abs() / b < 1e-12);
        }
    }

    #[test]
    fn wgrad_is_slice_independent() {
        let c = cfg();
        let w = slice_wgrad_flops(&c, 4096, 4);
        assert!(w > 0.0);
        // No slice index parameter — compare against first-slice dense cost.
        assert_eq!(w, dense_forward_flops(&c, 1024));
    }

    #[test]
    fn iteration_flops_match_6nd_rule_of_thumb() {
        // 6·params·tokens is the standard estimate; our layer-level count
        // should land within ~25% of it for the 13B model.
        let c = cfg();
        let ours = iteration_model_flops(&c, 128);
        let rule = 6.0 * c.num_params() as f64 * (128 * c.seq_len) as f64;
        let rel = (ours - rule).abs() / rule;
        assert!(rel < 0.25, "relative deviation {rel}");
    }

    #[test]
    fn causal_context_bounds() {
        assert_eq!(causal_context(0, 1), 1.0);
        assert_eq!(causal_context(0, 4096), 2048.5);
        assert_eq!(causal_context(1024, 1024), 1536.5);
    }
}
