//! Memory model (Section 4.5 of the paper).
//!
//! Three components, mirroring the paper's memory model used to pick SVPP
//! variants:
//!
//! 1. **Static** — parameters, gradients, optimizer state. With
//!    half-precision training and Adam, fp16 parameters + gradients cost
//!    `4·m/p` bytes per worker and the mixed-precision optimizer, sharded
//!    ZeRO-style over all `W` devices, costs `12·m/W` — the paper quotes
//!    "around 6.375 GB" for Llama-34B on 64 workers, which is exactly
//!    `12 · 34e9 / 64`.
//! 2. **Temporary** — workspace for intermediates like the loss/logits
//!    buffers, treated as constant during training.
//! 3. **Activations** — proportional to in-flight forward passes; the
//!    schedule determines the peak count, this module prices one unit.

use crate::{config::TransformerConfig, partition::PartitionSpec};

/// Activation bytes kept per token per decoder layer in fp16 with
/// FlashAttention (no quadratic score matrix), following Korthikanti et
/// al.'s accounting the paper builds on: QKV/out/MLP inputs, normalisation
/// and activation-function saves ≈ 34 bytes per hidden element.
pub const ACT_BYTES_PER_TOKEN_HIDDEN: f64 = 30.0;

/// Activation bytes per token per layer when full recomputation is on:
/// only the fp16 layer input survives the forward pass.
pub const RECOMPUTE_BYTES_PER_TOKEN_HIDDEN: f64 = 2.0;

/// Activation memory of one *whole sample* across the *whole model* — the
/// quantity the paper calls `A` (Table 1).
pub fn sample_activation_bytes(cfg: &TransformerConfig) -> f64 {
    cfg.pipeline_slots() as f64
        * cfg.seq_len as f64
        * cfg.hidden as f64
        * ACT_BYTES_PER_TOKEN_HIDDEN
}

/// Activation bytes one worker must hold for a single in-flight forward
/// unit (one slice of one micro-batch through one virtual chunk).
pub fn activation_bytes_per_unit(cfg: &TransformerConfig, spec: &PartitionSpec) -> f64 {
    let slots = spec
        .slots_per_chunk(cfg)
        .expect("partition must divide the model evenly") as f64;
    let tokens = spec.tokens_per_unit(cfg) as f64;
    let per_token_layer = if spec.recompute {
        RECOMPUTE_BYTES_PER_TOKEN_HIDDEN
    } else {
        ACT_BYTES_PER_TOKEN_HIDDEN
    } * cfg.hidden as f64;
    slots * tokens * per_token_layer
}

/// Extra bytes retained when a unit's weight-gradient computation is
/// deferred (zero-bubble style): the activation stays alive *and* the
/// incoming activation gradient must be kept.
pub fn deferred_wgrad_bytes_per_unit(cfg: &TransformerConfig, spec: &PartitionSpec) -> f64 {
    // The activation gradient is one fp16 tensor per retained boundary;
    // conservatively one hidden-state per layer slot.
    let slots = spec.slots_per_chunk(cfg).expect("even partition") as f64;
    let tokens = spec.tokens_per_unit(cfg) as f64;
    slots * tokens * cfg.hidden as f64 * 2.0
}

/// Static memory per worker in bytes: fp16 parameters + gradients
/// (`4·m/p`) plus mixed-precision Adam sharded ZeRO-style across *all*
/// devices (Section 7.2: "optimizer states are evenly distributed across
/// all devices with the ZeRO technique") — `12·m/W` for `W` workers.
pub fn static_bytes_per_worker(cfg: &TransformerConfig, spec: &PartitionSpec) -> f64 {
    let m = cfg.num_params() as f64;
    let p = spec.pp as f64;
    let workers = spec.num_workers() as f64;
    4.0 * m / p + 12.0 * m / workers
}

/// Extra static bytes a *bidirectional* (DualPipe-style) schedule costs
/// per worker: the reverse direction runs through a second replica of the
/// worker's layer block, duplicating fp16 parameters and gradients
/// (`4·m/p` more). Optimizer state is not duplicated — ZeRO shards one
/// master copy per parameter across all devices regardless of how many
/// replicas serve it.
pub fn bidirectional_extra_static_bytes(cfg: &TransformerConfig, spec: &PartitionSpec) -> f64 {
    4.0 * cfg.num_params() as f64 / spec.pp as f64
}

/// Temporary workspace per worker in bytes: framework/runtime buffers plus
/// the fp32 logits + logit-gradient buffers on the worker holding the head.
pub fn temporary_bytes_per_worker(
    cfg: &TransformerConfig,
    spec: &PartitionSpec,
    holds_head: bool,
) -> f64 {
    // Communication buffers, allocator slack, kernels' workspaces.
    let base = 0.75e9;
    if holds_head {
        let tokens = spec.tokens_per_unit(cfg) as f64;
        base + 2.0 * 4.0 * tokens * cfg.vocab as f64
    } else {
        base
    }
}

/// Memory budget for activations on the most constrained worker.
///
/// Stage 0 holds the most activations under every schedule in the paper, so
/// feasibility is evaluated there; the head-holding last stage is also
/// checked because of its logits buffer.
pub fn activation_budget_bytes(
    cfg: &TransformerConfig,
    spec: &PartitionSpec,
    usable_device_bytes: u64,
) -> f64 {
    let static_b = static_bytes_per_worker(cfg, spec);
    let temp_first = temporary_bytes_per_worker(cfg, spec, false);
    let temp_last = temporary_bytes_per_worker(cfg, spec, true);
    let budget_first = usable_device_bytes as f64 - static_b - temp_first;
    let budget_last = usable_device_bytes as f64 - static_b - temp_last;
    budget_first.min(budget_last)
}

/// The maximum number of in-flight forward units a worker can hold within
/// the given budget — the `f` parameter fed to SVPP variant selection
/// (Section 4.5: "we can compute the maximum number of forward passes that
/// can be executed before the first backward pass").
pub fn max_in_flight_units(
    cfg: &TransformerConfig,
    spec: &PartitionSpec,
    usable_device_bytes: u64,
) -> usize {
    let budget = activation_budget_bytes(cfg, spec, usable_device_bytes);
    if budget <= 0.0 {
        return 0;
    }
    let unit = activation_bytes_per_unit(cfg, spec);
    (budget / unit).floor() as usize
}

/// Peak activation bytes if a worker holds `units` in-flight forward units.
pub fn peak_activation_bytes(cfg: &TransformerConfig, spec: &PartitionSpec, units: usize) -> f64 {
    units as f64 * activation_bytes_per_unit(cfg, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::SequenceSplit;

    fn spec_13b() -> PartitionSpec {
        PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 8,
            seq: SequenceSplit::SlicePipeline { slices: 4 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        }
    }

    #[test]
    fn paper_34b_optimizer_number() {
        // Section 7.4: "the mixed precision optimizer in Megatron-LM
        // occupies around 6.375 GB for each worker" at d*p = 64.
        let cfg = TransformerConfig::llama2_34b();
        let m = cfg.num_params() as f64;
        let optimizer = 12.0 * m / 64.0;
        let gib = optimizer / (1024.0 * 1024.0 * 1024.0);
        assert!((5.0..7.5).contains(&gib), "optimizer = {gib} GiB");
    }

    #[test]
    fn sample_activation_is_tens_of_gb_for_13b() {
        // One 4096-token sample through all 40 slots at 30 B/token/hidden:
        // this is why DAPPLE (peak = A) cannot fit on a 24 GB card.
        let a = sample_activation_bytes(&TransformerConfig::llama2_13b());
        let gib = a / (1024f64.powi(3));
        assert!((20.0..35.0).contains(&gib), "A = {gib} GiB");
    }

    #[test]
    fn unit_bytes_scale_inversely_with_slices() {
        let cfg = TransformerConfig::llama2_13b();
        let s4 = activation_bytes_per_unit(&cfg, &spec_13b());
        let mut spec8 = spec_13b();
        spec8.seq = SequenceSplit::SlicePipeline { slices: 8 };
        let s8 = activation_bytes_per_unit(&cfg, &spec8);
        assert!((s4 / s8 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unit_bytes_match_paper_fraction() {
        // Section 4.1: with p=4 stages and s=2 slices, one forward pass
        // holds A/8.
        let cfg = TransformerConfig::llama2_13b();
        let spec = PartitionSpec {
            pp: 4,
            vp: 1,
            dp: 16,
            seq: SequenceSplit::SlicePipeline { slices: 2 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        let unit = activation_bytes_per_unit(&cfg, &spec);
        let a = sample_activation_bytes(&cfg);
        assert!((unit / a - 1.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn recompute_slashes_activations() {
        let cfg = TransformerConfig::llama2_13b();
        let normal = activation_bytes_per_unit(&cfg, &spec_13b());
        let mut r = spec_13b();
        r.recompute = true;
        let recomputed = activation_bytes_per_unit(&cfg, &r);
        // Section 7.3: "reduces the activation memory consumption by 90%".
        assert!(recomputed / normal < 0.12);
    }

    #[test]
    fn budget_is_positive_for_feasible_config() {
        let cfg = TransformerConfig::llama2_13b();
        let spec = spec_13b();
        let usable = (24.0 * 0.92 * 1024f64.powi(3)) as u64;
        let units = max_in_flight_units(&cfg, &spec, usable);
        assert!(units >= 7, "13B (8,4,1) must fit SVPP's peak, got {units}");
    }

    #[test]
    fn infeasible_config_reports_zero() {
        // Llama-34B at pp=2: static memory alone exceeds 24 GB.
        let cfg = TransformerConfig::llama2_34b();
        let spec = PartitionSpec {
            pp: 2,
            vp: 1,
            dp: 32,
            seq: SequenceSplit::None,
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        let usable = (24.0 * 0.92 * 1024f64.powi(3)) as u64;
        assert_eq!(max_in_flight_units(&cfg, &spec, usable), 0);
    }
}
