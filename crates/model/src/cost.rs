//! Per-operation execution costs for a concrete accelerator and cluster.
//!
//! [`ExecutionCost`] is the single pricing authority consumed by the
//! discrete-event simulator and the grid search. For every schedulable op
//! (forward, input-gradient backward, weight-gradient backward) of every
//! slice/chunk it produces a duration in seconds, and for every stage
//! boundary it produces transfer sizes, by combining:
//!
//! * FLOP counts from [`crate::flops`] (including the causal slice
//!   imbalance),
//! * achieved GEMM throughput from [`crate::gemm`] (Figure 9),
//! * a bandwidth-bound "vector" term for normalisation/softmax/rotary,
//! * context-parallel ring collectives priced on the CP group's link,
//! * recomputation overhead when enabled.

use mepipe_hw::{
    accelerator::AcceleratorSpec,
    link::LinkSpec,
    mapping::{ParallelLayout, RankMapping},
    topology::ClusterSpec,
};

use crate::{
    config::TransformerConfig,
    flops,
    gemm::GemmEfficiency,
    memory,
    partition::{PartitionSpec, SequenceSplit},
};

/// Bytes moved per token-hidden element by bandwidth-bound kernels
/// (RMSNorm ×2, rotary, softmax, residual adds, activation function) per
/// layer per pass, in fp16 round trips.
const VECTOR_BYTES_PER_TOKEN_HIDDEN: f64 = 60.0;

/// GEMM kernels launched per decoder layer forward (q, k, v, score, av,
/// out, gate, up, down).
const KERNELS_PER_LAYER_FWD: usize = 9;

/// Per-op durations and transfer sizes for one (model, partition, cluster)
/// triple.
#[derive(Debug, Clone)]
pub struct ExecutionCost {
    cfg: TransformerConfig,
    spec: PartitionSpec,
    accel: AcceleratorSpec,
    eff: GemmEfficiency,
    pp_link: LinkSpec,
    cp_link: LinkSpec,
    dp_link: LinkSpec,
    slots_per_chunk: usize,
}

impl ExecutionCost {
    /// Builds the cost model, resolving links from the cluster topology via
    /// the canonical rank mapping (CP innermost, PP outermost).
    pub fn new(
        cfg: TransformerConfig,
        spec: PartitionSpec,
        cluster: &ClusterSpec,
    ) -> Result<Self, String> {
        spec.validate(&cfg, cluster.num_devices())?;
        let layout = ParallelLayout::new(spec.pp, spec.dp, spec.seq.cp_size())
            .ok_or_else(|| "zero-sized layout dimension".to_string())?;
        let mapping = RankMapping::new(layout, cluster)?;
        let pp_link = mapping.worst_pp_link(cluster).clone();
        let cp_link = mapping.cp_link(cluster, 0, 0).clone();
        let dp_link = mapping.dp_link(cluster, 0, 0).clone();
        let slots_per_chunk = spec
            .slots_per_chunk(&cfg)
            .ok_or_else(|| "model does not divide evenly into chunks".to_string())?;
        Ok(Self {
            cfg,
            spec,
            accel: cluster.accelerator.clone(),
            eff: GemmEfficiency::default(),
            pp_link,
            cp_link,
            dp_link,
            slots_per_chunk,
        })
    }

    /// Replaces the GEMM-efficiency curve — the calibration hook through
    /// which fitted (measured) throughput and launch-overhead constants
    /// enter the pricing (see [`crate::calibrate`]).
    #[must_use]
    pub fn with_gemm_efficiency(mut self, eff: GemmEfficiency) -> Self {
        self.eff = eff;
        self
    }

    /// Replaces the pipeline-parallel link spec — the calibration hook
    /// for fitted wire alpha–beta constants (see [`crate::calibrate`]).
    #[must_use]
    pub fn with_pp_link(mut self, link: LinkSpec) -> Self {
        self.pp_link = link;
        self
    }

    /// Re-prices the same model, cluster and calibrated constants under a
    /// different sequence-slice count — how the autotuner prices candidate
    /// schedules whose slicing differs from the one it measured.
    pub fn with_slices(mut self, slices: usize) -> Result<Self, String> {
        if slices == 0 || !self.cfg.seq_len.is_multiple_of(slices) {
            return Err(format!(
                "seq_len {} does not divide into {slices} slices",
                self.cfg.seq_len
            ));
        }
        self.spec.seq = SequenceSplit::SlicePipeline { slices };
        Ok(self)
    }

    /// The GEMM-efficiency curve currently pricing compute.
    pub fn gemm_efficiency(&self) -> &GemmEfficiency {
        &self.eff
    }

    /// The link currently pricing pipeline boundary transfers.
    pub fn pp_link(&self) -> &LinkSpec {
        &self.pp_link
    }

    /// The model being priced.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// The partition being priced.
    pub fn partition(&self) -> &PartitionSpec {
        &self.spec
    }

    /// Layer slots evaluated by one virtual chunk.
    pub fn slots_per_chunk(&self) -> usize {
        self.slots_per_chunk
    }

    /// Tokens processed per schedulable unit (slice or CP shard).
    pub fn tokens_per_unit(&self) -> usize {
        self.spec.tokens_per_unit(&self.cfg)
    }

    /// Time for the bandwidth-bound kernels of `slots` layers over `t`
    /// tokens (one pass).
    fn vector_time(&self, slots: usize, t: usize) -> f64 {
        slots as f64 * VECTOR_BYTES_PER_TOKEN_HIDDEN * t as f64 * self.cfg.hidden as f64
            / self.accel.memory_bandwidth
    }

    /// CP ring collective time per layer (all-gather of KV on forward,
    /// reduce-scatter of dKV on backward — symmetric volumes).
    ///
    /// Rings wider than two workers contend on the shared host bridge of a
    /// PCIe root complex (several peer pairs move data simultaneously), so
    /// the effective bandwidth degrades with `cp/2` — this is why the paper
    /// finds CP 4 *slower* than CP 2 on the 4090 cluster (Table 7) even
    /// though it halves the bubble ratio again.
    fn cp_time_per_layer(&self) -> f64 {
        let cp = self.spec.seq.cp_size();
        if cp <= 1 {
            return 0.0;
        }
        let t_local = self.cfg.seq_len / cp;
        let kv_bytes = (2 * t_local * self.cfg.kv_hidden() * 2) as u64;
        let contention = (cp as f64 / 2.0).max(1.0);
        self.cp_link.ring_all_gather_time(cp, kv_bytes) * contention
    }

    /// Average causal context seen by this unit's attention, in tokens.
    ///
    /// Under SPP, slice `i` attends to all preceding slices; under CP,
    /// Megatron assigns each worker two symmetric slices so every worker
    /// sees the sample-average context; with no split, the full causal
    /// average applies.
    fn context_tokens(&self, slice_idx: usize) -> f64 {
        let t = self.tokens_per_unit();
        match self.spec.seq {
            SequenceSplit::SlicePipeline { .. } => flops::causal_context(slice_idx * t, t),
            _ => flops::causal_context(0, self.cfg.seq_len), // Sample average.
        }
    }

    /// The `(FLOPs, tokens, kernel launches)` triple the GEMM term of
    /// [`ExecutionCost::forward_time`] prices — the regressors that
    /// calibration fits [`GemmEfficiency`] against (see
    /// [`crate::calibrate`]).
    pub fn forward_gemm_shape(&self, slice_idx: usize) -> (f64, usize, usize) {
        let t = self.tokens_per_unit();
        let slots = self.slots_per_chunk;
        let dense = flops::dense_forward_flops(&self.cfg, t) * slots as f64;
        let attn =
            4.0 * t as f64 * self.context_tokens(slice_idx) * self.cfg.hidden as f64 * slots as f64;
        (dense + attn, t, KERNELS_PER_LAYER_FWD * slots)
    }

    /// Like [`ExecutionCost::forward_gemm_shape`] for the input-gradient
    /// backward: dX GEMMs cost one forward-equivalent of dense work;
    /// attention backward costs ~2 forward-equivalents (dQ, dK, dV).
    pub fn backward_input_gemm_shape(&self, slice_idx: usize) -> (f64, usize, usize) {
        let t = self.tokens_per_unit();
        let slots = self.slots_per_chunk;
        let dense = flops::dense_forward_flops(&self.cfg, t) * slots as f64;
        let attn =
            4.0 * t as f64 * self.context_tokens(slice_idx) * self.cfg.hidden as f64 * slots as f64;
        (dense + 2.0 * attn, t, KERNELS_PER_LAYER_FWD * slots)
    }

    /// Like [`ExecutionCost::forward_gemm_shape`] for one unit's whole
    /// weight-gradient pass (dense only, slice-independent).
    pub fn wgrad_gemm_shape(&self) -> (f64, usize, usize) {
        let t = self.tokens_per_unit();
        let slots = self.slots_per_chunk;
        let dense = flops::dense_forward_flops(&self.cfg, t) * slots as f64;
        (dense, t, flops::WGRAD_GEMMS_PER_LAYER * slots)
    }

    /// The peak GEMM throughput the efficiency curve is relative to —
    /// calibration's fitting reference.
    pub fn peak_matmul_flops(&self) -> f64 {
        self.accel.effective_matmul_flops
    }

    /// Seconds of [`ExecutionCost::forward_time`] *not* priced by the
    /// GEMM term (bandwidth-bound kernels + CP collectives) — what
    /// calibration subtracts from a measured span before fitting the
    /// GEMM curve to the remainder.
    pub fn forward_non_gemm_time(&self, _slice_idx: usize) -> f64 {
        let t = self.tokens_per_unit();
        let slots = self.slots_per_chunk;
        self.vector_time(slots, t) + self.cp_time_per_layer() * slots as f64
    }

    /// Like [`ExecutionCost::forward_non_gemm_time`] for the
    /// input-gradient backward, including the recomputed forward when
    /// recomputation is enabled.
    pub fn backward_input_non_gemm_time(&self, slice_idx: usize) -> f64 {
        let recompute = if self.spec.recompute {
            self.forward_time(slice_idx)
        } else {
            0.0
        };
        self.forward_non_gemm_time(slice_idx) + recompute
    }

    /// Forward time in seconds of one unit (slice `slice_idx`) through one
    /// virtual chunk.
    pub fn forward_time(&self, slice_idx: usize) -> f64 {
        let (flops, t, kernels) = self.forward_gemm_shape(slice_idx);
        self.eff
            .gemm_time(flops, t, self.accel.effective_matmul_flops, kernels)
            + self.forward_non_gemm_time(slice_idx)
    }

    /// Input-gradient (activation-gradient) backward time of one unit.
    /// When recomputation is enabled the forward is replayed first.
    pub fn backward_input_time(&self, slice_idx: usize) -> f64 {
        let (flops, t, kernels) = self.backward_input_gemm_shape(slice_idx);
        self.eff
            .gemm_time(flops, t, self.accel.effective_matmul_flops, kernels)
            + self.backward_input_non_gemm_time(slice_idx)
    }

    /// Weight-gradient backward time of one unit — dense only, hence
    /// slice-independent (Section 5).
    pub fn wgrad_time(&self) -> f64 {
        let (flops, t, kernels) = self.wgrad_gemm_shape();
        self.eff
            .gemm_time(flops, t, self.accel.effective_matmul_flops, kernels)
    }

    /// Number of individually schedulable weight-gradient GEMMs per unit.
    pub fn wgrad_units(&self) -> usize {
        flops::WGRAD_GEMMS_PER_LAYER * self.slots_per_chunk
    }

    /// Duration of one weight-gradient GEMM unit.
    pub fn wgrad_unit_time(&self) -> f64 {
        self.wgrad_time() / self.wgrad_units() as f64
    }

    /// Fused backward time (input + weight gradients together), used by
    /// schedules that do not split the backward pass.
    pub fn full_backward_time(&self, slice_idx: usize) -> f64 {
        self.backward_input_time(slice_idx) + self.wgrad_time()
    }

    /// Bytes of the hidden-state tensor crossing a stage boundary per unit.
    pub fn boundary_bytes(&self) -> u64 {
        (self.tokens_per_unit() * self.cfg.hidden * 2) as u64
    }

    /// Time to move one unit's activations (or activation gradients)
    /// between adjacent stages over the worst pipeline link.
    pub fn pp_transfer_time(&self) -> f64 {
        self.pp_link.transfer_time(self.boundary_bytes())
    }

    /// Per-iteration data-parallel synchronisation time: ZeRO-1 gradient
    /// reduce-scatter plus parameter all-gather over this worker's shard.
    pub fn dp_sync_time(&self) -> f64 {
        let d = self.spec.dp;
        if d <= 1 {
            return 0.0;
        }
        let params_per_worker = self.cfg.num_params() as f64 / self.spec.pp as f64;
        let bytes = (params_per_worker * 2.0) as u64;
        self.dp_link.ring_reduce_scatter_time(d, bytes)
            + self.dp_link.ring_all_gather_time(d, bytes / d as u64)
    }

    /// Optimizer step time per worker (bandwidth-bound elementwise update
    /// over the ZeRO shard: read m, v, master, grad; write three).
    pub fn optimizer_time(&self) -> f64 {
        let params = self.cfg.num_params() as f64 / (self.spec.pp * self.spec.dp) as f64;
        params * 28.0 / self.accel.memory_bandwidth
    }

    /// Activation bytes retained per in-flight forward unit.
    pub fn activation_bytes_per_unit(&self) -> f64 {
        memory::activation_bytes_per_unit(&self.cfg, &self.spec)
    }

    /// Extra bytes retained per unit whose weight-gradient work is deferred.
    pub fn deferred_wgrad_bytes_per_unit(&self) -> f64 {
        memory::deferred_wgrad_bytes_per_unit(&self.cfg, &self.spec)
    }

    /// Model FLOPs per iteration attributable to one worker (for MFU).
    pub fn worker_model_flops_per_iteration(&self) -> f64 {
        let samples = self.spec.global_batch;
        flops::iteration_model_flops(&self.cfg, samples)
            / (self.spec.pp * self.spec.dp * self.spec.seq.cp_size()) as f64
    }

    /// The accelerator's datasheet throughput (MFU denominator).
    pub fn marketing_flops(&self) -> f64 {
        self.accel.marketing_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_13b(slices: usize) -> ExecutionCost {
        let cfg = TransformerConfig::llama2_13b();
        let spec = PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 8,
            seq: SequenceSplit::SlicePipeline { slices },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        ExecutionCost::new(cfg, spec, &ClusterSpec::rtx4090_cluster()).unwrap()
    }

    #[test]
    fn later_slices_take_longer() {
        let c = cost_13b(4);
        assert!(c.forward_time(3) > c.forward_time(0));
        assert!(c.backward_input_time(3) > c.backward_input_time(0));
    }

    #[test]
    fn wgrad_close_to_first_slice_forward() {
        // Section 5's modelling assumption: W time ≈ forward time of the
        // first slice (dense-dominated).
        let c = cost_13b(4);
        let ratio = c.wgrad_time() / c.forward_time(0);
        assert!((0.6..1.2).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn backward_roughly_twice_forward() {
        let c = cost_13b(4);
        for i in 0..4 {
            let r = c.full_backward_time(i) / c.forward_time(i);
            assert!((1.6..2.4).contains(&r), "slice {i}: ratio = {r}");
        }
    }

    #[test]
    fn wgrad_units_decompose_exactly() {
        let c = cost_13b(4);
        let total = c.wgrad_unit_time() * c.wgrad_units() as f64;
        assert!((total - c.wgrad_time()).abs() / c.wgrad_time() < 1e-12);
        assert_eq!(c.wgrad_units(), 7 * 5);
    }

    #[test]
    fn recompute_adds_a_forward() {
        let cfg = TransformerConfig::llama2_13b();
        let mk = |recompute| {
            let spec = PartitionSpec {
                pp: 8,
                vp: 1,
                dp: 8,
                seq: SequenceSplit::None,
                recompute,
                micro_batch_size: 1,
                global_batch: 128,
            };
            ExecutionCost::new(cfg, spec, &ClusterSpec::rtx4090_cluster()).unwrap()
        };
        let plain = mk(false);
        let recomp = mk(true);
        let extra = recomp.backward_input_time(0) - plain.backward_input_time(0);
        let fwd = plain.forward_time(0);
        assert!((extra - fwd).abs() / fwd < 1e-9);
    }

    #[test]
    fn iteration_time_is_plausible_for_13b() {
        // Sanity: total compute for GBS=128 on the (8, spp 4, dp 8) config
        // divided across the pipeline should land within a factor of two of
        // the paper's 5852 ms (bubbles and comm come from the simulator).
        let c = cost_13b(4);
        let n = c.partition().micro_batches();
        let s = 4;
        let per_worker: f64 = (0..s)
            .map(|i| (c.forward_time(i) + c.full_backward_time(i)) * n as f64)
            .sum();
        assert!(
            (2.0..9.0).contains(&per_worker),
            "per-worker compute = {per_worker}s"
        );
    }

    #[test]
    fn cp_adds_communication() {
        let cfg = TransformerConfig::llama2_13b();
        let mk = |seq| {
            let spec = PartitionSpec {
                pp: 8,
                vp: 1,
                dp: 2,
                seq,
                recompute: false,
                micro_batch_size: 1,
                global_batch: 128,
            };
            ExecutionCost::new(cfg, spec, &ClusterSpec::rtx4090_cluster()).unwrap()
        };
        let cp = mk(SequenceSplit::Context { size: 4 });
        let spp_spec = PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 8,
            seq: SequenceSplit::SlicePipeline { slices: 4 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        let spp = ExecutionCost::new(cfg, spp_spec, &ClusterSpec::rtx4090_cluster()).unwrap();
        // Same tokens per unit, but CP pays ring collectives every layer.
        assert_eq!(cp.tokens_per_unit(), spp.tokens_per_unit());
        assert!(cp.forward_time(0) > spp.forward_time(0));
    }

    #[test]
    fn dp_sync_is_zero_for_single_replica() {
        let cfg = TransformerConfig::llama2_13b();
        let spec = PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 1,
            seq: SequenceSplit::Context { size: 8 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        let c = ExecutionCost::new(cfg, spec, &ClusterSpec::rtx4090_cluster()).unwrap();
        assert_eq!(c.dp_sync_time(), 0.0);
    }
}
