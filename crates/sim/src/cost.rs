//! The production cost model behind the engine's [`Cost`] trait.

use mepipe_model::cost::ExecutionCost;
use mepipe_schedule::exec::Cost;
use mepipe_schedule::ir::{Op, OpKind};

/// The production cost model: adapts [`ExecutionCost`] (model × partition ×
/// cluster) to the engine's [`Cost`] interface.
#[derive(Debug, Clone)]
pub struct ModelCost {
    inner: ExecutionCost,
    coarse_wgrad: bool,
}

impl ModelCost {
    /// Wraps an execution-cost model with MEPipe's per-GEMM weight
    /// granularity.
    pub fn new(inner: ExecutionCost) -> Self {
        Self {
            inner,
            coarse_wgrad: false,
        }
    }

    /// Wraps with zero-bubble's whole-op weight granularity (the paper's
    /// ZB/ZBV baselines defer W per backward pass, not per GEMM).
    pub fn new_coarse(inner: ExecutionCost) -> Self {
        Self {
            inner,
            coarse_wgrad: true,
        }
    }

    /// Access to the wrapped model.
    pub fn execution_cost(&self) -> &ExecutionCost {
        &self.inner
    }

    /// Content fingerprint of every price the simulator can observe.
    ///
    /// Two `ModelCost`s with equal fingerprints drive the engine to
    /// bit-identical results on the same schedule: the hash folds in the
    /// exact bit patterns of all per-slice forward/backward durations,
    /// weight-gradient pricing and granularity, transfer, sync and
    /// optimizer times, and the per-unit memory charges. The search
    /// engine keys its memoized evaluations on this value, so distinct
    /// (model, partition, cluster) triples that price identically share
    /// one simulation.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the raw bit patterns; stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bits: u64| {
            for byte in bits.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let s = self.inner.partition().seq.spp_slices();
        fold(s as u64);
        for i in 0..s {
            fold(self.inner.forward_time(i).to_bits());
            fold(self.inner.backward_input_time(i).to_bits());
        }
        fold(self.inner.wgrad_time().to_bits());
        fold(self.wgrad_units() as u64);
        fold(self.inner.pp_transfer_time().to_bits());
        fold(self.inner.dp_sync_time().to_bits());
        fold(self.inner.optimizer_time().to_bits());
        fold(self.activation_bytes().to_bits());
        fold(self.deferred_bytes().to_bits());
        fold(self.inner.worker_model_flops_per_iteration().to_bits());
        fold(self.inner.marketing_flops().to_bits());
        fold(self.coarse_wgrad as u64);
        h
    }
}

impl Cost for ModelCost {
    fn duration(&self, _stage: usize, op: Op) -> f64 {
        match op.kind {
            OpKind::Forward => self.inner.forward_time(op.slice),
            OpKind::BackwardInput => self.inner.backward_input_time(op.slice),
            OpKind::Backward => self.inner.full_backward_time(op.slice),
            OpKind::BackwardWeight => self.inner.wgrad_time(),
        }
    }

    fn transfer_time(&self, _from: usize, _to: usize) -> f64 {
        self.inner.pp_transfer_time()
    }

    fn wgrad_time(&self, _stage: usize, _op: Op) -> f64 {
        self.inner.wgrad_time()
    }

    fn wgrad_units(&self) -> usize {
        if self.coarse_wgrad {
            1
        } else {
            self.inner.wgrad_units()
        }
    }

    fn activation_bytes(&self) -> f64 {
        self.inner.activation_bytes_per_unit()
    }

    fn deferred_bytes(&self) -> f64 {
        self.inner.deferred_wgrad_bytes_per_unit()
    }

    fn dp_sync_time(&self) -> f64 {
        self.inner.dp_sync_time()
    }

    fn optimizer_time(&self) -> f64 {
        self.inner.optimizer_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_hw::topology::ClusterSpec;
    use mepipe_model::{
        config::TransformerConfig,
        partition::{PartitionSpec, SequenceSplit},
    };

    #[test]
    fn model_cost_round_trips_execution_cost() {
        let cfg = TransformerConfig::llama2_13b();
        let spec = PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 8,
            seq: SequenceSplit::SlicePipeline { slices: 4 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        let ec = ExecutionCost::new(cfg, spec, &ClusterSpec::rtx4090_cluster()).unwrap();
        let mc = ModelCost::new(ec);
        let f = Op::new(OpKind::Forward, 0, 0, 0);
        let b = Op::new(OpKind::BackwardInput, 0, 0, 0);
        assert!(mc.duration(0, f) > 0.0);
        assert!(mc.duration(0, b) > mc.duration(0, f) * 0.5);
        assert!(mc.transfer_time(0, 1) > 0.0);
        assert_eq!(mc.wgrad_units(), 35);
        assert!(mc.dp_sync_time() > 0.0);
    }

    #[test]
    fn fingerprint_separates_pricing_changes() {
        let cfg = TransformerConfig::llama2_13b();
        let spec = PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 8,
            seq: SequenceSplit::SlicePipeline { slices: 4 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        };
        let cluster = ClusterSpec::rtx4090_cluster();
        let base = ModelCost::new(ExecutionCost::new(cfg, spec, &cluster).unwrap());
        // Identical inputs → identical fingerprints.
        let again = ModelCost::new(ExecutionCost::new(cfg, spec, &cluster).unwrap());
        assert_eq!(base.fingerprint(), again.fingerprint());
        // Weight-gradient granularity is priced in.
        let coarse = ModelCost::new_coarse(ExecutionCost::new(cfg, spec, &cluster).unwrap());
        assert_ne!(base.fingerprint(), coarse.fingerprint());
        // Any pricing change (here: recomputation, a different cluster,
        // a different batch) must move the fingerprint.
        for other in [
            PartitionSpec {
                recompute: true,
                ..spec
            },
            PartitionSpec {
                global_batch: 64,
                ..spec
            },
            PartitionSpec {
                dp: 16,
                pp: 4,
                ..spec
            },
        ] {
            let m = ModelCost::new(ExecutionCost::new(cfg, other, &cluster).unwrap());
            assert_ne!(base.fingerprint(), m.fingerprint(), "{other:?}");
        }
        // The accelerator's pricing is folded in too (A100 cluster has 32
        // devices, so its 8-stage partition runs dp 4).
        let half = PartitionSpec { dp: 4, ..spec };
        let a100 =
            ModelCost::new(ExecutionCost::new(cfg, half, &ClusterSpec::a100_cluster()).unwrap());
        assert_ne!(base.fingerprint(), a100.fingerprint());
    }
}
