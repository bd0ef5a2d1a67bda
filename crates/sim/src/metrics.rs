//! Derived performance metrics: throughput, MFU, cost-effectiveness.

use mepipe_model::cost::ExecutionCost;
use mepipe_schedule::exec::SimResult;

/// Achieved model FLOPs per second per worker for a simulated iteration.
pub fn achieved_flops_per_worker(result: &SimResult, cost: &ExecutionCost) -> f64 {
    if result.iteration_time <= 0.0 {
        return 0.0;
    }
    cost.worker_model_flops_per_iteration() / result.iteration_time
}

/// Model FLOPS Utilisation: achieved model FLOPs over the accelerator's
/// datasheet peak, exactly as the paper reports it (Section 7.6 quotes
/// 35% MFU / 116 TFLOPS for Llama-13B on the RTX 4090 cluster).
pub fn mfu(result: &SimResult, cost: &ExecutionCost) -> f64 {
    achieved_flops_per_worker(result, cost) / cost.marketing_flops()
}

/// Tokens per second across the whole cluster.
pub fn tokens_per_second(result: &SimResult, cost: &ExecutionCost) -> f64 {
    if result.iteration_time <= 0.0 {
        return 0.0;
    }
    let tokens = (cost.partition().global_batch * cost.config().seq_len) as f64;
    tokens / result.iteration_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ModelCost;
    use mepipe_core::svpp::Mepipe;
    use mepipe_hw::topology::ClusterSpec;
    use mepipe_model::{
        config::TransformerConfig,
        partition::{PartitionSpec, SequenceSplit},
    };
    use mepipe_schedule::exec::{simulate, SimConfig};
    use mepipe_schedule::generator::{Dims, ScheduleGenerator};

    #[test]
    fn mepipe_13b_lands_near_paper_mfu() {
        // Llama-13B, GBS 128, the paper's optimal MEPipe config
        // (PP 8, SPP 4, VP 1, dp 8): Table 9 reports 5852 ms and 116
        // TFLOPS (35% MFU). The simulator should land in the same region.
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
        let ec = mepipe_model::cost::ExecutionCost::new(cfg, spec, &ClusterSpec::rtx4090_cluster())
            .unwrap();
        let sch = Mepipe::new().generate(&Dims::new(8, 16).slices(4)).unwrap();
        let mc = ModelCost::new(ec);
        let r = simulate(
            &sch,
            &mc,
            &SimConfig {
                dynamic_wgrad: true,
                ..Default::default()
            },
        )
        .unwrap();
        let m = mfu(&r, mc.execution_cost());
        assert!(
            (0.25..0.45).contains(&m),
            "MFU {m} (iteration {} s) outside the paper's region",
            r.iteration_time
        );
        assert!(
            (3.0..9.0).contains(&r.iteration_time),
            "iteration time {} s implausible vs paper's 5.85 s",
            r.iteration_time
        );
    }

    #[test]
    fn tokens_per_second_consistent() {
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
        let ec = mepipe_model::cost::ExecutionCost::new(cfg, spec, &ClusterSpec::rtx4090_cluster())
            .unwrap();
        let sch = Mepipe::new().generate(&Dims::new(8, 16).slices(4)).unwrap();
        let mc = ModelCost::new(ec);
        let r = simulate(&sch, &mc, &SimConfig::default()).unwrap();
        let tps = tokens_per_second(&r, mc.execution_cost());
        let expected = 128.0 * 4096.0 / r.iteration_time;
        assert!((tps - expected).abs() < 1e-6);
    }
}
