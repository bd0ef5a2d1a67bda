//! Quickstart: generate an SVPP schedule, validate it, simulate it on the
//! paper's RTX 4090 cluster and print the headline numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mepipe::hw::topology::ClusterSpec;
use mepipe::model::{
    config::TransformerConfig,
    cost::ExecutionCost,
    partition::{PartitionSpec, SequenceSplit},
};
use mepipe::schedule::exec::{simulate, SimConfig};
use mepipe::schedule::validate::validate;
use mepipe::sim::{metrics, ModelCost};
use mepipe::{Dims, Mepipe, ScheduleGenerator, SvppConfig};

fn main() -> Result<(), String> {
    // Llama-13B on 64x RTX 4090 with the paper's optimal MEPipe strategy:
    // pipeline 8, SPP slices 4, data parallel 8, global batch 128.
    let model = TransformerConfig::llama2_13b();
    let cluster = ClusterSpec::rtx4090_cluster();
    let spec = PartitionSpec {
        pp: 8,
        vp: 1,
        dp: 8,
        seq: SequenceSplit::SlicePipeline { slices: 4 },
        recompute: false,
        micro_batch_size: 1,
        global_batch: 128,
    };

    // 1. Generate the SVPP schedule (split backward for fine-grained W).
    let dims = Dims::new(spec.pp, spec.micro_batches())
        .virtual_chunks(spec.vp)
        .slices(4);
    let cfg = SvppConfig::from_dims(&dims);
    let schedule = Mepipe::new().generate(&dims)?;
    validate(&schedule)?;
    println!(
        "SVPP schedule: {} stages x {} ops, warmup budget f = {}",
        schedule.num_workers(),
        schedule.workers[0].len(),
        cfg.effective_warmup()
    );

    // 2. Price it and simulate one iteration under the 24 GB card's real
    //    activation budget — deferred weight-gradient work retains memory,
    //    so the budget is what forces stage 0 to drain eagerly (Section 5).
    let cost = ModelCost::new(ExecutionCost::new(model, spec, &cluster)?);
    let budget = mepipe::model::memory::activation_budget_bytes(
        &model,
        &spec,
        cluster.accelerator.usable_memory_bytes(),
    );
    let result = simulate(
        &schedule,
        &cost,
        &SimConfig {
            dynamic_wgrad: true,
            memory_limit_bytes: Some(budget),
        },
    )?;
    if let Some((worker, bytes)) = result.oom {
        return Err(format!(
            "OOM on worker {worker}: {:.1} GiB",
            bytes / 1024f64.powi(3)
        ));
    }

    println!("iteration time : {:.0} ms", result.iteration_time * 1e3);
    println!("bubble ratio   : {:.1}%", result.bubble_ratio() * 100.0);
    println!(
        "peak activation: {:.2} GiB on the most loaded worker",
        result
            .peak_activation_bytes
            .iter()
            .copied()
            .fold(0.0, f64::max)
            / 1024f64.powi(3)
    );
    println!(
        "MFU            : {:.1}%  (paper reports 35% / 5852 ms for this setup)",
        metrics::mfu(&result, cost.execution_cost()) * 100.0
    );
    Ok(())
}
