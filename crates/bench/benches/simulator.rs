//! Benchmarks for the discrete-event simulator and the strategy search
//! primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use mepipe_core::svpp::Mepipe;
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::{
    config::TransformerConfig,
    cost::ExecutionCost,
    partition::{PartitionSpec, SequenceSplit},
};
use mepipe_schedule::exec::{simulate, SimConfig};
use mepipe_schedule::generator::{Dims, ScheduleGenerator};
use mepipe_sim::ModelCost;
use mepipe_strategy::{evaluate, Candidate, Method};

fn mepipe_13b_setup() -> (mepipe_schedule::ir::Schedule, ModelCost) {
    let model = TransformerConfig::llama2_13b();
    let spec = PartitionSpec {
        pp: 8,
        vp: 1,
        dp: 8,
        seq: SequenceSplit::SlicePipeline { slices: 4 },
        recompute: false,
        micro_batch_size: 1,
        global_batch: 128,
    };
    let cost =
        ModelCost::new(ExecutionCost::new(model, spec, &ClusterSpec::rtx4090_cluster()).unwrap());
    let sch = Mepipe::new().generate(&Dims::new(8, 16).slices(4)).unwrap();
    (sch, cost)
}

fn bench_simulate(c: &mut Criterion) {
    let (sch, cost) = mepipe_13b_setup();
    c.bench_function("simulate_mepipe_13b_static", |b| {
        b.iter(|| simulate(&sch, &cost, &SimConfig::default()).unwrap())
    });
    c.bench_function("simulate_mepipe_13b_dynamic_w", |b| {
        b.iter(|| {
            simulate(
                &sch,
                &cost,
                &SimConfig {
                    dynamic_wgrad: true,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
}

fn bench_evaluate(c: &mut Criterion) {
    let model = TransformerConfig::llama2_13b();
    let cluster = ClusterSpec::rtx4090_cluster();
    let cand = Candidate {
        method: Method::Mepipe,
        spec: PartitionSpec {
            pp: 8,
            vp: 1,
            dp: 8,
            seq: SequenceSplit::SlicePipeline { slices: 4 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 128,
        },
    };
    c.bench_function("evaluate_candidate_13b", |b| {
        b.iter(|| evaluate(&cand, &model, &cluster).unwrap())
    });
}

criterion_group!(benches, bench_simulate, bench_evaluate);
criterion_main!(benches);
