//! Benchmarks for schedule generation: SVPP greedy construction, every
//! baseline generator at realistic sizes, and the order solver at the
//! shapes the planner's grid queries synthesize.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mepipe_core::svpp::{Mepipe, Svpp};
use mepipe_core::Synth;
use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator, TeraPipe, Vpp, Zbv};

fn bench_svpp(c: &mut Criterion) {
    let mut g = c.benchmark_group("svpp_generation");
    for (p, v, s, n) in [
        (8usize, 1usize, 4usize, 16usize),
        (8, 2, 4, 16),
        (16, 1, 16, 32),
    ] {
        let dims = Dims::new(p, n).virtual_chunks(v).slices(s);
        g.bench_with_input(BenchmarkId::from_parameter(dims), &dims, |b, dims| {
            b.iter(|| Svpp::new().generate(dims).unwrap())
        });
    }
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baseline_generation");
    g.bench_function("dapple_p8_n16", |b| {
        b.iter(|| Dapple.generate(&Dims::new(8, 16)).unwrap())
    });
    g.bench_function("vpp_p8_v2_n16", |b| {
        b.iter(|| Vpp.generate(&Dims::new(8, 16).virtual_chunks(2)).unwrap())
    });
    g.bench_function("terapipe_p8_n16_s4", |b| {
        b.iter(|| TeraPipe.generate(&Dims::new(8, 16).slices(4)).unwrap())
    });
    g.bench_function("zbv_p8_n16", |b| {
        b.iter(|| Zbv.generate(&Dims::new(8, 16).virtual_chunks(2)).unwrap())
    });
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    let dims = Dims::new(8, 16).slices(4);
    c.bench_function("mepipe_split_p8_s4_n16", |b| {
        b.iter(|| Mepipe::new().generate(&dims).unwrap())
    });
    // The largest seed the Llama-7B GBS-128 query sweeps.
    let dims = Dims::new(32, 64).slices(4);
    c.bench_function("mepipe_split_p32_s4_n64", |b| {
        b.iter(|| Mepipe::new().generate(&dims).unwrap())
    });
}

/// Full synthesis (seed sweep plus beam search) at the two Synth
/// candidates the Llama-13B GBS-128 query evaluates, with no cap, and at
/// the Llama-7B GBS-128 candidate with the longest seed sweep (32
/// warmups, no beam), with the cap the planner gives it.
fn bench_synth(c: &mut Criterion) {
    let mut g = c.benchmark_group("synth_synthesize");
    for (dims, cap) in [
        (Dims::new(8, 16).slices(2), None),
        (Dims::new(8, 16).slices(4), None),
        (Dims::new(32, 64).slices(4), Some(172)),
    ] {
        let (synth, id) = match cap {
            Some(c) => (Synth::new().cap(c), format!("{dims}/cap{c}")),
            None => (Synth::new(), dims.to_string()),
        };
        g.bench_with_input(BenchmarkId::from_parameter(id), &dims, |b, dims| {
            b.iter(|| synth.synthesize(dims).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_svpp,
    bench_baselines,
    bench_split,
    bench_synth
);
criterion_main!(benches);
