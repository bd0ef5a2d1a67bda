//! Property-based integration tests (proptest) over the schedule
//! machinery and the numerical substrate.

use proptest::prelude::*;

use mepipe::core::analytic::inflight_floor;
use mepipe::core::reschedule::reschedule_backwards;
use mepipe::core::svpp::SvppConfig;
use mepipe::core::Synth;
use mepipe::schedule::{
    exec::{makespan, simulate, Engine, SimConfig, UnitCost},
    generate::{default_caps, greedy_generate},
    generator::{Dapple, GPipe, Hanayo, TeraPipe, Vpp, Zb, Zbv},
    ir::{ChunkPlacement, OpKind, ScheduleMeta},
    validate::{peak_in_flight, validate},
    Blocks, DualPipe,
};
use mepipe::tensor::{
    init::{rng, uniform},
    ops::{causal_attention, causal_attention_backward},
    Tensor,
};
use mepipe::trace::{bubble, SpanKind};
use mepipe::{Dims, Mepipe, ScheduleGenerator, Svpp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every SVPP configuration in a broad random range generates a
    /// dependency-valid schedule whose stage-0 peak respects the warmup
    /// budget.
    #[test]
    fn svpp_always_valid_and_capped(
        p in 1usize..=8,
        v in 1usize..=3,
        s in 1usize..=6,
        n in 1usize..=10,
        f_extra in 0usize..=6,
    ) {
        let cfg = SvppConfig::new(p, s, n).virtual_chunks(v).warmup_cap(v * s + f_extra);
        let sch = Svpp::new()
            .warmup_cap(v * s + f_extra)
            .generate(&Dims::new(p, n).virtual_chunks(v).slices(s))
            .unwrap();
        validate(&sch).unwrap();
        let peak = peak_in_flight(&sch)[0];
        prop_assert!(peak <= cfg.effective_warmup(), "peak {} > f {}", peak, cfg.effective_warmup());
        prop_assert!(peak >= (v * s).min(n * v * s), "peak {} below feasibility floor", peak);
    }

    /// Split-backward SVPP stays valid and executable too.
    #[test]
    fn svpp_split_always_valid(p in 1usize..=6, s in 1usize..=4, n in 1usize..=6) {
        let sch = Mepipe::new().generate(&Dims::new(p, n).slices(s)).unwrap();
        validate(&sch).unwrap();
        simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
    }

    /// Every baseline generator produces valid schedules across its whole
    /// parameter range.
    #[test]
    fn baselines_always_valid(p in 1usize..=8, n in 1usize..=12, s in 1usize..=4) {
        let base = Dims::new(p, n);
        validate(&GPipe.generate(&base).unwrap()).unwrap();
        validate(&Dapple.generate(&base).unwrap()).unwrap();
        validate(&TeraPipe.generate(&base.slices(s)).unwrap()).unwrap();
        validate(&Zb.generate(&base).unwrap()).unwrap();
        validate(&Zbv.generate(&base.virtual_chunks(2)).unwrap()).unwrap();
        if n.is_multiple_of(p) {
            validate(&Vpp.generate(&base.virtual_chunks(2)).unwrap()).unwrap();
        }
    }

    /// The engine's results do not depend on the order its workers are
    /// advanced in: running one op at a time on a seeded random worker
    /// whose next op is ready reproduces `simulate` bit for bit —
    /// timelines, busy time, peaks, makespan and the OOM verdict — with
    /// and without dynamic weight draining and a memory cap. The trace
    /// tiles each worker by construction: its spans are ordered and
    /// disjoint, its compute spans add up to the worker's busy time, and
    /// every gap between compute spans is a wait on another stage, so
    /// bubble attribution finds no unexplained idle.
    #[test]
    fn engine_ignores_worker_order(
        p in 1usize..=5,
        n in 1usize..=6,
        s in 1usize..=3,
        which in 0usize..4,
        dynamic in proptest::bool::ANY,
        capped in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let sch = match which {
            0 => Dapple.generate(&Dims::new(p, n)),
            1 => Zb.generate(&Dims::new(p, n)),
            2 => GPipe.generate(&Dims::new(p, n)),
            _ => Mepipe::new().generate(&Dims::new(p, n).slices(s)),
        }
        .unwrap();
        let cost = UnitCost { comm: 0.3, wgrad_units: 3, ..Default::default() };
        let config = SimConfig { dynamic_wgrad: dynamic, memory_limit_bytes: capped.then_some(3.0) };
        let want = simulate(&sch, &cost, &config).unwrap();

        let mut engine = Engine::new(&sch.meta, &cost, config);
        let mut spans = vec![Vec::new(); p];
        let mut next = vec![0usize; p];
        let mut rng = seed;
        loop {
            let mut pending: Vec<usize> = (0..p).filter(|&w| next[w] < sch.workers[w].len()).collect();
            if pending.is_empty() {
                break;
            }
            let mut ran = false;
            while !pending.is_empty() {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let w = pending.swap_remove((rng >> 33) as usize % pending.len());
                if engine.try_run(w, sch.workers[w][next[w]], &mut spans[w]) {
                    next[w] += 1;
                    ran = true;
                    break;
                }
            }
            prop_assert!(ran, "no worker could advance");
        }
        let got = engine.finish(spans);
        prop_assert_eq!(&got.trace, &want.trace);
        prop_assert_eq!(&got.busy, &want.busy);
        prop_assert_eq!(&got.peak_activation_bytes, &want.peak_activation_bytes);
        prop_assert_eq!(got.makespan, want.makespan);
        prop_assert_eq!(got.iteration_time, want.iteration_time);
        prop_assert_eq!(got.oom, want.oom);

        for (w, st) in got.trace.stages.iter().enumerate() {
            prop_assert_eq!(st.stage, w);
            for pair in st.spans.windows(2) {
                prop_assert!(pair[0].start_ns <= pair[0].end_ns && pair[0].end_ns <= pair[1].start_ns,
                    "worker {} spans overlap: {:?}", w, pair);
            }
            let compute: Vec<_> = st.spans.iter().filter(|s| s.kind.is_compute()).collect();
            let busy_ns: u64 = compute.iter().map(|s| s.duration_ns()).sum();
            prop_assert!((busy_ns as f64 - got.busy[w] * 1e9).abs() <= compute.len() as f64 + 1e-3,
                "worker {} compute spans {} ns vs busy {} s", w, busy_ns, got.busy[w]);
            for s in st.spans.iter().filter(|s| s.kind == SpanKind::RecvWait) {
                prop_assert!((s.peer as usize) < p && s.peer as usize != w,
                    "worker {} waits on peer {}", w, s.peer);
            }
        }
        let attributed = bubble::attribute(&got.trace);
        prop_assert!((attributed.bubble_ratio() - got.bubble_ratio()).abs() < 1e-6,
            "attributed bubble {} vs engine {}", attributed.bubble_ratio(), got.bubble_ratio());
        for b in &attributed.stages {
            prop_assert_eq!(b.idle.dependency, 0.0);
        }
    }

    /// `Engine::preview` is what `try_run` books. Walking a zoo schedule
    /// op by op on seeded random workers, with and without dynamic weight
    /// draining and a memory cap, every op's preview equals, bit for bit,
    /// the finish time the `try_run` after it records (a deferred weight
    /// op runs nothing at its list position, so its preview is the
    /// worker's free time). A preview is `None` exactly when `try_run`
    /// refuses the op, and a refused `try_run` changes nothing: it books
    /// no span, moves no worker's free time, records no finish, and the
    /// walk still ends in `simulate`'s result.
    #[test]
    fn preview_is_what_try_run_books(
        p in 1usize..=4,
        n in 1usize..=6,
        s in 1usize..=3,
        which in 0usize..12,
        dynamic in proptest::bool::ANY,
        capped in proptest::bool::ANY,
        seed in 0u64..1000,
    ) {
        let flat = Dims::new(p, n);
        let sch = match which {
            0 => GPipe.generate(&flat),
            1 => Dapple.generate(&flat),
            2 => Zb.generate(&flat),
            3 => Vpp.generate(&flat.virtual_chunks(2)),
            4 => Hanayo.generate(&flat.virtual_chunks(2)),
            5 => Zbv.generate(&flat.virtual_chunks(2)),
            6 => TeraPipe.generate(&flat.slices(s)),
            7 => Svpp::new().generate(&flat.slices(s)),
            8 => Mepipe::new().generate(&flat.slices(s)),
            9 => DualPipe::new().generate(&flat.virtual_chunks(2).slices(s)),
            10 => Blocks::uniform().generate(&flat.slices(s)),
            _ => Synth::new().generate(&flat.slices(s)),
        };
        prop_assume!(sch.is_ok(), "the generator rejects this shape");
        let sch = sch.unwrap();
        let cost = UnitCost { comm: 0.3, wgrad_units: 3, ..Default::default() };
        let config = SimConfig { dynamic_wgrad: dynamic, memory_limit_bytes: capped.then_some(3.0) };
        let want = simulate(&sch, &cost, &config).unwrap();

        let mut engine = Engine::new(&sch.meta, &cost, config);
        let mut spans = vec![Vec::new(); p];
        let mut next = vec![0usize; p];
        let mut rng = seed;
        loop {
            let mut pending: Vec<usize> = (0..p).filter(|&w| next[w] < sch.workers[w].len()).collect();
            if pending.is_empty() {
                break;
            }
            let mut ran = false;
            while !pending.is_empty() && !ran {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let w = pending.swap_remove((rng >> 33) as usize % pending.len());
                let op = sch.workers[w][next[w]];
                let preview = engine.preview(w, op);
                let free: Vec<u64> = (0..p).map(|v| engine.free_at(v).to_bits()).collect();
                let booked = spans[w].len();
                ran = engine.try_run(w, op, &mut spans[w]);
                prop_assert_eq!(ran, preview.is_some(), "{} on worker {}", op, w);
                if ran {
                    next[w] += 1;
                    let end = if dynamic && op.kind == OpKind::BackwardWeight {
                        prop_assert_eq!(engine.free_at(w).to_bits(), free[w]);
                        free[w]
                    } else {
                        engine.finish_time(w, op).expect("a run op has finished").to_bits()
                    };
                    prop_assert_eq!(preview.map(f64::to_bits), Some(end), "{} on worker {}", op, w);
                } else {
                    prop_assert_eq!(spans[w].len(), booked);
                    prop_assert_eq!(engine.finish_time(w, op), None);
                    let after: Vec<u64> = (0..p).map(|v| engine.free_at(v).to_bits()).collect();
                    prop_assert_eq!(after, free);
                }
            }
            prop_assert!(ran, "no worker could advance");
        }
        let got = engine.finish(spans);
        prop_assert_eq!(&got.trace, &want.trace);
        prop_assert_eq!(&got.busy, &want.busy);
        prop_assert_eq!(&got.peak_activation_bytes, &want.peak_activation_bytes);
        prop_assert_eq!(got.makespan, want.makespan);
        prop_assert_eq!(got.oom, want.oom);
    }

    /// Rescheduling backwards never increases the unit-cost makespan and
    /// never worsens the peak memory.
    #[test]
    fn reschedule_never_hurts(p in 2usize..=6, v in 1usize..=2, s in 1usize..=3, n in 1usize..=5) {
        let sch = Svpp::new()
            .generate(&Dims::new(p, n).virtual_chunks(v).slices(s))
            .unwrap();
        let opt = reschedule_backwards(&sch).unwrap();
        validate(&opt).unwrap();
        let tb = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let ta = simulate(&opt, &UnitCost::ones(), &SimConfig::default()).unwrap();
        prop_assert!(ta.makespan <= tb.makespan + 1e-9);
        prop_assert!(peak_in_flight(&opt)[0] <= peak_in_flight(&sch)[0]);
    }

    /// Dynamic weight-gradient draining never loses work: busy time equals
    /// the static run's busy time (the same total compute, re-packed).
    #[test]
    fn dynamic_drain_conserves_work(p in 2usize..=5, n in 1usize..=6) {
        let sch = Zb.generate(&Dims::new(p, n)).unwrap();
        let cost = UnitCost { comm: 0.25, wgrad_units: 4, ..Default::default() };
        let stat = simulate(&sch, &cost, &SimConfig { dynamic_wgrad: false, ..Default::default() }).unwrap();
        let dynr = simulate(&sch, &cost, &SimConfig { dynamic_wgrad: true, ..Default::default() }).unwrap();
        let bs: f64 = stat.busy.iter().sum();
        let bd: f64 = dynr.busy.iter().sum();
        prop_assert!((bs - bd).abs() < 1e-6, "static {} vs dynamic {}", bs, bd);
    }

    /// Slice-wise causal attention equals full-sequence attention for
    /// arbitrary shapes and seeds (forward and all three gradients).
    #[test]
    fn attention_slicing_equivalence(
        seed in 0u64..1000,
        t_per in 1usize..=4,
        s in 1usize..=4,
        d in 1usize..=6,
    ) {
        let t = t_per * s;
        let mut r = rng(seed);
        let q = uniform(t, d, 1.0, &mut r);
        let k = uniform(t, d, 1.0, &mut r);
        let v = uniform(t, d, 1.0, &mut r);
        let dout = uniform(t, d, 1.0, &mut r);

        let (full, saved) = causal_attention(&q, &k, &v, 0);
        let (dq_f, dk_f, dv_f) = causal_attention_backward(&dout, &q, &k, &v, &saved);

        let mut outs = Vec::new();
        let mut dqs = Vec::new();
        let mut dk_acc = Tensor::zeros(t, d);
        let mut dv_acc = Tensor::zeros(t, d);
        for i in 0..s {
            let off = i * t_per;
            let qs = q.slice_rows(off, t_per);
            let kp = k.slice_rows(0, off + t_per);
            let vp = v.slice_rows(0, off + t_per);
            let (o, sv) = causal_attention(&qs, &kp, &vp, off);
            outs.push(o);
            let (dq, dk, dv) =
                causal_attention_backward(&dout.slice_rows(off, t_per), &qs, &kp, &vp, &sv);
            dqs.push(dq);
            for rr in 0..off + t_per {
                for cc in 0..d {
                    dk_acc.set(rr, cc, dk_acc.at(rr, cc) + dk.at(rr, cc));
                    dv_acc.set(rr, cc, dv_acc.at(rr, cc) + dv.at(rr, cc));
                }
            }
        }
        prop_assert!(full.max_abs_diff(&Tensor::vstack(&outs)) < 1e-4);
        prop_assert!(dq_f.max_abs_diff(&Tensor::vstack(&dqs)) < 1e-4);
        prop_assert!(dk_f.max_abs_diff(&dk_acc) < 1e-4);
        prop_assert!(dv_f.max_abs_diff(&dv_acc) < 1e-4);
    }

    /// Peak in-flight units from the list structure equal the simulator's
    /// byte peak (divided by the unit size) for fused-backward schedules.
    #[test]
    fn memory_accounting_consistent(p in 1usize..=6, n in 1usize..=8) {
        let sch = Dapple.generate(&Dims::new(p, n)).unwrap();
        let cost = UnitCost { act_bytes: 3.0, ..Default::default() };
        let r = simulate(&sch, &cost, &SimConfig::default()).unwrap();
        let peaks = peak_in_flight(&sch);
        for (units, bytes) in peaks.iter().zip(&r.peak_activation_bytes) {
            prop_assert!((bytes - *units as f64 * 3.0).abs() < 1e-9);
        }
    }
}

/// The in-flight floor Synth's seed sweep rules seeds out by is sound, and
/// so is what it relies on, over every interleaved shape of p 1–8, v 1–2,
/// s 1–4, n ∈ {p, 2p, 16} and every warmup of the sweep: the greedy seed
/// holds no more units in flight on a worker than its cap, and no list
/// order execution of it finishes before the floor, under the solver's
/// costs (1F/2B/1W), unit costs, 1F/2B with free weight ops, and the
/// solver's costs with a 0.3 transfer per hop.
#[test]
fn inflight_floor_is_sound() {
    let solver = UnitCost {
        bwd: 2.0,
        ..UnitCost::ones()
    };
    let costs = [
        solver,
        UnitCost::ones(),
        UnitCost::one_two(),
        UnitCost {
            comm: 0.3,
            ..solver
        },
    ];
    for p in 1..=8 {
        for v in 1..=2 {
            for s in 1..=4 {
                for n in [p, 2 * p, 16] {
                    let meta = ScheduleMeta {
                        name: "Synth".into(),
                        stages: p,
                        virtual_chunks: v,
                        slices: s,
                        micro_batches: n,
                        split_backward: true,
                        placement: ChunkPlacement::Interleaved,
                    };
                    let base = SvppConfig::new(p, s, n).virtual_chunks(v);
                    for f in base.min_warmup()..=base.max_warmup() {
                        let at = format!("p{p} v{v} s{s} n{n} f{f}");
                        let caps = default_caps(&meta, f);
                        let seed = greedy_generate(&meta, &caps).unwrap();
                        let peaks = peak_in_flight(&seed);
                        assert!(
                            peaks.iter().zip(&caps).all(|(peak, cap)| peak <= cap),
                            "{at}: peaks {peaks:?} over caps {caps:?}"
                        );
                        for cost in &costs {
                            let floor = inflight_floor(&meta, &caps, cost);
                            let t = makespan(&seed, cost, &SimConfig::default()).unwrap();
                            assert!(floor <= t, "{at} {cost:?}: floor {floor} > makespan {t}");
                        }
                    }
                }
            }
        }
    }
}
