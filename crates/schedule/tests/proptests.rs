//! Property tests for the schedule machinery.

use proptest::prelude::*;

use mepipe_schedule::{
    deps::dependencies,
    exec::{simulate, SimConfig, UnitCost},
    generate::{default_caps, dependents, greedy_generate},
    generator::{Dapple, Dims, GPipe, ScheduleGenerator, TeraPipe},
    ir::{ChunkPlacement, Op, OpKind, ScheduleMeta},
    validate::{peak_in_flight, validate},
};

fn meta(
    p: usize,
    v: usize,
    s: usize,
    n: usize,
    split: bool,
    placement: ChunkPlacement,
) -> ScheduleMeta {
    ScheduleMeta {
        name: "prop".into(),
        stages: p,
        virtual_chunks: v,
        slices: s,
        micro_batches: n,
        split_backward: split,
        placement,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every placement's (stage, chunk) ↔ global-position mapping is a
    /// bijection over the whole grid.
    #[test]
    fn placements_are_bijections(p in 1usize..=12, v in 1usize..=5) {
        for placement in [ChunkPlacement::Interleaved, ChunkPlacement::Wave] {
            for g in 0..p * v {
                let (w, c) = placement.stage_chunk_of(p, g);
                prop_assert!(w < p && c < v);
                prop_assert_eq!(placement.global_pos(p, w, c), g);
            }
        }
        // VShape only at v = 2.
        for g in 0..p * 2 {
            let (w, c) = ChunkPlacement::VShape.stage_chunk_of(p, g);
            prop_assert_eq!(ChunkPlacement::VShape.global_pos(p, w, c), g);
        }
    }

    /// The two op lists construction runs on agree, and the op index is
    /// dense: on every worker of every placement, each consumer
    /// `dependents` lists for an F or B/Bi op names that op among its
    /// `dependencies`, and each producer `dependencies` lists names the op
    /// among its `dependents`; `op_slot` maps the shape's ops one-to-one
    /// below `op_slots()`.
    #[test]
    fn dependents_invert_dependencies_and_slots_are_dense(
        p in 1usize..=5,
        v in 1usize..=3,
        s in 1usize..=3,
        n in 1usize..=4,
        split in proptest::bool::ANY,
        placement in prop::sample::select(vec![
            ChunkPlacement::Interleaved,
            ChunkPlacement::VShape,
            ChunkPlacement::Wave,
            ChunkPlacement::Bidirectional,
        ]),
    ) {
        let m = meta(p, v, s, n, split, placement);
        prop_assume!(m.check_shape().is_ok());
        let bk = if split { OpKind::BackwardInput } else { OpKind::Backward };
        let mut kinds = vec![OpKind::Forward, bk];
        if split {
            kinds.push(OpKind::BackwardWeight);
        }
        let mut seen = vec![false; m.op_slots()];
        for w in 0..p {
            for mb in 0..n {
                for c in m.chunk_of_mb(mb).map_or(0..v, |c| c..c + 1) {
                    for sl in 0..s {
                        for &kind in &kinds {
                            let op = Op::new(kind, mb, sl, c);
                            let slot = m.op_slot(w, op);
                            prop_assert!(slot < m.op_slots(), "{} on {} at {}", op, w, slot);
                            prop_assert!(!seen[slot], "{} on {} reuses slot {}", op, w, slot);
                            seen[slot] = true;
                            if kind == OpKind::BackwardWeight {
                                continue;
                            }
                            for (dw, dep) in dependents(&m, w, op, bk) {
                                prop_assert!(
                                    dependencies(&m, dw, dep).iter().any(|d| (d.stage, d.op) == (w, op)),
                                    "{} on {} unlocks {} on {}, which does not wait for it", op, w, dep, dw
                                );
                            }
                            for d in dependencies(&m, w, op) {
                                prop_assert!(
                                    dependents(&m, d.stage, d.op, bk).contains(&(w, op)),
                                    "{} on {} waits for {} on {}, which does not unlock it", op, w, d.op, d.stage
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The greedy generator is deterministic: identical inputs produce
    /// identical schedules.
    #[test]
    fn generation_is_deterministic(
        p in 1usize..=6,
        v in 1usize..=3,
        s in 1usize..=4,
        n in 1usize..=6,
        split in proptest::bool::ANY,
    ) {
        let m = meta(p, v, s, n, split, ChunkPlacement::Interleaved);
        let caps = default_caps(&m, v * p.max(s) + p.min(s));
        let a = greedy_generate(&m, &caps).unwrap();
        let b = greedy_generate(&m, &caps).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Wave placements generate valid executable schedules too.
    #[test]
    fn wave_generation_valid(p in 1usize..=6, v in 1usize..=4, n in 1usize..=6) {
        let m = meta(p, v, 1, n, false, ChunkPlacement::Wave);
        let caps = vec![(p * v).max(v); p];
        let sch = greedy_generate(&m, &caps).unwrap();
        validate(&sch).unwrap();
        simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
    }

    /// Executing any baseline under any positive costs keeps busy time
    /// equal to the sum of op durations (no work lost or duplicated).
    #[test]
    fn execution_conserves_work(
        p in 1usize..=6,
        n in 1usize..=8,
        fwd in 0.5f64..3.0,
        bwd in 0.5f64..3.0,
    ) {
        let sch = Dapple.generate(&Dims::new(p, n)).unwrap();
        let cost = UnitCost { fwd, bwd, wgrad: 0.0, ..UnitCost::ones() };
        let t = simulate(&sch, &cost, &SimConfig::default()).unwrap();
        let expected = (fwd + bwd) * n as f64;
        for w in 0..p {
            prop_assert!((t.busy[w] - expected).abs() < 1e-6);
        }
        prop_assert!(t.makespan >= expected - 1e-6);
    }

    /// Peak in-flight decreases (weakly) from the first stage to the last
    /// for 1F1B-family schedules — the memory skew the paper discusses.
    #[test]
    fn dapple_memory_skew(p in 2usize..=8, n in 2usize..=12) {
        let sch = Dapple.generate(&Dims::new(p, n)).unwrap();
        let peaks = peak_in_flight(&sch);
        prop_assert!(peaks.windows(2).all(|w| w[0] >= w[1]), "{:?}", peaks);
    }

    /// GPipe's makespan formula holds exactly under unit costs.
    #[test]
    fn gpipe_makespan_formula(p in 1usize..=8, n in 1usize..=12) {
        let sch = GPipe.generate(&Dims::new(p, n)).unwrap();
        let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
        prop_assert!((t.makespan - (2 * n + 2 * (p - 1)) as f64).abs() < 1e-9);
    }

    /// TeraPipe's bubble formula holds exactly under unit costs.
    #[test]
    fn terapipe_bubble_formula(p in 1usize..=6, n in 1usize..=8, s in 1usize..=4) {
        let sch = TeraPipe.generate(&Dims::new(p, n).slices(s)).unwrap();
        let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let expected = (p as f64 - 1.0) / ((n * s) as f64 + p as f64 - 1.0);
        prop_assert!((t.bubble_ratio() - expected).abs() < 1e-9);
    }
}
