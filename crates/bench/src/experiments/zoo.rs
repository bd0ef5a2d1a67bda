//! Schedule-zoo smoke and solver smoke — the `check.sh` gate over the
//! synthesis layer.
//!
//! `zoo` renders and validates every registered generator — the
//! hand-written templates and all three synthesized tiers — at one small
//! Fig-8-style grid point. `solver_smoke` runs the per-worker order
//! solver on a few grid points under a hard wall-clock cap, reporting
//! its seed/beam statistics, so a pruning regression that blows up
//! search time fails the gate instead of silently slowing every search.

use std::time::Instant;

use mepipe_core::{Mepipe, Svpp, Synth};
use mepipe_schedule::{
    exec::{simulate, SimConfig, UnitCost},
    generator::{Dapple, Dims, GPipe, Hanayo, ScheduleGenerator, TeraPipe, Vpp, Zb, Zbv},
    render::render,
    validate::{peak_in_flight, validate},
    Blocks, DualPipe,
};

use crate::report::ExperimentReport;

/// Wall-clock budget per solver grid point, in seconds. Generous — the
/// bound-pruned beam finishes these points in well under a second — but
/// hard: `check.sh` runs [`solver`] as its solver smoke, so exceeding
/// the cap fails the offline gate.
const SOLVER_BUDGET_S: f64 = 10.0;

/// Every registered generator with the dims it needs at a `(p, n, s)`
/// grid point (interleaved generators get `v = 2`, DualPipe needs `n`
/// even — same zoo the train-level proptest exercises).
fn generator_zoo(p: usize, n: usize, s: usize) -> Vec<(Box<dyn ScheduleGenerator>, Dims)> {
    let flat = Dims::new(p, n);
    vec![
        (Box::new(GPipe) as Box<dyn ScheduleGenerator>, flat),
        (Box::new(Dapple), flat),
        (Box::new(Zb), flat),
        (Box::new(Vpp), flat.virtual_chunks(2)),
        (Box::new(Hanayo), flat.virtual_chunks(2)),
        (Box::new(Zbv), flat.virtual_chunks(2)),
        (Box::new(TeraPipe), flat.slices(s)),
        (Box::new(Svpp::new()), flat.slices(s)),
        (Box::new(Mepipe::new()), flat.slices(s)),
        (Box::new(DualPipe::new()), flat.virtual_chunks(2).slices(s)),
        (Box::new(Blocks::uniform()), flat.slices(s)),
        (Box::new(Synth::new()), flat.slices(s)),
    ]
}

/// The zoo smoke: generate, validate, render and unit-cost-execute every
/// generator at `p=2, n=4, s=2`.
pub fn run() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "zoo",
        "Schedule zoo smoke: every generator validates and renders at p=2, n=4, s=2",
    );
    for (g, dims) in generator_zoo(2, 4, 2) {
        let t0 = Instant::now();
        let sch = g
            .generate(&dims)
            .unwrap_or_else(|e| panic!("{} rejected {dims}: {e}", g.name()));
        validate(&sch).unwrap_or_else(|e| panic!("{} invalid at {dims}: {e}", g.name()));
        let timeline = render(&sch, &UnitCost::ones())
            .unwrap_or_else(|e| panic!("{} failed to render at {dims}: {e}", g.name()));
        assert!(
            timeline.contains("stage 0"),
            "{}: rendered timeline has no stage track",
            g.name()
        );
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default())
            .unwrap_or_else(|e| panic!("{} failed to execute at {dims}: {e}", g.name()));
        let peak = peak_in_flight(&sch)[0];
        rep.line(format!("--- {} @ {dims} ---", g.name()));
        rep.line(timeline);
        rep.line(format!(
            "bubble {:.1}%, peak {peak} units, generated+checked in {gen_ms:.1} ms",
            t.bubble_ratio() * 100.0
        ));
        rep.row(
            g.name(),
            &[
                ("bubble", t.bubble_ratio()),
                ("peak_units", peak as f64),
                ("gen_ms", gen_ms),
            ],
        );
    }
    rep
}

/// The solver smoke: full synthesis on a few grid points, each under
/// `SOLVER_BUDGET_S` wall-clock, schedules validated, beam statistics
/// reported.
pub fn solver() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "solver_smoke",
        "Order-solver smoke: full synthesis per grid point under the wall-clock cap",
    );
    for dims in [
        Dims::new(2, 4).slices(2),
        Dims::new(4, 8).slices(2),
        Dims::new(4, 4).virtual_chunks(2).slices(2),
    ] {
        let t0 = Instant::now();
        let syn = Synth::new()
            .synthesize(&dims)
            .unwrap_or_else(|e| panic!("solver rejected {dims}: {e}"));
        let secs = t0.elapsed().as_secs_f64();
        validate(&syn.schedule).unwrap_or_else(|e| panic!("solver invalid at {dims}: {e}"));
        let st = &syn.stats;
        assert!(
            secs <= SOLVER_BUDGET_S,
            "solver blew its budget at {dims}: {secs:.1} s > {SOLVER_BUDGET_S} s"
        );
        assert!(
            st.makespan <= st.seed_makespan + 1e-12,
            "solver regressed past its seed at {dims}"
        );
        rep.line(format!(
            "{dims}: {secs:.2} s ({} seeds, {} expanded, {} pruned), makespan {:.1} \
             (seed {:.1}, floor {:.1}){}",
            st.seeds_tried,
            st.nodes_expanded,
            st.nodes_pruned,
            st.makespan,
            st.seed_makespan,
            st.floor,
            if st.improved { " — improved" } else { "" }
        ));
        rep.row(
            &format!("{dims}"),
            &[
                ("secs", secs),
                ("seeds_tried", st.seeds_tried as f64),
                ("nodes_expanded", st.nodes_expanded as f64),
                ("nodes_pruned", st.nodes_pruned as f64),
                ("makespan", st.makespan),
                ("seed_makespan", st.seed_makespan),
                ("floor", st.floor),
            ],
        );
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_all_generators_and_solver_stays_in_budget() {
        let z = run();
        assert_eq!(z.rows.len(), 12, "zoo rows: {:?}", z.rows);
        let s = solver();
        assert_eq!(s.rows.len(), 3);
        for (dims, vals) in &s.rows {
            let secs = vals.iter().find(|(k, _)| k == "secs").unwrap().1;
            assert!(secs <= SOLVER_BUDGET_S, "{dims}: {secs} s");
        }
    }
}
