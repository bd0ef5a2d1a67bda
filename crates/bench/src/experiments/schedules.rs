//! Figures 2–6: schedule timeline diagrams, rendered in ASCII.

use mepipe_core::{
    reschedule::reschedule_backwards,
    svpp::{Svpp, SvppConfig},
};
use mepipe_schedule::{
    exec::{simulate, SimConfig, UnitCost},
    generator::{Dapple, Dims, ScheduleGenerator, TeraPipe},
    render::render,
    validate::peak_in_flight,
};

use crate::report::ExperimentReport;

fn svpp(p: usize, v: usize, s: usize, n: usize, f: Option<usize>) -> mepipe_schedule::ir::Schedule {
    let gen = match f {
        Some(f) => Svpp::new().warmup_cap(f),
        None => Svpp::new(),
    };
    gen.generate(&Dims::new(p, n).virtual_chunks(v).slices(s))
        .unwrap()
}

/// Figure 2: DAPPLE 1F1B scheduling.
pub fn fig2() -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig2", "1F1B pipeline scheduling in DAPPLE");
    let sch = Dapple.generate(&Dims::new(4, 4)).unwrap();
    rep.line(render(&sch, &UnitCost::one_two()).unwrap());
    let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
    rep.line(format!(
        "bubble ratio {:.1}% — first stage holds {} micro-batches of activations",
        t.bubble_ratio() * 100.0,
        peak_in_flight(&sch)[0]
    ));
    rep.row(
        "dapple",
        &[
            ("bubble", t.bubble_ratio()),
            ("peak_units", peak_in_flight(&sch)[0] as f64),
        ],
    );
    rep
}

/// Figure 3: TeraPipe slice-level GPipe scheduling.
pub fn fig3() -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig3", "Pipeline scheduling of TeraPipe");
    let sch = TeraPipe.generate(&Dims::new(4, 2).slices(4)).unwrap();
    rep.line(render(&sch, &UnitCost::ones()).unwrap());
    let peaks = peak_in_flight(&sch);
    rep.line(format!(
        "every worker retains all {} slice activations before the first backward",
        peaks[0]
    ));
    rep.row("terapipe", &[("peak_units", peaks[0] as f64)]);
    rep
}

/// Figure 4: SVPP at p=4, s=2, with v=1 (a) and v=2 (b).
pub fn fig4() -> ExperimentReport {
    let mut rep = ExperimentReport::new("fig4", "SVPP scheduling, p=4, s=2, v in {1, 2}");
    for (tag, v, frac) in [("(a) v=1", 1usize, "5/8"), ("(b) v=2", 2, "9/16")] {
        let sch = svpp(4, v, 2, 4, None);
        rep.line(format!("--- {tag}: paper peak {frac}·A ---"));
        rep.line(render(&sch, &UnitCost::ones()).unwrap());
        let peak = peak_in_flight(&sch)[0];
        let units = 4 * 2 * v; // p*s*v units of A per sample... per unit A/(p*s*v).
        rep.line(format!(
            "measured peak: {peak} units of A/{units} = {:.3}·A",
            peak as f64 / units as f64
        ));
        rep.row(tag, &[("peak_units", peak as f64)]);
    }
    rep
}

/// Figure 5: memory-limited SVPP variants (warmup budget sweep).
pub fn fig5() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "fig5",
        "SVPP variants: trading bubbles for memory (p=4, v=2, s=2)",
    );
    let base = SvppConfig::new(4, 2, 2).virtual_chunks(2);
    for f in (base.min_warmup()..=base.max_warmup()).rev() {
        let sch = svpp(4, 2, 2, 2, Some(f));
        let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
        let peak = peak_in_flight(&sch)[0];
        if f == base.max_warmup() || f == base.min_warmup() {
            rep.line(format!("--- timeline at f = {f} ---"));
            rep.line(render(&sch, &UnitCost::ones()).unwrap());
        }
        rep.line(format!(
            "f = {f}: peak {peak:>2} units ({:.3}·A), bubble {:.1}%, makespan {}",
            peak as f64 / 16.0,
            t.bubble_ratio() * 100.0,
            t.makespan
        ));
        rep.row(
            &format!("f={f}"),
            &[
                ("peak_units", peak as f64),
                ("bubble", t.bubble_ratio()),
                ("makespan", t.makespan),
            ],
        );
    }
    rep.line("Lower f → less memory, more bubbles (Section 4.2's 50%/50% trade at the floor).");
    rep
}

/// Figure 6: the backward-rescheduling optimisation.
pub fn fig6() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "fig6",
        "Backward rescheduling (Section 4.3) on the Figure 5(a) schedule",
    );
    let sch = svpp(4, 2, 2, 2, None);
    let opt = reschedule_backwards(&sch).unwrap();
    let tb = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
    let ta = simulate(&opt, &UnitCost::ones(), &SimConfig::default()).unwrap();
    rep.line("--- before ---");
    rep.line(render(&sch, &UnitCost::ones()).unwrap());
    rep.line("--- after rescheduling ---");
    rep.line(render(&opt, &UnitCost::ones()).unwrap());
    rep.line(format!(
        "makespan {} -> {}; peak units {} -> {}",
        tb.makespan,
        ta.makespan,
        peak_in_flight(&sch)[0],
        peak_in_flight(&opt)[0]
    ));
    rep.row(
        "reschedule",
        &[
            ("makespan_before", tb.makespan),
            ("makespan_after", ta.makespan),
            ("peak_before", peak_in_flight(&sch)[0] as f64),
            ("peak_after", peak_in_flight(&opt)[0] as f64),
        ],
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schedule_figures_render() {
        for rep in [fig2(), fig3(), fig4(), fig5(), fig6()] {
            assert!(rep.body.contains("stage 0"), "{} missing timeline", rep.id);
        }
    }

    #[test]
    fn fig5_monotone_tradeoff() {
        let rep = fig5();
        // Rows are ordered from f_max down: memory falls, bubbles rise.
        let peaks: Vec<f64> = rep
            .rows
            .iter()
            .map(|(_, v)| v.iter().find(|(k, _)| k == "peak_units").unwrap().1)
            .collect();
        assert!(peaks.windows(2).all(|w| w[1] <= w[0]), "{peaks:?}");
        let bubbles: Vec<f64> = rep
            .rows
            .iter()
            .map(|(_, v)| v.iter().find(|(k, _)| k == "bubble").unwrap().1)
            .collect();
        assert!(bubbles.first().unwrap() <= bubbles.last().unwrap());
    }

    #[test]
    fn fig6_reschedule_never_hurts() {
        let rep = fig6();
        let get = |k: &str| rep.rows[0].1.iter().find(|(kk, _)| kk == k).unwrap().1;
        assert!(get("makespan_after") <= get("makespan_before"));
        assert!(get("peak_after") <= get("peak_before"));
    }
}
