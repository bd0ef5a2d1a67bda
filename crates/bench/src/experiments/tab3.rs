//! Table 3: closed-form bubble ratio and activation memory of every
//! scheduling method, in both cluster regimes, cross-checked against
//! executed schedules where a generator exists.

use mepipe_core::{
    analytic::{table3, AnalysisParams},
    svpp::Svpp,
};
use mepipe_schedule::{
    exec::{simulate, SimConfig, UnitCost},
    generator::{Dapple, Dims, ScheduleGenerator, TeraPipe, Vpp},
};

use crate::report::{format_table, ExperimentReport};

fn fmt_opt(x: Option<f64>) -> String {
    x.map_or("-".into(), |v| format!("{v:.3}"))
}

/// Runs the experiment.
pub fn run() -> ExperimentReport {
    let mut rep = ExperimentReport::new(
        "tab3",
        "Bubble ratio and activation memory (fraction of A) — closed forms + simulation cross-check",
    );
    for (regime, a) in [
        (
            "small cluster (n ≥ p): p=8, v=2, s=4, n=16",
            AnalysisParams {
                p: 8,
                v: 2,
                s: 4,
                n: 16,
            },
        ),
        (
            "large cluster (n < p): p=16, v=2, s=4, n=4",
            AnalysisParams {
                p: 16,
                v: 2,
                s: 4,
                n: 4,
            },
        ),
    ] {
        rep.line(format!("--- {regime} ---"));
        let mut rows = Vec::new();
        for r in table3(a) {
            rows.push(vec![
                r.method.to_string(),
                fmt_opt(r.bubble_ratio),
                fmt_opt(r.memory_fraction),
            ]);
            rep.row(
                &format!("{}/{}", a.p, r.method),
                &[
                    ("bubble", r.bubble_ratio.unwrap_or(f64::NAN)),
                    ("mem_frac", r.memory_fraction.unwrap_or(f64::NAN)),
                ],
            );
        }
        rep.line(format_table(
            &["method", "bubble ratio", "memory (·A)"],
            &rows,
        ));
    }

    // Cross-check the small-regime formulas against executed schedules
    // under uniform costs.
    rep.line("--- cross-check: formula vs executed schedule (uniform costs) ---");
    let a = AnalysisParams {
        p: 4,
        v: 1,
        s: 4,
        n: 8,
    };
    let checks: Vec<(&str, f64, f64)> = vec![
        (
            "DAPPLE",
            mepipe_core::analytic::dapple(a).bubble_ratio.unwrap(),
            simulate(
                &Dapple.generate(&Dims::new(4, 8)).unwrap(),
                &UnitCost::ones(),
                &SimConfig::default(),
            )
            .unwrap()
            .bubble_ratio(),
        ),
        (
            "VPP (v=2)",
            mepipe_core::analytic::vpp(AnalysisParams { v: 2, ..a })
                .bubble_ratio
                .unwrap(),
            simulate(
                &Vpp.generate(&Dims::new(4, 8).virtual_chunks(2)).unwrap(),
                &UnitCost::ones(),
                &SimConfig::default(),
            )
            .unwrap()
            .bubble_ratio(),
        ),
        (
            "TeraPipe",
            mepipe_core::analytic::terapipe(a).bubble_ratio.unwrap(),
            simulate(
                &TeraPipe.generate(&Dims::new(4, 8).slices(4)).unwrap(),
                &UnitCost::ones(),
                &SimConfig::default(),
            )
            .unwrap()
            .bubble_ratio(),
        ),
        (
            "SVPP",
            mepipe_core::analytic::svpp(a).bubble_ratio.unwrap(),
            simulate(
                &Svpp::new().generate(&Dims::new(4, 8).slices(4)).unwrap(),
                &UnitCost::ones(),
                &SimConfig::default(),
            )
            .unwrap()
            .bubble_ratio(),
        ),
    ];
    let mut rows = Vec::new();
    for (name, formula, measured) in &checks {
        rows.push(vec![
            name.to_string(),
            format!("{formula:.4}"),
            format!("{measured:.4}"),
            format!("{:+.4}", measured - formula),
        ]);
        rep.row(
            &format!("check/{name}"),
            &[("formula", *formula), ("measured", *measured)],
        );
    }
    rep.line(format_table(
        &["method", "formula", "measured", "delta"],
        &rows,
    ));
    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn cross_checks_agree_within_tolerance() {
        let rep = super::run();
        for (label, vals) in rep.rows.iter().filter(|(l, _)| l.starts_with("check/")) {
            let f = vals.iter().find(|(k, _)| k == "formula").unwrap().1;
            let m = vals.iter().find(|(k, _)| k == "measured").unwrap().1;
            assert!((f - m).abs() < 0.06, "{label}: formula {f} vs measured {m}");
        }
    }
}
