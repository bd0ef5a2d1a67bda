//! Large-cluster regime (n < p) checks: the Table 3 column the paper adds
//! for thousand-accelerator deployments.

use mepipe_core::analytic::{self, AnalysisParams};
use mepipe_core::svpp::Svpp;
use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
use mepipe_schedule::generator::{Dapple, Dims, ScheduleGenerator};
use mepipe_schedule::validate::{peak_in_flight, validate};

#[test]
fn svpp_formula_tracks_generated_schedule_below_p() {
    // n < p: p=8, s=2, v=1, n=4 — sn=8 >= p so no extra term.
    let a = AnalysisParams {
        p: 8,
        v: 1,
        s: 2,
        n: 4,
    };
    let sch = Svpp::new().generate(&Dims::new(8, 4).slices(2)).unwrap();
    validate(&sch).unwrap();
    let t = simulate(&sch, &UnitCost::ones(), &SimConfig::default()).unwrap();
    let formula = analytic::svpp(a).bubble_ratio.unwrap();
    assert!(
        (t.bubble_ratio() - formula).abs() < 0.08,
        "measured {} vs formula {formula}",
        t.bubble_ratio()
    );
}

#[test]
fn svpp_still_beats_dapple_below_p() {
    // The regime of Fig 8's GBS-32 column: few micro-batches per pipeline.
    let (p, n, s) = (8usize, 4usize, 4usize);
    let sv = Svpp::new().generate(&Dims::new(p, n).slices(s)).unwrap();
    let da = Dapple.generate(&Dims::new(p, n)).unwrap();
    let ts = simulate(&sv, &UnitCost::one_two(), &SimConfig::default()).unwrap();
    let td = simulate(
        &da,
        &UnitCost {
            fwd: s as f64,
            bwd: 2.0 * s as f64,
            wgrad: 0.0,
            ..UnitCost::ones()
        },
        &SimConfig::default(),
    )
    .unwrap();
    assert!(ts.makespan < td.makespan);
    // Memory: SVPP holds slice units, DAPPLE whole micro-batches.
    let frac_sv = peak_in_flight(&sv)[0] as f64 / (p * s) as f64;
    let frac_da = peak_in_flight(&da)[0] as f64 / p as f64;
    assert!(frac_sv < frac_da);
}

#[test]
fn memory_caps_at_batch_size_below_p() {
    // With n·s units total in flight at most, the large-cluster memory
    // column caps at n/p·A.
    let a = AnalysisParams {
        p: 16,
        v: 1,
        s: 2,
        n: 2,
    };
    let mem = analytic::svpp(a).memory_fraction.unwrap();
    assert!(mem <= 2.0 / 16.0 + 1e-12);
    let sch = Svpp::new().generate(&Dims::new(16, 2).slices(2)).unwrap();
    // Peak units / (p·s) must not exceed the analytic fraction.
    let frac = peak_in_flight(&sch)[0] as f64 / 32.0;
    assert!(frac <= mem + 1e-12, "generated {frac} vs analytic {mem}");
}
