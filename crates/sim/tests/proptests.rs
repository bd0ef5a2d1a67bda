//! Tests of the timing engine's memory semantics and dynamic
//! weight-gradient draining on baseline and SVPP-family schedules.

use proptest::prelude::*;

use mepipe_core::svpp::{Mepipe, Svpp, SvppConfig};
use mepipe_schedule::exec::{simulate, SimConfig, UnitCost};
use mepipe_schedule::generator::{Dapple, Dims, GPipe, ScheduleGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A memory limit equal to the unconstrained peak never triggers OOM
    /// or forced drains that change the outcome.
    #[test]
    fn exact_limit_is_feasible(p in 1usize..=6, n in 1usize..=8) {
        let sch = Dapple.generate(&Dims::new(p, n)).unwrap();
        let cost = UnitCost { act_bytes: 2.0, ..Default::default() };
        let free = simulate(&sch, &cost, &SimConfig::default()).unwrap();
        let peak = free.peak_activation_bytes.iter().copied().fold(0.0, f64::max);
        let capped = simulate(
            &sch,
            &cost,
            &SimConfig { memory_limit_bytes: Some(peak), ..Default::default() },
        )
        .unwrap();
        prop_assert!(capped.oom.is_none());
        prop_assert!((capped.makespan - free.makespan).abs() < 1e-9);
    }

    /// A limit below one unit always reports OOM on any non-trivial
    /// schedule.
    #[test]
    fn impossible_limit_always_ooms(p in 1usize..=5, n in 1usize..=6) {
        let sch = GPipe.generate(&Dims::new(p, n)).unwrap();
        let cost = UnitCost { act_bytes: 2.0, ..Default::default() };
        let r = simulate(
            &sch,
            &cost,
            &SimConfig { memory_limit_bytes: Some(1.0), ..Default::default() },
        )
        .unwrap();
        prop_assert!(r.oom.is_some());
    }

    /// With dynamic weight draining under a cap, the reported peak never
    /// exceeds cap + one unit (the admission that triggered the check).
    #[test]
    fn capped_peak_is_bounded(p in 2usize..=5, s in 1usize..=3, n in 2usize..=6) {
        let cfg = SvppConfig::new(p, s, n);
        let sch = Mepipe::new().generate(&Dims::new(p, n).slices(s)).unwrap();
        let cost = UnitCost { act_bytes: 1.0, wgrad_units: 4, ..Default::default() };
        let cap = (cfg.max_warmup() as f64) * 1.6; // Room for some retention.
        let r = simulate(
            &sch,
            &cost,
            &SimConfig {
                dynamic_wgrad: true,
                memory_limit_bytes: Some(cap),
            },
        )
        .unwrap();
        if r.oom.is_none() {
            let peak = r.peak_activation_bytes.iter().copied().fold(0.0, f64::max);
            prop_assert!(peak <= cap + 1.0 + 1e-9, "peak {} vs cap {}", peak, cap);
        }
    }

    /// SVPP variants admit a strictly tighter feasible cap than DAPPLE at
    /// the same problem size (the whole point of the paper).
    #[test]
    fn svpp_feasible_below_dapple_floor(p in 2usize..=5, n_extra in 0usize..=4) {
        let n = p + n_extra;
        let s = 4usize;
        // DAPPLE's stage-0 floor is p whole-micro-batch units of size s.
        let dapple = Dapple.generate(&Dims::new(p, n)).unwrap();
        let d_cost = UnitCost { act_bytes: s as f64, ..Default::default() };
        // A cap of (s + p - 1) slice units: below DAPPLE's p*s.
        let cap = (s + p - 1) as f64;
        let rd = simulate(
            &dapple,
            &d_cost,
            &SimConfig { memory_limit_bytes: Some(cap), ..Default::default() },
        )
        .unwrap();
        prop_assert!(rd.oom.is_some(), "DAPPLE should exceed {} units", cap);
        let svpp = Svpp::new()
            .warmup_cap(s + p - 1)
            .generate(&Dims::new(p, n).slices(s))
            .unwrap();
        let s_cost = UnitCost { act_bytes: 1.0, ..Default::default() };
        let rs = simulate(
            &svpp,
            &s_cost,
            &SimConfig { memory_limit_bytes: Some(cap), ..Default::default() },
        )
        .unwrap();
        prop_assert!(rs.oom.is_none(), "SVPP must fit {} slice units", cap);
    }
}

#[test]
fn finer_wgrad_units_fill_gaps_better() {
    let sch = Mepipe::new().generate(&Dims::new(4, 8).slices(2)).unwrap();
    let coarse = UnitCost {
        comm: 0.3,
        wgrad_units: 1,
        ..Default::default()
    };
    let fine = UnitCost {
        comm: 0.3,
        wgrad_units: 8,
        ..Default::default()
    };
    let conf = SimConfig {
        dynamic_wgrad: true,
        ..Default::default()
    };
    let rc = simulate(&sch, &coarse, &conf).unwrap();
    let rf = simulate(&sch, &fine, &conf).unwrap();
    assert!(
        rf.makespan <= rc.makespan + 1e-9,
        "fine {} vs coarse {}",
        rf.makespan,
        rc.makespan
    );
}

#[test]
fn svpp_fits_where_dapple_ooms() {
    let p = 4;
    let n = 8;
    // Budget of 6 slice units at s=4: DAPPLE needs p whole units = 16.
    let limit = 6.0;
    let da = Dapple.generate(&Dims::new(p, n)).unwrap();
    let da_cost = UnitCost {
        act_bytes: 4.0,
        ..Default::default()
    };
    let conf = SimConfig {
        memory_limit_bytes: Some(limit),
        ..Default::default()
    };
    let rd = simulate(&da, &da_cost, &conf).unwrap();
    assert!(rd.oom.is_some());
    // The SVPP variant with warmup budget f = 6 fits the 6-unit cap
    // (Section 4.2's memory-for-bubbles trade).
    let sv = Svpp::new()
        .warmup_cap(6)
        .generate(&Dims::new(p, n).slices(4))
        .unwrap();
    let sv_cost = UnitCost {
        act_bytes: 1.0,
        ..Default::default()
    };
    let rs = simulate(&sv, &sv_cost, &conf).unwrap();
    assert!(rs.oom.is_none(), "peaks: {:?}", rs.peak_activation_bytes);
}
