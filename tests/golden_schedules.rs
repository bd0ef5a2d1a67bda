//! Golden snapshot tests: the exact timelines of the paper's figure
//! schedules, pinned so that any change to the generators or the executor
//! is a *visible* diff, never a silent one.
//!
//! Generation is deterministic (property-tested), so these snapshots are
//! stable. To refresh after an intentional change, run
//! `cargo run --release -p mepipe-bench --bin experiments fig2 fig4`
//! and paste the new timelines.

use mepipe::schedule::{exec::UnitCost, render::render};
use mepipe::{Dims, ScheduleGenerator, Svpp};

#[test]
fn figure2_dapple_golden() {
    let sch = mepipe::schedule::generator::Dapple
        .generate(&Dims::new(4, 4))
        .unwrap();
    let got = render(&sch, &UnitCost::one_two()).unwrap();
    let want = "\
stage 0: Fa0 Fb0 Fc0 Fd0 ... ... ... ... ... ... Ba0 Ba0 ... Bb0 Bb0 ... Bc0 Bc0 ... Bd0 Bd0
stage 1: ... Fa0 Fb0 Fc0 ... ... ... ... Ba0 Ba0 Fd0 Bb0 Bb0 ... Bc0 Bc0 ... Bd0 Bd0 ... ...
stage 2: ... ... Fa0 Fb0 ... ... Ba0 Ba0 Fc0 Bb0 Bb0 Fd0 Bc0 Bc0 ... Bd0 Bd0 ... ... ... ...
stage 3: ... ... ... Fa0 Ba0 Ba0 Fb0 Bb0 Bb0 Fc0 Bc0 Bc0 Fd0 Bd0 Bd0 ... ... ... ... ... ...
";
    assert_eq!(got, want, "DAPPLE timeline drifted:\n{got}");
}

#[test]
fn figure4a_svpp_golden() {
    let sch = Svpp::new().generate(&Dims::new(4, 4).slices(2)).unwrap();
    let got = render(&sch, &UnitCost::ones()).unwrap();
    let want = "\
stage 0: Fa0 Fa1 Fb0 Fb1 Fc0 ... ... ... Ba1 Fc1 Ba0 Fd0 Bb1 Fd1 Bb0 ... Bc1 ... Bc0 ... Bd1 Bd0
stage 1: ... Fa0 Fa1 Fb0 Fb1 ... ... Ba1 Fc0 Ba0 Fc1 Bb1 Fd0 Bb0 Fd1 Bc1 ... Bc0 ... Bd1 Bd0 ...
stage 2: ... ... Fa0 Fa1 Fb0 ... Ba1 Fb1 Ba0 Fc0 Bb1 Fc1 Bb0 Fd0 Bc1 Fd1 Bc0 ... Bd1 Bd0 ... ...
stage 3: ... ... ... Fa0 Fa1 Ba1 Fb0 Ba0 Fb1 Bb1 Fc0 Bb0 Fc1 Bc1 Fd0 Bc0 Fd1 Bd1 Bd0 ... ... ...
";
    assert_eq!(got, want, "SVPP v=1 timeline drifted:\n{got}");
}

#[test]
fn figure4a_structure_invariants() {
    // Independent of the exact snapshot: the last stage runs pure
    // slice-level 1F1B after its two-slice warmup, and every stage's
    // backwards run slices in reverse order per micro-batch.
    let sch = Svpp::new().generate(&Dims::new(4, 4).slices(2)).unwrap();
    use mepipe::schedule::ir::OpKind;
    for ops in &sch.workers {
        for mb in 0..4 {
            let b1 = ops
                .iter()
                .position(|o| o.kind == OpKind::Backward && o.micro_batch == mb && o.slice == 1)
                .unwrap();
            let b0 = ops
                .iter()
                .position(|o| o.kind == OpKind::Backward && o.micro_batch == mb && o.slice == 0)
                .unwrap();
            assert!(b1 < b0, "mb {mb}: slice-1 backward must precede slice-0");
        }
    }
}

#[test]
fn synth_order_search_golden() {
    // Pins the solver end to end: the warmup-sweep seed and the beam's
    // order search (which improves this shape's seed under the default
    // 1F/2B costs), rendered at unit cost.
    let sch = mepipe::core::Synth::new()
        .generate(&Dims::new(4, 4).slices(2))
        .unwrap();
    let got = render(&sch, &UnitCost::ones()).unwrap();
    let want = "\
stage 0: Fa0 Fa1 Fb0 Fb1 Fc0 ... ... ... ba1 ba0 Fc1 Fd0 Wa1 bb1 bb0 Fd1 Wa0 Wb1 bc1 Wb0 bc0 Wc1 bd1 bd0 Wc0 Wd1 Wd0
stage 1: ... Fa0 Fa1 Fb0 Fb1 ... ... ba1 ba0 Fc0 Wa1 Fc1 bb1 bb0 Fd0 Wa0 Fd1 bc1 Wb1 bc0 Wb0 bd1 bd0 Wc1 Wc0 Wd1 Wd0
stage 2: ... ... Fa0 Fa1 Fb0 ... ba1 ba0 Fb1 Wa1 Fc0 bb1 bb0 Fc1 Wa0 Fd0 bc1 Fd1 bc0 Wb1 bd1 bd0 Wb0 Wc1 Wc0 Wd1 Wd0
stage 3: ... ... ... Fa0 Fa1 ba1 ba0 Fb0 Wa1 Fb1 bb1 bb0 Fc0 Wa0 Fc1 bc1 bc0 Fd0 Fd1 bd1 bd0 Wb1 Wb0 Wc1 Wc0 Wd1 Wd0
";
    assert_eq!(got, want, "Synth timeline drifted:\n{got}");
}

#[test]
fn rescheduled_svpp_v2_golden() {
    // Pins the Section 4.3 backward rescheduling on a v=2 SVPP schedule
    // whose tail bubbles it removes (46 -> 40 ticks at unit cost).
    let sch = Svpp::new()
        .warmup_cap(5)
        .generate(&Dims::new(4, 4).virtual_chunks(2))
        .unwrap();
    let r = mepipe::core::reschedule::reschedule_backwards(&sch).unwrap();
    let got = render(&r, &UnitCost::ones()).unwrap();
    let want = "\
stage 0: Fa0 Fb0 ... ... FA0 Fc0 ... ... ... ... ... BA0 FB0 ... ... Ba0 Fd0 ... ... BB0 FC0 ... ... Bb0 ... ... ... BC0 FD0 ... ... Bc0 ... ... ... BD0 ... ... ... Bd0
stage 1: ... Fa0 Fb0 ... ... FA0 ... ... ... ... BA0 ... ... FB0 Ba0 Fc0 ... ... BB0 ... ... FC0 Bb0 Fd0 ... ... BC0 ... ... FD0 Bc0 ... ... ... BD0 ... ... ... Bd0 ...
stage 2: ... ... Fa0 ... ... ... FA0 ... ... BA0 Fb0 ... ... Ba0 FB0 ... ... BB0 Fc0 ... ... Bb0 FC0 ... ... BC0 Fd0 ... ... Bc0 FD0 ... ... BD0 ... ... ... Bd0 ... ...
stage 3: ... ... ... Fa0 ... ... ... FA0 BA0 ... ... Fb0 Ba0 ... ... FB0 BB0 ... ... Fc0 Bb0 ... ... FC0 BC0 ... ... Fd0 Bc0 ... ... FD0 BD0 ... ... ... Bd0 ... ... ...
";
    assert_eq!(got, want, "rescheduled SVPP v=2 timeline drifted:\n{got}");
}
