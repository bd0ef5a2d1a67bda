//! Render every scheduling method side by side on the same small problem
//! (the paper's Figures 2–4 in one view) and compare bubble ratios and
//! peak in-flight activations.
//!
//! ```sh
//! cargo run --release --example compare_schedules
//! ```

use mepipe::schedule::{
    exec::{simulate, SimConfig, UnitCost},
    generator::{Dapple, GPipe, TeraPipe},
    render::render,
    validate::{peak_in_flight, validate},
    Schedule,
};
use mepipe::{Dims, ScheduleGenerator, Svpp};

fn show(name: &str, schedule: &Schedule, cost: &UnitCost, unit_fraction: usize) {
    validate(schedule).expect("schedule must validate");
    let t = simulate(schedule, cost, &SimConfig::default()).expect("schedule must execute");
    println!("=== {name} ===");
    println!("{}", render(schedule, cost).expect("renderable"));
    let peaks = peak_in_flight(schedule);
    println!(
        "bubble {:.1}%  makespan {}  stage-0 peak {} units of A/{unit_fraction} = {:.3}A\n",
        t.bubble_ratio() * 100.0,
        t.makespan,
        peaks[0],
        peaks[0] as f64 / unit_fraction as f64,
    );
}

fn main() {
    let (p, n, s) = (4usize, 4usize, 2usize);

    // Whole-micro-batch methods: one unit = A/p of activations; a forward
    // over a whole micro-batch takes `s` ticks of slice work.
    let coarse = UnitCost {
        fwd: s as f64,
        bwd: 2.0 * s as f64,
        wgrad: 0.0,
        ..UnitCost::ones()
    };
    show(
        "GPipe",
        &GPipe.generate(&Dims::new(p, n)).unwrap(),
        &coarse,
        p,
    );
    show(
        "DAPPLE (1F1B)",
        &Dapple.generate(&Dims::new(p, n)).unwrap(),
        &coarse,
        p,
    );

    // Slice-level methods: one unit = A/(p·s).
    let fine = UnitCost::one_two();
    show(
        "TeraPipe",
        &TeraPipe.generate(&Dims::new(p, n).slices(s)).unwrap(),
        &fine,
        p * s,
    );
    show(
        "SVPP (MEPipe), v=1",
        &Svpp::new().generate(&Dims::new(p, n).slices(s)).unwrap(),
        &fine,
        p * s,
    );
    show(
        "SVPP (MEPipe), v=2",
        &Svpp::new()
            .generate(&Dims::new(p, n).virtual_chunks(2).slices(s))
            .unwrap(),
        &fine,
        p * s * 2,
    );
    println!(
        "Tokens: F=forward B=backward; letter = micro-batch (capitals = 2nd chunk); digit = slice."
    );
}
