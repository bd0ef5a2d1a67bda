//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments            # run every paper experiment
//! experiments fig8 tab9  # run a subset
//! experiments digest     # run an on-request diagnostic
//! experiments --list     # list experiment ids
//! ```
//!
//! Reports print to stdout and are written under `target/experiments/` as
//! `.txt` and `.json`.

use mepipe_bench::{experiments, write_report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = experiments::all();
    let on_request = experiments::on_request();
    if args.iter().any(|a| a == "--list") {
        for (id, _) in all.iter().chain(&on_request) {
            println!("{id}");
        }
        return;
    }
    let selected: Vec<&mepipe_bench::experiments::Experiment> = if args.is_empty() {
        all.iter().collect()
    } else {
        let sel: Vec<_> = all
            .iter()
            .chain(&on_request)
            .filter(|(id, _)| args.iter().any(|a| a == id))
            .collect();
        if sel.is_empty() {
            eprintln!("no experiment matches {args:?}; try --list");
            std::process::exit(2);
        }
        sel
    };
    for (id, run) in selected {
        let t0 = std::time::Instant::now();
        let report = run();
        println!("{}", report.render());
        if let Some(path) = write_report(&report) {
            println!(
                "[{id} done in {:.1?}; written to {}]\n",
                t0.elapsed(),
                path.display()
            );
        } else {
            println!("[{id} done in {:.1?}]\n", t0.elapsed());
        }
    }
}
