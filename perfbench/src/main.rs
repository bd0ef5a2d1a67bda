//! The MEPipe reproduction's benchmark: one workload per run, chosen by
//! name, with inputs generated from `--seed`.
//!
//! ```text
//! perfbench --workload <train-inproc|job-uds|plan> --seed N --seconds S \
//!           --trace <0|1> --worker <path to mepipe-worker>
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics; with
//! `--trace 1` it runs the per-layer ladder instead: the named
//! workload's ladder for `S` seconds and the other two at minimal
//! length, so every per-layer metric is printed by every traced run.
//! The readable table comes first; the last line of standard output is
//! the JSON result. The exit code is 1 when a correctness gate failed.

mod host;
mod job;
mod plan;
mod report;
mod stats;
mod train;

use std::path::PathBuf;
use std::time::Instant;

use host::Host;
use report::Report;

const WORKLOADS: [&str; 3] = ["train-inproc", "job-uds", "plan"];

/// Budget, seconds, of the ladders a traced run measures besides its
/// own workload's.
const MIN_LADDER_S: f64 = 1.0;

/// SplitMix64 of `a` and `b`: the benchmark's only source of seeded
/// choices.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Calls `f` until `budget` seconds have passed and at least `min_reps`
/// calls were made; returns each call's seconds.
fn run_for(budget: f64, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--worker" => worker = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let worker = worker.ok_or("--worker is required")?;
    let worker = std::path::absolute(&worker).map_err(|e| format!("--worker: {e}"))?;
    if !worker.is_file() {
        return Err(format!("worker binary {} not found", worker.display()));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        worker,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, secs) = (args.seed, args.seconds);
    let mut rep = Report::default();
    if args.trace {
        let own = args.workload.as_str();
        let budget = |w: &str| if w == own { secs } else { MIN_LADDER_S };
        train::ladder(seed, budget("train-inproc"), &mut rep);
        job::ladder(&args.worker, seed, budget("job-uds"), &mut rep);
        plan::ladder(seed, own == "plan", &mut rep);
    } else {
        match args.workload.as_str() {
            "train-inproc" => train::run(seed, secs, &mut rep),
            "job-uds" => job::run(&args.worker, seed, secs, &mut rep),
            _ => plan::run(seed, secs, &mut rep),
        }
        let rss = rss_peak_mib();
        rep.named("rss_peak_mib", rss, "MiB", 1);
        rep.e2e("rss_peak_mib", rss, "MiB", 1);
    }
    let host = Host::probe();
    rep.print(
        &format!(
            "perfbench workload={} seed={seed} seconds={secs} trace={}",
            args.workload,
            u8::from(args.trace)
        ),
        &host,
        args.trace,
    );
    if !rep.correct() {
        std::process::exit(1);
    }
}
