//! `mepipe` — command-line front end to the MEPipe toolkit.
//!
//! ```text
//! mepipe schedule --method svpp -p 4 -s 2 -n 4 --render
//! mepipe simulate --model 13b --gbs 128 --pp 8 --spp 4 --dp 8 [--trace t.json]
//! mepipe search   --model 13b --gbs 128 [--cluster a100] [--verbose]
//! mepipe analyze  -p 8 -v 2 -s 4 -n 16
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use mepipe::core::analytic::{table3, AnalysisParams};
use mepipe::hw::topology::ClusterSpec;
use mepipe::model::{
    config::TransformerConfig,
    cost::ExecutionCost,
    memory,
    partition::{PartitionSpec, SequenceSplit},
};
use mepipe::schedule::{
    exec::{simulate, SimConfig, UnitCost},
    generator::{self, ScheduleGenerator},
    render::render,
    stats::message_stats,
    validate::{peak_in_flight, validate},
    Schedule,
};
use mepipe::sim::{metrics, ModelCost};
use mepipe::strategy::{search_all, search_verbose, Method, ScheduleSpec};
use mepipe::trace::chrome::{traces_to_chrome, PidKey};
use mepipe::{Dims, Mepipe, Svpp};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = parse_flags(rest);
    let result = match cmd.as_str() {
        "schedule" => cmd_schedule(&flags),
        "simulate" => cmd_simulate(&flags),
        "search" => cmd_search(&flags),
        "analyze" => cmd_analyze(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "mepipe — slice-level pipeline scheduling toolkit

USAGE:
  mepipe schedule --method <svpp|dapple|gpipe|terapipe|vpp|zb|zbv|hanayo|dualpipe|blocks|synth>
                  -p <stages> [-v <chunks>] [-s <slices>] -n <micro-batches>
                  [-f <warmup>] [--split] [--render]
  mepipe simulate --model <7b|13b|34b> --gbs <N> --pp <N> --dp <N>
                  [--spp <N> | --cp <N>] [--vp <N>] [--recompute]
                  [--cluster <4090|a100>] [--trace <file.json>]
  mepipe search   --model <7b|13b|34b> --gbs <N> [--cluster <4090|a100>] [--verbose]
  mepipe analyze  -p <stages> [-v <chunks>] [-s <slices>] -n <micro-batches>";

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            let value = args.get(i + 1).filter(|v| !v.starts_with('-'));
            match value {
                Some(v) => {
                    out.insert(key.to_string(), v.clone());
                    i += 2;
                }
                None => {
                    out.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

fn usize_flag(
    flags: &HashMap<String, String>,
    key: &str,
    default: Option<usize>,
) -> Result<usize, String> {
    match flags.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects a number, got `{v}`")),
        None => default.ok_or_else(|| format!("missing required flag --{key}")),
    }
}

fn model_flag(flags: &HashMap<String, String>) -> Result<TransformerConfig, String> {
    match flags.get("model").map(String::as_str) {
        Some("7b") => Ok(TransformerConfig::llama2_7b()),
        Some("13b") | None => Ok(TransformerConfig::llama2_13b()),
        Some("34b") => Ok(TransformerConfig::llama2_34b()),
        Some(other) => Err(format!("unknown model `{other}` (7b|13b|34b)")),
    }
}

fn cluster_flag(flags: &HashMap<String, String>) -> Result<ClusterSpec, String> {
    match flags.get("cluster").map(String::as_str) {
        Some("a100") => Ok(ClusterSpec::a100_cluster()),
        Some("4090") | None => Ok(ClusterSpec::rtx4090_cluster()),
        Some(other) => Err(format!("unknown cluster `{other}` (4090|a100)")),
    }
}

fn cmd_schedule(flags: &HashMap<String, String>) -> Result<(), String> {
    let p = usize_flag(flags, "p", None)?;
    let v = usize_flag(flags, "v", Some(1))?;
    let s = usize_flag(flags, "s", Some(1))?;
    let n = usize_flag(flags, "n", None)?;
    let method = flags.get("method").map(String::as_str).unwrap_or("svpp");
    let dims = Dims::new(p, n).virtual_chunks(v).slices(s);
    let warmup: Option<usize> = flags
        .get("f")
        .map(|x| x.parse().map_err(|_| "bad --f"))
        .transpose()?;
    let interleaved = dims.virtual_chunks(v.max(2));
    // `Method`'s families build through the one recipe; only the
    // generators outside `Method` keep their own arms.
    let schedule: Schedule = match method {
        "svpp" | "mepipe" if flags.contains_key("split") => ScheduleSpec {
            warmup,
            ..ScheduleSpec::new(Method::Mepipe, dims)
        }
        .generate()?,
        "svpp" | "mepipe" => Svpp { warmup }.generate(&dims)?,
        "gpipe" => generator::GPipe.generate(&dims)?,
        "terapipe" => generator::TeraPipe.generate(&dims)?,
        "hanayo" => generator::Hanayo.generate(&interleaved)?,
        other => {
            let m = Method::from_name(other).ok_or_else(|| format!("unknown method `{other}`"))?;
            let dims = if m == Method::Vpp { interleaved } else { dims };
            ScheduleSpec {
                warmup,
                ..ScheduleSpec::new(m, dims)
            }
            .generate()?
        }
    };
    validate(&schedule)?;
    let t = simulate(&schedule, &UnitCost::ones(), &SimConfig::default())?;
    let peaks = peak_in_flight(&schedule);
    let msgs = message_stats(&schedule);
    println!(
        "{}: {} workers x {} ops; bubble {:.1}% (unit costs); stage-0 peak {} units; {} boundary messages",
        schedule.meta.name,
        schedule.num_workers(),
        schedule.workers[0].len(),
        t.bubble_ratio() * 100.0,
        peaks[0],
        msgs.total(),
    );
    if flags.contains_key("render") {
        println!("{}", render(&schedule, &UnitCost::ones())?);
    }
    Ok(())
}

fn spec_from_flags(
    flags: &HashMap<String, String>,
    devices: usize,
) -> Result<PartitionSpec, String> {
    let pp = usize_flag(flags, "pp", None)?;
    let dp = usize_flag(flags, "dp", None)?;
    let vp = usize_flag(flags, "vp", Some(1))?;
    let gbs = usize_flag(flags, "gbs", None)?;
    let seq = match (flags.get("spp"), flags.get("cp")) {
        (Some(_), Some(_)) => return Err("--spp and --cp are mutually exclusive".into()),
        (Some(s), None) => SequenceSplit::SlicePipeline {
            slices: s.parse().map_err(|_| "bad --spp")?,
        },
        (None, Some(c)) => SequenceSplit::Context {
            size: c.parse().map_err(|_| "bad --cp")?,
        },
        (None, None) => SequenceSplit::None,
    };
    let spec = PartitionSpec {
        pp,
        vp,
        dp,
        seq,
        recompute: flags.contains_key("recompute"),
        micro_batch_size: 1,
        global_batch: gbs,
    };
    let _ = devices;
    Ok(spec)
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_flag(flags)?;
    let cluster = cluster_flag(flags)?;
    let spec = spec_from_flags(flags, cluster.num_devices())?;
    spec.validate(&model, cluster.num_devices())?;
    let dims = Dims::new(spec.pp, spec.micro_batches())
        .virtual_chunks(spec.vp)
        .slices(spec.seq.spp_slices());
    let schedule = Mepipe::new().generate(&dims)?;
    let cost = ModelCost::new(ExecutionCost::new(model, spec, &cluster)?);
    let budget =
        memory::activation_budget_bytes(&model, &spec, cluster.accelerator.usable_memory_bytes());
    let r = simulate(
        &schedule,
        &cost,
        &SimConfig {
            dynamic_wgrad: true,
            memory_limit_bytes: Some(budget),
        },
    )?;
    if let Some((w, bytes)) = r.oom {
        return Err(format!(
            "OOM: worker {w} needs {:.1} GiB of activations (budget {:.1} GiB)",
            bytes / 1024f64.powi(3),
            budget / 1024f64.powi(3)
        ));
    }
    println!("iteration time : {:.0} ms", r.iteration_time * 1e3);
    println!("bubble ratio   : {:.1}%", r.bubble_ratio() * 100.0);
    println!(
        "peak activation: {:.2} GiB",
        r.peak_activation_bytes.iter().copied().fold(0.0, f64::max) / 1024f64.powi(3)
    );
    println!(
        "MFU            : {:.1}%",
        metrics::mfu(&r, cost.execution_cost()) * 100.0
    );
    if let Some(path) = flags.get("trace") {
        std::fs::write(path, traces_to_chrome(&r.trace, PidKey::Replica))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("chrome trace   : {path} (open in chrome://tracing)");
    }
    Ok(())
}

fn cmd_search(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = model_flag(flags)?;
    let cluster = cluster_flag(flags)?;
    let gbs = usize_flag(flags, "gbs", Some(128))?;
    if flags.contains_key("verbose") {
        for m in Method::all() {
            println!("== {} ==", m.name());
            for (c, e) in search_verbose(m, &model, &cluster, gbs) {
                match e {
                    Ok(e) => println!(
                        "  {:<18} {:>8.0} ms  bubble {:>5.1}%  MFU {:>5.1}%",
                        c.label(),
                        e.iteration_time * 1e3,
                        e.bubble_ratio * 100.0,
                        e.mfu * 100.0
                    ),
                    Err(why) => println!("  {:<18} infeasible: {why}", c.label()),
                }
            }
        }
        return Ok(());
    }
    for (m, e) in search_all(&model, &cluster, gbs) {
        match e {
            Some(e) => println!(
                "{:<8} {:>8.0} ms  {:<16}  bubble {:>5.1}%  MFU {:>5.1}%",
                m.name(),
                e.iteration_time * 1e3,
                e.candidate.label(),
                e.bubble_ratio * 100.0,
                e.mfu * 100.0
            ),
            None => println!("{:<8} infeasible", m.name()),
        }
    }
    Ok(())
}

fn cmd_analyze(flags: &HashMap<String, String>) -> Result<(), String> {
    let a = AnalysisParams {
        p: usize_flag(flags, "p", None)?,
        v: usize_flag(flags, "v", Some(1))?,
        s: usize_flag(flags, "s", Some(1))?,
        n: usize_flag(flags, "n", None)?,
    };
    println!(
        "Table 3 closed forms at p={}, v={}, s={}, n={}:",
        a.p, a.v, a.s, a.n
    );
    println!("{:<12} {:>12} {:>12}", "method", "bubble", "memory (A)");
    for row in table3(a) {
        let fmt = |x: Option<f64>| x.map_or("-".into(), |v| format!("{v:.3}"));
        println!(
            "{:<12} {:>12} {:>12}",
            row.method,
            fmt(row.bubble_ratio),
            fmt(row.memory_fraction)
        );
    }
    Ok(())
}
