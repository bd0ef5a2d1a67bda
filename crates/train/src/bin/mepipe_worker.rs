//! `mepipe-worker`: run pipeline stages as separate OS processes.
//!
//! Each worker process initialises the same model and batch from shared
//! seeds, claims its stage's endpoint on a Unix-domain-socket mesh, and
//! executes exactly its rows of the schedule; boundary tensors cross
//! process boundaries as checksummed wire frames. Because every byte a
//! stage consumes is identical to what the in-process runtime would have
//! handed it, the final loss is bit-identical to a single-process run —
//! which `launch` verifies, and `scripts/check.sh` smokes.
//!
//! Modes:
//!
//! * `worker --stage I --stages P --dir D [opts]` — run one stage,
//!   print its loss share as f64 bits. With `--trace-out F` the stage
//!   records measured spans and dumps them to `F` as a line-oriented
//!   text file (epoch-stamped, so a launcher can merge processes).
//! * `job --stage I --stages P --dir D --iters T [opts]` — run one
//!   stage for many iterations under a supervisor (`mepipe-ctl`): a
//!   fresh UDS mesh per iteration under `D/iter-K`, an SGD step after
//!   every iteration, an appended `--progress` line per iteration (the
//!   supervisor's heartbeat and loss feed), an atomic per-stage
//!   checkpoint every `--ckpt-interval` iterations into `--ckpt-dir`,
//!   `--restore-from F` to resume a checkpointed model at
//!   `--start-iter K`, and `--kill-at-iter M` to abort the process at
//!   the start of iteration M — the chaos knob the control plane's
//!   fault-injection layer drives.
//! * `launch --stages P [opts]` — spawn P workers over a fresh UDS
//!   mesh, combine their loss shares in stage order, and compare
//!   bit-for-bit against an in-process run of the same iteration. With
//!   `--trace-out F` every worker traces; the launcher merges the
//!   per-process dumps onto one time axis (clock-anchor epochs) and
//!   writes a single Chrome/Perfetto JSON to `F`, validated to hold one
//!   compute track per stage. `--metrics-out F` writes the reference
//!   run's metrics registry (`.prom` extension selects Prometheus text,
//!   anything else JSON). `--codec {f32,bf16,lossy}` selects the wire
//!   codec on every link; the in-process reference applies the same
//!   codec, so the bit-identity check holds for lossy codecs too.
//!   `--schedule {mepipe,dualpipe,blocks,synth}` picks the schedule
//!   family every process regenerates from flags — `dualpipe` runs the
//!   bidirectional two-stream schedule (stage 0 and stage P−1 both act
//!   as entry and loss stages), `synth` the per-worker order solver.
//! * `autotune --rounds R --calibrate-iters N [opts]` — the closed
//!   calibration loop: R fit cycles of N traced mesh iterations each,
//!   merging every round's per-process span dumps, scoring the model in
//!   force against the measurement, and refitting from the pooled
//!   samples. Asserts the round-by-round mean relative error strictly
//!   decreases, then re-searches the hot-swap-compatible schedule space
//!   under the fitted costs and — when a different shape wins — runs one
//!   mesh iteration under the swapped schedule (regenerated from
//!   `--slices/--warmup/--reschedule` flags by every worker) and checks
//!   its loss bit-identical to in-process.
//! * `trace-report [opts]` — the full measured-vs-modeled loop in one
//!   command: run one traced iteration in-process, profile the same
//!   model, simulate the same schedule, and write measured trace,
//!   simulated trace, bubble-attribution report, measured-vs-modeled
//!   bubblecheck, and metrics (JSON + Prometheus) into `--out DIR`.
//!   Asserts the traced loss is bit-identical to an untraced run and
//!   that the trace's busy time reconciles with the runtime's busy/idle
//!   counters.
//! * `memcheck [opts]` — measured-vs-modeled activation memory: a
//!   1-micro-batch probe run prices one in-flight unit per stage, then
//!   the full schedule runs on live tensors and the per-stage peaks are
//!   reconciled against `peak_in_flight × unit` — the paper's linear
//!   in-flight scaling claim, asserted to land inside the warning band.
//!   Also lints every exported metric name against the Prometheus
//!   grammar.
//! * `http-get ADDR [PATH]` — dependency-free scrape client for the
//!   observability endpoints (`mepipe-ctl serve --http`, `job --http`):
//!   prints the response body, exits 0 only on HTTP 200.
//!
//! `job` grows two observability flags: `--http ADDR` mounts a
//! per-stage HTTP exporter (`/metrics` with iteration-latency
//! histograms, `/status` with p50/p99, `/healthz`), and
//! `--postmortem F` arms the flight recorder — on a chaos abort or a
//! stage-run failure the last events, open spans and a metrics snapshot
//! land in `F` before the process dies.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use mepipe_comm::{CodecId, CommConfig, SocketMode, SocketTransport, Transport, TransportConfig};
use mepipe_core::reschedule::reschedule_backwards;
use mepipe_core::svpp::Mepipe;
use mepipe_core::Synth;
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::exec::{simulate, SimConfig};
use mepipe_schedule::generator::{Dims, ScheduleGenerator};
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::validate::peak_in_flight;
use mepipe_schedule::{Blocks, DualPipe};
use mepipe_sim::memcheck::{vm_hwm_bytes, MemCheckReport, StageMemCheck};
use mepipe_sim::{to_chrome_trace, BubbleCheckReport, RATIO_WARN_HI, RATIO_WARN_LO};
use mepipe_tensor::init::synthetic_tokens;
use mepipe_trace::{
    bubble, chrome::traces_to_chrome, dump, http_get, EventLog, HttpExporter, IterationTrace,
    Level, MetricsRegistry, PidKey,
};
use mepipe_train::{
    calibrate::Calibrator, checkpoint, data::batch_for_iter, metrics::run_metrics, optim::Sgd,
    params::ModelParams, profiler::profile_chunk, PipelineRuntime, WgradMode,
};

/// Which schedule family the scenario regenerates from flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScheduleKind {
    /// Hand-written SVPP with split backward (the default).
    Mepipe,
    /// Bidirectional two-stream scheduling (`--schedule dualpipe`).
    DualPipe,
    /// Controllable-memory building blocks (`--schedule blocks`).
    Blocks,
    /// The per-worker order solver (`--schedule synth`).
    Synth,
}

impl ScheduleKind {
    fn name(self) -> &'static str {
        match self {
            ScheduleKind::Mepipe => "mepipe",
            ScheduleKind::DualPipe => "dualpipe",
            ScheduleKind::Blocks => "blocks",
            ScheduleKind::Synth => "synth",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "mepipe" => Some(Self::Mepipe),
            "dualpipe" => Some(Self::DualPipe),
            "blocks" => Some(Self::Blocks),
            "synth" => Some(Self::Synth),
            _ => None,
        }
    }
}

/// The deterministic scenario every process reconstructs from flags.
#[derive(Debug, Clone)]
struct Scenario {
    stages: usize,
    micro_batches: usize,
    slices: usize,
    seq_len: usize,
    layers: usize,
    seed: u64,
    mode: WgradMode,
    codec: CodecId,
    /// Schedule family to regenerate (`--schedule`).
    schedule: ScheduleKind,
    /// The family's memory knob (`None` = generator default): SVPP/
    /// DualPipe warmup cap, Blocks lifespan, solver unit cap. Set by the
    /// autotuner so spawned workers regenerate its chosen schedule.
    warmup: Option<usize>,
    /// Apply the backward-rescheduling polish after generation
    /// (deterministic, so every process computes the same schedule).
    reschedule: bool,
}

impl Scenario {
    fn schedule(&self) -> Schedule {
        let dims = Dims::new(self.stages, self.micro_batches).slices(self.slices);
        let sch = match self.schedule {
            ScheduleKind::Mepipe => {
                let mut gen = Mepipe::new();
                if let Some(f) = self.warmup {
                    gen = gen.warmup_cap(f);
                }
                gen.generate(&dims)
            }
            ScheduleKind::DualPipe => {
                let mut gen = DualPipe::new();
                if let Some(f) = self.warmup {
                    gen = gen.warmup_cap(f);
                }
                gen.generate(&dims.virtual_chunks(2))
            }
            ScheduleKind::Blocks => {
                let mut gen = Blocks::uniform();
                if let Some(k) = self.warmup {
                    gen = gen.lifespan(k);
                }
                gen.generate(&dims)
            }
            // The solver prices with its default deterministic costs, so
            // every process derives the identical op order from flags.
            ScheduleKind::Synth => {
                let mut gen = Synth::new();
                if let Some(c) = self.warmup {
                    gen = gen.cap(c);
                }
                gen.generate(&dims)
            }
        }
        .expect("schedule generation");
        if self.reschedule {
            assert_ne!(
                self.schedule,
                ScheduleKind::DualPipe,
                "--reschedule is not defined for bidirectional schedules"
            );
            reschedule_backwards(&sch).expect("backward rescheduling")
        } else {
            sch
        }
    }

    fn config(&self) -> TransformerConfig {
        TransformerConfig {
            seq_len: self.seq_len,
            ..TransformerConfig::tiny(self.layers)
        }
    }

    fn virtual_chunks(&self) -> usize {
        if self.schedule == ScheduleKind::DualPipe {
            2
        } else {
            1
        }
    }

    fn runtime(&self) -> PipelineRuntime {
        self.runtime_from(ModelParams::init(self.config(), self.seed))
    }

    /// A runtime around an existing model (a restored checkpoint) with
    /// this scenario's pipeline shape.
    fn runtime_from(&self, model: ModelParams) -> PipelineRuntime {
        PipelineRuntime::new(model, self.stages, self.virtual_chunks())
    }

    fn batch(&self) -> Vec<Vec<usize>> {
        let cfg = self.config();
        (0..self.micro_batches)
            .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, self.seed + 1000 + i as u64))
            .collect()
    }

    fn as_args(&self) -> Vec<String> {
        let mut args = vec![
            "--stages".into(),
            self.stages.to_string(),
            "--micro-batches".into(),
            self.micro_batches.to_string(),
            "--slices".into(),
            self.slices.to_string(),
            "--seq-len".into(),
            self.seq_len.to_string(),
            "--layers".into(),
            self.layers.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--mode".into(),
            match self.mode {
                WgradMode::Immediate => "immediate".into(),
                WgradMode::AtWeightOp => "at-weight-op".into(),
                WgradMode::DrainOnWait => "drain".into(),
            },
            "--codec".into(),
            self.codec.name().into(),
            "--schedule".into(),
            self.schedule.name().into(),
        ];
        if let Some(f) = self.warmup {
            args.push("--warmup".into());
            args.push(f.to_string());
        }
        if self.reschedule {
            args.push("--reschedule".into());
        }
        args
    }
}

struct Args {
    scenario: Scenario,
    stage: Option<usize>,
    dir: PathBuf,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    out: PathBuf,
    /// Calibration fit cycles for `autotune`.
    rounds: usize,
    /// Traced mesh iterations per calibration round.
    calibrate_iters: usize,
    /// `job`: target iteration count (exclusive upper bound).
    iters: usize,
    /// `job`: first iteration to run (the restore point).
    start_iter: usize,
    /// `job`: checkpoint every this many completed iterations (0 = never).
    ckpt_interval: usize,
    /// `job`: directory receiving `stage-I/iter-N.bin` checkpoints.
    ckpt_dir: Option<PathBuf>,
    /// `job`: file receiving one appended line per completed iteration.
    progress: Option<PathBuf>,
    /// `job`: checkpoint file to restore the model from before running.
    restore_from: Option<PathBuf>,
    /// `job`: abort the process at the start of this iteration (chaos).
    kill_at_iter: Option<usize>,
    /// `job`: SGD learning rate.
    lr: f32,
    /// `launch`: spawn this stage with `--kill-at-iter 0` so it aborts
    /// immediately — a deterministic straggler for testing that the
    /// launcher reaps a broken gang instead of hanging.
    chaos_stage: Option<usize>,
    /// `job`: TCP address for the per-stage HTTP observability endpoint.
    http: Option<String>,
    /// `job`: flight-recorder postmortem file, written on abort/failure.
    postmortem: Option<PathBuf>,
}

fn parse_args(rest: &[String]) -> Args {
    let mut scenario = Scenario {
        stages: 4,
        micro_batches: 4,
        slices: 4,
        seq_len: 32,
        layers: 4,
        seed: 7,
        mode: WgradMode::DrainOnWait,
        codec: CodecId::F32,
        schedule: ScheduleKind::Mepipe,
        warmup: None,
        reschedule: false,
    };
    let mut stage = None;
    let mut dir = std::env::temp_dir().join(format!("mepipe-mesh-{}", std::process::id()));
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut out = PathBuf::from("target/trace-report");
    let mut rounds = 2usize;
    let mut calibrate_iters = 1usize;
    let mut iters = 1usize;
    let mut start_iter = 0usize;
    let mut ckpt_interval = 0usize;
    let mut ckpt_dir = None;
    let mut progress = None;
    let mut restore_from = None;
    let mut kill_at_iter = None;
    let mut lr = 0.1f32;
    let mut chaos_stage = None;
    let mut http = None;
    let mut postmortem = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
                .clone()
        };
        match flag.as_str() {
            "--stage" => stage = Some(value().parse().expect("--stage")),
            "--stages" => scenario.stages = value().parse().expect("--stages"),
            "--micro-batches" => scenario.micro_batches = value().parse().expect("--micro-batches"),
            "--slices" => scenario.slices = value().parse().expect("--slices"),
            "--seq-len" => scenario.seq_len = value().parse().expect("--seq-len"),
            "--layers" => scenario.layers = value().parse().expect("--layers"),
            "--seed" => scenario.seed = value().parse().expect("--seed"),
            "--warmup" => scenario.warmup = Some(value().parse().expect("--warmup")),
            "--reschedule" => scenario.reschedule = true,
            "--rounds" => rounds = value().parse().expect("--rounds"),
            "--calibrate-iters" => calibrate_iters = value().parse().expect("--calibrate-iters"),
            "--iters" => iters = value().parse().expect("--iters"),
            "--start-iter" => start_iter = value().parse().expect("--start-iter"),
            "--ckpt-interval" => ckpt_interval = value().parse().expect("--ckpt-interval"),
            "--ckpt-dir" => ckpt_dir = Some(PathBuf::from(value())),
            "--progress" => progress = Some(PathBuf::from(value())),
            "--restore-from" => restore_from = Some(PathBuf::from(value())),
            "--kill-at-iter" => kill_at_iter = Some(value().parse().expect("--kill-at-iter")),
            "--lr" => lr = value().parse().expect("--lr"),
            "--chaos-stage" => chaos_stage = Some(value().parse().expect("--chaos-stage")),
            "--http" => http = Some(value()),
            "--postmortem" => postmortem = Some(PathBuf::from(value())),
            "--dir" => dir = PathBuf::from(value()),
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value())),
            "--out" => out = PathBuf::from(value()),
            "--mode" => {
                scenario.mode = match value().as_str() {
                    "immediate" => WgradMode::Immediate,
                    "at-weight-op" => WgradMode::AtWeightOp,
                    "drain" => WgradMode::DrainOnWait,
                    m => panic!("unknown --mode {m}"),
                }
            }
            "--codec" => {
                let v = value();
                scenario.codec = CodecId::parse(&v)
                    .unwrap_or_else(|| panic!("unknown --codec {v} (expected f32|bf16|lossy)"));
            }
            "--schedule" => {
                let v = value();
                scenario.schedule = ScheduleKind::parse(&v).unwrap_or_else(|| {
                    panic!("unknown --schedule {v} (expected mepipe|dualpipe|blocks|synth)")
                });
            }
            f => panic!("unknown flag {f}"),
        }
    }
    Args {
        scenario,
        stage,
        dir,
        trace_out,
        metrics_out,
        out,
        rounds,
        calibrate_iters,
        iters,
        start_iter,
        ckpt_interval,
        ckpt_dir,
        progress,
        restore_from,
        kill_at_iter,
        lr,
        chaos_stage,
        http,
        postmortem,
    }
}

/// Writes a metrics registry to `path`: Prometheus text exposition when
/// the extension is `.prom`, JSON otherwise. Every write lints the
/// registry's metric names first, so a malformed name fails the smoke
/// that produced it instead of a scrape downstream.
fn write_metrics(path: &Path, reg: &MetricsRegistry) {
    let violations = reg.lint_names();
    assert!(violations.is_empty(), "metric name lint: {violations:?}");
    let body = if path.extension().is_some_and(|e| e == "prom") {
        reg.to_prometheus_text()
    } else {
        reg.to_json()
    };
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, body).expect("write metrics");
}

/// Parses a serialised Chrome trace and asserts it holds exactly one
/// compute track (pid, tid < 1000) per stage. Returns the complete-event
/// count.
fn validate_chrome_trace(json: &str, stages: usize) -> usize {
    let v: serde_json::Value = serde_json::from_str(json).expect("trace JSON parses");
    let events = v.as_array().expect("trace is a JSON array");
    let mut tracks: Vec<(u64, u64)> = Vec::new();
    let mut complete = 0usize;
    for e in events {
        if e["ph"].as_str() != Some("X") {
            continue;
        }
        complete += 1;
        let pid = e["pid"].as_u64().expect("pid");
        let tid = e["tid"].as_u64().expect("tid");
        if tid < 1000 && !tracks.contains(&(pid, tid)) {
            tracks.push((pid, tid));
        }
    }
    assert!(complete > 0, "trace holds no complete events");
    assert_eq!(
        tracks.len(),
        stages,
        "expected one compute track per stage, got {tracks:?}"
    );
    complete
}

/// `worker`: one stage of the pipeline as this whole process.
fn run_worker(args: &Args) {
    let stage = args.stage.expect("worker needs --stage");
    if args.kill_at_iter.is_some() {
        // A single-iteration worker has only one place to die: before it.
        let mut events = EventLog::stderr("worker");
        events.event(
            Level::Error,
            None,
            Some(stage),
            format!("chaos: stage {stage} aborting before its iteration"),
            &[],
        );
        std::process::abort();
    }
    let sc = &args.scenario;
    let rt = sc.runtime().with_tracing(args.trace_out.is_some());
    let schedule = sc.schedule();
    let batch = sc.batch();
    let transport = SocketTransport::with_config(
        SocketMode::Uds(args.dir.clone()),
        sc.stages,
        CommConfig::new().with_codec(sc.codec),
    );
    let ep = transport.endpoint(stage).expect("claim stage endpoint");
    let out = rt
        .run_stage(&schedule, stage, &batch, sc.mode, None, ep)
        .expect("stage run");
    if let (Some(path), Some(trace)) = (&args.trace_out, &out.trace) {
        dump::write_stage_trace(path, trace).expect("write stage trace dump");
    }
    let t = out.comm.total();
    // The launcher parses this line; keep it stable (appending fields is
    // fine, the parse is prefix + first whitespace-separated token).
    println!(
        "RESULT stage={stage} loss_bits={} drained={} tx_msgs={} rx_msgs={} tx_bytes={} busy_ns={}",
        out.loss_sum.to_bits(),
        out.drained,
        t.tx_messages,
        t.rx_messages,
        t.tx_bytes,
        (out.busy_seconds * 1e9) as u64,
    );
}

/// Spawns one multi-process mesh iteration under `dir` and returns the
/// stage-order loss sum plus the merged per-process trace (when
/// `traced`). The mesh directory is removed afterwards, so callers can
/// run many iterations back to back with distinct dirs.
///
/// Children are polled rather than awaited in stage order: a stage that
/// dies mid-iteration leaves its peers blocked in transport waits, so
/// the first failure kills and reaps the whole gang and the error names
/// the stage that started it.
fn mesh_iteration(
    sc: &Scenario,
    dir: &Path,
    traced: bool,
    chaos_stage: Option<usize>,
) -> Result<(f64, Option<IterationTrace>), String> {
    let exe = std::env::current_exe().expect("current exe");
    std::fs::create_dir_all(dir).expect("mesh dir");
    let stage_trace_path = |stage: usize| dir.join(format!("trace-stage-{stage}.txt"));
    let mut children: Vec<_> = (0..sc.stages)
        .map(|stage| {
            let mut cmd = Command::new(&exe);
            cmd.arg("worker")
                .arg("--stage")
                .arg(stage.to_string())
                .arg("--dir")
                .arg(dir)
                .args(sc.as_args())
                .stdout(Stdio::piped());
            if traced {
                cmd.arg("--trace-out").arg(stage_trace_path(stage));
            }
            if chaos_stage == Some(stage) {
                cmd.arg("--kill-at-iter").arg("0");
            }
            let mut child = cmd.spawn().expect("spawn worker");
            // Drain stdout on a thread so a chatty worker can't dead-
            // lock against a full pipe while we poll exit statuses.
            let mut stdout = child.stdout.take().expect("piped stdout");
            let reader = std::thread::spawn(move || {
                use std::io::Read;
                let mut buf = String::new();
                let _ = stdout.read_to_string(&mut buf);
                buf
            });
            (stage, Some(child), Some(reader))
        })
        .collect();

    let mut outputs: Vec<Option<String>> = (0..sc.stages).map(|_| None).collect();
    let mut first_failure: Option<(usize, std::process::ExitStatus)> = None;
    let mut live = sc.stages;
    while live > 0 && first_failure.is_none() {
        let mut progressed = false;
        for (stage, child, reader) in children.iter_mut() {
            let Some(c) = child.as_mut() else { continue };
            if let Some(status) = c.try_wait().expect("poll worker") {
                progressed = true;
                live -= 1;
                child.take();
                let text = reader
                    .take()
                    .expect("reader thread")
                    .join()
                    .expect("join stdout reader");
                if status.success() {
                    outputs[*stage] = Some(text);
                } else {
                    first_failure.get_or_insert((*stage, status));
                }
            }
        }
        if !progressed {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    if let Some((stage, status)) = first_failure {
        // Reap the stragglers: their transport waits will never finish.
        for (_, child, reader) in children.iter_mut() {
            if let Some(mut c) = child.take() {
                let _ = c.kill();
                let _ = c.wait();
            }
            if let Some(r) = reader.take() {
                let _ = r.join();
            }
        }
        let _ = std::fs::remove_dir_all(dir);
        return Err(format!(
            "stage {stage} exited with {status}; remaining workers killed"
        ));
    }

    // Workers' loss shares, combined in stage order — the same addition
    // order as the in-process merge, so f64 bits match exactly.
    let mut loss = 0.0f64;
    for (stage, text) in outputs.iter().enumerate() {
        let stdout = text.as_ref().expect("every worker exited cleanly");
        let bits_field = stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("RESULT stage={stage} loss_bits=")))
            .ok_or_else(|| format!("worker {stage} printed no RESULT line: {stdout}"))?;
        let bits: u64 = bits_field
            .split_whitespace()
            .next()
            .expect("loss bits field")
            .parse()
            .expect("loss bits u64");
        loss += f64::from_bits(bits);
    }

    // Merge the per-process span dumps onto one time axis: each worker
    // recorded offsets from its own clock anchor, whose epoch position
    // lets the traces line up across processes.
    let merged = if traced {
        Some(IterationTrace {
            stages: (0..sc.stages)
                .map(|stage| {
                    dump::read_stage_trace(&stage_trace_path(stage)).expect("merge stage trace")
                })
                .collect(),
        })
    } else {
        None
    };
    let _ = std::fs::remove_dir_all(dir);
    Ok((loss, merged))
}

/// `launch`: the multi-process mesh, verified against in-process.
fn run_launch(args: &Args) {
    let sc = &args.scenario;
    let (loss, merged) = mesh_iteration(sc, &args.dir, args.trace_out.is_some(), args.chaos_stage)
        .unwrap_or_else(|e| {
            eprintln!("launch failed: {e}");
            std::process::exit(1);
        });

    if let (Some(trace_out), Some(merged)) = (&args.trace_out, &merged) {
        let json = traces_to_chrome(merged, PidKey::Stage);
        let complete = validate_chrome_trace(&json, sc.stages);
        if let Some(parent) = trace_out.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(trace_out, &json).expect("write merged trace");
        println!(
            "merged {} spans from {} worker processes into {}",
            complete,
            sc.stages,
            trace_out.display()
        );
        print!("{}", bubble::attribute(merged).render());
    }

    // The reference runs in-process under the *same* codec: the
    // in-process backend applies lossy codecs as an encode/decode round
    // trip, so losses stay bit-identical even when the wire is bf16.
    let reference = sc
        .runtime()
        .with_transport(TransportConfig::in_proc().with_codec(sc.codec))
        .run_iteration(&sc.schedule(), &sc.batch(), sc.mode, None)
        .expect("in-process reference run");
    if let Some(metrics_out) = &args.metrics_out {
        write_metrics(metrics_out, &run_metrics(&reference));
        println!("wrote reference-run metrics to {}", metrics_out.display());
    }
    println!(
        "multi-process loss {loss:.6} ({} workers over uds, {} codec), in-process loss {:.6}",
        sc.stages,
        sc.codec.name(),
        reference.loss
    );
    assert_eq!(
        loss.to_bits(),
        reference.loss.to_bits(),
        "multi-process loss is not bit-identical to in-process"
    );
    println!("OK: losses bit-identical across process boundaries");
}

/// `job`: one stage of a supervised multi-iteration training job.
///
/// Every iteration runs on a fresh UDS mesh under `--dir/iter-K` (all
/// gang members derive the same directory name, so rendezvous needs no
/// coordinator), steps the model with SGD over this stage's own-layer
/// gradients (peer layers' grads are zero, and SGD with a zero grad is
/// a bitwise no-op, so per-stage stepping equals full-model stepping),
/// appends a `iter K loss_bits B` heartbeat line, and checkpoints its
/// model shard atomically every `--ckpt-interval` completed iterations.
/// `--kill-at-iter M` aborts the whole process at the start of
/// iteration M — the control plane's chaos knob.
fn run_job(args: &Args) {
    let stage = args.stage.expect("job needs --stage");
    let sc = &args.scenario;
    let cfg = sc.config();
    let mut events = EventLog::stderr("worker");
    let exporter = args.http.as_deref().map(|addr| {
        let exp = HttpExporter::spawn(addr)
            .unwrap_or_else(|e| panic!("bind http observability endpoint {addr}: {e}"));
        // The supervisor (or a curious human) learns the bound address
        // from this line — `--http 127.0.0.1:0` picks a free port.
        println!("HTTP stage={stage} addr={}", exp.addr());
        exp
    });
    // Accumulated across iterations: the latency histogram is what
    // `/status` derives its p50/p99 from.
    let mut reg = MetricsRegistry::new();
    let latency_labels: [(&str, String); 1] = [("stage", stage.to_string())];
    let mut rt = match &args.restore_from {
        Some(path) => {
            let bytes = std::fs::read(path)
                .unwrap_or_else(|e| panic!("read checkpoint {}: {e}", path.display()));
            let model = checkpoint::restore(&bytes)
                .unwrap_or_else(|e| panic!("restore checkpoint {}: {e}", path.display()));
            sc.runtime_from(model)
        }
        None => sc.runtime(),
    }
    .with_tracing(args.trace_out.is_some());
    let schedule = sc.schedule();
    let progress = |line: String| {
        if let Some(path) = &args.progress {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("open progress {}: {e}", path.display()));
            writeln!(f, "{line}").expect("append progress line");
        }
    };
    let mut last_bits = f64::NAN.to_bits();
    for k in args.start_iter..args.iters {
        if args.kill_at_iter == Some(k) {
            let why = format!("chaos: stage {stage} aborting at the start of iteration {k}");
            events.event(Level::Error, None, Some(stage), &why, &[]);
            if let Some(path) = &args.postmortem {
                let _ = events.dump_postmortem(path, &why, Some(&reg));
            }
            std::process::abort();
        }
        // Old mesh dirs only hold socket files nobody will connect to
        // again (starting iteration k means every peer finished k-1);
        // stage 0 prunes with one iteration of slack.
        if stage == 0 && k >= args.start_iter + 2 {
            let _ = std::fs::remove_dir_all(args.dir.join(format!("iter-{}", k - 2)));
        }
        let mesh = args.dir.join(format!("iter-{k}"));
        std::fs::create_dir_all(&mesh).expect("mesh dir");
        let transport = SocketTransport::with_config(
            SocketMode::Uds(mesh),
            sc.stages,
            CommConfig::new().with_codec(sc.codec),
        );
        let ep = transport.endpoint(stage).expect("claim stage endpoint");
        let batch = batch_for_iter(&cfg, sc.micro_batches, sc.seed, k);
        let t0 = std::time::Instant::now();
        let out = rt
            .run_stage(&schedule, stage, &batch, sc.mode, None, ep)
            .unwrap_or_else(|e| {
                // Transport errors (a dead peer, a poisoned frame) land
                // here: record the failure, dump the flight recorder,
                // then die loudly for the supervisor.
                let why = format!("stage {stage} iteration {k}: {e}");
                events.event(Level::Error, None, Some(stage), &why, &[]);
                if let Some(path) = &args.postmortem {
                    let _ = events.dump_postmortem(path, &why, Some(&reg));
                }
                panic!("{why}");
            });
        observe_iteration(&mut reg, &latency_labels, t0.elapsed().as_secs_f64(), k + 1);
        if let Some(exp) = &exporter {
            exp.publish_metrics(reg.to_prometheus_text());
            exp.publish_status(job_status_json(
                &reg,
                &latency_labels,
                stage,
                k + 1,
                args.iters,
            ));
        }
        Sgd { lr: args.lr }.step_model(&mut rt.model, &out.grads);
        last_bits = out.loss_sum.to_bits();
        // Dump the latest iteration's spans on every lap so whatever
        // iteration turns out to be the last leaves a merged-trace part.
        if let (Some(path), Some(trace)) = (&args.trace_out, &out.trace) {
            dump::write_stage_trace(path, trace).expect("write stage trace dump");
        }
        progress(format!("iter {k} loss_bits {last_bits}"));
        let completed = k + 1;
        if args.ckpt_interval > 0 && completed.is_multiple_of(args.ckpt_interval) {
            let dir = args
                .ckpt_dir
                .clone()
                .expect("--ckpt-interval needs --ckpt-dir")
                .join(format!("stage-{stage}"));
            std::fs::create_dir_all(&dir).expect("checkpoint dir");
            let path = dir.join(format!("iter-{completed}.bin"));
            let tmp = dir.join(format!("iter-{completed}.tmp"));
            std::fs::write(&tmp, checkpoint::save(&rt.model)).expect("write checkpoint");
            std::fs::rename(&tmp, &path).expect("publish checkpoint");
            progress(format!("ckpt {completed}"));
            events.event(
                Level::Info,
                None,
                Some(stage),
                format!("checkpointed at iteration {completed}"),
                &[],
            );
        }
    }
    events.event(
        Level::Info,
        None,
        Some(stage),
        format!("completed iterations {}..{}", args.start_iter, args.iters),
        &[],
    );
    // The supervisor parses this line; keep it stable.
    println!(
        "RESULT stage={stage} loss_bits={last_bits} start={} end={}",
        args.start_iter, args.iters
    );
}

/// Records one iteration's wall time and progress into the job's
/// registry (the exporter's `/metrics` content).
fn observe_iteration(
    reg: &mut MetricsRegistry,
    labels: &[(&str, String)],
    seconds: f64,
    completed: usize,
) {
    reg.observe(
        "mepipe_worker_iteration_seconds",
        "Wall-clock time of one pipeline-stage iteration",
        labels,
        &mepipe_trace::metrics::ITERATION_BUCKETS,
        seconds,
    );
    reg.counter(
        "mepipe_worker_iterations_total",
        "Iterations this stage process has completed",
        labels,
        1.0,
    );
    reg.gauge(
        "mepipe_worker_completed_iterations",
        "Iterations this stage process has completed, as a level",
        labels,
        completed as f64,
    );
}

/// The job exporter's `/status` document: progress plus the span-derived
/// latency quantiles the straggler analysis keys off.
fn job_status_json(
    reg: &MetricsRegistry,
    labels: &[(&str, String)],
    stage: usize,
    completed: usize,
    target: usize,
) -> String {
    let q = |q: f64| {
        reg.quantile("mepipe_worker_iteration_seconds", labels, q)
            .map_or("null".to_string(), |v| format!("{v:.6}"))
    };
    format!(
        "{{\"stage\":{stage},\"completed\":{completed},\"target\":{target},\
         \"iteration_p50_seconds\":{},\"iteration_p99_seconds\":{}}}",
        q(0.5),
        q(0.99),
    )
}

/// `trace-report`: one traced iteration, profiled + simulated, with
/// every observability artifact written to `--out`.
fn run_trace_report(args: &Args) {
    let sc = &args.scenario;
    let schedule = sc.schedule();
    let batch = sc.batch();

    // Traced vs untraced: tracing is an observer, the loss bits agree.
    let plain = sc
        .runtime()
        .run_iteration(&schedule, &batch, sc.mode, None)
        .expect("untraced run");
    let traced = sc
        .runtime()
        .with_tracing(true)
        .run_iteration(&schedule, &batch, sc.mode, None)
        .expect("traced run");
    assert_eq!(
        plain.loss.to_bits(),
        traced.loss.to_bits(),
        "tracing changed the loss bits"
    );
    let trace = traced.trace.as_ref().expect("traced run carries a trace");

    // The spans and the runtime's busy counters come from the same clock
    // and the same intervals; they must agree per stage.
    for st in &trace.stages {
        let span_busy = st.busy_ns() as f64 * 1e-9;
        let counted = traced.busy_seconds[st.stage];
        assert!(
            (span_busy - counted).abs() < 1e-6,
            "stage {}: trace says {span_busy} s busy, runtime counted {counted} s",
            st.stage
        );
    }
    let report = bubble::attribute(trace);
    for b in &report.stages {
        assert!(
            (b.busy_s + b.idle.total() - report.makespan_s).abs() < 1e-9,
            "stage {} busy+idle does not reconcile with the window",
            b.stage
        );
    }

    // Profile this machine, simulate the same schedule, diff the two.
    let cfg = TransformerConfig {
        seq_len: sc.seq_len,
        ..TransformerConfig::tiny(sc.layers)
    };
    let profiled = profile_chunk(
        &ModelParams::init(cfg, sc.seed),
        sc.layers / sc.stages,
        sc.slices,
        2,
    );
    let prediction = simulate(
        &schedule,
        &profiled,
        &SimConfig {
            dynamic_wgrad: true,
            ..Default::default()
        },
    )
    .expect("simulation of the measured schedule");
    let check = BubbleCheckReport::from_run(trace, &prediction);

    let out = &args.out;
    std::fs::create_dir_all(out).expect("report dir");
    let measured_json = traces_to_chrome(trace, PidKey::Replica);
    validate_chrome_trace(&measured_json, sc.stages);
    let trace_path = args
        .trace_out
        .clone()
        .unwrap_or_else(|| out.join("measured.trace.json"));
    std::fs::write(&trace_path, &measured_json).expect("write measured trace");
    std::fs::write(
        out.join("sim.trace.json"),
        to_chrome_trace(&prediction.segments),
    )
    .expect("write simulated trace");
    std::fs::write(out.join("bubble.txt"), report.render()).expect("write bubble report");
    std::fs::write(out.join("bubblecheck.txt"), check.render()).expect("write bubblecheck");
    let reg = run_metrics(&traced);
    let metrics_path = args
        .metrics_out
        .clone()
        .unwrap_or_else(|| out.join("metrics.json"));
    write_metrics(&metrics_path, &reg);
    write_metrics(&out.join("metrics.prom"), &reg);

    print!("{}", report.render());
    print!("{}", check.render());
    println!(
        "wrote measured trace ({}), simulated trace, bubble reports and metrics to {}",
        trace_path.display(),
        out.display()
    );
    println!("OK: traced loss bit-identical to untraced; busy/idle reconciled per stage");
}

/// `autotune`: the closed calibration loop over the multi-process mesh.
///
/// Runs `--rounds` fit cycles of `--calibrate-iters` traced mesh
/// iterations each; every round scores the model in force against the
/// measurement, pools the samples and refits. The error trajectory must
/// strictly decrease (asserted — `scripts/check.sh` relies on it). The
/// fitted model then re-searches the hot-swap-compatible schedule space;
/// when it proposes a different shape, one mesh iteration runs under the
/// swapped schedule — regenerated purely from flags by every worker
/// process — and its loss is verified bit-identical to an in-process run.
fn run_autotune(args: &Args) {
    let sc = &args.scenario;
    let cfg = TransformerConfig {
        seq_len: sc.seq_len,
        ..TransformerConfig::tiny(sc.layers)
    };
    let prior = Calibrator::prior_for(&cfg, sc.stages, sc.slices, sc.micro_batches)
        .expect("prior cost model");
    let mut cal = Calibrator::new(prior);
    let schedule = sc.schedule();
    let mut first_makespan = None;
    for round in 0..args.rounds.max(1) {
        let mut last = None;
        for iter in 0..args.calibrate_iters.max(1) {
            let dir = args.dir.join(format!("round-{round}-iter-{iter}"));
            let (_, trace) =
                mesh_iteration(sc, &dir, true, None).expect("calibration mesh iteration");
            let trace = trace.expect("traced mesh run");
            cal.absorb(&trace);
            last = Some(trace);
        }
        let trace = last.expect("at least one iteration per round");
        if first_makespan.is_none() {
            first_makespan = Some(bubble::attribute(&trace).makespan_s);
        }
        let err = cal.record_round(&schedule, &trace).expect("round scoring");
        println!("round {round}: mean relative error {err:.4}");
        cal.refit();
    }
    print!("{}", cal.report().render());
    assert!(
        cal.report().is_strictly_decreasing(),
        "calibration error did not strictly decrease:\n{}",
        cal.report().render()
    );
    let Some(p) = cal.propose(None).expect("calibrated re-search") else {
        println!("no swap candidate generated; keeping the running schedule");
        return;
    };
    println!(
        "fitted search proposes slices={} warmup={} (predicted {:.3} ms/iter{})",
        p.slices,
        p.warmup,
        p.predicted_s * 1e3,
        if p.rescheduled {
            ", backward-rescheduled"
        } else {
            ""
        },
    );
    if p.schedule.workers == schedule.workers {
        println!("OK: calibration error strictly decreased; running schedule already optimal under the fitted model");
        return;
    }
    // Regenerate the chosen schedule purely from flags, exactly as every
    // worker process will, and check that reproduces the proposal. A
    // synthesized winner regenerates through the solver (deterministic
    // from its default costs), a template winner through SVPP.
    let swapped = Scenario {
        slices: p.slices,
        warmup: Some(p.warmup),
        reschedule: p.rescheduled,
        schedule: if p.synthesized {
            ScheduleKind::Synth
        } else {
            ScheduleKind::Mepipe
        },
        ..sc.clone()
    };
    assert_eq!(
        swapped.schedule().workers,
        p.schedule.workers,
        "flag-regenerated schedule does not reproduce the proposal"
    );
    let (loss, trace) = mesh_iteration(&swapped, &args.dir.join("swapped"), true, None)
        .expect("swapped mesh iteration");
    let reference = swapped
        .runtime()
        .with_transport(TransportConfig::in_proc().with_codec(sc.codec))
        .run_iteration(&swapped.schedule(), &swapped.batch(), sc.mode, None)
        .expect("in-process reference of the swapped schedule");
    assert_eq!(
        loss.to_bits(),
        reference.loss.to_bits(),
        "swapped-schedule mesh loss is not bit-identical to in-process"
    );
    let after = bubble::attribute(&trace.expect("traced swapped run")).makespan_s;
    println!(
        "measured makespan {:.3} ms under {} slices -> {:.3} ms under {} slices",
        first_makespan.unwrap_or(f64::NAN) * 1e3,
        sc.slices,
        after * 1e3,
        p.slices,
    );
    println!(
        "OK: calibration error strictly decreased; swapped schedule bit-identical across processes"
    );
}

/// `memcheck`: the measured-vs-modeled memory reconciliation.
///
/// A one-micro-batch probe run prices each stage's in-flight unit (its
/// measured peak divided by its scheduled peak units), then the full
/// schedule runs and the per-stage measured peaks are compared against
/// `peak_in_flight × unit` — testing exactly the paper's claim that
/// peak activation memory scales linearly with the *scheduled* in-flight
/// count. Exits nonzero when any stage leaves the warning band.
fn run_memcheck(args: &Args) {
    // Fused backward only: the in-flight model charges a unit at forward
    // and credits it at backward, which is exactly when the fused-B
    // runtime frees its saves. Deferred-W modes retain operands past the
    // credit point — real memory the model deliberately does not price,
    // and precisely what the warning band exists to flag.
    let sc = Scenario {
        mode: WgradMode::Immediate,
        ..args.scenario.clone()
    };
    let probe_sc = Scenario {
        micro_batches: 1,
        ..sc.clone()
    };
    let probe_schedule = probe_sc.schedule();
    let probe_units = peak_in_flight(&probe_schedule);
    let probe = probe_sc
        .runtime()
        .run_iteration(&probe_schedule, &probe_sc.batch(), sc.mode, None)
        .expect("probe run");

    let schedule = sc.schedule();
    let units = peak_in_flight(&schedule);
    let run = sc
        .runtime()
        .run_iteration(&schedule, &sc.batch(), sc.mode, None)
        .expect("full run");

    // Per-stage unit prices from the probe: sharper than one global
    // price, since entry/loss stages hold different tensors per unit.
    let unit_prices: Vec<f64> = probe
        .peak_bytes
        .iter()
        .zip(&probe_units)
        .map(|(&bytes, &u)| bytes as f64 / u.max(1) as f64)
        .collect();
    let mean_unit = unit_prices.iter().sum::<f64>() / unit_prices.len().max(1) as f64;
    let stages: Vec<StageMemCheck> = run
        .peak_bytes
        .iter()
        .zip(&units)
        .zip(&unit_prices)
        .enumerate()
        .map(|(stage, ((&measured, &peak_units), &unit))| StageMemCheck {
            stage,
            peak_units,
            measured_bytes: measured as f64,
            modeled_bytes: peak_units as f64 * unit,
        })
        .collect();
    let report = MemCheckReport {
        unit_bytes: mean_unit,
        stages,
        process_hwm_bytes: vm_hwm_bytes(),
    };
    print!("{}", report.render());

    // The metrics the run exports must also survive the naming lint —
    // the same gate `/metrics` consumers rely on.
    let violations = run_metrics(&run).lint_names();
    assert!(violations.is_empty(), "metric name lint: {violations:?}");

    if !report.in_band() {
        eprintln!("memcheck: measured/modeled outside the warning band");
        std::process::exit(1);
    }
    println!(
        "OK: measured/modeled = {:.2} per-stage within [{}, {}]; metric names lint clean",
        report.ratio(),
        RATIO_WARN_LO,
        RATIO_WARN_HI,
    );
}

/// `http-get`: scrape an observability endpoint with the exporter's own
/// client — no curl in the loop, so `scripts/check.sh` stays
/// dependency-free. Prints the body; exit 0 only on HTTP 200.
fn run_http_get(rest: &[String]) {
    let addr = rest
        .first()
        .expect("usage: mepipe-worker http-get ADDR [PATH]");
    let path = rest.get(1).map_or("/metrics", String::as_str);
    match http_get(addr, path, std::time::Duration::from_secs(5)) {
        Ok((200, body)) => print!("{body}"),
        Ok((status, body)) => {
            eprintln!("http-get {addr}{path}: HTTP {status}");
            print!("{body}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("http-get {addr}{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = argv.split_first().expect(
        "usage: mepipe-worker <worker|job|launch|autotune|trace-report|memcheck|http-get> [flags]",
    );
    if mode == "http-get" {
        run_http_get(rest);
        return;
    }
    let args = parse_args(rest);
    match mode.as_str() {
        "worker" => run_worker(&args),
        "job" => run_job(&args),
        "launch" => run_launch(&args),
        "autotune" => run_autotune(&args),
        "trace-report" => run_trace_report(&args),
        "memcheck" => run_memcheck(&args),
        m => panic!(
            "unknown mode {m} (expected worker|job|launch|autotune|trace-report|memcheck|http-get)"
        ),
    }
}
