//! `mepipe-worker`: one pipeline stage of a supervised training job
//! as its own OS process.
//!
//! `mepipe-ctl` launches one `job` process per stage. Each initialises
//! the same model and per-iteration batches from shared seeds, claims
//! its stage's endpoint on a Unix-domain-socket mesh, and executes
//! exactly its rows of the schedule; boundary tensors cross process
//! boundaries as checksummed wire frames. Because every byte a stage
//! consumes is identical to what the in-process runtime would have
//! handed it, the job's loss is bit-identical to an in-process replay —
//! which the control plane checks for a `verify = true` job, and
//! `scripts/check.sh` smokes once per schedule family and wire codec.
//!
//! Modes:
//!
//! * `job --stage I --stages P --dir D --iters T [opts]` — run one
//!   stage for many iterations under a supervisor (`mepipe-ctl`): one
//!   UDS mesh under `D` for the whole attempt, claimed before the first
//!   iteration and closed after the last, an SGD step after every
//!   iteration, an appended `--progress` line per iteration (the
//!   supervisor's heartbeat and loss feed), an atomic per-stage
//!   checkpoint every `--ckpt-interval` iterations into `--ckpt-dir`,
//!   `--restore-from F` to resume a checkpointed model at
//!   `--start-iter K`, and `--kill-at-iter M` to abort the process at
//!   the start of iteration M — the chaos knob the control plane's
//!   fault-injection layer drives. With `--trace-out F` the stage dumps
//!   its last iteration's spans to `F` once, after that iteration
//!   (epoch-stamped, so the supervisor merges the processes onto one
//!   time axis). `--codec {f32,bf16,lossy}` selects the wire codec on
//!   every link. The schedule flags `--schedule NAME --stages P
//!   --micro-batches N --slices S [--warmup K] [--reschedule]` are the
//!   codec of `mepipe_strategy::ScheduleSpec`, which every process
//!   regenerates through, so a job's schedule or a control-plane
//!   segment crosses process boundaries as flags alone. `NAME` is a
//!   lower-case method name (default `mepipe`; under `dualpipe` stages
//!   0 and P−1 are both entry and loss stages). A malformed or
//!   undefined schedule exits 2 with the reason before the stage joins
//!   a mesh.
//! * `http-get ADDR [PATH]` — dependency-free scrape client for the
//!   observability endpoints (`mepipe-ctl serve --http`, `job --http`):
//!   prints the response body, exits 0 only on HTTP 200.
//!
//! Two more `job` flags serve observability: `--http ADDR` mounts a
//! per-stage HTTP exporter (`/metrics` with iteration-latency
//! histograms, `/status` with p50/p99, `/healthz`), and
//! `--postmortem F` arms the flight recorder — on a chaos abort or a
//! stage-run failure the last events and a metrics snapshot land in `F`
//! before the process dies.

use std::path::PathBuf;

use mepipe_comm::{CodecId, CommConfig, SocketMode, SocketTransport, StageLink, Transport};
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::Dims;
use mepipe_strategy::{Method, ScheduleArgError, ScheduleSpec};
use mepipe_trace::{dump, http_get, EventLog, HttpExporter, Level, MetricsRegistry};
use mepipe_train::{
    checkpoint, data::batch_for_iter, optim::Sgd, params::ModelParams, PipelineRuntime, WgradMode,
};

/// The deterministic scenario every process reconstructs from flags.
#[derive(Debug, Clone)]
struct Scenario {
    /// The schedule every process regenerates (stages and micro-batches
    /// included).
    schedule: ScheduleSpec,
    seq_len: usize,
    layers: usize,
    seed: u64,
    codec: CodecId,
}

/// Reports a malformed or undefined schedule and exits 2.
fn bad_schedule(e: impl std::fmt::Display) -> ! {
    eprintln!("mepipe-worker: {e}");
    std::process::exit(2)
}

impl Scenario {
    fn config(&self) -> TransformerConfig {
        TransformerConfig {
            seq_len: self.seq_len,
            ..TransformerConfig::tiny(self.layers)
        }
    }

    fn runtime(&self) -> PipelineRuntime {
        self.runtime_from(ModelParams::init(self.config(), self.seed))
    }

    /// A runtime around an existing model (a restored checkpoint) with
    /// this scenario's pipeline shape.
    fn runtime_from(&self, model: ModelParams) -> PipelineRuntime {
        PipelineRuntime::new(model, self.schedule.dims.p, self.schedule.dims.v)
    }
}

struct Args {
    scenario: Scenario,
    stage: Option<usize>,
    dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    /// Target iteration count (exclusive upper bound).
    iters: usize,
    /// First iteration to run (the restore point).
    start_iter: usize,
    /// Checkpoint every this many completed iterations (0 = never).
    ckpt_interval: usize,
    /// Directory receiving `stage-I/iter-N.bin` checkpoints.
    ckpt_dir: Option<PathBuf>,
    /// File receiving one appended line per completed iteration.
    progress: Option<PathBuf>,
    /// Checkpoint file to restore the model from before running.
    restore_from: Option<PathBuf>,
    /// Abort the process at the start of this iteration (chaos).
    kill_at_iter: Option<usize>,
    /// SGD learning rate.
    lr: f32,
    /// TCP address for the per-stage HTTP observability endpoint.
    http: Option<String>,
    /// Flight-recorder postmortem file, written on abort/failure.
    postmortem: Option<PathBuf>,
}

fn parse_args(rest: &[String]) -> Result<Args, ScheduleArgError> {
    let mut scenario = Scenario {
        schedule: ScheduleSpec::new(Method::Mepipe, Dims::new(4, 4).slices(4)),
        seq_len: 32,
        layers: 4,
        seed: 7,
        codec: CodecId::F32,
    };
    // Every token this loop does not own belongs to a schedule flag; in
    // order and after the default spec's flags (a later flag wins), they
    // decode through `ScheduleSpec::from_args`.
    let mut schedule_args = scenario.schedule.to_args();
    let mut stage = None;
    let mut dir = None;
    let mut trace_out = None;
    let mut iters = 1usize;
    let mut start_iter = 0usize;
    let mut ckpt_interval = 0usize;
    let mut ckpt_dir = None;
    let mut progress = None;
    let mut restore_from = None;
    let mut kill_at_iter = None;
    let mut lr = 0.1f32;
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
            "--seq-len" => scenario.seq_len = value().parse().expect("--seq-len"),
            "--layers" => scenario.layers = value().parse().expect("--layers"),
            "--seed" => scenario.seed = value().parse().expect("--seed"),
            "--iters" => iters = value().parse().expect("--iters"),
            "--start-iter" => start_iter = value().parse().expect("--start-iter"),
            "--ckpt-interval" => ckpt_interval = value().parse().expect("--ckpt-interval"),
            "--ckpt-dir" => ckpt_dir = Some(PathBuf::from(value())),
            "--progress" => progress = Some(PathBuf::from(value())),
            "--restore-from" => restore_from = Some(PathBuf::from(value())),
            "--kill-at-iter" => kill_at_iter = Some(value().parse().expect("--kill-at-iter")),
            "--lr" => lr = value().parse().expect("--lr"),
            "--http" => http = Some(value()),
            "--postmortem" => postmortem = Some(PathBuf::from(value())),
            "--dir" => dir = Some(PathBuf::from(value())),
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            "--codec" => {
                let v = value();
                scenario.codec = CodecId::parse(&v)
                    .unwrap_or_else(|| panic!("unknown --codec {v} (expected f32|bf16|lossy)"));
            }
            _ => schedule_args.push(flag.clone()),
        }
    }
    scenario.schedule = ScheduleSpec::from_args(&schedule_args)?;
    Ok(Args {
        scenario,
        stage,
        dir,
        trace_out,
        iters,
        start_iter,
        ckpt_interval,
        ckpt_dir,
        progress,
        restore_from,
        kill_at_iter,
        lr,
        http,
        postmortem,
    })
}

/// `job`: one stage of a supervised multi-iteration training job.
///
/// The stage claims one UDS mesh under `--dir` for the whole attempt
/// (every gang member gets the same directory, so rendezvous needs no
/// coordinator) and runs every iteration over that one link, closing it
/// after the last. Each iteration steps, with SGD, only the parameters
/// this stage owns (`run_stage` returns just their gradients), which
/// equals full-model stepping wherever each block lives on one stage —
/// not under DualPipe, whose mirror stages hold the same two blocks and
/// each step them with their own half of the gradient —
/// appends a `iter K loss_bits B` heartbeat line,
/// and checkpoints its model shard atomically every `--ckpt-interval`
/// completed iterations. `--kill-at-iter M` aborts the whole process at
/// the start of iteration M — the control plane's chaos knob; its peers
/// see the dead stage's streams close and fail too.
fn run_job(args: &Args) {
    let stage = args.stage.expect("job needs --stage");
    let dir = args.dir.clone().expect("job needs --dir");
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
    let schedule = sc.schedule.generate().unwrap_or_else(|e| bad_schedule(e));
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
    // A failed stage run or close lands here: record the failure, dump
    // the flight recorder, then die loudly for the supervisor.
    let die = |events: &mut EventLog, reg: &MetricsRegistry, why: String| -> ! {
        events.event(Level::Error, None, Some(stage), &why, &[]);
        if let Some(path) = &args.postmortem {
            let _ = events.dump_postmortem(path, &why, Some(reg));
        }
        panic!("{why}");
    };
    std::fs::create_dir_all(&dir).expect("mesh dir");
    let transport = SocketTransport::with_config(
        SocketMode::Uds(dir),
        sc.schedule.dims.p,
        CommConfig::new().with_codec(sc.codec),
    );
    let mut link = StageLink::new(transport.endpoint(stage).expect("claim stage endpoint"));
    let mut last_bits = f64::NAN.to_bits();
    let mut last_trace = None;
    for k in args.start_iter..args.iters {
        if args.kill_at_iter == Some(k) {
            let why = format!("chaos: stage {stage} aborting at the start of iteration {k}");
            events.event(Level::Error, None, Some(stage), &why, &[]);
            if let Some(path) = &args.postmortem {
                let _ = events.dump_postmortem(path, &why, Some(&reg));
            }
            std::process::abort();
        }
        let batch = batch_for_iter(&cfg, sc.schedule.dims.n, sc.seed, k);
        let t0 = std::time::Instant::now();
        // Drained weight gradients, the paper's execution mode and the
        // one the control plane's verify replay runs.
        let out = rt
            .run_stage(
                &schedule,
                stage,
                &batch,
                WgradMode::DrainOnWait,
                None,
                &mut link,
            )
            .unwrap_or_else(|e| {
                die(
                    &mut events,
                    &reg,
                    format!("stage {stage} iteration {k}: {e}"),
                )
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
        Sgd { lr: args.lr }.step_shard(&mut rt.model, &out.grads);
        last_bits = out.loss_sum.to_bits();
        last_trace = out.trace;
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
    link.close()
        .unwrap_or_else(|e| die(&mut events, &reg, format!("stage {stage} close: {e}")));
    // Only a completed attempt's dumps get merged, and they hold its last
    // iteration, so the dump is written once, here.
    if let (Some(path), Some(trace)) = (&args.trace_out, &last_trace) {
        dump::write_stage_trace(path, trace).expect("write stage trace dump");
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
    let (mode, rest) = argv
        .split_first()
        .expect("usage: mepipe-worker <job|http-get> [flags]");
    match mode.as_str() {
        "job" => run_job(&parse_args(rest).unwrap_or_else(|e| bad_schedule(e))),
        "http-get" => run_http_get(rest),
        m => panic!("unknown mode {m} (expected job|http-get)"),
    }
}
