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
//!   its last iteration's spans to `F` once, after that iteration.
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
//!   The schedule flags `--schedule NAME --stages P --micro-batches N
//!   --slices S [--warmup K] [--reschedule]` are the codec of
//!   `mepipe_strategy::ScheduleSpec`, which every process regenerates
//!   through, so a calibrated proposal or a control-plane segment crosses
//!   process boundaries as flags alone. `NAME` is a lower-case method
//!   name (default `mepipe`; under `dualpipe` stages 0 and P−1 are both
//!   entry and loss stages). A malformed or undefined schedule exits 2
//!   with the reason before any process joins a mesh.
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

use mepipe_comm::{
    CodecId, CommConfig, SocketMode, SocketTransport, StageLink, Transport, TransportConfig,
};
use mepipe_model::config::TransformerConfig;
use mepipe_schedule::generator::Dims;
use mepipe_strategy::{Method, ScheduleArgError, ScheduleSpec};
use mepipe_tensor::init::synthetic_tokens;
use mepipe_trace::{
    bubble, chrome::traces_to_chrome, dump, http_get, EventLog, HttpExporter, IterationTrace,
    Level, MetricsRegistry, PidKey,
};
use mepipe_train::{
    checkpoint, data::batch_for_iter, metrics::run_metrics, optim::Sgd, params::ModelParams,
    PipelineRuntime, WgradMode,
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
    mode: WgradMode,
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

    fn batch(&self) -> Vec<Vec<usize>> {
        let cfg = self.config();
        (0..self.schedule.dims.n)
            .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, self.seed + 1000 + i as u64))
            .collect()
    }

    fn as_args(&self) -> Vec<String> {
        let mut args = self.schedule.to_args();
        args.extend([
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
        ]);
        args
    }
}

struct Args {
    scenario: Scenario,
    stage: Option<usize>,
    dir: PathBuf,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
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

fn parse_args(rest: &[String]) -> Result<Args, ScheduleArgError> {
    let mut scenario = Scenario {
        schedule: ScheduleSpec::new(Method::Mepipe, Dims::new(4, 4).slices(4)),
        seq_len: 32,
        layers: 4,
        seed: 7,
        mode: WgradMode::DrainOnWait,
        codec: CodecId::F32,
    };
    // Every token this loop does not own belongs to a schedule flag; in
    // order and after the default spec's flags (a later flag wins), they
    // decode through `ScheduleSpec::from_args`.
    let mut schedule_args = scenario.schedule.to_args();
    let mut stage = None;
    let mut dir = std::env::temp_dir().join(format!("mepipe-mesh-{}", std::process::id()));
    let mut trace_out = None;
    let mut metrics_out = None;
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
            "--chaos-stage" => chaos_stage = Some(value().parse().expect("--chaos-stage")),
            "--http" => http = Some(value()),
            "--postmortem" => postmortem = Some(PathBuf::from(value())),
            "--dir" => dir = PathBuf::from(value()),
            "--trace-out" => trace_out = Some(PathBuf::from(value())),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value())),
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
            _ => schedule_args.push(flag.clone()),
        }
    }
    scenario.schedule = ScheduleSpec::from_args(&schedule_args)?;
    Ok(Args {
        scenario,
        stage,
        dir,
        trace_out,
        metrics_out,
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
    })
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
    let schedule = sc.schedule.generate().unwrap_or_else(|e| bad_schedule(e));
    let batch = sc.batch();
    let transport = SocketTransport::with_config(
        SocketMode::Uds(args.dir.clone()),
        sc.schedule.dims.p,
        CommConfig::new().with_codec(sc.codec),
    );
    let mut link = StageLink::new(transport.endpoint(stage).expect("claim stage endpoint"));
    let out = rt
        .run_stage(&schedule, stage, &batch, sc.mode, None, &mut link)
        .expect("stage run");
    link.close().expect("close stage link");
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
/// `traced`). The mesh directory is removed afterwards.
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
    let mut children: Vec<_> = (0..sc.schedule.dims.p)
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

    let mut outputs: Vec<Option<String>> = (0..sc.schedule.dims.p).map(|_| None).collect();
    let mut first_failure: Option<(usize, std::process::ExitStatus)> = None;
    let mut live = sc.schedule.dims.p;
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
            stages: (0..sc.schedule.dims.p)
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
    let schedule = sc.schedule.generate().unwrap_or_else(|e| bad_schedule(e));
    let (loss, merged) = mesh_iteration(sc, &args.dir, args.trace_out.is_some(), args.chaos_stage)
        .unwrap_or_else(|e| {
            eprintln!("launch failed: {e}");
            std::process::exit(1);
        });

    if let (Some(trace_out), Some(merged)) = (&args.trace_out, &merged) {
        let json = traces_to_chrome(merged, PidKey::Stage);
        let complete = validate_chrome_trace(&json, sc.schedule.dims.p);
        if let Some(parent) = trace_out.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(trace_out, &json).expect("write merged trace");
        println!(
            "merged {} spans from {} worker processes into {}",
            complete,
            sc.schedule.dims.p,
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
        .run_iteration(&schedule, &sc.batch(), sc.mode, None)
        .expect("in-process reference run");
    if let Some(metrics_out) = &args.metrics_out {
        write_metrics(metrics_out, &run_metrics(&reference));
        println!("wrote reference-run metrics to {}", metrics_out.display());
    }
    println!(
        "multi-process loss {loss:.6} ({} workers over uds, {} codec), in-process loss {:.6}",
        sc.schedule.dims.p,
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
    std::fs::create_dir_all(&args.dir).expect("mesh dir");
    let transport = SocketTransport::with_config(
        SocketMode::Uds(args.dir.clone()),
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
        let out = rt
            .run_stage(&schedule, stage, &batch, sc.mode, None, &mut link)
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
        .expect("usage: mepipe-worker <worker|job|launch|http-get> [flags]");
    if mode == "http-get" {
        run_http_get(rest);
        return;
    }
    let args = parse_args(rest).unwrap_or_else(|e| bad_schedule(e));
    match mode.as_str() {
        "worker" => run_worker(&args),
        "job" => run_job(&args),
        "launch" => run_launch(&args),
        m => panic!("unknown mode {m} (expected worker|job|launch|http-get)"),
    }
}
