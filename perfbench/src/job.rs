//! `job-uds`: a seeded sequence of supervised `mepipe-ctl` jobs driven
//! through `Daemon::submit`/`tick`, one job at a time on a 1×2 fleet.
//! Each job is two `mepipe-worker` processes talking over Unix sockets,
//! checkpointing every 5 iterations and verified by an in-process
//! replay; a quarter of the jobs lose stage 1 to a chaos kill and
//! recover from their last checkpoint.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mepipe_ctl::{verify_replay, Daemon, Job, JobSpec, JobState, Segment};
use mepipe_hw::Fleet;
use mepipe_trace::{dump, SpanKind, StageTrace};
use mepipe_train::checkpoint;
use mepipe_train::params::ModelParams;

use crate::report::Report;
use crate::stats::median;
use crate::{mix, run_for};

const STAGES: usize = 2;
const ITERS: usize = 20;
const INTERVAL: usize = 5;
/// Iteration at whose start a chaos job's stage 1 aborts: the restart
/// resumes from the checkpoint at 10 and re-runs two iterations.
const KILL_AT: usize = 12;
/// Sleep between daemon ticks.
const TICK: Duration = Duration::from_millis(2);
/// Daemon builds per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Scratch root under the working directory.
const WORK_DIR: &str = ".bench_work";
/// Jobs per daemon: each block of four (one of them chaos-killed) runs
/// on a fresh daemon, so per-tick costs that grow with the job table
/// stay the same from run to run.
const BLOCK: usize = 4;

fn spec_text(name: &str, seed: u64, iters: usize, chaos: bool, verify: bool) -> String {
    let mut s = format!(
        "name = \"{name}\"\niters = {iters}\nstages = {STAGES}\nlayers = 4\nmicro_batches = 4\n\
         slices = 4\nseq_len = 64\ncheckpoint_interval = {INTERVAL}\nseed = {seed}\nverify = {verify}\n"
    );
    if chaos {
        s.push_str(&format!("kill_stage = 1\nkill_at_iter = {KILL_AT}\n"));
    }
    s
}

/// Job `i` of the sequence for `seed`: its model/data seed and whether
/// it is chaos-killed (exactly one job in each block).
fn job_plan(seed: u64, i: usize) -> (u64, bool) {
    let job_seed = mix(seed, i as u64) % 1_000_000_007;
    let chaos_slot = mix(seed ^ 0xc4a0, (i / BLOCK) as u64) % BLOCK as u64;
    (job_seed, (i % BLOCK) as u64 == chaos_slot)
}

/// What the tick loop saw of one job, seconds since its submission.
#[derive(Default)]
struct Seen {
    chaos: bool,
    admit_tick: f64,
    admitted: Option<f64>,
    first_iter: Option<f64>,
    all_iters: Option<f64>,
    failed_at: Option<(f64, usize)>,
    restored_from: Option<usize>,
    resumed: Option<f64>,
    recovered: Option<f64>,
    done: f64,
}

impl Seen {
    fn iter_period(&self) -> Option<f64> {
        Some((self.all_iters? - self.first_iter?) / (ITERS - 1) as f64)
    }
}

/// What the run keeps of a finished job.
struct Done {
    seen: Seen,
    lost_iters: u64,
    spec: JobSpec,
    segments: Vec<Segment>,
    /// The workers' last-iteration span dumps (clean jobs only).
    stages: Option<Vec<StageTrace>>,
}

/// The daemon under test, with a scratch output directory under the
/// working directory (relative, so socket paths stay short) that is
/// removed when the daemon is replaced or dropped.
struct Bench {
    worker: PathBuf,
    daemon: Daemon,
    dir: PathBuf,
    generation: usize,
    tick_s: Vec<f64>,
    next: usize,
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Only succeeds once the last run's directory is gone.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

fn daemon(worker: &Path, dir: &Path) -> Daemon {
    let _ = std::fs::remove_dir_all(dir);
    Daemon::new(
        Fleet::homogeneous(1, STAGES),
        worker.to_path_buf(),
        dir.to_path_buf(),
    )
    .expect("daemon out dir")
    .with_hang_timeout(Duration::from_secs(20))
}

fn scratch(generation: usize) -> PathBuf {
    PathBuf::from(WORK_DIR).join(format!("{}-{generation}", std::process::id()))
}

impl Bench {
    fn new(worker: &Path) -> Bench {
        let dir = scratch(0);
        Bench {
            worker: worker.to_path_buf(),
            daemon: daemon(worker, &dir),
            dir,
            generation: 0,
            tick_s: Vec::new(),
            next: 0,
        }
    }

    /// Replaces the daemon with a fresh one on a fresh directory.
    fn renew(&mut self) {
        self.generation += 1;
        let dir = scratch(self.generation);
        self.daemon = daemon(&self.worker, &dir);
        let _ = std::fs::remove_dir_all(std::mem::replace(&mut self.dir, dir));
    }

    /// Submits one job and ticks until it is terminal.
    fn drive(&mut self, text: &str, chaos: bool) -> (usize, Seen) {
        let idx = self.daemon.jobs().len();
        let t0 = Instant::now();
        self.daemon.submit(text).expect("job spec parses");
        let mut seen = Seen {
            chaos,
            ..Seen::default()
        };
        let mut high_water = 0;
        loop {
            let t = Instant::now();
            self.daemon.tick();
            let tick = t.elapsed().as_secs_f64();
            self.tick_s.push(tick);
            let now = t0.elapsed().as_secs_f64();
            // Progress and failures are stamped at the start of the tick
            // that saw them: the tick that sees a gang exit also runs the
            // verify replay, which must not count as iteration time.
            let seen_at = t.duration_since(t0).as_secs_f64();
            let job = &self.daemon.jobs()[idx];
            let running = job.state == JobState::Running;
            if running && seen.admitted.is_none() {
                seen.admitted = Some(now);
                seen.admit_tick = tick;
            }
            if job.completed >= 1 && seen.first_iter.is_none() {
                seen.first_iter = Some(seen_at);
            }
            match seen.failed_at {
                None if seen.admitted.is_some() && !running && !job.state.terminal() => {
                    seen.failed_at = Some((seen_at, job.completed.max(high_water)));
                }
                Some((_, hw)) if running => {
                    let from = *seen.restored_from.get_or_insert(job.completed);
                    if seen.resumed.is_none() && job.completed > from {
                        seen.resumed = Some(seen_at);
                    }
                    if job.completed >= hw && seen.recovered.is_none() {
                        seen.recovered = Some(seen_at);
                    }
                }
                _ => {}
            }
            if running {
                high_water = high_water.max(job.completed);
            }
            if job.completed >= ITERS && seen.all_iters.is_none() {
                seen.all_iters = Some(seen_at);
            }
            if job.state.terminal() {
                seen.done = now;
                return (idx, seen);
            }
            std::thread::sleep(TICK);
        }
    }

    /// Runs job `self.next` of the seeded sequence, gates it and keeps
    /// what the ladder needs.
    fn next_job(&mut self, seed: u64, rep: &mut Report) -> Done {
        let i = self.next;
        self.next += 1;
        if i.is_multiple_of(BLOCK) {
            self.renew();
        }
        let (job_seed, chaos) = job_plan(seed, i);
        let name = format!("j{i:03}");
        let (idx, seen) = self.drive(&spec_text(&name, job_seed, ITERS, chaos, true), chaos);
        let job = &self.daemon.jobs()[idx];
        rep.op(gate(job, chaos));
        let attempt = self.dir.join("jobs").join(&name).join("attempt-1");
        let stages = (!chaos)
            .then(|| {
                (0..STAGES)
                    .map(|st| {
                        dump::read_stage_trace(&attempt.join(format!("trace-stage-{st}.txt")))
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .ok()
            })
            .flatten();
        Done {
            seen,
            lost_iters: job.lost_iters,
            spec: job.spec.clone(),
            segments: job.segments.clone(),
            stages,
        }
    }
}

/// The job gates: completed, replay bit-identical, nothing lost beyond
/// one checkpoint interval, and exactly one restart per chaos job.
fn gate(job: &Job, chaos: bool) -> Option<String> {
    let name = &job.spec.name;
    if job.state != JobState::Completed {
        return Some(format!("job {name} ended {:?}: {:?}", job.state, job.error));
    }
    if job.verified != Some(true) {
        return Some(format!(
            "job {name} replay not bit-identical: {:?}",
            job.error
        ));
    }
    if job.lost_beyond != 0 {
        return Some(format!(
            "job {name} lost {} iterations beyond the interval",
            job.lost_beyond
        ));
    }
    if job.restarts != u64::from(chaos) {
        return Some(format!(
            "job {name} restarted {} times (chaos {chaos})",
            job.restarts
        ));
    }
    None
}

/// Builds a daemon and runs a five-iteration warm-up job through it
/// (process spawn, mesh rendezvous, a checkpoint, exit, verify replay),
/// `reps` times; keeps the last. Measured jobs start on a fresh daemon.
fn setup(worker: &Path, reps: usize) -> (Bench, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        let mut b = Bench::new(worker);
        let (idx, _) = b.drive(&spec_text("warmup", 1, INTERVAL, false, true), false);
        assert_eq!(
            b.daemon.jobs()[idx].state,
            JobState::Completed,
            "warm-up job failed: {}",
            b.daemon.status_text()
        );
        times.push(t.elapsed().as_secs_f64());
        b.tick_s.clear();
        kept = Some(b);
    }
    (kept.expect("at least one setup"), times)
}

/// The end-to-end run: jobs back to back for `seconds`.
pub fn run(worker: &Path, seed: u64, seconds: f64, rep: &mut Report) {
    let (mut b, setups) = setup(worker, SETUPS);
    let start = Instant::now();
    let mut seen = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        seen.push(b.next_job(seed, rep).seen);
    }
    let clean: Vec<&Seen> = seen.iter().filter(|s| !s.chaos).collect();
    let iter_ms: Vec<f64> = clean
        .iter()
        .filter_map(|s| s.iter_period())
        .map(|p| p * 1e3)
        .collect();
    let start_ms: Vec<f64> = seen
        .iter()
        .filter_map(|s| s.first_iter)
        .map(|t| t * 1e3)
        .collect();
    let recovery_ms: Vec<f64> = seen
        .iter()
        .filter_map(|s| Some((s.recovered? - s.failed_at?.0) * 1e3))
        .collect();
    let wall_s: Vec<f64> = clean.iter().map(|s| s.done).collect();
    rep.named("job_iter_ms_p50", median(&iter_ms), "ms", iter_ms.len());
    rep.named("job_start_ms_p50", median(&start_ms), "ms", start_ms.len());
    rep.named(
        "job_recovery_ms_p50",
        median(&recovery_ms),
        "ms",
        recovery_ms.len(),
    );
    rep.named("job_wall_s_p50", median(&wall_s), "s", wall_s.len());
    rep.e2e("op_ms_p50", median(&iter_ms), "ms", iter_ms.len());
    rep.e2e("task_s_p50", median(&wall_s), "s", wall_s.len());
    rep.e2e("setup_s", median(&setups), "s", setups.len());
}

/// One stage dump's span totals, milliseconds.
fn span_ms(st: &StageTrace, kinds: &[SpanKind]) -> f64 {
    st.spans
        .iter()
        .filter(|s| kinds.contains(&s.kind))
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        / 1e6
}

/// Medians of `f` over `items`, and how many values it had.
fn med<T>(items: &[T], f: impl Fn(&T) -> Option<f64>) -> (f64, usize) {
    let v: Vec<f64> = items.iter().filter_map(f).collect();
    (median(&v), v.len())
}

/// The per-layer ladder within `budget` seconds (at least one clean and
/// one chaos job): control-plane tick, admission and restart costs,
/// the verify replay, checkpoint save/restore, and each clean job's
/// last-iteration stage spans from the workers' trace dumps.
pub fn ladder(worker: &Path, seed: u64, budget: f64, rep: &mut Report) {
    let start = Instant::now();
    let (mut b, _) = setup(worker, 1);
    let mut jobs: Vec<Done> = Vec::new();
    while start.elapsed().as_secs_f64() < budget * 0.8
        || !jobs.iter().any(|d| d.seen.chaos)
        || !jobs.iter().any(|d| !d.seen.chaos)
    {
        jobs.push(b.next_job(seed, rep));
    }

    // Per clean job: its iteration period against its last iteration's
    // spans, summed over stages; the unattributed rest is the period
    // minus the busiest stage's span-covered time.
    let traced: Vec<(f64, &Vec<StageTrace>)> = jobs
        .iter()
        .filter_map(|d| Some((d.seen.iter_period()? * 1e3, d.stages.as_ref()?)))
        .collect();
    let sum = |stages: &[StageTrace], kinds: &[SpanKind]| -> f64 {
        stages.iter().map(|st| span_ms(st, kinds)).sum()
    };
    let covered = |stages: &[StageTrace]| -> f64 {
        stages
            .iter()
            .map(|st| st.spans.iter().map(|x| x.duration_ns() as f64).sum::<f64>() / 1e6)
            .fold(0.0, f64::max)
    };
    let layer = |rep: &mut Report, name: &str, f: &dyn Fn(f64, &[StageTrace]) -> f64| {
        let (v, n) = med(&traced, |(p, st)| Some(f(*p, st)));
        rep.layer(name, v, "ms", n);
        v
    };
    let period = layer(rep, "job.iter_ms", &|p, _| p);
    let spans = layer(rep, "job.span_ms", &|_, st| covered(st));
    layer(rep, "job.forward_ms", &|_, st| {
        sum(st, &[SpanKind::Forward])
    });
    layer(rep, "job.backward_ms", &|_, st| {
        sum(st, &[SpanKind::Backward, SpanKind::BackwardInput])
    });
    layer(rep, "job.wgrad_ms", &|_, st| {
        sum(st, &[SpanKind::BackwardWeight, SpanKind::WgradDrain])
    });
    layer(rep, "comm.uds.recv_wait_ms", &|_, st| {
        sum(st, &[SpanKind::RecvWait])
    });
    layer(rep, "comm.uds.send_ms", &|_, st| sum(st, &[SpanKind::Send]));
    let rest = layer(rep, "job.unattributed_ms", &|p, st| p - covered(st));

    let tick_us: Vec<f64> = b.tick_s.iter().map(|t| t * 1e6).collect();
    rep.layer("ctl.tick_us_p50", median(&tick_us), "us", tick_us.len());
    let ms = |rep: &mut Report, name: &str, f: &dyn Fn(&Seen) -> Option<f64>| {
        let (v, n) = med(&jobs, |d| f(&d.seen));
        rep.layer(name, v * 1e3, "ms", n);
    };
    ms(rep, "ctl.admit_ms", &|s| Some(s.admit_tick));
    ms(rep, "ctl.first_iter_ms", &|s| {
        Some(s.first_iter? - s.admitted?)
    });
    ms(rep, "ctl.restart_ms", &|s| {
        Some(s.resumed? - s.failed_at?.0)
    });
    let (rerun, n) = med(&jobs, |d| d.seen.chaos.then_some(d.lost_iters as f64));
    rep.layer("ctl.rerun_iters", rerun, "count", n);

    // The verify replay of the last clean job, priced on its own.
    let last = jobs
        .iter()
        .rev()
        .find(|d| !d.seen.chaos)
        .expect("a clean job ran");
    let verify = run_for(budget * 0.05, 1, || {
        black_box(verify_replay(&last.spec, &last.segments).expect("verify replay"));
    });
    rep.layer("ctl.verify_ms", median(&verify) * 1e3, "ms", verify.len());

    // Checkpoint save (serialise, write, publish) and restore (read,
    // decode) at the job's model, as a worker does them.
    let model = ModelParams::init(last.spec.config(), last.spec.seed);
    let path = b.dir.join("ckpt.bin");
    let tmp = b.dir.join("ckpt.tmp");
    let mut bytes = 0;
    let save = run_for(budget * 0.02, 5, || {
        let buf = checkpoint::save(&model);
        bytes = buf.len();
        std::fs::write(&tmp, buf).expect("write checkpoint");
        std::fs::rename(&tmp, &path).expect("publish checkpoint");
    });
    let restore = run_for(budget * 0.02, 5, || {
        let buf = std::fs::read(&path).expect("read checkpoint");
        black_box(checkpoint::restore(&buf).expect("restore checkpoint"));
    });
    rep.layer(
        "train.checkpoint_save_ms",
        median(&save) * 1e3,
        "ms",
        save.len(),
    );
    rep.layer(
        "train.checkpoint_restore_ms",
        median(&restore) * 1e3,
        "ms",
        restore.len(),
    );
    rep.layer("train.checkpoint_bytes", bytes as f64, "bytes", 1);
    rep.note(format!(
        "job ladder: iteration {period:.2} ms = busiest stage's spans {spans:.2} + unattributed {rest:.2} \
         (medians over {} clean jobs); recovery = restart + re-run iterations",
        traced.len()
    ));
}
