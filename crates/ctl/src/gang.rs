//! Gang supervision: one training job's stage processes as a unit.
//!
//! A gang is `stages` copies of `mepipe-worker job`, one per fleet
//! slot, sharing a mesh directory where they rendezvous once into one
//! UDS mesh for the whole attempt. The gang is scheduled and dies as a
//! unit: a stage that dies mid-run closes its streams without a
//! goodbye, so its peers fail their next transport wait and exit too,
//! but a stage lost before the rendezvous completes leaves its peers
//! blocked in it forever (the mesh has no accept timeout by design). The
//! supervisor's one job is to notice the first casualty, name the root
//! cause rather than the peers that died of it, and kill the rest.
//! Liveness comes from two signals: exit statuses polled without
//! blocking, and per-stage progress files the workers append one line
//! per iteration (a stage that stops appending while still running is
//! hung, not slow — every stage advances in lockstep or not at all).

use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use mepipe_strategy::ScheduleSpec;

/// Everything needed to launch one gang attempt.
#[derive(Debug, Clone)]
pub struct GangConfig {
    /// Path to the `mepipe-worker` binary.
    pub worker_bin: PathBuf,
    /// The schedule every stage regenerates from its flags (stages =
    /// processes = fleet slots) and the verifier replays in-process.
    pub schedule: ScheduleSpec,
    /// Sequence length.
    pub seq_len: usize,
    /// Decoder layers.
    pub layers: usize,
    /// Model/batch seed.
    pub seed: u64,
    /// SGD learning rate.
    pub lr: f32,
    /// Target iteration count (exclusive upper bound).
    pub iters: usize,
    /// First iteration this attempt runs (the restore point).
    pub start_iter: usize,
    /// Checkpoint every this many completed iterations.
    pub ckpt_interval: usize,
    /// Directory receiving `stage-I/iter-N.bin` checkpoints (one epoch).
    pub ckpt_dir: PathBuf,
    /// Scratch for this attempt: mesh dirs, progress files, trace dumps.
    pub work_dir: PathBuf,
    /// Per-stage checkpoint to restore before running (empty = fresh).
    pub restore_from: Vec<Option<PathBuf>>,
    /// Chaos: `(stage, iteration)` — that stage aborts at that iteration.
    pub kill: Option<(usize, usize)>,
    /// Record spans so the control plane can merge a Chrome trace.
    pub traced: bool,
}

impl GangConfig {
    /// Where stage `stage` appends its per-iteration progress lines.
    pub fn progress_path(&self, stage: usize) -> PathBuf {
        self.work_dir.join(format!("progress-stage-{stage}.txt"))
    }

    /// Where stage `stage` dumps its latest iteration's span trace.
    pub fn trace_path(&self, stage: usize) -> PathBuf {
        self.work_dir.join(format!("trace-stage-{stage}.txt"))
    }

    fn stage_command(&self, stage: usize) -> Command {
        let mut cmd = Command::new(&self.worker_bin);
        cmd.arg("job")
            .arg("--stage")
            .arg(stage.to_string())
            .args(self.schedule.to_args())
            .arg("--seq-len")
            .arg(self.seq_len.to_string())
            .arg("--layers")
            .arg(self.layers.to_string())
            .arg("--seed")
            .arg(self.seed.to_string())
            .arg("--lr")
            .arg(self.lr.to_string())
            .arg("--iters")
            .arg(self.iters.to_string())
            .arg("--start-iter")
            .arg(self.start_iter.to_string())
            .arg("--ckpt-interval")
            .arg(self.ckpt_interval.to_string())
            .arg("--ckpt-dir")
            .arg(&self.ckpt_dir)
            .arg("--dir")
            .arg(self.work_dir.join("mesh"))
            .arg("--progress")
            .arg(self.progress_path(stage));
        if let Some(path) = self.restore_from.get(stage).and_then(Option::as_ref) {
            cmd.arg("--restore-from").arg(path);
        }
        if let Some((kill_stage, at_iter)) = self.kill {
            if kill_stage == stage {
                cmd.arg("--kill-at-iter").arg(at_iter.to_string());
            }
        }
        if self.traced {
            cmd.arg("--trace-out").arg(self.trace_path(stage));
        }
        cmd.stdout(Stdio::piped());
        cmd
    }
}

struct Member {
    stage: usize,
    child: Option<Child>,
    reader: Option<std::thread::JoinHandle<String>>,
    stdout: Option<String>,
    status: Option<ExitStatus>,
    /// Progress-file size when last seen growing, and when.
    last_len: u64,
    last_growth: Instant,
}

/// What one non-blocking poll of the gang observed.
#[derive(Debug, Clone, PartialEq)]
pub enum GangPoll {
    /// All stages alive (or cleanly exited and waiting on siblings).
    Running,
    /// Every stage exited 0; `loss` is the stage-order share sum of the
    /// final iteration — bit-identical to an in-process run.
    Completed {
        /// Final-iteration loss, shares summed in stage order.
        loss: f64,
    },
    /// A stage died or hung; the rest were killed. `why` names it.
    Failed {
        /// Which stage started the failure and how.
        why: String,
    },
}

/// A launched gang under supervision.
pub struct Gang {
    cfg: GangConfig,
    members: Vec<Member>,
    done: Option<GangPoll>,
}

impl Gang {
    /// Spawns every stage of the gang.
    ///
    /// # Errors
    ///
    /// Returns an error (after killing any already-spawned stages) if a
    /// spawn fails, naming the stage and the OS error.
    pub fn launch(cfg: GangConfig) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.work_dir)
            .map_err(|e| format!("create gang work dir {}: {e}", cfg.work_dir.display()))?;
        std::fs::create_dir_all(&cfg.ckpt_dir)
            .map_err(|e| format!("create checkpoint dir {}: {e}", cfg.ckpt_dir.display()))?;
        let mut members = Vec::with_capacity(cfg.schedule.dims.p);
        for stage in 0..cfg.schedule.dims.p {
            let mut child = match cfg.stage_command(stage).spawn() {
                Ok(c) => c,
                Err(e) => {
                    let mut gang = Gang {
                        cfg,
                        members,
                        done: None,
                    };
                    gang.kill();
                    return Err(format!("spawn stage {stage}: {e}"));
                }
            };
            // Drain stdout on a thread so a chatty worker can't deadlock
            // against a full pipe while the daemon polls exit statuses.
            let mut stdout = child.stdout.take().expect("piped stdout");
            let reader = std::thread::spawn(move || {
                use std::io::Read;
                let mut buf = String::new();
                let _ = stdout.read_to_string(&mut buf);
                buf
            });
            members.push(Member {
                stage,
                child: Some(child),
                reader: Some(reader),
                stdout: None,
                status: None,
                last_len: 0,
                last_growth: Instant::now(),
            });
        }
        Ok(Gang {
            cfg,
            members,
            done: None,
        })
    }

    /// The config this gang was launched with.
    pub fn config(&self) -> &GangConfig {
        &self.cfg
    }

    /// Iterations each stage has completed, parsed from the progress
    /// files (`iter K ...` lines; completion of iteration K means K+1
    /// iterations done). A stage with no lines yet sits at the attempt's
    /// start iteration. Readable during and after the run — the files
    /// survive the processes, which is what makes post-mortem loss
    /// accounting possible.
    pub fn progress_iters(&self) -> Vec<usize> {
        (0..self.cfg.schedule.dims.p)
            .map(|stage| {
                let text =
                    std::fs::read_to_string(self.cfg.progress_path(stage)).unwrap_or_default();
                text.lines()
                    .filter_map(|l| {
                        l.strip_prefix("iter ")?
                            .split_whitespace()
                            .next()?
                            .parse()
                            .ok()
                    })
                    .map(|k: usize| k + 1)
                    .max()
                    .unwrap_or(self.cfg.start_iter)
            })
            .collect()
    }

    /// Whole-job progress: the slowest stage's completed iterations.
    pub fn completed_iters(&self) -> usize {
        self.progress_iters().into_iter().min().unwrap_or(0)
    }

    /// Polls the gang without blocking. `hang_timeout` bounds how long a
    /// still-running stage may go without appending a progress line
    /// before the gang is declared hung. Terminal results are sticky:
    /// once `Completed` or `Failed` is returned, so is every later call.
    pub fn poll(&mut self, hang_timeout: Duration) -> GangPoll {
        if let Some(done) = &self.done {
            return done.clone();
        }
        let mut first_failure: Option<String> = None;
        // Whether `first_failure` names a stage killed by a signal. A
        // stage that exits with a status reacted to an error it saw —
        // often a peer's death, which fails every peer's next transport
        // wait — while one killed by a signal did not, so when one poll
        // finds both, the signalled stage is the root cause.
        let mut signalled = false;
        for m in &mut self.members {
            let Some(child) = m.child.as_mut() else {
                continue;
            };
            match child.try_wait() {
                Ok(Some(status)) => {
                    m.child.take();
                    m.status = Some(status);
                    m.stdout = m.reader.take().and_then(|r| r.join().ok());
                    let by_signal = status.code().is_none();
                    if !status.success() && (first_failure.is_none() || (by_signal && !signalled)) {
                        first_failure = Some(format!("stage {} exited with {status}", m.stage));
                        signalled = by_signal;
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    if first_failure.is_none() {
                        first_failure = Some(format!("stage {}: poll failed: {e}", m.stage));
                    }
                }
            }
        }
        if first_failure.is_none() {
            for m in &mut self.members {
                if m.child.is_none() {
                    continue;
                }
                let len = std::fs::metadata(self.cfg.progress_path(m.stage))
                    .map(|md| md.len())
                    .unwrap_or(0);
                if len > m.last_len {
                    m.last_len = len;
                    m.last_growth = Instant::now();
                } else if m.last_growth.elapsed() > hang_timeout {
                    first_failure = Some(format!(
                        "stage {} made no progress for {:.0?}",
                        m.stage, hang_timeout
                    ));
                    break;
                }
            }
        }
        if let Some(why) = first_failure {
            self.kill();
            let done = GangPoll::Failed { why };
            self.done = Some(done.clone());
            return done;
        }
        if self.members.iter().any(|m| m.child.is_some()) {
            return GangPoll::Running;
        }
        // Every stage exited 0: combine final-iteration loss shares in
        // stage order, the same addition order as the in-process merge.
        let mut loss = 0.0f64;
        for m in &self.members {
            let stdout = m.stdout.as_deref().unwrap_or("");
            let prefix = format!("RESULT stage={} loss_bits=", m.stage);
            let Some(bits) = stdout
                .lines()
                .find_map(|l| l.strip_prefix(prefix.as_str())?.split_whitespace().next())
                .and_then(|f| f.parse::<u64>().ok())
            else {
                let done = GangPoll::Failed {
                    why: format!("stage {} exited 0 but printed no RESULT line", m.stage),
                };
                self.done = Some(done.clone());
                return done;
            };
            loss += f64::from_bits(bits);
        }
        let done = GangPoll::Completed { loss };
        self.done = Some(done.clone());
        done
    }

    /// Kills and reaps every still-running stage. Idempotent.
    pub fn kill(&mut self) {
        for m in &mut self.members {
            if let Some(mut child) = m.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(reader) = m.reader.take() {
                m.stdout = reader.join().ok().or(m.stdout.take());
            }
        }
    }
}

impl Drop for Gang {
    fn drop(&mut self) {
        self.kill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_schedule::generator::Dims;
    use mepipe_strategy::Method;

    #[test]
    fn a_signalled_stage_is_named_ahead_of_peers_that_exited_after_it() {
        // A stand-in worker: stage 1 aborts at once; stage 0 exits with
        // a panic's status a moment later, as a peer whose next
        // transport wait failed on the dead stage does.
        let dir = std::env::temp_dir().join(format!("mepipe-gang-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let worker = dir.join("worker.sh");
        std::fs::write(
            &worker,
            "#!/bin/sh\nif [ \"$3\" = 1 ]; then kill -ABRT $$; fi\nsleep 0.05\nexit 101\n",
        )
        .unwrap();
        let mut perms = std::fs::metadata(&worker).unwrap().permissions();
        std::os::unix::fs::PermissionsExt::set_mode(&mut perms, 0o755);
        std::fs::set_permissions(&worker, perms).unwrap();
        let mut gang = Gang::launch(GangConfig {
            worker_bin: worker,
            schedule: ScheduleSpec::new(Method::Mepipe, Dims::new(2, 2)),
            seq_len: 16,
            layers: 2,
            seed: 1,
            lr: 0.1,
            iters: 1,
            start_iter: 0,
            ckpt_interval: 0,
            ckpt_dir: dir.join("ckpt"),
            work_dir: dir.join("work"),
            restore_from: Vec::new(),
            kill: None,
            traced: false,
        })
        .unwrap();
        // Let both stages exit before the one poll that sees them.
        for m in &mut gang.members {
            let status = m.child.as_mut().unwrap().wait().unwrap();
            assert!(!status.success());
        }
        let GangPoll::Failed { why } = gang.poll(Duration::from_secs(60)) else {
            panic!("the gang did not fail");
        };
        assert!(why.starts_with("stage 1 exited with signal"), "{why}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
