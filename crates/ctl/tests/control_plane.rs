//! End-to-end control-plane tests against real `mepipe-worker job`
//! gangs: completion with bit-identical replay verification, chaos-kill
//! recovery bounded by the checkpoint interval, drain-triggered live
//! re-sharding, and the UDS control protocol.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mepipe_comm::control::{Request, Response};
use mepipe_ctl::{Daemon, JobState, ServeOptions};
use mepipe_hw::Fleet;

/// Locates the `mepipe-worker` binary for the current profile,
/// rebuilding it unconditionally: `cargo test -p mepipe-ctl` does not
/// rebuild other packages' binaries, so an existing worker can be
/// stale. The build is a no-op when it is already fresh.
fn worker_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test exe");
    dir.pop(); // deps/
    dir.pop(); // debug/ or release/
    let candidate = dir.join("mepipe-worker");
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.args(["build", "-p", "mepipe-train", "--bin", "mepipe-worker"]);
    if dir.file_name().is_some_and(|n| n == "release") {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("cargo build mepipe-worker");
    assert!(status.success(), "building mepipe-worker failed");
    assert!(candidate.exists(), "no worker at {}", candidate.display());
    candidate
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mepipe-ctl-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn daemon(fleet: Fleet, out: PathBuf) -> Daemon {
    Daemon::new(fleet, worker_bin(), out)
        .unwrap()
        .with_hang_timeout(Duration::from_secs(30))
}

/// Ticks until every job is terminal, failing loudly on timeout.
fn drive(d: &mut Daemon, budget: Duration) {
    let deadline = Instant::now() + budget;
    while !d.all_done() {
        assert!(
            Instant::now() < deadline,
            "control plane did not settle within {budget:?}:\n{}",
            d.status_text()
        );
        d.tick();
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Parses a merged Chrome trace and returns how many compute tracks
/// (`pid`, `tid < 1000`) its complete events use; comm spans sit on
/// `tid + 1000` sub-tracks.
fn compute_tracks(json: &str) -> usize {
    let v: serde_json::Value = serde_json::from_str(json).expect("trace JSON parses");
    let events = v.as_array().expect("trace is a JSON array");
    let mut tracks: Vec<(u64, u64)> = Vec::new();
    for e in events.iter().filter(|e| e["ph"].as_str() == Some("X")) {
        let track = (
            e["pid"].as_u64().expect("pid"),
            e["tid"].as_u64().expect("tid"),
        );
        if track.1 < 1000 && !tracks.contains(&track) {
            tracks.push(track);
        }
    }
    tracks.len()
}

#[test]
fn two_jobs_gang_schedule_complete_and_verify() {
    let out = scratch("complete");
    let mut d = daemon(Fleet::homogeneous(1, 4), out.clone());
    // Two 2-stage jobs fill the 4-slot fleet side by side.
    for (name, seed) in [("alpha", 7u64), ("beta", 11u64)] {
        d.submit(&format!(
            "name = \"{name}\"\niters = 4\nstages = 2\nlayers = 4\nmicro_batches = 2\n\
             slices = 2\nseq_len = 16\nseed = {seed}\ncheckpoint_interval = 2\nverify = true\n"
        ))
        .unwrap();
    }
    d.tick();
    assert!(
        d.jobs().iter().all(|j| j.state == JobState::Running),
        "both jobs admitted at once:\n{}",
        d.status_text()
    );
    assert_eq!(d.fleet.free_slots(), 0);
    drive(&mut d, Duration::from_secs(120));
    for job in d.jobs() {
        assert_eq!(job.state, JobState::Completed, "{}", d.status_text());
        assert_eq!(job.restarts, 0);
        assert_eq!(job.lost_iters, 0);
        assert_eq!(job.lost_beyond, 0);
        assert_eq!(
            job.verified,
            Some(true),
            "replay must be bit-identical: {}",
            d.status_text()
        );
        let trace = out.join(format!("job-{}.trace.json", job.spec.name));
        let json = std::fs::read_to_string(&trace).expect("merged Chrome trace written");
        assert_eq!(compute_tracks(&json), job.schedule.dims.p);
        let bubbles = out.join(format!("job-{}.bubbles.txt", job.spec.name));
        let report = std::fs::read_to_string(&bubbles).expect("bubble attribution written");
        assert!(!report.is_empty(), "empty bubble attribution");
    }
    assert_eq!(d.fleet.free_slots(), 4, "slots returned");
    // Different seeds, different trajectories.
    assert_ne!(
        d.jobs()[0].final_loss.unwrap().to_bits(),
        d.jobs()[1].final_loss.unwrap().to_bits()
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn chaos_kill_recovers_within_the_interval_and_stays_bit_identical() {
    let out = scratch("chaos");
    let mut d = daemon(Fleet::homogeneous(1, 4), out.clone());
    // Identical trajectories: one clean, one killed at iteration 3.
    let base = "iters = 6\nstages = 2\nlayers = 4\nmicro_batches = 2\nslices = 2\n\
                seq_len = 16\nseed = 7\ncheckpoint_interval = 2\nverify = true\n";
    d.submit(&format!("name = \"clean\"\n{base}")).unwrap();
    d.submit(&format!(
        "name = \"chaotic\"\n{base}kill_stage = 1\nkill_at_iter = 3\n"
    ))
    .unwrap();
    drive(&mut d, Duration::from_secs(180));

    let clean = &d.jobs()[0];
    let chaotic = &d.jobs()[1];
    assert_eq!(clean.state, JobState::Completed, "{}", d.status_text());
    assert_eq!(chaotic.state, JobState::Completed, "{}", d.status_text());
    assert_eq!(clean.restarts, 0);
    assert_eq!(chaotic.restarts, 1, "exactly one chaos kill");
    // Killed at iteration 3 with checkpoints at 2 and 4: restart from 2
    // re-runs at most one interval of work, never more.
    assert!(
        chaotic.lost_iters >= 1 && chaotic.lost_iters <= 2,
        "{}",
        chaotic.lost_iters
    );
    assert_eq!(chaotic.lost_beyond, 0, "recovery bounded by the interval");
    // Checkpoint-restart rejoins the exact trajectory: same final bits.
    assert_eq!(
        clean.final_loss.unwrap().to_bits(),
        chaotic.final_loss.unwrap().to_bits(),
        "recovered run diverged from the clean run"
    );
    assert_eq!(chaotic.verified, Some(true));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn drain_reshards_live_and_the_replay_spans_the_shape_change() {
    let out = scratch("drain");
    let mut d = daemon(Fleet::homogeneous(2, 2), out.clone());
    d.submit(
        "name = \"elastic\"\niters = 10\nstages = 2\nlayers = 4\nmicro_batches = 4\n\
         slices = 2\nseq_len = 16\nseed = 7\ncheckpoint_interval = 2\nverify = true\n",
    )
    .unwrap();
    // Run until the job has a published checkpoint behind it. A stage
    // writes iter-2.bin before logging `iter 2`, so completed >= 3
    // (every stage past iteration 2) guarantees the iter-2 checkpoint
    // exists for all stages.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        d.tick();
        let job = &d.jobs()[0];
        if job.state == JobState::Running && job.completed >= 3 {
            break;
        }
        assert!(
            !job.state.terminal(),
            "job finished before the drain: {}",
            d.status_text()
        );
        assert!(
            Instant::now() < deadline,
            "no progress: {}",
            d.status_text()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The 2-stage gang packed onto node-0; drain it mid-run.
    let resp = d.handle(&Request::Drain {
        node: "node-0".to_string(),
    });
    assert!(
        matches!(&resp, Response::Ok(s) if s.contains("1 running job")),
        "{resp:?}"
    );
    assert_eq!(d.jobs()[0].state, JobState::Resharding);
    drive(&mut d, Duration::from_secs(180));

    let job = &d.jobs()[0];
    assert_eq!(job.state, JobState::Completed, "{}", d.status_text());
    assert_eq!(job.reshards, 1);
    assert_eq!(job.lost_beyond, 0);
    assert!(job.segments.len() >= 2, "shape history records the switch");
    // The replacement gang fits on undrained capacity only.
    assert!(job.segments.last().unwrap().schedule.dims.p <= 2);
    assert_eq!(
        job.verified,
        Some(true),
        "replay across the re-shard boundary must stay bit-identical: {}",
        d.status_text()
    );
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn control_socket_drives_a_serving_daemon() {
    let out = scratch("serve");
    let socket = out.join("ctl.sock");
    let spool = out.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    // One job arrives via the spool...
    std::fs::write(
        spool.join("spooled.toml"),
        "name = \"spooled\"\niters = 2\nstages = 2\nlayers = 2\nmicro_batches = 2\n\
         slices = 2\nseq_len = 16\ncheckpoint_interval = 1\n",
    )
    .unwrap();
    let d = daemon(Fleet::homogeneous(1, 2), out.join("ctl"));
    let opts = ServeOptions {
        socket: socket.clone(),
        spool: Some(spool.clone()),
        tick: Duration::from_millis(20),
        ..ServeOptions::default()
    };
    let server = std::thread::spawn(move || mepipe_ctl::serve(d, &opts).unwrap());

    let ask = |req: &Request| mepipe_ctl::request(&socket, req, Duration::from_secs(30)).unwrap();
    // ...and one over the socket.
    let resp = ask(&Request::Submit {
        spec: "{\"name\":\"socketed\",\"iters\":2,\"stages\":2,\"layers\":2,\
               \"micro_batches\":2,\"slices\":2,\"seq_len\":16,\"checkpoint_interval\":1}"
            .to_string(),
    });
    assert!(
        matches!(&resp, Response::Ok(s) if s.contains("socketed")),
        "{resp:?}"
    );
    let resp = ask(&Request::Submit {
        spec: "iters = 1".to_string(),
    });
    assert!(
        matches!(&resp, Response::Err(r) if r.contains("name")),
        "{resp:?}"
    );
    let resp = ask(&Request::AddNode { slots: 2 });
    assert!(
        matches!(&resp, Response::Ok(s) if s.contains("node-1")),
        "{resp:?}"
    );

    // Wait for both jobs to finish, then shut down and check status.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let Response::Ok(status) = ask(&Request::Status) else {
            panic!("status failed")
        };
        if status.matches("completed").count() >= 2 {
            assert!(status.contains("spooled"), "{status}");
            assert!(status.contains("socketed"), "{status}");
            break;
        }
        assert!(Instant::now() < deadline, "jobs did not finish:\n{status}");
        std::thread::sleep(Duration::from_millis(50));
    }
    let resp = ask(&Request::Shutdown);
    assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    assert_eq!(server.join().unwrap(), 0, "clean exit code");
    // The spool file was renamed so a rescan cannot double-submit.
    assert!(!spool.join("spooled.toml").exists());
    assert!(spool.join("spooled.toml.accepted").exists());
    // Metrics artifacts landed.
    let prom = std::fs::read_to_string(out.join("ctl").join("metrics.prom")).unwrap();
    assert!(prom.contains("mepipe_ctl_job_state"), "{prom}");
    assert!(prom.contains("mepipe_ctl_job_lost_beyond_interval_total"));
    let _ = std::fs::remove_dir_all(&out);
}
