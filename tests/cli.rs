//! Integration tests of the `mepipe` CLI binary (spawned as a process via
//! the `CARGO_BIN_EXE_*` path Cargo provides to integration tests).

use std::process::Command;

fn mepipe(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mepipe"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn analyze_prints_table3() {
    let (stdout, _, ok) = mepipe(&["analyze", "-p", "8", "-v", "2", "-s", "4", "-n", "16"]);
    assert!(ok);
    assert!(stdout.contains("SVPP"));
    assert!(stdout.contains("DAPPLE"));
    assert!(stdout.contains("TeraPipe"));
}

#[test]
fn schedule_generates_and_renders() {
    let (stdout, _, ok) = mepipe(&[
        "schedule", "--method", "svpp", "-p", "4", "-s", "2", "-n", "4", "--render",
    ]);
    assert!(ok);
    assert!(stdout.contains("SVPP: 4 workers"));
    assert!(stdout.contains("stage 0: Fa0"));
}

#[test]
fn simulate_reports_headline_metrics() {
    let path = std::env::temp_dir().join(format!("mepipe-cli-{}.trace.json", std::process::id()));
    let trace = path.to_str().expect("utf-8 temp path");
    let (stdout, _, ok) = mepipe(&[
        "simulate", "--model", "13b", "--gbs", "128", "--pp", "8", "--dp", "8", "--spp", "4",
        "--trace", trace,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("iteration time"));
    assert!(stdout.contains("MFU"));
    assert!(stdout.contains("chrome trace"));

    // The trace is the engine's own spans through the one Chrome writer:
    // a compute track per stage and the modeled waits on the comm
    // sub-track under it.
    let json = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    let events: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let spans: Vec<_> = events
        .as_array()
        .expect("event array")
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .collect();
    let tid = |e: &serde_json::Value| e["tid"].as_u64().expect("tid");
    let compute: std::collections::BTreeSet<u64> =
        spans.iter().map(|e| tid(e)).filter(|&t| t < 1000).collect();
    assert_eq!(compute.len(), 8, "compute tracks {compute:?}");
    let waits: Vec<_> = spans.iter().filter(|e| tid(e) >= 1000).collect();
    assert!(!waits.is_empty(), "no modeled waits on the comm sub-track");
    assert!(waits.iter().all(|e| e["cat"].as_str() == Some("recv_wait")));
}

#[test]
fn simulate_rejects_oom_configs() {
    // DAPPLE-esque: 13B without slicing at pp=8 cannot hold activations.
    let (_, stderr, ok) = mepipe(&[
        "simulate", "--model", "13b", "--gbs", "128", "--pp", "8", "--dp", "8",
    ]);
    assert!(!ok);
    assert!(stderr.contains("OOM"), "stderr: {stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = mepipe(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn missing_flags_are_reported() {
    let (_, stderr, ok) = mepipe(&["schedule", "--method", "svpp"]);
    assert!(!ok);
    assert!(stderr.contains("missing required flag"), "stderr: {stderr}");
}
