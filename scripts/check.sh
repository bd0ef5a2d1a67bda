#!/usr/bin/env bash
# Full offline quality gate: formatting, lints, build and tests.
#
# Everything runs against the vendored shim crates (see .cargo/config.toml
# and shims/), so no network access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (intra-doc links must resolve and must not point at private items)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
  cargo doc --workspace --no-deps

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run

echo "==> schedule-zoo smoke (render + validate every registered generator)"
cargo run --release -p mepipe-bench --bin experiments -- zoo

echo "==> solver smoke (full synthesis per grid point, 10 s wall-clock cap)"
cargo run --release -p mepipe-bench --bin experiments -- solver_smoke

echo "==> training-math, solver and engine digest (compare its lines against another tree's to check bit-identity)"
# 15 training-math lines, 18 solver lines and 12 engine lines.
DIGEST="$(cargo run --release -p mepipe-bench --bin experiments -- digest | grep '^digest ')"
echo "$DIGEST"
[ "$(echo "$DIGEST" | wc -l)" -eq 45 ] || { echo "digest printed the wrong number of lines"; exit 1; }

echo "==> kernels bench smoke (one untimed call per row, no JSON write)"
cargo bench -p mepipe-bench --bench kernels -- --smoke

echo "==> train bench smoke (one untimed pipeline iteration)"
cargo bench -p mepipe-bench --bench train -- --smoke

echo "==> comm bench smoke (one untimed iteration per transport backend)"
cargo bench -p mepipe-bench --bench comm -- --smoke

echo "==> comm bench gate (socket_uds <= 1.10x inproc, bf16 codec parity)"
cargo bench -p mepipe-bench --bench comm -- --gate

echo "==> multi-process smoke (4 worker processes over Unix sockets)"
cargo run --release -p mepipe-train --bin mepipe-worker -- launch --stages 4

echo "==> multi-process codec smoke (2 workers, bf16 wire codec)"
cargo run --release -p mepipe-train --bin mepipe-worker -- launch --stages 2 --codec bf16

echo "==> merged-trace smoke (4 worker processes, one epoch-aligned Chrome JSON)"
MERGE_DIR="$(mktemp -d)"
cargo run --release -p mepipe-train --bin mepipe-worker -- launch --stages 4 \
  --trace-out "$MERGE_DIR/merged.trace.json" --metrics-out "$MERGE_DIR/metrics.prom"
test -s "$MERGE_DIR/merged.trace.json" || { echo "launch did not write a merged trace"; exit 1; }
test -s "$MERGE_DIR/metrics.prom" || { echo "launch did not write metrics"; exit 1; }
rm -rf "$MERGE_DIR"

echo "==> regenerated-schedule smoke (4 workers rebuild a synthesized, rescheduled schedule from flags)"
# Every process regenerates the solver's schedule and the backward
# rescheduling polish from --schedule/--warmup/--reschedule alone — the
# way a calibrated proposal crosses process boundaries; the loss must
# stay bit-identical to in-process.
cargo run --release -p mepipe-train --bin mepipe-worker -- launch --stages 4 --slices 2 \
  --schedule synth --warmup 6 --reschedule

echo "==> DualPipe, Blocks and ZBV flag smokes (4 workers regenerate each family from --schedule flags)"
SMOKE_DIR="$(mktemp -d)"
target/release/mepipe-worker launch --stages 4 --schedule dualpipe --dir "$SMOKE_DIR/dualpipe"
target/release/mepipe-worker launch --stages 4 --schedule blocks --warmup 0 --dir "$SMOKE_DIR/blocks"
# ZBV's V turns on the last stage, which hands a tensor to itself.
target/release/mepipe-worker launch --stages 4 --schedule zbv --micro-batches 8 --slices 1 \
  --layers 8 --seq-len 32 --dir "$SMOKE_DIR/zbv"
rm -rf "$SMOKE_DIR"

echo "==> control-plane smoke 1/2 (oneshot: 2 spooled jobs, one chaos-killed, on a 1x4 fleet)"
# The serve exit code is the assertion: 0 only if every job completed
# with zero iterations lost beyond its checkpoint interval and every
# requested replay verification was bit-identical.
cargo build --release -p mepipe-ctl --bin mepipe-ctl
CTL_BIN=target/release/mepipe-ctl
CTL_DIR="$(mktemp -d)"
mkdir -p "$CTL_DIR/spool"
cat > "$CTL_DIR/spool/steady.toml" <<'EOF'
name = "steady"
iters = 4
stages = 2
layers = 4
micro_batches = 2
slices = 2
seq_len = 16
checkpoint_interval = 2
verify = true
EOF
cat > "$CTL_DIR/spool/chaotic.toml" <<'EOF'
name = "chaotic"
iters = 6
stages = 2
layers = 4
micro_batches = 2
slices = 2
seq_len = 16
checkpoint_interval = 2
verify = true
kill_stage = 1
kill_at_iter = 3
EOF
timeout 300 "$CTL_BIN" serve --socket "$CTL_DIR/ctl.sock" --spool "$CTL_DIR/spool" \
  --out "$CTL_DIR/out" --nodes 1 --slots-per-node 4 --tick-ms 20 \
  --oneshot --expect-jobs 2
grep -q 'mepipe_ctl_job_restarts_total{job="chaotic"} 1' "$CTL_DIR/out/metrics.prom" \
  || { echo "chaos job did not restart exactly once"; exit 1; }
grep -q 'mepipe_ctl_job_lost_beyond_interval_total{job="chaotic"} 0' "$CTL_DIR/out/metrics.prom" \
  || { echo "recovery lost more than one checkpoint interval"; exit 1; }
# The chaos kill must also leave a flight-recorder dump whose recent
# events name the killed stage.
test -s "$CTL_DIR/out/postmortem-chaotic.json" \
  || { echo "chaos kill left no postmortem dump"; exit 1; }
grep -q 'stage 1 exited' "$CTL_DIR/out/postmortem-chaotic.json" \
  || { echo "postmortem does not name the killed stage"; exit 1; }
grep -q '"stage":1' "$CTL_DIR/out/postmortem-chaotic.json" \
  || { echo "postmortem events carry no stage tag"; exit 1; }
rm -rf "$CTL_DIR"

echo "==> control-plane smoke 2/2 (drain mid-run: live re-shard off the drained node)"
CTL_DIR="$(mktemp -d)"
cat > "$CTL_DIR/elastic.toml" <<'EOF'
name = "elastic"
iters = 40
stages = 2
layers = 4
micro_batches = 4
slices = 2
seq_len = 16
checkpoint_interval = 2
verify = true
EOF
timeout 300 "$CTL_BIN" serve --socket "$CTL_DIR/ctl.sock" --out "$CTL_DIR/out" \
  --nodes 2 --slots-per-node 2 --tick-ms 20 --http 127.0.0.1:0 \
  2> "$CTL_DIR/serve.log" &
CTL_PID=$!
"$CTL_BIN" submit --socket "$CTL_DIR/ctl.sock" "$CTL_DIR/elastic.toml"
# The daemon announces its bound observability address in the event log.
WORKER_BIN=target/release/mepipe-worker
OBS_ADDR=""
for _ in $(seq 1 200); do
  OBS_ADDR=$(grep -o 'http://[0-9.:]*' "$CTL_DIR/serve.log" 2>/dev/null | head -1 | sed 's|http://||' || true)
  if [ -n "$OBS_ADDR" ]; then break; fi
  sleep 0.05
done
test -n "$OBS_ADDR" || { echo "daemon never announced its observability endpoint"; exit 1; }
[ "$("$WORKER_BIN" http-get "$OBS_ADDR" /healthz)" = "ok" ] \
  || { echo "/healthz did not answer ok"; exit 1; }
"$WORKER_BIN" http-get "$OBS_ADDR" /status | grep -q '"jobs"' \
  || { echo "/status is missing the jobs array"; exit 1; }
# Wait for a published checkpoint (a stage logs iter 2 only after
# iter-2.bin landed) by scraping the live endpoint with the exporter's
# own client; the completed-iterations gauge must be monotone under
# load. Then drain the node the gang packed onto.
PREV=-1
for _ in $(seq 1 600); do
  DONE=$("$WORKER_BIN" http-get "$OBS_ADDR" /metrics 2>/dev/null \
    | awk '/^mepipe_ctl_job_completed_iterations\{job="elastic"\}/ {print $2}' || true)
  DONE=${DONE%%.*}
  DONE=${DONE:-0}
  if [ "$DONE" -lt "$PREV" ]; then
    echo "completed iterations went backwards ($PREV -> $DONE)"; exit 1
  fi
  PREV=$DONE
  if [ "$DONE" -ge 3 ]; then break; fi
  sleep 0.05
done
[ "$PREV" -ge 3 ] || { echo "job never reached 3 completed iterations"; exit 1; }
"$WORKER_BIN" http-get "$OBS_ADDR" /metrics \
  | grep -q 'mepipe_ctl_stage_completed_iterations' \
  || { echo "live scrape is missing per-stage progress"; exit 1; }
"$CTL_BIN" drain --socket "$CTL_DIR/ctl.sock" node-0
"$CTL_BIN" shutdown --socket "$CTL_DIR/ctl.sock"
wait "$CTL_PID"
grep -q 'mepipe_ctl_job_reshards_total{job="elastic"} 1' "$CTL_DIR/out/metrics.prom" \
  || { echo "drain did not trigger exactly one live re-shard"; exit 1; }
grep -q 'mepipe_ctl_job_lost_beyond_interval_total{job="elastic"} 0' "$CTL_DIR/out/metrics.prom" \
  || { echo "re-shard lost more than one checkpoint interval"; exit 1; }
rm -rf "$CTL_DIR"

echo "==> cargo test -q --workspace (tier-1 + workspace suites)"
cargo test -q --workspace

echo "==> benchmark selftest (perfbench is its own workspace: every workload, untraced + traced)"
# Neither the workspace build nor the tests above compile perfbench/, so
# this is what catches an API change in crates/* that breaks it.
python3 perfbench/selftest.py

echo "All checks passed."
