#!/usr/bin/env bash
# Runs the end-to-end training-iteration benchmark and refreshes
# BENCH_train.json at the repo root: whole `train_step` iterations of the
# threaded pipeline runtime on a mini-Llama (2 stages x 8 slices x 4
# micro-batches), the data-parallel replica scenario, the multi-process
# launch scenario, the online-autotune scenario (calibration loop on
# an emulated 2 ms/message link; `autotune_speedup` records iteration
# time before vs after the calibrated hot-swap), and the chaos-recovery
# scenario (the same job clean vs chaos-killed under the mepipe-ctl
# daemon; `recovery_overhead` is the wall-clock price of detection +
# restart + re-running at most one checkpoint interval). Every field is
# measured in the same run; there are no baselines carried over from
# other commits or hosts. See crates/bench/benches/train.rs.
#
# Numbers are machine-dependent — re-run this after touching the arena,
# the kernels, the pipeline runtime, or the calibration loop so the
# checked-in JSON matches the code. On a shared machine, run it a few
# times and keep a representative window: the bench already takes the
# minimum over samples inside one run, but cross-run drift can still be
# large.
set -euo pipefail
cd "$(dirname "$0")/.."

# The launch scenario shells out to the release worker binary.
cargo build --release -p mepipe-train --bin mepipe-worker

cargo bench -p mepipe-bench --bench train
