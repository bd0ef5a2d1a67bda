#!/usr/bin/env bash
# Runs the transport-layer benchmark and refreshes BENCH_comm.json at the
# repo root: the same MEPipe training iteration (2 stages x 4 slices x 4
# micro-batches) on every mepipe-comm backend — in-process bounded
# queues, framed tensors over Unix-domain sockets, and link emulation at
# PCIe 4.0 and 100G InfiniBand speeds. The socket and in-process rows are
# repeated under the bf16 wire codec (socket_uds_bf16, inproc_bf16) so
# the JSON records the payload compression alongside the f32 baseline;
# each row carries payload_precodec_bytes / payload_postcodec_bytes /
# encode_overlap_s from the per-link codec counters. Emulated rows include the
# measured/modeled wire-time ratio from mepipe_sim::fidelity::wire; expect it
# near 1 (each send holds the sender for exactly its modeled wire time,
# sleeping the bulk and spinning the rest) and inside the [0.5, 2] band
# the report warns outside of (see crates/sim/src/fidelity.rs).
#
# Numbers are machine-dependent — re-run after touching the transport,
# the frame codec, or the pipeline runtime so the checked-in JSON matches
# the code.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p mepipe-bench --bench comm
