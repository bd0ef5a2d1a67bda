//! Bridges the runtime's stat structs into one [`MetricsRegistry`].
//!
//! [`RunStats`] carries loss, memory, drain, arena, transport and
//! busy/idle numbers in their own structs; this module registers them
//! all under Prometheus naming conventions so a run exports one JSON or
//! text document instead of four ad-hoc printouts. When the run carried
//! a trace, per-op duration histograms are observed from its spans.

use mepipe_trace::{metrics::DURATION_BUCKETS, MetricsRegistry};

use crate::pipeline::RunStats;

fn stage_label(stage: usize) -> [(&'static str, String); 1] {
    [("stage", stage.to_string())]
}

/// Registers every counter a [`RunStats`] carries into `reg`.
pub fn record_run(reg: &mut MetricsRegistry, stats: &RunStats) {
    reg.gauge(
        "mepipe_loss",
        "Mean next-token cross-entropy of the iteration",
        &[],
        stats.loss,
    );
    for (stage, bytes) in stats.peak_bytes.iter().enumerate() {
        reg.gauge(
            "mepipe_stage_peak_activation_bytes",
            "Peak live activation bytes per stage",
            &stage_label(stage),
            *bytes as f64,
        );
    }
    for (stage, n) in stats.drained_wgrads.iter().enumerate() {
        reg.counter(
            "mepipe_drained_wgrads_total",
            "Weight-gradient GEMMs drained into interconnect waits",
            &stage_label(stage),
            *n as f64,
        );
    }
    for (stage, s) in stats.busy_seconds.iter().enumerate() {
        reg.gauge(
            "mepipe_stage_busy_seconds",
            "Wall-clock compute seconds per stage",
            &stage_label(stage),
            *s,
        );
    }
    for (stage, s) in stats.idle_seconds.iter().enumerate() {
        reg.gauge(
            "mepipe_stage_idle_seconds",
            "Wall-clock non-compute seconds per stage",
            &stage_label(stage),
            *s,
        );
    }
    for (stage, a) in stats.arena.iter().enumerate() {
        let labels = stage_label(stage);
        reg.counter(
            "mepipe_arena_hits_total",
            "Tensor acquisitions served from an arena free list",
            &labels,
            a.hits as f64,
        );
        reg.counter(
            "mepipe_arena_misses_total",
            "Tensor acquisitions that allocated fresh memory",
            &labels,
            a.misses as f64,
        );
        reg.counter(
            "mepipe_arena_recycled_total",
            "Tensor buffers returned to an arena free list",
            &labels,
            a.recycled as f64,
        );
    }
    for cs in &stats.comm {
        let labels = stage_label(cs.stage);
        let t = cs.total();
        reg.counter(
            "mepipe_comm_tx_bytes_total",
            "Bytes sent over the inter-stage transport",
            &labels,
            t.tx_bytes as f64,
        );
        reg.counter(
            "mepipe_comm_tx_messages_total",
            "Messages sent over the inter-stage transport",
            &labels,
            t.tx_messages as f64,
        );
        reg.counter(
            "mepipe_comm_rx_bytes_total",
            "Bytes received over the inter-stage transport",
            &labels,
            t.rx_bytes as f64,
        );
        reg.counter(
            "mepipe_comm_send_stall_seconds_total",
            "Time sends stalled on flow control or socket writes",
            &labels,
            t.send_stall_ns as f64 * 1e-9,
        );
        reg.counter(
            "mepipe_comm_recv_wait_seconds_total",
            "Time blocked in receive waiting for any message",
            &labels,
            cs.recv_wait_ns as f64 * 1e-9,
        );
        reg.counter(
            "mepipe_comm_payload_precodec_bytes_total",
            "Tensor payload bytes before wire-codec encoding",
            &labels,
            t.payload_bytes_precodec as f64,
        );
        reg.counter(
            "mepipe_comm_payload_postcodec_bytes_total",
            "Tensor payload bytes after wire-codec encoding",
            &labels,
            t.payload_bytes_postcodec as f64,
        );
        reg.counter(
            "mepipe_comm_encode_overlap_seconds_total",
            "Encode time overlapped with in-flight wire transfers",
            &labels,
            t.encode_overlap_ns as f64 * 1e-9,
        );
    }
    if let Some(trace) = &stats.trace {
        for st in &trace.stages {
            for s in &st.spans {
                reg.observe(
                    "mepipe_op_duration_seconds",
                    "Measured span durations by stage and op kind",
                    &[
                        ("stage", st.stage.to_string()),
                        ("kind", s.kind.name().to_string()),
                    ],
                    &DURATION_BUCKETS,
                    s.duration_ns() as f64 * 1e-9,
                );
            }
        }
    }
}

/// A fresh registry holding one run's metrics.
pub fn run_metrics(stats: &RunStats) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    record_run(&mut reg, stats);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use crate::pipeline::{PipelineRuntime, WgradMode};
    use mepipe_core::svpp::Mepipe;
    use mepipe_model::config::TransformerConfig;
    use mepipe_schedule::generator::{Dims, ScheduleGenerator};
    use mepipe_tensor::init::synthetic_tokens;

    fn small_run(tracing: bool) -> RunStats {
        let cfg = TransformerConfig {
            seq_len: 32,
            ..TransformerConfig::tiny(4)
        };
        let rt = PipelineRuntime::new(ModelParams::init(cfg, 42), 2, 1).with_tracing(tracing);
        let sch = Mepipe::new().generate(&Dims::new(2, 2).slices(2)).unwrap();
        let batch: Vec<Vec<usize>> = (0..2)
            .map(|i| synthetic_tokens(cfg.seq_len + 1, cfg.vocab, 7 + i))
            .collect();
        rt.run_iteration(&sch, &batch, WgradMode::DrainOnWait, None)
            .unwrap()
    }

    #[test]
    fn run_metrics_cover_every_stat_family() {
        let stats = small_run(true);
        let reg = run_metrics(&stats);
        let text = reg.to_prometheus_text();
        for family in [
            "mepipe_loss",
            "mepipe_stage_peak_activation_bytes",
            "mepipe_drained_wgrads_total",
            "mepipe_stage_busy_seconds",
            "mepipe_stage_idle_seconds",
            "mepipe_arena_hits_total",
            "mepipe_comm_tx_bytes_total",
            "mepipe_comm_payload_precodec_bytes_total",
            "mepipe_comm_payload_postcodec_bytes_total",
            "mepipe_comm_encode_overlap_seconds_total",
            "mepipe_op_duration_seconds",
        ] {
            assert!(text.contains(family), "missing {family}");
        }
        // JSON exposition parses.
        let v: serde_json::Value = serde_json::from_str(&reg.to_json()).expect("valid JSON");
        assert!(v["mepipe_loss"]["samples"][0]["value"].as_f64().is_some());
        // Gauges round-trip the RunStats values exactly.
        assert_eq!(reg.get("mepipe_loss", &[]), Some(stats.loss));
        assert_eq!(
            reg.get("mepipe_stage_busy_seconds", &stage_label(0)),
            Some(stats.busy_seconds[0])
        );
    }

    #[test]
    fn untraced_runs_export_without_histograms() {
        let stats = small_run(false);
        assert!(stats.trace.is_none());
        let reg = run_metrics(&stats);
        let text = reg.to_prometheus_text();
        assert!(!text.contains("mepipe_op_duration_seconds"));
        assert!(text.contains("mepipe_stage_busy_seconds"));
    }
}
