//! Elastic re-shard search: pick a new pipeline shape for new capacity.
//!
//! [`SearchEngine::retune_mepipe`] answers "better schedule, same
//! shape?" — the hot-swap question, where the stage count is frozen
//! because workers keep their in-flight state. The control plane asks a
//! bigger question when the fleet itself changes (a node drained, a
//! node added): *given `max_stages` slots and a checkpoint to restart
//! from, what shape should the pipeline take now?* A restart-from-
//! checkpoint tolerates any stage count, so the search may widen or
//! narrow the pipeline, not just re-slice it.
//!
//! [`SearchEngine::reshard_mepipe`] enumerates feasible stage counts
//! (divisors of the layer count, capped by the fleet), prices each
//! count's full retune space, and returns one flat ranking. Rows go
//! through the engine's shared schedule cache, so repeated capacity
//! events re-generate nothing.

use mepipe_hw::topology::ClusterSpec;
use mepipe_model::config::TransformerConfig;
use mepipe_model::cost::ExecutionCost;
use mepipe_model::partition::PartitionSpec;

use crate::engine::SearchEngine;
use crate::retune::{rank, Retuned};

/// The slice of `cluster` a `p`-stage gang would actually occupy, since
/// the cost model insists the partition fill its cluster exactly. The
/// control plane packs gangs node-by-node, so: whole nodes when `p`
/// divides evenly into them, one partial node when the gang fits inside
/// one, and — for awkward counts spanning a node boundary — every link
/// priced as inter-node, which can only overstate communication cost.
fn subcluster(cluster: &ClusterSpec, p: usize) -> ClusterSpec {
    let gpn = cluster.gpus_per_node;
    if p.is_multiple_of(gpn) {
        ClusterSpec {
            nodes: p / gpn,
            gpus_per_node: gpn,
            ..cluster.clone()
        }
    } else if p < gpn {
        ClusterSpec {
            nodes: 1,
            gpus_per_node: p,
            ..cluster.clone()
        }
    } else {
        ClusterSpec {
            nodes: p,
            gpus_per_node: 1,
            intra_node: cluster.inter_node.clone(),
            ..cluster.clone()
        }
    }
}

impl SearchEngine {
    /// Ranks schedules of every feasible stage count for a job restarting
    /// from a checkpoint onto a fleet with `max_stages` free slots.
    ///
    /// `template` fixes everything re-sharding must preserve — virtual
    /// chunks, micro-batch shape, recompute flag, sequence split style;
    /// only its `pp` is swept. A stage count is feasible when it is at
    /// most `max_stages`, divides the pipeline slot count evenly (each
    /// stage owns an equal contiguous block, the invariant checkpoint
    /// merging relies on), and at most the micro-batch count (an
    /// emptier pipeline never beats the same schedule one stage
    /// narrower). Callers pricing the mini-runtime should pass the
    /// `layers - 2` adjusted config the cost model expects (the
    /// `Calibrator::prior_for` convention in `mepipe-train`), which
    /// makes modeled slots equal runtime layers and the two
    /// feasibility rules coincide.
    ///
    /// Rows come back sorted fastest-first across all stage counts,
    /// ties broken by *fewer* stages (frees slots for other jobs), so
    /// `[0]` is the recommendation.
    ///
    /// # Errors
    ///
    /// Returns an error if no stage count is feasible, or if cost
    /// construction / schedule generation fails for a feasible one.
    pub fn reshard_mepipe(
        &self,
        cfg: &TransformerConfig,
        template: &PartitionSpec,
        cluster: &ClusterSpec,
        max_stages: usize,
        max_units: Option<usize>,
    ) -> Result<Vec<Retuned>, String> {
        let n = template.micro_batches();
        let slots = cfg.pipeline_slots();
        let mut rows = Vec::new();
        let mut feasible = 0usize;
        for p in 1..=max_stages.min(slots).min(n) {
            if !slots.is_multiple_of(p * template.vp) {
                continue;
            }
            feasible += 1;
            let spec = PartitionSpec { pp: p, ..*template };
            let cost = ExecutionCost::new(*cfg, spec, &subcluster(cluster, p))
                .map_err(|e| format!("cost model at p={p}: {e}"))?;
            rows.extend(self.retune_mepipe(&cost, max_units)?);
        }
        if feasible == 0 {
            return Err(format!(
                "no feasible stage count: slots={slots}, micro_batches={n}, max_stages={max_stages}"
            ));
        }
        rank(&mut rows);
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mepipe_hw::{accelerator::AcceleratorSpec, link::LinkSpec};
    use mepipe_model::partition::SequenceSplit;
    use mepipe_schedule::validate;

    fn setup() -> (TransformerConfig, PartitionSpec, ClusterSpec) {
        // The `prior_for` convention: a 4-layer runtime job is priced as
        // `tiny(2)` so its 4 modeled slots are the 4 runtime layers.
        let cfg = TransformerConfig {
            seq_len: 64,
            ..TransformerConfig::tiny(2)
        };
        let template = PartitionSpec {
            pp: 4, // swept; only the rest of the template matters
            vp: 1,
            dp: 1,
            seq: SequenceSplit::SlicePipeline { slices: 4 },
            recompute: false,
            micro_batch_size: 1,
            global_batch: 4,
        };
        let cluster = ClusterSpec {
            nodes: 1,
            gpus_per_node: 4,
            accelerator: AcceleratorSpec::rtx4090(),
            intra_node: LinkSpec::pcie4(),
            inter_node: LinkSpec::ib_100g(),
        };
        (cfg, template, cluster)
    }

    #[test]
    fn sweeps_every_feasible_stage_count() {
        let (cfg, template, cluster) = setup();
        let engine = SearchEngine::new();
        let rows = engine
            .reshard_mepipe(&cfg, &template, &cluster, 4, None)
            .unwrap();
        let mut stages: Vec<usize> = rows.iter().map(|r| r.spec.dims.p).collect();
        stages.sort_unstable();
        stages.dedup();
        // 4 slots, 4 micro-batches: p ∈ {1, 2, 4} divide the slots.
        assert_eq!(stages, vec![1, 2, 4]);
        for w in rows.windows(2) {
            assert!(w[0].iteration_time <= w[1].iteration_time);
        }
        for r in &rows {
            assert_eq!(r.schedule.num_workers(), r.spec.dims.p);
            validate::validate(&r.schedule).unwrap();
        }
    }

    #[test]
    fn capacity_cap_narrows_the_pipeline() {
        let (cfg, template, cluster) = setup();
        let engine = SearchEngine::new();
        let rows = engine
            .reshard_mepipe(&cfg, &template, &cluster, 3, None)
            .unwrap();
        assert!(
            rows.iter().all(|r| r.spec.dims.p <= 2),
            "p=3 infeasible, p=4 capped"
        );
        assert!(rows.iter().any(|r| r.spec.dims.p == 2));
    }

    #[test]
    fn zero_capacity_is_an_error() {
        let (cfg, template, cluster) = setup();
        let engine = SearchEngine::new();
        let err = engine
            .reshard_mepipe(&cfg, &template, &cluster, 0, None)
            .unwrap_err();
        assert!(err.contains("no feasible stage count"), "{err}");
    }

    #[test]
    fn wider_fleets_prefer_wider_pipelines() {
        // With more slots available the best row should use them: the
        // 4-slot recommendation must not be slower than the 1-slot one.
        let (cfg, template, cluster) = setup();
        let engine = SearchEngine::new();
        let narrow = engine
            .reshard_mepipe(&cfg, &template, &cluster, 1, None)
            .unwrap()
            .remove(0);
        let wide = engine
            .reshard_mepipe(&cfg, &template, &cluster, 4, None)
            .unwrap()
            .remove(0);
        assert_eq!(narrow.spec.dims.p, 1);
        assert!(wide.iteration_time <= narrow.iteration_time);
    }
}
