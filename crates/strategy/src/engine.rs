//! The parallel, bound-pruned, memoized strategy search engine.
//!
//! [`SearchEngine`] runs the Section 7.1 exhaustive grid three ways
//! faster than evaluating every candidate end to end, while returning
//! **bit-identical** results to the serial exhaustive reference
//! ([`crate::search::search_serial`]):
//!
//! 1. **Analytic pre-pass** — before any schedule is generated, each
//!    candidate is priced with the closed forms of
//!    [`mepipe_core::analytic`] and the memory model of
//!    [`mepipe_model::memory`]. Candidates whose static memory already
//!    overflows the device, whose 1F1B warmup floor cannot fit the
//!    activation budget, or whose SVPP warmup floor `f = v·s` exceeds
//!    the units that fit, are discarded without generation — exactly the
//!    candidates [`crate::evaluate::evaluate`] would reject anyway.
//! 2. **Branch and bound** — [`mepipe_core::analytic::compute_floor_seconds`]
//!    gives a sound lower bound on any candidate's simulated iteration
//!    time. Workers share an atomic incumbent (the best simulated time so
//!    far); a candidate whose floor exceeds the incumbent (with a 1e-9
//!    relative safety margin) is pruned. Because the floor never
//!    overestimates, pruning only removes candidates that are *strictly*
//!    worse than the final optimum, so the argmin — and every metric of
//!    the returned [`Evaluated`] — is unchanged. Candidates are visited
//!    in ascending-floor order so the incumbent drops fast.
//! 3. **Memoization** — generated schedules are cached by their
//!    [`ScheduleSpec`] and shared via [`Arc`]; full evaluations are
//!    cached by the candidate's partition plus the
//!    [`mepipe_sim::ModelCost::fingerprint`] of every price the
//!    simulator can observe, so repeated searches across an experiment
//!    grid (Figures 8/10, Tables 5–8) re-simulate nothing.
//!
//! Work is distributed over [`std::thread::scope`] workers (no external
//! thread-pool dependency); the deterministic reduction picks the lowest
//! iteration time with ties broken by the lowest enumeration index,
//! which is exactly what serial `Iterator::min_by` over the candidate
//! list returns.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use mepipe_core::analytic::{self, AnalysisParams};
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::{
    config::TransformerConfig, cost::ExecutionCost, memory, partition::PartitionSpec,
};
use mepipe_schedule::{generator::ScheduleError, ir::Schedule};

use crate::evaluate::{evaluate_with, memory_knob, sim_cost, Evaluated};
use crate::space::{enumerate_candidates, Candidate, Method, ScheduleSpec};

/// Relative safety margin for bound pruning: a candidate is discarded
/// only when its analytic floor exceeds the incumbent by more than this
/// fraction, absorbing any floating-point noise between the closed-form
/// sum and the simulator's op-by-op accumulation (both are ~1e-16-exact;
/// the margin is nine orders of magnitude wider).
const PRUNE_MARGIN: f64 = 1e-9;

/// Content-addressed cache of generated schedules, keyed by their
/// [`ScheduleSpec`] and shared across an experiment grid via [`Arc`] so
/// evaluation never re-generates. Candidates that differ only in pricing
/// knobs (DP size, recomputation, context-parallel degree) share one
/// schedule object.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    map: Mutex<HashMap<ScheduleSpec, Arc<Schedule>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl ScheduleCache {
    /// Returns the cached schedule for `spec`, generating (and caching)
    /// it on a miss.
    pub fn get_or_generate(&self, spec: &ScheduleSpec) -> Result<Arc<Schedule>, ScheduleError> {
        if let Some(hit) = self.map.lock().unwrap().get(spec) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Build outside the lock; concurrent duplicate builds are rare
        // and harmless (generation is deterministic).
        let built = Arc::new(spec.generate()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().unwrap();
        Ok(Arc::clone(map.entry(*spec).or_insert(built)))
    }
}

/// Key of one memoized evaluation: the full partition plus the pricing
/// fingerprint (which folds in model, cluster and weight-gradient
/// granularity) and the memory-budget inputs of the feasibility checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EvalKey {
    method: Method,
    spec: PartitionSpec,
    cost_fingerprint: u64,
    budget_bits: u64,
    max_units: usize,
}

/// Counters describing one engine's lifetime of work (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Candidates discarded by the analytic/memory pre-pass.
    pub pre_discarded: usize,
    /// Candidates pruned by the shared-incumbent lower bound.
    pub bound_pruned: usize,
    /// Candidates fully evaluated (generation + simulation).
    pub evaluated: usize,
    /// Evaluations answered from the memo cache.
    pub eval_hits: usize,
    /// Schedule generations answered from the schedule cache.
    pub schedule_hits: usize,
    /// Schedules actually generated.
    pub schedule_misses: usize,
}

/// Outcome of the cheap pre-pass for one candidate.
enum Prepass {
    /// Would fail `evaluate`'s own feasibility checks; skip entirely.
    Infeasible,
    /// Feasibility unknown; `floor` bounds its simulated time from below.
    Ready { floor: f64 },
}

/// The search engine. One instance owns both caches; reuse it across an
/// experiment grid to amortize generation and simulation.
#[derive(Debug, Default)]
pub struct SearchEngine {
    schedules: ScheduleCache,
    evals: Mutex<HashMap<EvalKey, Result<Evaluated, String>>>,
    threads: Option<usize>,
    pre_discarded: AtomicUsize,
    bound_pruned: AtomicUsize,
    evaluated: AtomicUsize,
    eval_hits: AtomicUsize,
}

impl SearchEngine {
    /// A pruning engine sized to the machine's available parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker-thread count (default: available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The shared generation cache (used by the retune path too).
    pub(crate) fn schedules(&self) -> &ScheduleCache {
        &self.schedules
    }

    /// Snapshot of the work counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            pre_discarded: self.pre_discarded.load(Ordering::Relaxed),
            bound_pruned: self.bound_pruned.load(Ordering::Relaxed),
            evaluated: self.evaluated.load(Ordering::Relaxed),
            eval_hits: self.eval_hits.load(Ordering::Relaxed),
            schedule_hits: self.schedules.hits.load(Ordering::Relaxed),
            schedule_misses: self.schedules.misses.load(Ordering::Relaxed),
        }
    }

    fn worker_count(&self, work_items: usize) -> usize {
        let hw = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        hw.min(work_items).max(1)
    }

    /// The best strategy for `method`, identical to
    /// [`crate::search::search_serial`] bit for bit.
    pub fn search(
        &self,
        method: Method,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
        global_batch: usize,
    ) -> Option<Evaluated> {
        let candidates = enumerate_candidates(method, model, cluster, global_batch);
        self.search_candidates(&candidates, model, cluster)
    }

    /// Best strategy per method, in the paper's plotting order.
    pub fn search_all(
        &self,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
        global_batch: usize,
    ) -> Vec<(Method, Option<Evaluated>)> {
        Method::all()
            .into_iter()
            .map(|m| (m, self.search(m, model, cluster, global_batch)))
            .collect()
    }

    /// Every candidate with its evaluation outcome, in enumeration
    /// order. Never prunes (each row is wanted), but memoizes and runs
    /// in parallel.
    pub fn search_verbose(
        &self,
        method: Method,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
        global_batch: usize,
    ) -> Vec<(Candidate, Result<Evaluated, String>)> {
        let candidates = enumerate_candidates(method, model, cluster, global_batch);
        let rows = Mutex::new(Vec::with_capacity(candidates.len()));
        let next = AtomicUsize::new(0);
        let workers = self.worker_count(candidates.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(c) = candidates.get(i) else { break };
                    let r = self.evaluate(c, model, cluster);
                    rows.lock().unwrap().push((i, r));
                });
            }
        });
        let mut rows = rows.into_inner().unwrap();
        rows.sort_unstable_by_key(|(i, _)| *i);
        candidates
            .into_iter()
            .zip(rows.into_iter().map(|(_, r)| r))
            .collect()
    }

    /// Memoized, schedule-cached version of [`crate::evaluate::evaluate`]
    /// — same results, same error strings.
    pub fn evaluate(
        &self,
        candidate: &Candidate,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
    ) -> Result<Evaluated, String> {
        let Some(key) = self.eval_key(candidate, model, cluster) else {
            // No cost model ⇒ `evaluate` fails the same cheap way; not
            // worth a cache slot.
            return evaluate_with(candidate, model, cluster, Some(&self.schedules));
        };
        if let Some(hit) = self.evals.lock().unwrap().get(&key) {
            self.eval_hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        let r = evaluate_with(candidate, model, cluster, Some(&self.schedules));
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        self.evals.lock().unwrap().insert(key, r.clone());
        r
    }

    fn eval_key(
        &self,
        candidate: &Candidate,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
    ) -> Option<EvalKey> {
        let cost = ExecutionCost::new(*model, candidate.spec, cluster).ok()?;
        let usable = cluster.accelerator.usable_memory_bytes();
        let budget = memory::activation_budget_bytes(model, &candidate.spec, usable);
        Some(EvalKey {
            method: candidate.method,
            spec: candidate.spec,
            cost_fingerprint: sim_cost(candidate.method, cost).fingerprint(),
            budget_bits: budget.to_bits(),
            max_units: memory::max_in_flight_units(model, &candidate.spec, usable),
        })
    }

    /// Cheap feasibility + lower bound for one candidate, mirroring the
    /// checks `evaluate` performs before and after generation.
    fn prepass(
        &self,
        candidate: &Candidate,
        model: &TransformerConfig,
        cluster: &ClusterSpec,
    ) -> Prepass {
        let spec = candidate.spec;
        let Ok(cost) = ExecutionCost::new(*model, spec, cluster) else {
            return Prepass::Infeasible;
        };
        let usable = cluster.accelerator.usable_memory_bytes();
        if memory::activation_budget_bytes(model, &spec, usable) <= 0.0 {
            return Prepass::Infeasible;
        }
        let max_units = memory::max_in_flight_units(model, &spec, usable);
        let dims = candidate.dims();
        let params = AnalysisParams {
            p: dims.p,
            v: dims.v,
            s: dims.s,
            n: dims.n,
        };
        // `evaluate` rejects a knobbed family whose floor setting does not
        // fit (and otherwise lowers the knob to fit); 1F1B-family
        // schedules hold at least the warmup floor.
        let fits = if candidate.method.is_slice_level() {
            memory_knob(candidate.method, &dims, max_units).is_ok()
        } else {
            analytic::warmup_units_floor(params) <= max_units
        };
        if !fits {
            return Prepass::Infeasible;
        }
        let s = spec.seq.spp_slices();
        let forward: Vec<f64> = (0..s).map(|i| cost.forward_time(i)).collect();
        let backward: Vec<f64> = (0..s).map(|i| cost.backward_input_time(i)).collect();
        let overhead = cost.dp_sync_time() + cost.optimizer_time();
        let floor = match candidate.method {
            // Bidirectional pipelines start from both ends at t = 0, so
            // the unidirectional ramp/chain terms of the closed-form
            // floor do not apply; the per-worker busy time (every worker
            // runs every micro-batch through one L/p block) is the sound
            // bound.
            Method::DualPipe => {
                let fwd_sum: f64 = forward.iter().sum();
                let bwd_sum: f64 = backward.iter().sum();
                dims.n as f64 * (fwd_sum + bwd_sum + s as f64 * cost.wgrad_time()) + overhead
            }
            _ => analytic::compute_floor_seconds(
                params,
                analytic::FloorInputs {
                    forward: &forward,
                    backward_input: &backward,
                    wgrad: cost.wgrad_time(),
                    overhead,
                },
            ),
        };
        Prepass::Ready { floor }
    }

    /// Branch-and-bound parallel argmin over an explicit candidate list.
    ///
    /// Equivalent to
    /// `candidates.iter().filter_map(|c| evaluate(c, ..).ok()).min_by(total_cmp)`
    /// including the tie-break (serial `min_by` keeps the *first* of
    /// equal minima; pruning only ever removes strictly worse
    /// candidates, and the reduction breaks ties by enumeration index).
    pub fn search_candidates(
        &self,
        candidates: &[Candidate],
        model: &TransformerConfig,
        cluster: &ClusterSpec,
    ) -> Option<Evaluated> {
        // Pre-pass: discard infeasible candidates, floor the rest.
        let mut ready: Vec<(usize, f64)> = Vec::with_capacity(candidates.len());
        for (i, c) in candidates.iter().enumerate() {
            match self.prepass(c, model, cluster) {
                Prepass::Infeasible => {
                    self.pre_discarded.fetch_add(1, Ordering::Relaxed);
                }
                Prepass::Ready { floor } => ready.push((i, floor)),
            }
        }
        // Visit cheapest floors first so the incumbent drops fast.
        ready.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let incumbent = AtomicU64::new(f64::INFINITY.to_bits());
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Evaluated)>> = Mutex::new(Vec::new());
        let workers = self.worker_count(ready.len());
        let run_worker = || loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(idx, floor)) = ready.get(t) else {
                break;
            };
            let best = f64::from_bits(incumbent.load(Ordering::Acquire));
            if floor > best * (1.0 + PRUNE_MARGIN) {
                self.bound_pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if let Ok(e) = self.evaluate(&candidates[idx], model, cluster) {
                relax_min(&incumbent, e.iteration_time);
                results.lock().unwrap().push((idx, e));
            }
        };
        if workers <= 1 {
            run_worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(run_worker);
                }
            });
        }

        // Deterministic reduction: lowest time, ties to the lowest index
        // — the serial first-of-equal-minima choice.
        results
            .into_inner()
            .unwrap()
            .into_iter()
            .min_by(|(ia, a), (ib, b)| {
                a.iteration_time
                    .total_cmp(&b.iteration_time)
                    .then(ia.cmp(ib))
            })
            .map(|(_, e)| e)
    }
}

/// Lock-free monotonic minimum over f64 bit patterns.
fn relax_min(cell: &AtomicU64, value: f64) {
    let mut current = cell.load(Ordering::Acquire);
    while value < f64::from_bits(current) {
        match cell.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => break,
            Err(seen) => current = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::search_serial;

    fn bits(e: &Evaluated) -> (u64, u64, u64, u64, Option<usize>) {
        (
            e.iteration_time.to_bits(),
            e.bubble_ratio.to_bits(),
            e.peak_activation_bytes.to_bits(),
            e.mfu.to_bits(),
            e.warmup,
        )
    }

    #[test]
    fn engine_matches_serial_reference_bit_for_bit() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let engine = SearchEngine::new();
        for gbs in [64usize, 128] {
            for m in Method::all() {
                let fast = engine.search(m, &model, &cluster, gbs);
                let slow = search_serial(m, &model, &cluster, gbs);
                match (fast, slow) {
                    (None, None) => {}
                    (Some(f), Some(s)) => {
                        assert_eq!(f.candidate, s.candidate, "{} gbs {gbs}", m.name());
                        assert_eq!(bits(&f), bits(&s), "{} gbs {gbs}", m.name());
                    }
                    (f, s) => panic!(
                        "{} gbs {gbs}: engine {:?} vs serial {:?}",
                        m.name(),
                        f.map(|e| e.candidate),
                        s.map(|e| e.candidate)
                    ),
                }
            }
        }
        let st = engine.stats();
        assert!(
            st.bound_pruned > 0,
            "expected pruning on the 13B grids: {st:?}"
        );
    }

    #[test]
    fn analytic_floor_never_exceeds_simulated_time() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let engine = SearchEngine::new();
        for m in Method::all() {
            for c in enumerate_candidates(m, &model, &cluster, 64) {
                let Prepass::Ready { floor } = engine.prepass(&c, &model, &cluster) else {
                    continue;
                };
                if let Ok(e) = engine.evaluate(&c, &model, &cluster) {
                    assert!(
                        floor <= e.iteration_time * (1.0 + PRUNE_MARGIN),
                        "{}: floor {floor} > simulated {} for {}",
                        m.name(),
                        e.iteration_time,
                        c.label()
                    );
                }
            }
        }
    }

    #[test]
    fn prepass_never_discards_feasible_candidates() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let engine = SearchEngine::new();
        for m in Method::all() {
            for c in enumerate_candidates(m, &model, &cluster, 32) {
                if matches!(engine.prepass(&c, &model, &cluster), Prepass::Infeasible) {
                    assert!(
                        crate::evaluate::evaluate(&c, &model, &cluster).is_err(),
                        "{}: pre-pass discarded feasible {}",
                        m.name(),
                        c.label()
                    );
                }
            }
        }
    }

    #[test]
    fn caches_answer_repeat_searches() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let engine = SearchEngine::new();
        let first = engine.search(Method::Mepipe, &model, &cluster, 128);
        let evaluated_once = engine.stats().evaluated;
        let second = engine.search(Method::Mepipe, &model, &cluster, 128);
        let st = engine.stats();
        assert_eq!(
            st.evaluated, evaluated_once,
            "second search must re-simulate nothing"
        );
        assert!(st.eval_hits > 0);
        let (a, b) = (first.unwrap(), second.unwrap());
        assert_eq!(a.candidate, b.candidate);
        assert_eq!(a.iteration_time.to_bits(), b.iteration_time.to_bits());
    }

    #[test]
    fn verbose_rows_match_direct_evaluation() {
        let model = TransformerConfig::llama2_13b();
        let cluster = ClusterSpec::rtx4090_cluster();
        let engine = SearchEngine::new();
        let rows = engine.search_verbose(Method::Zbv, &model, &cluster, 128);
        assert!(!rows.is_empty());
        for (c, r) in &rows {
            let direct = crate::evaluate::evaluate(c, &model, &cluster);
            match (r, direct) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.iteration_time.to_bits(), b.iteration_time.to_bits())
                }
                (Err(a), Err(b)) => assert_eq!(a, &b),
                (a, b) => panic!("{}: {a:?} vs {b:?}", c.label()),
            }
        }
    }
}
