//! `plan`: cold `SearchEngine::search_all` over the paper's grid — Fig 8
//! (Llama-13B at GBS 32, 64, 128) and Fig 10 (7B and 34B at GBS 128) on
//! the RTX 4090 cluster — one fresh engine per query, as every
//! `mepipe search` invocation pays.

use std::time::Instant;

use mepipe_core::svpp::Mepipe;
use mepipe_core::Synth;
use mepipe_hw::topology::ClusterSpec;
use mepipe_model::config::TransformerConfig;
use mepipe_model::cost::ExecutionCost;
use mepipe_model::memory;
use mepipe_schedule::generator::ScheduleGenerator;
use mepipe_schedule::ir::Schedule;
use mepipe_schedule::{Blocks, DualPipe};
use mepipe_sim::engine::{simulate, SimConfig};
use mepipe_sim::ModelCost;
use mepipe_strategy::{enumerate_candidates, evaluate, Evaluated, Method, SearchEngine};

use crate::mix;
use crate::report::Report;
use crate::stats::median;

/// Fresh-engine builds per run (each with a warm-up query on 13B@128);
/// `setup_s` is their median.
const SETUPS: usize = 3;

/// One grid point.
struct Query {
    name: &'static str,
    model: fn() -> TransformerConfig,
    gbs: usize,
    /// Each method's winner as `(label, iteration ms to 0.1)`, in
    /// `Method::all()` order; `None` where every candidate is infeasible.
    pinned: [Option<(&'static str, f64)>; 8],
}

const GRID: [Query; 5] = [
    Query {
        name: "13B@32",
        model: TransformerConfig::llama2_13b,
        gbs: 32,
        pinned: [
            Some(("(8, 2, 1, ✗)", 2689.8)),
            Some(("(4, 4, 2, ✗)", 3385.4)),
            Some(("(8, 2, 1, ✗)", 2095.8)),
            Some(("(4, 4, 2, ✗)", 3532.9)),
            Some(("(8, 8, 1, ✗)", 1656.9)),
            Some(("(8, 4, 1, ✗)", 1750.8)),
            Some(("(8, 4, 1, ✗)", 1626.2)),
            Some(("(8, 8, 1, ✗)", 1656.9)),
        ],
    },
    Query {
        name: "13B@64",
        model: TransformerConfig::llama2_13b,
        gbs: 64,
        pinned: [
            Some(("(8, 2, 1, ✗)", 4006.3)),
            Some(("(4, 2, 2, ✓)", 5187.2)),
            Some(("(8, 2, 1, ✗)", 3400.7)),
            Some(("(4, 4, 2, ✗)", 5531.1)),
            Some(("(8, 4, 1, ✗)", 2847.6)),
            Some(("(8, 4, 1, ✗)", 3166.1)),
            Some(("(8, 4, 1, ✗)", 2809.9)),
            Some(("(8, 4, 1, ✗)", 2847.6)),
        ],
    },
    Query {
        name: "13B@128",
        model: TransformerConfig::llama2_13b,
        gbs: 128,
        pinned: [
            Some(("(8, 2, 1, ✗)", 6639.3)),
            Some(("(4, 1, 2, ✓)", 8199.0)),
            Some(("(8, 2, 1, ✗)", 6010.7)),
            Some(("(4, 4, 2, ✗)", 10377.3)),
            Some(("(8, 4, 1, ✗)", 5227.5)),
            Some(("(8, 4, 1, ✗)", 5996.8)),
            Some(("(8, 4, 1, ✗)", 5177.3)),
            Some(("(8, 4, 1, ✗)", 5227.5)),
        ],
    },
    Query {
        name: "7B@128",
        model: TransformerConfig::llama2_7b,
        gbs: 128,
        pinned: [
            Some(("(8, 2, 1, ✗)", 3604.5)),
            Some(("(8, 2, 4, ✗)", 3139.5)),
            Some(("(8, 1, 1, ✗)", 2993.3)),
            Some(("(8, 1, 2, ✗)", 3113.2)),
            Some(("(16, 4, 1, ✗)", 2716.0)),
            Some(("(16, 2, 1, ✗)", 2591.0)),
            Some(("(32, 4, 1, ✗)", 2641.5)),
            Some(("(16, 4, 1, ✗)", 2716.0)),
        ],
    },
    Query {
        name: "34B@128",
        model: TransformerConfig::llama2_34b,
        gbs: 128,
        pinned: [
            Some(("(16, 2, 1, ✓)", 20732.0)),
            None,
            None,
            None,
            Some(("(16, 8, 1, ✗)", 14023.9)),
            None,
            Some(("(16, 8, 1, ✗)", 14008.5)),
            Some(("(16, 8, 1, ✗)", 14023.9)),
        ],
    },
];

/// One engine thread: with more, the order in which workers raise the
/// shared incumbent decides how many candidates get pruned, so the work
/// done (and its time and memory) would change from run to run.
fn engine() -> SearchEngine {
    SearchEngine::new().with_threads(1)
}

/// The paper's headline grid point (Fig 8 / Table 5): 13B at GBS 128.
/// The grid's query times cluster by query, so a median over all of
/// them jumps between clusters; the gated per-query latency is this
/// query's.
const HEADLINE: usize = 2;
/// Timed cold headline queries after each grid pass (a user iterating on
/// one configuration). They follow one untimed headline query, so each
/// starts after the same query whatever the seeded grid order left
/// behind in the process; the pass's own headline query is not timed
/// into the median either.
const HEADLINE_REPEATS: usize = 6;

type Winners = Vec<(Method, Option<Evaluated>)>;

/// One cold query: a fresh engine, every method's winner, seconds.
fn query(q: &Query) -> (Winners, f64) {
    let cluster = ClusterSpec::rtx4090_cluster();
    let t = Instant::now();
    let winners = engine().search_all(&(q.model)(), &cluster, q.gbs);
    (winners, t.elapsed().as_secs_f64())
}

/// The gate: every method's winner matches the pinned table.
fn check(q: &Query, winners: &Winners) -> Option<String> {
    for ((m, got), want) in winners.iter().zip(&q.pinned) {
        let got = got
            .as_ref()
            .map(|e| (e.candidate.label(), e.iteration_time * 1e3));
        let ok = match (&got, want) {
            (None, None) => true,
            (Some((label, ms)), Some((pl, pms))) => label == pl && (ms - pms).abs() <= 0.051,
            _ => false,
        };
        if !ok {
            return Some(format!(
                "{} {}: got {got:?}, pinned {want:?}",
                q.name,
                m.name()
            ));
        }
    }
    None
}

/// The grid in a seeded order for pass `pass`.
fn order(seed: u64, pass: usize) -> Vec<&'static Query> {
    let mut v: Vec<&Query> = GRID.iter().collect();
    for i in (1..v.len()).rev() {
        let j = (mix(seed, (pass * 16 + i) as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The end-to-end run: whole passes over the grid until `seconds` have
/// passed (at least one).
pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let _ = query(&GRID[HEADLINE]);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let start = Instant::now();
    let mut query_ms = Vec::new();
    let mut headline_ms = Vec::new();
    let mut grid_s = Vec::new();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut total = 0.0;
        for q in order(seed, pass) {
            let (winners, secs) = query(q);
            total += secs;
            query_ms.push(secs * 1e3);
            rep.op(check(q, &winners));
        }
        grid_s.push(total);
        for i in 0..=HEADLINE_REPEATS {
            let (winners, secs) = query(&GRID[HEADLINE]);
            if i > 0 {
                headline_ms.push(secs * 1e3);
            }
            rep.op(check(&GRID[HEADLINE], &winners));
        }
        pass += 1;
    }
    rep.named("plan_grid_s", median(&grid_s), "s", grid_s.len());
    rep.named("plan_query_ms_p50", median(&query_ms), "ms", query_ms.len());
    rep.named(
        "plan_headline_ms_p50",
        median(&headline_ms),
        "ms",
        headline_ms.len(),
    );
    rep.e2e("op_ms_p50", median(&headline_ms), "ms", headline_ms.len());
    rep.e2e("task_s_p50", median(&grid_s), "s", grid_s.len());
    rep.e2e("setup_s", median(&setups), "s", setups.len());
}

/// Regenerates a winner's schedule with the knob its evaluation used.
fn regenerate(m: Method, e: &Evaluated) -> Schedule {
    let dims = e.candidate.dims();
    let knob = e.warmup;
    let sch = match (m, knob) {
        (Method::Mepipe, Some(f)) => Mepipe::new().warmup_cap(f).generate(&dims),
        (Method::DualPipe, Some(f)) => DualPipe::new().warmup_cap(f).generate(&dims),
        (Method::Blocks, Some(k)) => Blocks::uniform().lifespan(k).generate(&dims),
        (Method::Synth, Some(c)) => Synth::new().cap(c).generate(&dims),
        _ => m.generate(&dims),
    };
    sch.expect("a winner's schedule regenerates")
}

/// Simulates a winner's schedule under the cost model and memory budget
/// its evaluation used.
fn resimulate(m: Method, e: &Evaluated, model: &TransformerConfig, schedule: &Schedule) {
    let cluster = ClusterSpec::rtx4090_cluster();
    let spec = e.candidate.spec;
    let cost = ExecutionCost::new(*model, spec, &cluster).expect("a winner has a cost model");
    let mut budget =
        memory::activation_budget_bytes(model, &spec, cluster.accelerator.usable_memory_bytes());
    if m == Method::DualPipe {
        budget -= memory::bidirectional_extra_static_bytes(model, &spec);
    }
    let fine = matches!(
        m,
        Method::Mepipe | Method::DualPipe | Method::Blocks | Method::Synth
    );
    let cost = if fine {
        ModelCost::new(cost)
    } else {
        ModelCost::new_coarse(cost)
    };
    let config = SimConfig {
        dynamic_wgrad: fine || matches!(m, Method::Zb | Method::Zbv),
        memory_limit_bytes: Some(budget),
        ..Default::default()
    };
    simulate(schedule, &cost, &config).expect("a winner simulates");
}

/// The per-layer ladder: the whole grid once when `full` (the plan
/// workload's own traced run), else only 13B@128. Each query runs on a
/// fresh engine one method at a time, exactly as `search_all` does, so
/// the engine's pruning counters and the wall time split by method.
/// Each method's winner is then re-run through `evaluate`, its
/// generator and the simulator; its `evaluate` time prices that
/// method's evaluated candidates, and the rest of the method's search
/// time is unattributed.
pub fn ladder(seed: u64, full: bool, rep: &mut Report) {
    let queries = if full {
        order(seed, 0)
    } else {
        vec![&GRID[HEADLINE]]
    };
    let cluster = ClusterSpec::rtx4090_cluster();
    let (mut candidates, mut pre, mut pruned, mut evaluated) = (0.0, 0.0, 0.0, 0.0);
    let (mut eval_ms, mut gen_ms, mut synth_ms, mut sim_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut query_ms, mut unattributed) = (0.0, 0.0);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    for q in &queries {
        let model = (q.model)();
        let engine = engine();
        let mut winners = Vec::new();
        for m in Method::all() {
            let before = engine.stats();
            let t = Instant::now();
            let winner = engine.search(m, &model, &cluster, q.gbs);
            let search_ms = ms(t);
            let st = engine.stats();
            candidates += enumerate_candidates(m, &model, &cluster, q.gbs).len() as f64;
            pre += (st.pre_discarded - before.pre_discarded) as f64;
            pruned += (st.bound_pruned - before.bound_pruned) as f64;
            let evals = (st.evaluated - before.evaluated) as f64;
            evaluated += evals;
            query_ms += search_ms;
            unattributed += search_ms;
            if let Some(e) = &winner {
                let t = Instant::now();
                evaluate(&e.candidate, &model, &cluster).expect("a winner re-evaluates");
                let price = ms(t);
                eval_ms += price;
                unattributed -= evals * price;
                let t = Instant::now();
                let schedule = regenerate(m, e);
                if m == Method::Synth {
                    synth_ms += ms(t);
                } else {
                    gen_ms += ms(t);
                }
                let t = Instant::now();
                resimulate(m, e, &model, &schedule);
                sim_ms += ms(t);
            }
            winners.push((m, winner));
        }
        rep.op(check(q, &winners));
    }
    let nq = queries.len() as f64;
    let n = queries.len();
    rep.layer("strategy.candidates", candidates / nq, "count", n);
    rep.layer("strategy.pre_discarded", pre / nq, "count", n);
    rep.layer("strategy.bound_pruned", pruned / nq, "count", n);
    rep.layer("strategy.evaluated", evaluated / nq, "count", n);
    rep.layer(
        "strategy.prune_ratio",
        (pre + pruned) / candidates,
        "ratio",
        n,
    );
    rep.layer("strategy.evaluate_ms", eval_ms / nq, "ms", n);
    rep.layer("schedule.generate_ms", gen_ms / nq, "ms", n);
    rep.layer("sim.simulate_ms", sim_ms / nq, "ms", n);
    rep.layer("core.synth_ms", synth_ms / nq, "ms", n);
    rep.layer("plan.query_ms", query_ms / nq, "ms", n);
    rep.layer("plan.unattributed_ms", unattributed / nq, "ms", n);
    rep.note(format!(
        "plan ladder: query {:.1} ms = per method, evaluated candidates x its winner's evaluate time \
         + unattributed {:.1} (means over {n} queries)",
        query_ms / nq,
        unattributed / nq
    ));
}
