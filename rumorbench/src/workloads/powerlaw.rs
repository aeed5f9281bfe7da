//! `powerlaw_agents`: agent walks on a heavy-tailed Chung–Lu graph from
//! `GeneratedGraph`, behind the default hub cache, on the sharded engine.
//! One op is a visit-exchange trial plus a meet-exchange trial on the same
//! seed, each capped at a fixed round count (the graph has parts the source
//! cannot reach, so a trial never completes). The generated backend and
//! Philox dominate; the vertex engine, the runner and serve are not used.

use std::time::Instant;

use rumor_core::{simulate_on, BroadcastOutcome, ProtocolKind, SimulationSpec};
use rumor_graphs::{GeneratedGraph, HubCachedGraph, Topology};

use super::{secs, timed_loop, timed_setup, Ctx, OpRecord, Run};
use crate::layers;
use crate::report::Metric;
use crate::stats::{derive_seed, median, outcome_digest};
use crate::trace::Tracer;

/// Instance size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Vertices (and agents: α = 1).
    pub n: usize,
    /// Power-law exponent β.
    pub exponent: f64,
    /// Target mean degree.
    pub mean_degree: f64,
    /// Round cap per trial.
    pub rounds: u64,
}

/// The benchmarked size: `n = 2^15`, β = 2.5, mean degree 10.
pub const FULL: Size = Size {
    n: 1 << 15,
    exponent: 2.5,
    mean_degree: 10.0,
    rounds: 4,
};

/// The once-per-run bit-identity instance.
pub const SMALL: Size = Size { n: 1 << 11, ..FULL };

/// Every trial starts at vertex 0, the largest Chung–Lu weight.
const SOURCE: usize = 0;

/// The plain generated graph.
pub fn build(size: Size, seed: u64) -> GeneratedGraph {
    GeneratedGraph::chung_lu(size.n, size.exponent, size.mean_degree, seed).expect("chung-lu graph")
}

/// The spec of one trial.
pub fn spec<G: Topology>(
    graph: &G,
    size: Size,
    kind: ProtocolKind,
    op_seed: u64,
    threads: usize,
) -> SimulationSpec {
    SimulationSpec::new(kind)
        .with_seed(op_seed)
        .with_max_rounds(size.rounds)
        .with_sharded(threads)
        .adapted_to(graph)
}

/// One op: visit-exchange then meet-exchange on `threads` shards.
pub fn run_op<G: Topology>(
    graph: &G,
    size: Size,
    op_seed: u64,
    threads: usize,
    tracer: &Tracer,
    op: u64,
    parent: Option<u64>,
) -> [BroadcastOutcome; 2] {
    [ProtocolKind::VisitExchange, ProtocolKind::MeetExchange].map(|kind| {
        let s = spec(graph, size, kind, op_seed, threads);
        tracer.span("core", op, parent, |_| simulate_on(graph, SOURCE, &s))
    })
}

/// Simple walks move every agent every round, so messages equal
/// agents × rounds; the informed count (vertices for visit-exchange, agents
/// for meet-exchange) stays within `[1, n]`.
pub fn check(n: usize, size: Size, out: &[BroadcastOutcome; 2]) -> bool {
    let agents = n as u64;
    let [visit, meet] = out;
    let shape = |o: &BroadcastOutcome| {
        o.rounds <= size.rounds
            && o.total_messages == agents * o.rounds
            && o.informed_vertices <= n
            && o.informed_agents <= n
    };
    shape(visit) && shape(meet) && visit.informed_vertices >= 1 && meet.informed_agents >= 1
}

/// Once per run: a small instance is bit-identical between the hub-cached
/// and the plain generated graph, and between 1 and `threads` shards.
pub fn identity_check(seed: u64, threads: usize) -> bool {
    let plain = build(SMALL, seed);
    let cached = HubCachedGraph::over(plain.clone());
    let off = Tracer::new(false);
    let op_seed = derive_seed(seed, 1);
    let reference = run_op(&plain, SMALL, op_seed, threads, &off, 0, None);
    reference == run_op(&cached, SMALL, op_seed, threads, &off, 0, None)
        && reference == run_op(&cached, SMALL, op_seed, 1, &off, 0, None)
        && check(SMALL.n, SMALL, &reference)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Run {
    let size = FULL;
    let off = Tracer::new(false);
    let mut build_s = Vec::new();
    let mut cache_s = Vec::new();
    let (graph, setup_s) = timed_setup(|_| {
        let t = Instant::now();
        let plain = ctx
            .tracer
            .span("graphs", 0, None, |_| build(size, ctx.seed));
        build_s.push(secs(t));
        let t = Instant::now();
        let cached = ctx
            .tracer
            .span("graphs", 1, None, |_| HubCachedGraph::over(plain));
        cache_s.push(secs(t));
        cached
    });
    let mut run = Run {
        setup_s,
        ..Run::default()
    };
    let n = graph.num_vertices();
    let lazy = spec(&graph, size, ProtocolKind::MeetExchange, 0, 1)
        .agents
        .walk
        .is_lazy();

    run.check(!lazy && identity_check(ctx.seed, ctx.nproc));
    let warm = run_op(
        &graph,
        size,
        derive_seed(ctx.seed, 0),
        ctx.nproc,
        &off,
        0,
        None,
    );
    run.check(check(n, size, &warm));
    run.outcome_digest = outcome_digest(&warm);

    let (ops, wall_s) = timed_loop(ctx.seconds, |i| {
        let traced = ctx.traces_op(i);
        let tracer = if traced { ctx.tracer } else { &off };
        let op_seed = derive_seed(ctx.seed, i);
        let t = Instant::now();
        let out = tracer.span("bench", i, None, |p| {
            run_op(&graph, size, op_seed, ctx.nproc, tracer, i, p)
        });
        OpRecord {
            latency_s: secs(t),
            trials: 2,
            job: true,
            ok: check(n, size, &out),
            traced,
        }
    });
    run.ops = ops;
    run.wall_s = wall_s;

    if ctx.tracer.enabled() {
        run.per_layer = ctx.tracer.span("bench", u64::MAX, None, |p| {
            let mut m = probes(ctx, &graph, size, p);
            m.push(Metric::new(
                "graphs.build_s",
                median(&build_s).unwrap_or(0.0),
                "s",
            ));
            m.push(Metric::new(
                "graphs.hub_cache_build_s",
                median(&cache_s).unwrap_or(0.0),
                "s",
            ));
            m
        });
    }
    run
}

fn probes(ctx: &Ctx, graph: &HubCachedGraph, size: Size, parent: Option<u64>) -> Vec<Metric> {
    let tracer = ctx.tracer;
    let seed = ctx.seed;
    let mut m = layers::rand_probes(seed, tracer, parent);
    // Stationary draws are where agents stand; split them by whether the
    // cache answers their neighbor draws.
    let draws = layers::stationary_sample(graph, 1 << 16, seed);
    let (hits, misses): (Vec<u32>, Vec<u32>) =
        draws.iter().partition(|&&u| graph.is_hub(u as usize));
    let misses = &misses[..misses.len().min(1 << 12)];
    m.extend([
        Metric::new("graphs.memory_bytes", graph.memory_bytes() as f64, "bytes"),
        Metric::new(
            "graphs.hub_hit_fraction",
            hits.len() as f64 / draws.len() as f64,
            "ratio",
        ),
        Metric::new(
            "graphs.neighbor_ns.hub_hit",
            tracer.span("graphs", 2, parent, |_| {
                layers::neighbor_ns(graph, &hits, seed)
            }),
            "ns",
        ),
        Metric::new(
            "graphs.neighbor_ns.hub_miss",
            tracer.span("graphs", 3, parent, |_| {
                layers::neighbor_ns(graph, misses, seed)
            }),
            "ns",
        ),
        Metric::new(
            "graphs.stationary_ns",
            tracer.span("graphs", 4, parent, |_| layers::stationary_ns(graph, seed)),
            "ns",
        ),
        Metric::new(
            "walks.step_ns_per_agent",
            tracer.span("walks", 0, parent, |_| layers::walk_step_ns(graph, 2, seed)),
            "ns",
        ),
    ]);
    for kind in [ProtocolKind::VisitExchange, ProtocolKind::MeetExchange] {
        let s = SimulationSpec::new(kind)
            .with_seed(seed)
            .with_max_rounds(size.rounds)
            .adapted_to(graph);
        m.extend(layers::core_trial(graph, SOURCE, &s, 2, tracer, parent));
    }
    // One thread against nproc threads on the same sharded visit-exchange.
    let time = |threads| {
        let s = spec(
            graph,
            size,
            ProtocolKind::VisitExchange,
            derive_seed(seed, u64::MAX),
            threads,
        );
        let samples: Vec<f64> = (0..2)
            .map(|r| {
                let t = Instant::now();
                tracer.span("core", r, parent, |_| simulate_on(graph, SOURCE, &s));
                secs(t)
            })
            .collect();
        median(&samples).expect("two samples")
    };
    m.push(Metric::new(
        "core.sharded_speedup",
        time(1) / time(ctx.nproc),
        "ratio",
    ));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        n: 1 << 9,
        rounds: 3,
        ..FULL
    };

    #[test]
    fn small_instance_is_identical_across_backends_and_threads() {
        assert!(identity_check(3, 2));
    }

    #[test]
    fn op_outputs_are_seed_determined_and_checked() {
        let off = Tracer::new(false);
        let graph = HubCachedGraph::over(build(TINY, 4));
        let a = run_op(&graph, TINY, derive_seed(4, 1), 2, &off, 1, None);
        let b = run_op(&graph, TINY, derive_seed(4, 1), 1, &off, 1, None);
        assert_eq!(a, b);
        assert_eq!(outcome_digest(&a), outcome_digest(&b));
        assert!(check(TINY.n, TINY, &a));
        let c = run_op(&graph, TINY, derive_seed(4, 2), 2, &off, 2, None);
        assert_ne!(outcome_digest(&a), outcome_digest(&c));
        let mut wrong = a.clone();
        wrong[1].total_messages -= 1;
        assert!(!check(TINY.n, TINY, &wrong));
        let mut wrong = a;
        wrong[0].informed_vertices = TINY.n + 1;
        assert!(!check(TINY.n, TINY, &wrong));
    }
}
