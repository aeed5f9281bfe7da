//! `thm1_regular`: one Theorem 1 point per op on a random 16-regular CSR
//! graph. The vertex frontier engine, the CSR sampler, xoshiro, `MultiWalk`
//! and the trial runner do all the work; the generated backend, the hub
//! cache, the sharded engine and serve are not used.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_core::{
    simulate_in, simulate_on, BroadcastOutcome, ProtocolKind, SimWorkspace, SimulationSpec,
};
use rumor_experiments::{run_trials, ExperimentConfig, Scale};
use rumor_graphs::generators::random_regular;
use rumor_graphs::{Graph, VertexId};

use super::{secs, timed_loop, timed_setup, Ctx, OpRecord, Run};
use crate::layers;
use crate::report::Metric;
use crate::stats::{derive_seed, median, outcome_digest};
use crate::trace::Tracer;

/// Instance size of one workload point.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Vertices.
    pub n: usize,
    /// Regular degree.
    pub degree: usize,
    /// Trials per protocol per op.
    pub trials: usize,
}

/// The benchmarked size: `2^16` vertices of degree 16, 16 trials each of
/// push-pull and visit-exchange per op.
pub const FULL: Size = Size {
    n: 1 << 16,
    degree: 16,
    trials: 16,
};

/// The mean-rounds band of `tests/paper_claims.rs` for Theorem 1.
pub const RATIO_BAND: (f64, f64) = (0.2, 5.0);

/// Builds the workload graph.
pub fn build(size: Size, seed: u64) -> Graph {
    random_regular(size.n, size.degree, &mut StdRng::seed_from_u64(seed))
        .expect("random regular graph")
}

/// Outputs of one op, trial-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct OpOutput {
    /// Push-pull trials.
    pub push_pull: Vec<BroadcastOutcome>,
    /// Visit-exchange trials over the same seeds.
    pub visit: Vec<BroadcastOutcome>,
}

fn spec(kind: ProtocolKind, op_seed: u64) -> SimulationSpec {
    SimulationSpec::new(kind).with_seed(op_seed)
}

fn source(graph: &Graph, op_seed: u64) -> VertexId {
    (op_seed % graph.num_vertices() as u64) as VertexId
}

/// One op: `run_trials` of push-pull, then of visit-exchange, over the same
/// seeds, with the default engine and `workers` workers.
pub fn run_op(
    graph: &Graph,
    size: Size,
    op_seed: u64,
    workers: usize,
    tracer: &Tracer,
    op: u64,
    parent: Option<u64>,
) -> OpOutput {
    let config = ExperimentConfig::new(Scale::Default).with_threads(workers);
    let src = source(graph, op_seed);
    let trials = |kind| {
        tracer.span("runner", op, parent, |_| {
            run_trials(graph, src, &spec(kind, op_seed), size.trials, &config)
        })
    };
    let push_pull = trials(ProtocolKind::PushPull);
    let visit = trials(ProtocolKind::VisitExchange);
    OpOutput { push_pull, visit }
}

/// The output checks of op `op`: every trial informs all `n` vertices, the
/// mean-rounds ratio stays in [`RATIO_BAND`], and one trial equals a solo
/// `simulate_on` (thread invariance of the runner). The solo trial is
/// `op mod trials`, so a run of at least `trials` ops checks every index.
pub fn check(graph: &Graph, size: Size, op: u64, op_seed: u64, out: &OpOutput) -> bool {
    let n = graph.num_vertices();
    let all_informed = |v: &[BroadcastOutcome]| {
        v.len() == size.trials && v.iter().all(|o| o.completed && o.informed_vertices == n)
    };
    if !all_informed(&out.push_pull) || !all_informed(&out.visit) {
        return false;
    }
    let mean =
        |v: &[BroadcastOutcome]| v.iter().map(|o| o.rounds as f64).sum::<f64>() / v.len() as f64;
    let ratio = mean(&out.visit) / mean(&out.push_pull);
    if !(RATIO_BAND.0..=RATIO_BAND.1).contains(&ratio) {
        return false;
    }
    let j = (op % size.trials as u64) as usize;
    let src = source(graph, op_seed);
    let solo = |kind| simulate_on(graph, src, &spec(kind, op_seed.wrapping_add(j as u64)));
    solo(ProtocolKind::PushPull) == out.push_pull[j]
        && solo(ProtocolKind::VisitExchange) == out.visit[j]
}

/// Digest of an op's outputs.
pub fn digest(out: &OpOutput) -> u64 {
    outcome_digest(out.push_pull.iter().chain(&out.visit))
}

/// The timed phase builds the graph again before every this many ops.
/// The build is single-threaded, and its time follows the core it lands on,
/// whose speed on a shared host changes from second to second: timed only
/// before the first op, `setup_s` spread 0.25–0.5 across runs while the
/// ops, spread over the whole run and both cores, spread 0.04–0.16. These
/// builds count in `setup_s` only, not in op latency or `trials_per_s`; a
/// second graph alive during them adds about 9 MiB to `peak_rss_mb`.
const REBUILD_EVERY: u64 = 3;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Run {
    let size = FULL;
    let off = Tracer::new(false);
    let (graph, setup_s) = timed_setup(|_| {
        ctx.tracer
            .span("graphs", 0, None, |_| build(size, ctx.seed))
    });
    let mut run = Run {
        setup_s,
        ..Run::default()
    };

    // Warm-up op 0: untimed, checked, and digested for A/B comparison.
    let warm_seed = derive_seed(ctx.seed, 0);
    let warm = run_op(&graph, size, warm_seed, ctx.nproc, &off, 0, None);
    run.check(check(&graph, size, 0, warm_seed, &warm));
    run.outcome_digest = digest(&warm);

    let mut rebuild_s = 0.0;
    let (timed, wall_s) = timed_loop(ctx.seconds, |i| {
        if i % REBUILD_EVERY == 0 {
            let t = Instant::now();
            drop(
                ctx.tracer
                    .span("graphs", 0, None, |_| build(size, ctx.seed)),
            );
            let s = secs(t);
            run.setup_s.push(s);
            rebuild_s += s;
        }
        let traced = ctx.traces_op(i);
        let tracer = if traced { ctx.tracer } else { &off };
        let op_seed = derive_seed(ctx.seed, i);
        let t = Instant::now();
        let out = tracer.span("bench", i, None, |p| {
            run_op(&graph, size, op_seed, ctx.nproc, tracer, i, p)
        });
        let record = OpRecord {
            latency_s: secs(t),
            trials: 2 * size.trials as u64,
            job: true,
            ok: true,
            traced,
        };
        (record, i, op_seed, out)
    });
    run.wall_s = wall_s - rebuild_s;
    // Checks run after the timed phase, so they never count as op time.
    run.ops = timed
        .into_iter()
        .map(|(mut record, op, op_seed, out)| {
            record.ok = check(&graph, size, op, op_seed, &out);
            record
        })
        .collect();

    if ctx.tracer.enabled() {
        run.per_layer = ctx.tracer.span("bench", u64::MAX, None, |p| {
            probes(ctx, &graph, size, &run.setup_s, p)
        });
    }
    run
}

fn probes(
    ctx: &Ctx,
    graph: &Graph,
    size: Size,
    setup_s: &[f64],
    parent: Option<u64>,
) -> Vec<Metric> {
    let tracer = ctx.tracer;
    let seed = ctx.seed;
    let mut m = layers::rand_probes(seed, tracer, parent);
    let from = layers::stationary_sample(graph, 1 << 16, seed);
    m.extend([
        Metric::new("graphs.build_s", median(setup_s).unwrap_or(0.0), "s"),
        Metric::new("graphs.memory_bytes", graph.memory_bytes() as f64, "bytes"),
        Metric::new(
            "graphs.neighbor_ns.csr",
            tracer.span("graphs", 1, parent, |_| {
                layers::neighbor_ns(graph, &from, seed)
            }),
            "ns",
        ),
        Metric::new(
            "graphs.stationary_ns",
            tracer.span("graphs", 2, parent, |_| layers::stationary_ns(graph, seed)),
            "ns",
        ),
        Metric::new(
            "walks.step_ns_per_agent",
            tracer.span("walks", 0, parent, |_| layers::walk_step_ns(graph, 5, seed)),
            "ns",
        ),
    ]);
    for kind in [ProtocolKind::PushPull, ProtocolKind::VisitExchange] {
        m.extend(layers::core_trial(
            graph,
            0,
            &spec(kind, seed),
            3,
            tracer,
            parent,
        ));
    }
    m.push(Metric::new(
        "runner.parallel_efficiency",
        parallel_efficiency(
            graph,
            size,
            derive_seed(seed, u64::MAX),
            ctx.nproc,
            tracer,
            parent,
        ),
        "ratio",
    ));
    m
}

/// Solo `simulate_in` time of a point's trials, summed, over
/// `workers × run_trials` wall time for the same trials.
fn parallel_efficiency(
    graph: &Graph,
    size: Size,
    base: u64,
    workers: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> f64 {
    let spec = spec(ProtocolKind::PushPull, base);
    let mut workspace = SimWorkspace::new();
    let t = Instant::now();
    for trial in 0..size.trials as u64 {
        let s = spec.clone().with_seed(base.wrapping_add(trial));
        tracer.span("core", trial, parent, |_| {
            simulate_in(graph, 0, &s, &mut workspace)
        });
    }
    let solo = secs(t);
    let config = ExperimentConfig::new(Scale::Default).with_threads(workers);
    let t = Instant::now();
    tracer.span("runner", 0, parent, |_| {
        run_trials(graph, 0, &spec, size.trials, &config)
    });
    solo / (workers as f64 * secs(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Size = Size {
        n: 256,
        degree: 6,
        trials: 4,
    };

    #[test]
    fn op_outputs_are_seed_determined_and_thread_invariant() {
        let off = Tracer::new(false);
        let graph = build(SMALL, 5);
        assert_eq!(graph, build(SMALL, 5));
        let seeds: Vec<u64> = (0..4).map(|i| derive_seed(5, i)).collect();
        assert_eq!(seeds, (0..4).map(|i| derive_seed(5, i)).collect::<Vec<_>>());
        let a = run_op(&graph, SMALL, seeds[1], 1, &off, 1, None);
        let b = run_op(&graph, SMALL, seeds[1], 2, &off, 1, None);
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b));
        assert!(check(&graph, SMALL, 1, seeds[1], &a));
        let c = run_op(&graph, SMALL, seeds[2], 2, &off, 2, None);
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn wrong_outputs_fail_the_check() {
        let off = Tracer::new(false);
        let graph = build(SMALL, 6);
        let seed = derive_seed(6, 1);
        let good = run_op(&graph, SMALL, seed, 2, &off, 1, None);
        // Op `j` compares trial `j` against a solo run.
        for j in 0..SMALL.trials {
            assert!(check(&graph, SMALL, j as u64, seed, &good));
            let mut flipped = good.clone();
            flipped.push_pull[j].total_messages += 1;
            assert!(!check(&graph, SMALL, j as u64, seed, &flipped));
        }
        let mut partial = good.clone();
        partial.visit[0].informed_vertices -= 1;
        assert!(!check(&graph, SMALL, 1, seed, &partial));
        let mut short = good;
        short.visit.pop();
        assert!(!check(&graph, SMALL, 1, seed, &short));
    }
}
