//! Per-layer probes: small timed loops over one layer's public API, run by
//! the traced mode on the workload's own inputs.
//!
//! [`PER_LAYER`] is the full list a traced run prints. A workload that
//! never reaches a layer path reports `0` for it (see the README's
//! prediction map for which workload exercises which metric).

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::stream::philox2x64_6;
use rand::{RngCore, SeedableRng};
use rumor_core::{simulate_in, SimWorkspace, SimulationSpec};
use rumor_graphs::{Topology, VertexId};
use rumor_walks::{MultiWalk, Placement, WalkConfig};

use crate::report::Metric;
use crate::stats::median;
use crate::trace::Tracer;

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rand.xoshiro_ns", "ns"),
    ("rand.philox6_ns", "ns"),
    ("graphs.build_s", "s"),
    ("graphs.hub_cache_build_s", "s"),
    ("graphs.memory_bytes", "bytes"),
    ("graphs.neighbor_ns.csr", "ns"),
    ("graphs.neighbor_ns.implicit", "ns"),
    ("graphs.neighbor_ns.hub_hit", "ns"),
    ("graphs.neighbor_ns.hub_miss", "ns"),
    ("graphs.hub_hit_fraction", "ratio"),
    ("graphs.stationary_ns", "ns"),
    ("walks.step_ns_per_agent", "ns"),
    ("core.trial_ms.push-pull", "ms"),
    ("core.rounds.push-pull", "count"),
    ("core.messages.push-pull", "count"),
    ("core.ns_per_message.push-pull", "ns"),
    ("core.trial_ms.visit-exchange", "ms"),
    ("core.rounds.visit-exchange", "count"),
    ("core.messages.visit-exchange", "count"),
    ("core.ns_per_message.visit-exchange", "ns"),
    ("core.trial_ms.meet-exchange", "ms"),
    ("core.rounds.meet-exchange", "count"),
    ("core.messages.meet-exchange", "count"),
    ("core.ns_per_message.meet-exchange", "ns"),
    ("core.sharded_speedup", "ratio"),
    ("runner.parallel_efficiency", "ratio"),
    ("serve.encode_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.accept_ms", "ms"),
    ("serve.first_trial_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.sim_share", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.upload_ms", "ms"),
    ("serve.durable_job_ms", "ms"),
    ("serve.state_dir_bytes", "bytes"),
    ("serve.shed", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.resumes", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.self_ms.bench", "ms"),
    ("trace.self_ms.rand", "ms"),
    ("trace.self_ms.graphs", "ms"),
    ("trace.self_ms.walks", "ms"),
    ("trace.self_ms.core", "ms"),
    ("trace.self_ms.runner", "ms"),
    ("trace.self_ms.serve", "ms"),
];

/// Orders `measured` as [`PER_LAYER`], filling unmeasured names with 0.
pub fn complete(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Timing repetitions per kernel probe; the probe reports their median.
const REPS: usize = 5;

/// Median over [`REPS`] of `f`'s wall time divided by `per`, in ns.
pub fn ns_per(per: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&samples).expect("REPS > 0")
}

/// ns per xoshiro256++ `next_u64`.
pub fn xoshiro_ns(seed: u64) -> f64 {
    const DRAWS: usize = 1 << 22;
    let mut rng = SmallRng::seed_from_u64(seed);
    ns_per(DRAWS, || {
        let mut acc = 0u64;
        for _ in 0..DRAWS {
            acc ^= rng.next_u64();
        }
        black_box(acc);
    })
}

/// ns per Philox2x64-6 block.
pub fn philox6_ns(seed: u64) -> f64 {
    const BLOCKS: usize = 1 << 21;
    ns_per(BLOCKS, || {
        let mut acc = 0u64;
        for i in 0..BLOCKS as u64 {
            let [a, b] = philox2x64_6([black_box(i), 0], seed);
            acc ^= a ^ b;
        }
        black_box(acc);
    })
}

/// `count` stationary draws on `graph`.
pub fn stationary_sample<G: Topology>(graph: &G, count: usize, seed: u64) -> Vec<u32> {
    let mut out = Vec::new();
    graph.sample_stationary_into(count, &mut SmallRng::seed_from_u64(seed), &mut out);
    out
}

/// ns per `random_neighbor` from the vertices in `from` (RNG included).
pub fn neighbor_ns<G: Topology>(graph: &G, from: &[u32], seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    ns_per(from.len(), || {
        let mut acc = 0usize;
        for &u in from {
            acc ^= graph.random_neighbor(u as VertexId, &mut rng).unwrap_or(0);
        }
        black_box(acc);
    })
}

/// ns per stationary draw.
pub fn stationary_ns<G: Topology>(graph: &G, seed: u64) -> f64 {
    const DRAWS: usize = 1 << 16;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(DRAWS);
    ns_per(DRAWS, || {
        graph.sample_stationary_into(DRAWS, &mut rng, &mut out)
    })
}

/// ns per agent per `MultiWalk::step_exchange_words` step, `n` stationary
/// agents, half of them informed.
pub fn walk_step_ns<G: Topology>(graph: &G, steps: usize, seed: u64) -> f64 {
    let n = graph.num_vertices();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut walk = MultiWalk::new(
        graph,
        n,
        &Placement::Stationary,
        WalkConfig::default(),
        &mut rng,
    );
    let words = vec![0x5555_5555_5555_5555u64; n.div_ceil(64)];
    let samples: Vec<f64> = (0..steps)
        .map(|_| {
            let t = Instant::now();
            black_box(walk.step_exchange_words(graph, &mut rng, &words, false));
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples).expect("steps > 0")
}

/// Single-thread `simulate_in` of `spec` (sequential engine) for `reps`
/// seeds: median trial time, plus the exact rounds and messages of the
/// first seed.
pub fn core_trial<G: Topology>(
    graph: &G,
    source: VertexId,
    spec: &SimulationSpec,
    reps: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<Metric> {
    let name = spec.kind.name();
    let mut workspace = SimWorkspace::new();
    let mut times = Vec::new();
    let mut first = None;
    for r in 0..reps {
        let s = spec.clone().with_seed(spec.seed.wrapping_add(r));
        let t = Instant::now();
        let o = tracer.span("core", r, parent, |_| {
            simulate_in(graph, source, &s, &mut workspace)
        });
        times.push(t.elapsed().as_secs_f64());
        first.get_or_insert(o);
    }
    let first = first.expect("reps > 0");
    let trial_s = median(&times).expect("reps > 0");
    vec![
        Metric::new(format!("core.trial_ms.{name}"), trial_s * 1e3, "ms"),
        Metric::new(format!("core.rounds.{name}"), first.rounds as f64, "count"),
        Metric::new(
            format!("core.messages.{name}"),
            first.total_messages as f64,
            "count",
        ),
        Metric::new(
            format!("core.ns_per_message.{name}"),
            trial_s * 1e9 / first.total_messages.max(1) as f64,
            "ns",
        ),
    ]
}

/// The rand-layer probes, which every workload runs.
pub fn rand_probes(seed: u64, tracer: &Tracer, parent: Option<u64>) -> Vec<Metric> {
    vec![
        Metric::new(
            "rand.xoshiro_ns",
            tracer.span("rand", 0, parent, |_| xoshiro_ns(seed)),
            "ns",
        ),
        Metric::new(
            "rand.philox6_ns",
            tracer.span("rand", 1, parent, |_| philox6_ns(seed)),
            "ns",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn complete_fills_every_name_in_order() {
        let out = complete(&[Metric::new("serve.shed", 3.0, "count")]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert!(out
            .iter()
            .zip(PER_LAYER)
            .all(|(m, (n, u))| m.name == *n && m.unit == *u));
        assert_eq!(
            out.iter().find(|m| m.name == "serve.shed").unwrap().value,
            3.0
        );
    }
}
