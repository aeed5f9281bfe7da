//! Property tests (vendored proptest) for the generated backend's edge-hash
//! layer: membership symmetry, simplicity, seed sensitivity, and Chung–Lu
//! expected-degree concentration.
//!
//! These are the invariants the Philox-keyed stub pairing must provide for
//! the backend to be a simple undirected graph at all — tested over random
//! parameter draws rather than a fixed grid (the fixed-grid differential
//! suite lives in `generated_equivalence.rs`). Statistical assertions
//! average over vertices and seeds with documented tolerances; the vendored
//! proptest harness is deterministic (cases are seeded from the test name),
//! so there is no flake budget.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rumor_graphs::{GeneratedGraph, Topology};

proptest! {
    /// Edge membership is symmetric: the pairing is an involution on stubs,
    /// so `contains(u, v) == contains(v, u)` for every pair and seed.
    #[test]
    fn membership_is_symmetric(
        n in 2usize..160,
        p_mil in 0usize..400,
        seed in 0u64..1000,
        pick in 0usize..10_000,
    ) {
        let g = GeneratedGraph::gnp(n, p_mil as f64 / 1000.0, seed).unwrap();
        let u = pick % n;
        let v = (pick / n) % n;
        prop_assert_eq!(g.contains_edge(u, v), g.contains_edge(v, u));
    }

    /// No self-loops survive erasure: a vertex never lists itself, and
    /// `contains(u, u)` is always false.
    #[test]
    fn no_self_loops(n in 2usize..120, seed in 0u64..500) {
        let g = GeneratedGraph::gnp(n, 0.2, seed).unwrap();
        for u in 0..n {
            prop_assert!(!g.contains_edge(u, u));
            let mut saw_self = false;
            g.for_each_neighbor(u, |v| saw_self |= v == u);
            prop_assert!(!saw_self, "vertex {} listed itself", u);
        }
    }

    /// Stored degrees always equal the derived neighbor-list lengths, and
    /// sum to twice the edge count (the handshake identity — parallel stubs
    /// merged consistently on both endpoints).
    #[test]
    fn degrees_are_consistent(
        n in 2usize..140,
        seed in 0u64..300,
        chung_lu in 0usize..2,
    ) {
        let g = if chung_lu == 1 {
            GeneratedGraph::chung_lu(n, 2.5, 4.0_f64.min((n - 1) as f64), seed).unwrap()
        } else {
            GeneratedGraph::gnp(n, 0.1, seed).unwrap()
        };
        let mut total = 0usize;
        for u in 0..n {
            let mut count = 0usize;
            g.for_each_neighbor(u, |_| count += 1);
            prop_assert_eq!(count, g.degree(u), "degree mismatch at {}", u);
            total += count;
        }
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    /// Seed sensitivity: distinct seeds give distinct edge sets (at these
    /// densities the expected edge overlap is far from total; a collision
    /// would imply the derivation ignores the seed).
    #[test]
    fn distinct_seeds_decorrelate(n in 30usize..120, seed in 0u64..500) {
        let a = GeneratedGraph::gnp(n, 0.15, seed).unwrap();
        let b = GeneratedGraph::gnp(n, 0.15, seed + 1).unwrap();
        let differs = (0..n).any(|u| {
            let mut na = Vec::new();
            let mut nb = Vec::new();
            a.for_each_neighbor(u, |v| na.push(v));
            b.for_each_neighbor(u, |v| nb.push(v));
            na != nb
        });
        prop_assert!(differs, "seeds {} and {} coincide", seed, seed + 1);
    }

    /// Hub-cache degeneracy: `k = 0` (pure hashed path) and `k = n` (every
    /// list materialized) answer every query — lists and draw streams —
    /// bit-identically to each other and to the uncached backend. The
    /// cache can only ever relocate where an answer is read from, never
    /// change it.
    #[test]
    fn hub_cache_extremes_degenerate_bit_identically(
        n in 2usize..120,
        seed in 0u64..200,
        draw_seed in 0u64..1000,
    ) {
        let inner =
            GeneratedGraph::chung_lu(n, 2.5, 4.0_f64.min((n - 1) as f64), seed).unwrap();
        let none = inner.clone().with_hub_count(0);
        let all = inner.clone().with_hub_count(n);
        prop_assert_eq!(none.hub_count(), 0);
        prop_assert_eq!(all.hub_count(), n);
        for u in 0..n {
            let mut a = Vec::new();
            none.for_each_neighbor(u, |v| a.push(v));
            let mut b = Vec::new();
            all.for_each_neighbor(u, |v| b.push(v));
            let mut c = Vec::new();
            inner.for_each_neighbor(u, |v| c.push(v));
            prop_assert_eq!(&a, &b, "k=0 vs k=n list at {}", u);
            prop_assert_eq!(&b, &c, "cached vs inner list at {}", u);
            let mut r0 = StdRng::seed_from_u64(draw_seed ^ u as u64);
            let mut r1 = r0.clone();
            let mut r2 = r0.clone();
            for _ in 0..8 {
                let x = none.random_neighbor(u, &mut r0);
                prop_assert_eq!(x, all.random_neighbor(u, &mut r1));
                prop_assert_eq!(x, inner.random_neighbor(u, &mut r2));
            }
            let (s0, s1, s2) = (r0.next_u64(), r1.next_u64(), r2.next_u64());
            prop_assert_eq!(s0, s1, "k=0 vs k=n stream position at {}", u);
            prop_assert_eq!(s1, s2, "cached vs inner stream position at {}", u);
        }
    }

    /// The sampled graph is invariant under the ambient thread count: the
    /// parallel degree pass writes a pure function of (params, seed).
    #[test]
    fn construction_ignores_parallelism(n in 10usize..200, seed in 0u64..100) {
        let a = GeneratedGraph::chung_lu(n, 2.7, 3.0, seed).unwrap();
        let b = GeneratedGraph::chung_lu(n, 2.7, 3.0, seed).unwrap();
        for u in 0..n {
            prop_assert_eq!(a.degree(u), b.degree(u));
        }
        prop_assert_eq!(a.num_edges(), b.num_edges());
    }
}

/// G(n, p) mean-degree concentration: averaged over seeds, the realized
/// mean degree must sit within a few percent of `p (n − 1)` (erasure
/// removes only the `O(1)`-expected self-loop/parallel stubs at this
/// density; tolerance 5% relative + 0.2 absolute covers the binomial noise
/// of 10 seeds × 400 vertices).
#[test]
fn gnp_mean_degree_concentrates() {
    let n = 400usize;
    let p = 0.02f64;
    let seeds = 10u64;
    let mut total = 0usize;
    for seed in 0..seeds {
        total += 2 * GeneratedGraph::gnp(n, p, seed).unwrap().num_edges();
    }
    let mean = total as f64 / (seeds as usize * n) as f64;
    let want = p * (n - 1) as f64;
    assert!(
        (mean - want).abs() < 0.05 * want + 0.2,
        "mean degree {mean:.3} vs expected {want:.3}"
    );
}

/// Chung–Lu expected-degree concentration: per-vertex realized degrees,
/// averaged over seeds, track the model's expected degrees. Tolerances are
/// asymmetric because the erased configuration model only *attenuates*:
/// a hub of weight `w` loses `Θ(w²/S)` degree to merged parallel stubs and
/// self-loops (here `w = cap = √(d̄·n) ≈ 60` against `S ≈ 3600` stubs, so
/// up to ~20% at the very top), and can exceed its weight only by binomial
/// noise. The global mean (dominated by uncapped low-collision vertices)
/// must land within 10% of the configured target.
#[test]
fn chung_lu_expected_degrees_concentrate() {
    let n = 600usize;
    let mean_degree = 6.0f64;
    let exponent = 2.5f64;
    let seeds = 12u64;
    let mut per_vertex = vec![0u64; n];
    for seed in 0..seeds {
        let g = GeneratedGraph::chung_lu(n, exponent, mean_degree, seed).unwrap();
        for (u, slot) in per_vertex.iter_mut().enumerate() {
            *slot += g.degree(u) as u64;
        }
    }
    let probe = GeneratedGraph::chung_lu(n, exponent, mean_degree, 0).unwrap();
    // Hubs: the first few vertices carry the largest weights.
    for (u, &sum) in per_vertex.iter().enumerate().take(5) {
        let realized = sum as f64 / seeds as f64;
        let expected = probe.expected_degree(u);
        assert!(
            realized > 0.72 * expected - 1.0 && realized < 1.05 * expected + 1.0,
            "hub {u}: realized {realized:.2} vs expected {expected:.2}"
        );
    }
    // Mid-range vertices are essentially collision-free: tight band.
    for u in [n / 4, n / 2] {
        let realized = per_vertex[u] as f64 / seeds as f64;
        let expected = probe.expected_degree(u);
        assert!(
            (realized - expected).abs() < 0.15 * expected + 1.0,
            "vertex {u}: realized {realized:.2} vs expected {expected:.2}"
        );
    }
    // Global mean.
    let realized_mean = per_vertex.iter().sum::<u64>() as f64 / (seeds as usize * n) as f64;
    assert!(
        (realized_mean - mean_degree).abs() < 0.10 * mean_degree,
        "mean degree {realized_mean:.3} vs target {mean_degree}"
    );
    // Monotone profile: expected degrees decrease with the vertex index.
    assert!(probe.expected_degree(0) > probe.expected_degree(n / 2));
    assert!(probe.expected_degree(n / 2) > probe.expected_degree(n - 1));
}

/// A steeper exponent concentrates the degree mass away from the hubs. The
/// very top vertices can both sit at the √(d̄·n) weight cap, so compare a
/// vertex just outside the capped prefix: at rank 10 the β = 2.2 profile
/// must still dwarf the β = 3.5 one for the same target mean.
#[test]
fn exponent_steers_hub_mass() {
    let flat = GeneratedGraph::chung_lu(2000, 2.2, 6.0, 1).unwrap();
    let steep = GeneratedGraph::chung_lu(2000, 3.5, 6.0, 1).unwrap();
    assert!(flat.expected_degree(10) > 2.0 * steep.expected_degree(10));
    assert!(flat.expected_degree(0) >= steep.expected_degree(0));
}
