//! Differential backend equivalence: every structural and sampling query on
//! a [`GeneratedGraph`] must agree — bit for bit — with the same query on
//! its materialized CSR build.
//!
//! The contract under test (see `rumor_graphs::generated`): the generated
//! backend's stored degrees are the simple-graph degrees of the derived
//! edge set, neighbor resolution returns the identical *i*-th **sorted**
//! neighbor the CSR stores, index draws go through the shared
//! degree-specialized sampler (stream consumption depends only on the
//! degree), and stationary slot→vertex mapping uses the identical prefix
//! table. This suite materializes a grid of small instances — multiple `n`,
//! densities, power-law exponents, and seeds — and pins each query class.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rumor_graphs::{algorithms, GeneratedGraph, Graph, Topology};

/// The differential grid: both families across sizes, densities/exponents,
/// and seeds — small enough to materialize, varied enough to cover isolated
/// vertices, hubs, odd stub totals, and near-regular corners.
fn instances() -> Vec<GeneratedGraph> {
    let mut out = Vec::new();
    for &(n, p) in &[
        (2usize, 1.0f64),
        (17, 0.3),
        (60, 0.08),
        (121, 0.05),
        (250, 0.015),
    ] {
        for seed in [0u64, 1, 42] {
            out.push(GeneratedGraph::gnp(n, p, seed).unwrap());
        }
    }
    for &(n, beta, mean) in &[
        (40usize, 2.2f64, 5.0f64),
        (90, 2.5, 6.0),
        (150, 2.8, 4.0),
        (220, 3.5, 8.0),
    ] {
        for seed in [0u64, 7] {
            out.push(GeneratedGraph::chung_lu(n, beta, mean, seed).unwrap());
        }
    }
    out
}

fn label(g: &GeneratedGraph) -> String {
    format!(
        "{} n={} seed={}",
        g.family_name(),
        g.num_vertices(),
        g.seed()
    )
}

#[test]
fn counts_degrees_and_sorted_neighbor_lists_match_materialized() {
    for g in instances() {
        let csr = g.materialize().unwrap();
        let label = label(&g);
        csr.validate().unwrap();
        assert_eq!(g.num_vertices(), csr.num_vertices(), "{label} n");
        assert_eq!(g.num_edges(), csr.num_edges(), "{label} m");
        assert_eq!(g.total_degree(), csr.total_degree(), "{label} 2m");
        for u in 0..g.num_vertices() {
            assert_eq!(g.degree(u), csr.degree(u), "{label} degree of {u}");
            let want = csr.neighbors(u);
            let mut got = Vec::new();
            g.for_each_neighbor(u, |v| got.push(v as u32));
            assert_eq!(got, want, "{label} sorted neighbor list of {u}");
            for (i, &v) in want.iter().enumerate() {
                assert_eq!(g.nth_neighbor(u, i), v as usize, "{label} nth({u}, {i})");
            }
        }
    }
}

#[test]
fn neighbor_draw_streams_are_bit_identical_to_csr() {
    for g in instances() {
        let csr = g.materialize().unwrap();
        let label = label(&g);
        for u in 0..g.num_vertices() {
            let mut a = StdRng::seed_from_u64(u as u64 ^ g.seed());
            let mut b = a.clone();
            for draw in 0..40 {
                assert_eq!(
                    g.random_neighbor(u, &mut a),
                    csr.random_neighbor(u, &mut b),
                    "{label} draw {draw} at {u}"
                );
            }
            // Same stream position afterwards: consumption depends only on
            // the degree, never on the backend.
            assert_eq!(a.next_u64(), b.next_u64(), "{label} stream at {u}");
            if g.degree(u) > 0 {
                let mut a = StdRng::seed_from_u64(u as u64);
                let mut b = a.clone();
                assert_eq!(
                    g.random_neighbor_nonisolated(u, &mut a),
                    csr.random_neighbor_nonisolated(u, &mut b),
                    "{label} nonisolated draw at {u}"
                );
            }
        }
    }
}

#[test]
fn stationary_slots_are_draw_identical_to_csr() {
    for g in instances() {
        if g.num_edges() == 0 {
            continue;
        }
        let csr = g.materialize().unwrap();
        let label = label(&g);
        let mut a = StdRng::seed_from_u64(1234);
        let mut b = a.clone();
        for draw in 0..400 {
            assert_eq!(
                g.sample_stationary(&mut a),
                csr.sample_stationary(&mut b),
                "{label} stationary draw {draw}"
            );
        }
        assert_eq!(a.next_u64(), b.next_u64(), "{label} stationary stream");
        // The bulk path (agent placement) replays the same draws too.
        let mut bulk = Vec::new();
        g.sample_stationary_into(200, &mut StdRng::seed_from_u64(9), &mut bulk);
        let mut bulk_csr = Vec::new();
        csr.sample_stationary_into(200, &mut StdRng::seed_from_u64(9), &mut bulk_csr);
        assert_eq!(bulk, bulk_csr, "{label} bulk stationary");
    }
}

#[test]
fn structure_predicates_match_materialized() {
    for g in instances() {
        let csr = g.materialize().unwrap();
        let label = label(&g);
        assert_eq!(
            g.is_bipartite(),
            algorithms::is_bipartite(&csr),
            "{label} bipartiteness"
        );
        assert_eq!(
            Topology::regular_degree(&g),
            csr.regular_degree(),
            "{label} regular degree"
        );
        assert_eq!(g.max_degree(), csr.max_degree(), "{label} max degree");
        for u in 0..g.num_vertices() {
            for v in 0..g.num_vertices() {
                assert_eq!(
                    g.contains_edge(u, v),
                    csr.has_edge(u, v),
                    "{label} membership ({u}, {v})"
                );
            }
        }
    }
}

#[test]
fn lazy_rng_neighbor_matches_plain_draws() {
    let g = GeneratedGraph::chung_lu(120, 2.5, 6.0, 2).unwrap();
    for u in 0..g.num_vertices() {
        match g.degree(u) {
            0 => {
                let v: Option<usize> =
                    g.random_neighbor_with(u, || -> StdRng { unreachable!("deg 0") });
                assert_eq!(v, None);
            }
            1 => {
                let v: Option<usize> =
                    g.random_neighbor_with(u, || -> StdRng { unreachable!("deg 1") });
                assert_eq!(v, Some(g.nth_neighbor(u, 0)));
            }
            _ => {
                let mut rng = StdRng::seed_from_u64(u as u64);
                let direct = g.random_neighbor(u, &mut rng).unwrap();
                let rng = StdRng::seed_from_u64(u as u64);
                let lazy = g.random_neighbor_with(u, || rng.clone()).unwrap();
                assert_eq!(direct, lazy, "lazy draw diverged at {u}");
            }
        }
    }
}

#[test]
fn memory_sits_well_below_the_materialized_footprint() {
    // At mean degree ~18 the generated tables (8 bytes/vertex) must be an
    // order of magnitude below the real CSR build, and the reported
    // CSR-equivalent formula must be a conservative floor of the real one.
    let g = GeneratedGraph::gnp_with_mean_degree(30_000, 18.0, 4).unwrap();
    let csr = g.materialize().unwrap();
    assert!(
        csr.memory_bytes() >= g.csr_equivalent_bytes(),
        "csr_equivalent_bytes must be a floor: {} vs {}",
        csr.memory_bytes(),
        g.csr_equivalent_bytes()
    );
    let ratio = csr.memory_bytes() as f64 / Topology::memory_bytes(&g) as f64;
    assert!(ratio >= 10.0, "memory ratio {ratio:.1}x below 10x");
}

#[test]
fn different_seeds_generate_different_edge_sets() {
    let a = GeneratedGraph::gnp(100, 0.1, 1).unwrap();
    let b = GeneratedGraph::gnp(100, 0.1, 2).unwrap();
    let edges = |g: &GeneratedGraph| {
        let mut set = std::collections::BTreeSet::new();
        for u in 0..g.num_vertices() {
            g.for_each_neighbor(u, |v| {
                if u < v {
                    set.insert((u, v));
                }
            });
        }
        set
    };
    assert_ne!(edges(&a), edges(&b), "seed must steer the edge set");
}

/// Cache sizes exercised per instance: empty, a single hub, the default
/// policy, a mid-size cache, and every vertex. Clamped to `n` by the
/// builder, so the large values degenerate to full materialization on the
/// small grid entries.
fn hub_counts(n: usize) -> [usize; 5] {
    [0, 1, n.div_ceil(64), 13, n]
}

#[test]
fn hub_cached_counts_degrees_and_sorted_lists_match_inner_and_csr() {
    for g in instances() {
        let csr = g.materialize().unwrap();
        let base = label(&g);
        let n = g.num_vertices();
        for k in hub_counts(n) {
            let h = g.clone().with_hub_count(k);
            let label = format!("{base} k={k}");
            assert_eq!(h.num_vertices(), n, "{label} n");
            assert_eq!(h.num_edges(), g.num_edges(), "{label} m");
            for u in 0..n {
                assert_eq!(
                    Topology::degree(&h, u),
                    g.degree(u),
                    "{label} degree of {u}"
                );
                let want = csr.neighbors(u);
                let mut got = Vec::new();
                h.for_each_neighbor(u, |v| got.push(v as u32));
                assert_eq!(got, want, "{label} sorted neighbor list of {u}");
                for (i, &v) in want.iter().enumerate() {
                    assert_eq!(h.nth_neighbor(u, i), v as usize, "{label} nth({u}, {i})");
                }
            }
        }
    }
}

#[test]
fn hub_cached_draw_streams_are_bit_identical_to_inner_and_csr() {
    for g in instances() {
        let csr = g.materialize().unwrap();
        let base = label(&g);
        let n = g.num_vertices();
        for k in hub_counts(n) {
            let h = g.clone().with_hub_count(k);
            let label = format!("{base} k={k}");
            for u in 0..n {
                let mut a = StdRng::seed_from_u64(u as u64 ^ g.seed());
                let mut b = a.clone();
                let mut c = a.clone();
                for draw in 0..24 {
                    let x = Topology::random_neighbor(&h, u, &mut a);
                    assert_eq!(
                        x,
                        g.random_neighbor(u, &mut b),
                        "{label} draw {draw} at {u} vs inner"
                    );
                    assert_eq!(
                        x,
                        csr.random_neighbor(u, &mut c),
                        "{label} draw {draw} at {u} vs csr"
                    );
                }
                let (sa, sb, sc) = (a.next_u64(), b.next_u64(), c.next_u64());
                assert_eq!(sa, sb, "{label} stream at {u} vs inner");
                assert_eq!(sa, sc, "{label} stream at {u} vs csr");
                if g.degree(u) > 0 {
                    let mut a = StdRng::seed_from_u64(u as u64);
                    let mut b = a.clone();
                    assert_eq!(
                        Topology::random_neighbor_nonisolated(&h, u, &mut a),
                        g.random_neighbor_nonisolated(u, &mut b),
                        "{label} nonisolated draw at {u}"
                    );
                }
            }
        }
    }
}

#[test]
fn hub_cached_membership_and_predicates_match_inner_and_csr() {
    for g in instances() {
        let csr = g.materialize().unwrap();
        let base = label(&g);
        let n = g.num_vertices();
        for k in hub_counts(n) {
            let h = g.clone().with_hub_count(k);
            let label = format!("{base} k={k}");
            assert_eq!(
                Topology::is_bipartite(&h),
                g.is_bipartite(),
                "{label} bipartiteness"
            );
            assert_eq!(
                Topology::regular_degree(&h),
                Topology::regular_degree(&g),
                "{label} regular degree"
            );
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(
                        h.contains_edge(u, v),
                        csr.has_edge(u, v),
                        "{label} membership ({u}, {v})"
                    );
                }
            }
        }
    }
}

#[test]
fn hub_cached_stationary_draws_are_bit_identical_to_inner() {
    for g in instances() {
        if g.num_edges() == 0 {
            continue;
        }
        let base = label(&g);
        let h = g.clone().over();
        let mut a = StdRng::seed_from_u64(1234);
        let mut b = a.clone();
        for draw in 0..200 {
            assert_eq!(
                Topology::sample_stationary(&h, &mut a),
                g.sample_stationary(&mut b),
                "{base} stationary draw {draw}"
            );
        }
        assert_eq!(a.next_u64(), b.next_u64(), "{base} stationary stream");
        let mut bulk = Vec::new();
        Topology::sample_stationary_into(&h, 150, &mut StdRng::seed_from_u64(9), &mut bulk);
        let mut bulk_inner = Vec::new();
        g.sample_stationary_into(150, &mut StdRng::seed_from_u64(9), &mut bulk_inner);
        assert_eq!(bulk, bulk_inner, "{base} bulk stationary");
    }
}

#[test]
fn hub_cached_lazy_rng_neighbor_matches_plain_draws() {
    let g = GeneratedGraph::chung_lu(120, 2.5, 6.0, 2).unwrap();
    let h = g.clone().over();
    for u in 0..g.num_vertices() {
        match g.degree(u) {
            0 => {
                let v: Option<usize> =
                    Topology::random_neighbor_with(&h, u, || -> StdRng { unreachable!("deg 0") });
                assert_eq!(v, None);
            }
            1 => {
                let v: Option<usize> =
                    Topology::random_neighbor_with(&h, u, || -> StdRng { unreachable!("deg 1") });
                assert_eq!(v, Some(g.nth_neighbor(u, 0)));
            }
            _ => {
                let mut rng = StdRng::seed_from_u64(u as u64);
                let direct = Topology::random_neighbor(&h, u, &mut rng).unwrap();
                let rng = StdRng::seed_from_u64(u as u64);
                let lazy = Topology::random_neighbor_with(&h, u, || rng.clone()).unwrap();
                assert_eq!(direct, lazy, "lazy draw diverged at {u}");
            }
        }
    }
}

#[test]
fn materialize_round_trips_through_from_edges() {
    // The materialized CSR and a from_edges rebuild of the enumerated edge
    // set are the same graph — i.e. enumeration is self-consistent.
    let g = GeneratedGraph::chung_lu(80, 2.5, 5.0, 13).unwrap();
    let csr = g.materialize().unwrap();
    let mut edges = Vec::new();
    for u in 0..g.num_vertices() {
        g.for_each_neighbor(u, |v| {
            if u < v {
                edges.push((u, v));
            }
        });
    }
    let rebuilt = Graph::from_edges(g.num_vertices(), &edges).unwrap();
    for u in 0..g.num_vertices() {
        assert_eq!(csr.neighbors(u), rebuilt.neighbors(u));
    }
}
