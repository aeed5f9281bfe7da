//! # rumor-graphs
//!
//! Graph substrate for the `rumor` workspace, which reproduces the PODC 2019
//! paper *“How to Spread a Rumor: Call Your Neighbors or Take a Walk?”*
//! (Giakkoupis, Mallmann-Trenn, Saribekyan).
//!
//! The crate provides:
//!
//! * the sealed [`Topology`] abstraction with three backends: an immutable
//!   CSR [`Graph`] optimized for the one operation every rumor protocol
//!   performs millions of times — sampling a uniformly random neighbor
//!   ([`Graph::random_neighbor`]) — the closed-form [`ImplicitGraph`]
//!   storing the paper's structured families as `O(1)` parameters (48 bytes
//!   at any size; a 10⁸-vertex cycle-of-stars whose CSR build would not even
//!   fit `u32` adjacency indexing simulates bit-identically to a
//!   materialized build), the seed-keyed [`GeneratedGraph`] deriving
//!   random families — G(n, p) and Chung–Lu power-law — on demand from a
//!   counter-based Philox hash in `O(n)` memory, with an optional hub cache
//!   ([`HubCacheBuilder`]) that stores exact CSR adjacency for the top-k
//!   highest-degree vertices (the heavy tail stationary agent walks revisit
//!   constantly). [`AnyTopology`] selects a backend at runtime and
//!   [`with_topology!`] dispatches on it; all backends offer degree-proportional
//!   (stationary) vertex sampling for placing random-walk agents
//!   ([`Graph::sample_stationary`]);
//! * [`GraphBuilder`] for incremental construction;
//! * [`generators`] for every graph family appearing in the paper (star,
//!   double star, heavy binary tree, Siamese heavy binary trees, cycle of
//!   stars of cliques) and the regular families used by its theorems
//!   (random regular graphs, hypercubes, cycles of cliques, complete graphs);
//! * [`algorithms`] for BFS, connectivity, diameter, degree statistics and cut
//!   conductance, used by the experiment harness for sanity checks and
//!   reporting.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use rumor_graphs::{algorithms, generators};
//!
//! // The double star of Fig. 1(b): push-pull is slow here, the agent-based
//! // protocols are fast.
//! let g = generators::double_star(500)?;
//! assert_eq!(g.num_vertices(), 1002);
//! assert_eq!(algorithms::diameter_exact(&g), Some(3));
//!
//! // A random 8-regular graph for the Theorem 1 regime.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let r = generators::random_regular(256, 8, &mut rng)?;
//! assert_eq!(r.regular_degree(), Some(8));
//! # Ok::<(), rumor_graphs::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Unsafe is denied by default; the only exception is the bounds-check-free
// adjacency read in `Graph::random_neighbor{,_nonisolated}` (the innermost
// simulation loop), which carries its own safety argument.
#![deny(unsafe_code)]

mod builder;
mod error;
mod generated;
mod graph;
mod hub_cached;
mod implicit;
mod topology;

pub mod algorithms;
pub mod codec;
pub mod generators;

pub use builder::GraphBuilder;
pub use error::{GraphError, Result};
pub use generated::GeneratedGraph;
pub use graph::{Edges, Graph, VertexId};
pub use hub_cached::{HubCacheBuilder, HubCachedGraph};
pub use implicit::ImplicitGraph;
pub use topology::{AnyTopology, Topology};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Every generated random-regular graph is simple, connected and regular.
        #[test]
        fn random_regular_invariants(n in 8usize..80, half_d in 1usize..4, seed in 0u64..50) {
            let mut d = 2 * half_d; // even degree keeps n*d even for all n
            if d >= n { d = ((n - 1) / 2) * 2; }
            prop_assume!(d >= 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_regular(n, d, &mut rng).unwrap();
            prop_assert!(g.validate().is_ok());
            prop_assert_eq!(g.regular_degree(), Some(d));
            prop_assert!(algorithms::is_connected(&g));
            prop_assert_eq!(g.num_edges(), n * d / 2);
        }

        /// CSR round-trip: building from an arbitrary edge set preserves the
        /// edge set exactly (as a sorted, deduplicated undirected set).
        #[test]
        fn builder_preserves_edge_set(edges in proptest::collection::hash_set((0usize..30, 0usize..30), 0..120)) {
            let normalized: std::collections::BTreeSet<(usize, usize)> = edges
                .iter()
                .filter(|(u, v)| u != v)
                .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
                .collect();
            let mut b = GraphBuilder::new(30);
            for &(u, v) in &normalized {
                b.add_edge(u, v).unwrap();
            }
            let g = b.build();
            prop_assert!(g.validate().is_ok());
            let rebuilt: std::collections::BTreeSet<(usize, usize)> = g.edges().collect();
            prop_assert_eq!(rebuilt, normalized);
        }

        /// Stationary distribution always sums to 1 and is degree proportional.
        #[test]
        fn stationary_distribution_sums_to_one(n in 2usize..40, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_erdos_renyi(n, 0.4, &mut rng).unwrap();
            prop_assume!(g.num_edges() > 0);
            let pi = g.stationary_distribution();
            let sum: f64 = pi.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            for u in g.vertices() {
                prop_assert!((pi[u] - g.degree(u) as f64 / g.total_degree() as f64).abs() < 1e-12);
            }
        }

        /// BFS distances satisfy the triangle-ish property along edges:
        /// adjacent vertices' distances differ by at most 1.
        #[test]
        fn bfs_distance_lipschitz_along_edges(n in 2usize..40, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_erdos_renyi(n, 0.3, &mut rng).unwrap();
            let dist = algorithms::bfs_distances(&g, 0);
            for (u, v) in g.edges() {
                let du = dist[u] as i64;
                let dv = dist[v] as i64;
                prop_assert!((du - dv).abs() <= 1, "edge ({}, {}) has distances {} and {}", u, v, du, dv);
            }
        }

        /// When `bipartition` succeeds, every edge crosses the two sides; and
        /// the verdict is consistent with the parity of BFS distances
        /// (a graph is bipartite iff no edge joins two vertices at equal BFS
        /// parity in the same component).
        #[test]
        fn bipartition_is_a_proper_two_coloring(n in 2usize..40, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_erdos_renyi(n, 0.25, &mut rng).unwrap();
            let dist = algorithms::bfs_distances(&g, 0);
            let parity_clash = g
                .edges()
                .any(|(u, v)| dist[u] % 2 == dist[v] % 2);
            match algorithms::bipartition(&g) {
                Some(sides) => {
                    prop_assert!(!parity_clash);
                    for (u, v) in g.edges() {
                        prop_assert!(algorithms::crosses(&sides, u, v));
                    }
                }
                None => prop_assert!(parity_clash),
            }
        }

        /// Subdividing every edge of any graph (replacing it by a length-2
        /// path through a fresh vertex) always yields a bipartite graph.
        #[test]
        fn edge_subdivision_makes_any_graph_bipartite(n in 2usize..25, seed in 0u64..100) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_erdos_renyi(n, 0.4, &mut rng).unwrap();
            prop_assume!(g.num_edges() > 0);
            let mut builder = GraphBuilder::new(n + g.num_edges());
            for (i, (u, v)) in g.edges().enumerate() {
                let mid = n + i;
                builder.add_edge(u, mid).unwrap();
                builder.add_edge(mid, v).unwrap();
            }
            let subdivided = builder.build();
            prop_assert!(algorithms::is_bipartite(&subdivided));
            let (left, right) = algorithms::bipartition_sizes(&subdivided).unwrap();
            prop_assert_eq!(left + right, subdivided.num_vertices());
        }

        /// The spectral-gap estimate always lies in [0, 1] and is at most the
        /// conductance of any sampled cut (Cheeger's easy direction:
        /// gap ≤ 2·Φ, and the lazy gap is ≤ Φ for any specific cut... we use
        /// the safe form gap ≤ 2·Φ_estimate with numerical slack).
        #[test]
        fn spectral_gap_is_bounded_by_cheeger(n in 8usize..48, seed in 0u64..40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_erdos_renyi(n, 0.3, &mut rng).unwrap();
            prop_assume!(g.num_edges() > 0);
            let est = algorithms::spectral_gap_estimate(&g, 1_500, 1e-9, &mut rng).unwrap();
            prop_assert!((0.0..=1.0).contains(&est.gap));
            prop_assert!((0.0..=1.0).contains(&est.lambda_2));
            if let Some(phi) = algorithms::graph_conductance_estimate(&g, 20, &mut rng) {
                // Cheeger (lazy form): gap ≤ Φ; allow generous numerical slack
                // because both sides are estimates.
                prop_assert!(
                    est.gap <= 2.0 * phi + 0.05,
                    "gap {} exceeds Cheeger bound from conductance {}",
                    est.gap,
                    phi
                );
            }
        }
    }
}
