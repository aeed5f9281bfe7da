//! The `Topology` abstraction: one sampling contract, three storage
//! backends.
//!
//! Every protocol in the workspace consumes a graph through a handful of
//! operations — `degree`, uniform neighbor sampling, stationary vertex
//! sampling, neighbor enumeration. The [`Topology`] trait captures exactly
//! that surface, with three sealed implementations:
//!
//! * [`Graph`] — the CSR backend: `O(n + m)` arrays, any simple undirected
//!   graph.
//! * [`ImplicitGraph`](crate::ImplicitGraph) — the implicit backend: the
//!   paper's structured families (stars, cycles, cliques, heavy trees,
//!   cycle-of-stars-of-cliques, …) whose adjacency is pure arithmetic.
//!   `O(1)` parameters instead of arrays, so a 10⁸-vertex instance costs
//!   bytes, not gigabytes.
//! * [`GeneratedGraph`](crate::GeneratedGraph) — the generated backend:
//!   seed-keyed random families (G(n, p), Chung–Lu power-law) whose edges
//!   are derived on demand from a counter-based Philox hash. `O(n)` memory
//!   (two offset tables), so 10⁷-vertex random topologies fit where their
//!   CSR builds would not. Its optional hub cache
//!   ([`HubCacheBuilder`](crate::HubCacheBuilder)) stores exact adjacency
//!   for the top-k vertices by degree, absorbing the hub-heavy query mix of
//!   stationary agent walks; it is a build option, not a fourth backend.
//!
//! **Determinism contract:** for equal degrees all backends consume the
//! RNG stream identically (each draws neighbor indices through the shared
//! degree-specialized sampler in [`crate::Graph`]'s module), and the
//! implicit and generated backends resolve a sampled index to the identical
//! *i*-th sorted neighbor their materialized CSR builds store. A simulation
//! over an [`ImplicitGraph`](crate::ImplicitGraph) or
//! [`GeneratedGraph`](crate::GeneratedGraph) is therefore bit-identical to
//! the same simulation over the corresponding [`Graph`] — the cross-backend
//! equivalence tests in `rumor-core` pin this for every family, protocol,
//! engine, thread count and hub-cache size.
//!
//! The trait is deliberately **not** object safe (sampling methods are
//! generic over the RNG so they inline); engines monomorphize over it,
//! dispatching once per run on [`AnyTopology`] through
//! [`with_topology!`](crate::with_topology) and never again — the same
//! pattern the `FastStep` hot path uses for protocols.

use std::ops::Range;

use rand::Rng;

use crate::generated::GeneratedGraph;
use crate::graph::{Graph, VertexId};
use crate::implicit::ImplicitGraph;

mod sealed {
    /// Seals [`super::Topology`]: the three backends are the whole design,
    /// and the bit-identity contract between them could not be promised for
    /// foreign implementations.
    pub trait Sealed {}
    impl Sealed for super::Graph {}
    impl Sealed for super::ImplicitGraph {}
    impl Sealed for super::GeneratedGraph {}
}

/// The operations a simulation needs from a graph, implemented by the three
/// backends: CSR ([`Graph`]), implicit
/// ([`ImplicitGraph`](crate::ImplicitGraph)) and generated
/// ([`GeneratedGraph`](crate::GeneratedGraph), with or without its hub
/// cache). See the module-level documentation above for the cross-backend
/// determinism contract.
///
/// Sealed: downstream crates consume, and cannot implement, this trait.
pub trait Topology: sealed::Sealed + Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges `|E|`.
    fn num_edges(&self) -> usize;

    /// Sum of all degrees, i.e. `2 |E|` (the stationary normalizer).
    #[inline]
    fn total_degree(&self) -> usize {
        2 * self.num_edges()
    }

    /// Degree of vertex `u`.
    fn degree(&self, u: VertexId) -> usize;

    /// Iterator over all vertices `0..n`.
    #[inline]
    fn vertices(&self) -> Range<VertexId> {
        0..self.num_vertices()
    }

    /// Calls `f` for every neighbor of `u`, in ascending vertex order.
    fn for_each_neighbor(&self, u: VertexId, f: impl FnMut(VertexId));

    /// Calls `f` for every undirected edge `(u, v)` with `u < v`.
    /// `O(n + m)`; the default enumerates each vertex's neighbor list.
    fn for_each_edge(&self, mut f: impl FnMut(VertexId, VertexId)) {
        for u in self.vertices() {
            self.for_each_neighbor(u, |v| {
                if u < v {
                    f(u, v);
                }
            });
        }
    }

    /// Samples a uniformly random neighbor of `u`, or `None` if `u` is
    /// isolated. Stream consumption depends only on `deg(u)` (the
    /// cross-backend determinism contract).
    fn random_neighbor<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> Option<VertexId>;

    /// Samples a uniformly random neighbor of a vertex known to have one
    /// (panics on isolated vertices).
    fn random_neighbor_nonisolated<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> VertexId;

    /// Like [`Topology::random_neighbor`], but the generator is produced
    /// lazily — and never produced at all when `deg(u) == 1`. Only for
    /// counter-based per-entity streams (see
    /// [`Graph::random_neighbor_with`]).
    fn random_neighbor_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<VertexId>;

    /// Samples a vertex from the stationary distribution
    /// (degree-proportional). Panics if the graph has no edges.
    fn sample_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> VertexId;

    /// Samples `count` independent stationary vertices into `out` (cleared
    /// first), draw-for-draw identical to `count` calls of
    /// [`Topology::sample_stationary`]. The `u32` output feeds the agent
    /// engines' position arrays without an intermediate `Vec<usize>`.
    /// Panics if the graph has no edges.
    fn sample_stationary_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        out: &mut Vec<u32>,
    );

    /// Whether the graph is bipartite (drives the paper's lazy-walk remedy
    /// for `meet-exchange`). CSR answers by BFS; implicit families answer in
    /// `O(1)` from their structure.
    fn is_bipartite(&self) -> bool;

    /// If the graph is `d`-regular, `Some(d)`. CSR scans degrees; implicit
    /// families answer in `O(1)`.
    fn regular_degree(&self) -> Option<usize>;

    /// Bytes of storage backing the topology (diagnostic; the headline
    /// number behind the implicit backend's ≥20× footprint reduction).
    fn memory_bytes(&self) -> usize;
}

/// A topology with the backend chosen at runtime.
///
/// Engines and the experiment harness accept this where the backend is a
/// data-driven choice, dispatch **once** with
/// [`with_topology!`](crate::with_topology), and run fully monomorphized
/// thereafter — the enum never sits on a sampling hot path.
///
/// # Examples
///
/// ```
/// use rumor_graphs::{AnyTopology, ImplicitGraph, Topology};
///
/// let implicit = AnyTopology::from(ImplicitGraph::star(1_000_000)?);
/// let csr = AnyTopology::from(rumor_graphs::generators::star(1_000)?);
/// assert_eq!(implicit.num_vertices(), 1_000_001);
/// // The million-leaf star costs a few dozen bytes implicitly.
/// assert!(implicit.memory_bytes() < 100);
/// assert!(csr.memory_bytes() > 1_000);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub enum AnyTopology {
    /// The materialized CSR backend.
    Csr(Graph),
    /// The closed-form implicit backend.
    Implicit(ImplicitGraph),
    /// The seed-keyed generated random backend (with or without its hub
    /// cache).
    Generated(GeneratedGraph),
}

/// Evaluates `$body` with `$graph` bound to the concrete backend inside an
/// [`AnyTopology`] — the one place that lists the variants. The body is
/// expanded once per backend, so a generic call in it (such as
/// `simulate_on(g, ..)`) monomorphizes for each; a closure could not do
/// this, because closures cannot be generic.
///
/// # Examples
///
/// ```
/// use rumor_graphs::{with_topology, AnyTopology, ImplicitGraph, Topology};
///
/// fn max_degree<G: Topology>(graph: &G) -> usize {
///     graph.vertices().map(|u| graph.degree(u)).max().unwrap_or(0)
/// }
///
/// let topology = AnyTopology::from(ImplicitGraph::star(10)?);
/// assert_eq!(with_topology!(&topology, g => max_degree(g)), 10);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[macro_export]
macro_rules! with_topology {
    ($topology:expr, $graph:ident => $body:expr) => {
        match $topology {
            $crate::AnyTopology::Csr($graph) => $body,
            $crate::AnyTopology::Implicit($graph) => $body,
            $crate::AnyTopology::Generated($graph) => $body,
        }
    };
}

impl AnyTopology {
    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        with_topology!(self, g => g.num_vertices())
    }

    /// Number of undirected edges `|E|`.
    pub fn num_edges(&self) -> usize {
        with_topology!(self, g => g.num_edges())
    }

    /// Bytes of storage backing the topology (see
    /// [`Topology::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        with_topology!(self, g => Topology::memory_bytes(g))
    }

    /// The CSR backend, if that is what this topology holds.
    pub fn as_csr(&self) -> Option<&Graph> {
        match self {
            AnyTopology::Csr(g) => Some(g),
            _ => None,
        }
    }

    /// The implicit backend, if that is what this topology holds.
    pub fn as_implicit(&self) -> Option<&ImplicitGraph> {
        match self {
            AnyTopology::Implicit(g) => Some(g),
            _ => None,
        }
    }

    /// The generated backend, if that is what this topology holds.
    pub fn as_generated(&self) -> Option<&GeneratedGraph> {
        match self {
            AnyTopology::Generated(g) => Some(g),
            _ => None,
        }
    }
}

impl From<Graph> for AnyTopology {
    fn from(graph: Graph) -> Self {
        AnyTopology::Csr(graph)
    }
}

impl From<ImplicitGraph> for AnyTopology {
    fn from(graph: ImplicitGraph) -> Self {
        AnyTopology::Implicit(graph)
    }
}

impl From<GeneratedGraph> for AnyTopology {
    fn from(graph: GeneratedGraph) -> Self {
        AnyTopology::Generated(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn any_topology_dispatches_to_both_backends() {
        let csr = AnyTopology::from(generators::cycle(10).unwrap());
        let implicit = AnyTopology::from(ImplicitGraph::cycle(10).unwrap());
        assert_eq!(csr.num_vertices(), implicit.num_vertices());
        assert_eq!(csr.num_edges(), implicit.num_edges());
        assert!(csr.as_csr().is_some() && csr.as_implicit().is_none());
        assert!(implicit.as_implicit().is_some() && implicit.as_csr().is_none());
        assert!(csr.memory_bytes() > implicit.memory_bytes());
    }

    #[test]
    fn any_topology_carries_the_generated_backend() {
        let plain = GeneratedGraph::gnp(64, 0.1, 3).unwrap();
        let cached = plain.clone().with_hub_count(8);
        for (graph, hubs) in [(plain, 0), (cached, 8)] {
            let generated = AnyTopology::from(graph);
            assert_eq!(generated.num_vertices(), 64);
            assert!(generated.as_csr().is_none() && generated.as_implicit().is_none());
            let inner = generated.as_generated().unwrap();
            assert_eq!(inner.hub_count(), hubs);
            assert_eq!(generated.num_edges(), inner.num_edges());
            assert_eq!(generated.memory_bytes(), Topology::memory_bytes(inner));
            assert!(generated.memory_bytes() > 0);
        }
    }

    #[test]
    fn trait_defaults_cover_edges_and_vertices() {
        let g = generators::path(4).unwrap();
        let mut edges = Vec::new();
        Topology::for_each_edge(&g, |u, v| edges.push((u, v)));
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(Topology::vertices(&g), 0..4);
        assert_eq!(Topology::total_degree(&g), 6);
    }
}
