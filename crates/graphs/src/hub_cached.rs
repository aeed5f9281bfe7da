//! The hub cache: a build option of [`GeneratedGraph`] that keeps exact
//! CSR adjacency for the heavy tail while everything else stays hashed.
//!
//! The cache removes the one asymmetry that prices agent protocols out of
//! large generated graphs: a neighbor query on the hashed path costs
//! `O(deg)` Philox partner evaluations plus a sort, and stationary random
//! walks land on high-degree vertices with probability proportional to
//! their degree — so the *most expensive* vertices are queried the *most
//! often*. On a Chung–Lu power-law instance the top few percent of vertices
//! by degree carry the majority of the stationary mass, which means a small
//! exact adjacency cache absorbs most agent steps.
//!
//! # Construction
//!
//! [`HubCacheBuilder`] selects the **top-k vertices by stub count** (ties
//! broken toward lower vertex ids, so selection is a pure function of the
//! graph), where `k` comes from an explicit count, a byte budget, or both
//! (whichever is smaller). A `RUMOR_THREADS`-aware parallel pass — the
//! same worker discipline as the generated backend's construction passes —
//! then materializes each hub's exact sorted neighbor list through the
//! *identical* enumeration path every hashed query takes
//! (`GeneratedGraph`'s shared enumerate-sort-dedup routine), storing them
//! in one CSR-style `(ids, offsets, adjacency)` triple inside the graph.
//! [`GeneratedGraph::over`] and [`GeneratedGraph::with_hub_count`] are the
//! two common settings.
//!
//! # Determinism contract
//!
//! Draw streams are **bit-identical** to the graph without a cache (and
//! hence to the materialized CSR [`Graph`](crate::Graph)) by construction,
//! not by luck:
//!
//! * degrees come from the graph's own offset table, so stream consumption
//!   per draw is unchanged;
//! * index sampling flows through the same shared degree-specialized
//!   sampler ([`crate::graph`]'s `index_word`/`sample_index`);
//! * a sampled index resolves to the *i*-th **sorted** neighbor, and the
//!   cached lists are produced by the same routine the hashed path sorts
//!   with — a hub hit and a hash miss return the same vertex.
//!
//! `k = 0` is the graph without a cache and `k = n` a fully materialized
//! adjacency, both bit-identical to each other — pinned by the property
//! suite in `tests/generated_properties.rs` and the differential grids in
//! `tests/generated_equivalence.rs`.
//!
//! # Cost model
//!
//! Memory adds `4·(k + 1) + 4·k + 4·Σ deg(hub)` bytes to the graph's
//! `≈ 8n`; the budget builder caps the cache at a byte ceiling (accounted
//! conservatively in pre-erasure stub counts, so the realized cache never
//! exceeds it). Queries on cached vertices cost an `O(log k)` membership
//! probe plus an `O(1)` array read instead of `O(deg)` Philox evaluations;
//! tail vertices take one `O(1)` stub-count comparison and continue on the
//! hashed path unchanged. The win is workload-dependent: agent walks
//! (visit/meet-exchange) spend most draws on hubs and speed up by the
//! cached fraction of stationary mass
//! ([`GeneratedGraph::hub_hit_fraction`]); vertex protocols (push/pull)
//! query every vertex equally often and gain little. `BENCH_random.json`
//! records the measured speedups.

use crate::generated::{configured_threads, GeneratedGraph};
use crate::graph::VertexId;
use crate::topology::Topology;

/// Fallback hub count when the builder gets neither a count nor a budget:
/// one cached vertex per this many graph vertices. On Chung–Lu exponents in
/// `(2, 3]` the top `n/64` vertices carry most of the stationary mass while
/// their adjacency stays well below the graph's own table footprint.
const DEFAULT_HUB_DIVISOR: usize = 64;

/// Parallel cache fills below this many total adjacency entries stay on one
/// worker (mirrors the generated backend's per-worker chunk floor).
const PAR_FILL_FLOOR: usize = 16_384;

/// The former name of a [`GeneratedGraph`] carrying a hub cache, kept as an
/// alias because existing callers still spell `HubCachedGraph::over(graph)`
/// and `graph.is_hub(u)` with it — among them the benchmark crate, which
/// builds against this API unchanged. The cache is a build option of the
/// generated backend, not a backend of its own.
pub type HubCachedGraph = GeneratedGraph;

/// A built hub cache: exact sorted neighbor lists for the top-k vertices by
/// stub count, stored CSR-style.
#[derive(Debug, Clone)]
pub(crate) struct HubCache {
    /// Stub count of the weakest hub — the `O(1)` tail quick-reject: a
    /// vertex with a smaller stub count is never cached.
    threshold: u32,
    /// Cached vertex ids, ascending (binary-searched for membership).
    hub_ids: Vec<u32>,
    /// `hub_offsets[h]..hub_offsets[h + 1]` brackets hub `h`'s list in
    /// `hub_adj` — prefix sums of the hubs' simple degrees (the total is at
    /// most `2m ≤ u32::MAX`, inherited from the graph's own check).
    hub_offsets: Vec<u32>,
    /// The concatenated exact sorted neighbor lists.
    hub_adj: Vec<u32>,
}

impl HubCache {
    /// `u`'s cached sorted neighbor list, given its stub count, or `None`
    /// for tail vertices. The stub-count comparison rejects the tail in
    /// `O(1)`; actual hubs pay one `O(log k)` binary search.
    #[inline]
    pub(crate) fn list(&self, u: VertexId, stubs: usize) -> Option<&[u32]> {
        if (stubs as u32) < self.threshold {
            return None;
        }
        let h = self.hub_ids.binary_search(&(u as u32)).ok()?;
        Some(&self.hub_adj[self.hub_offsets[h] as usize..self.hub_offsets[h + 1] as usize])
    }
}

/// Builder for a [`GeneratedGraph`]'s hub cache: choose the cache size by
/// hub count, by byte budget, or both (the effective size is the smaller).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_graphs::{GeneratedGraph, HubCacheBuilder, Topology};
///
/// let plain = GeneratedGraph::chung_lu(5_000, 2.5, 6.0, 1)?;
/// let cached = HubCacheBuilder::new()
///     .hub_count(500)
///     .cache_budget_bytes(64 << 10)
///     .build(plain.clone());
/// assert!(cached.cache_bytes() <= (64 << 10) + 4 * (500 + 1) + 4 * 500);
///
/// // Draws are bit-identical to the graph without a cache.
/// let mut a = rand::rngs::StdRng::seed_from_u64(3);
/// let mut b = a.clone();
/// for u in 0..100 {
///     assert_eq!(cached.random_neighbor(u, &mut a), plain.random_neighbor(u, &mut b));
/// }
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HubCacheBuilder {
    hub_count: Option<usize>,
    budget_bytes: Option<usize>,
}

impl HubCacheBuilder {
    /// A builder with neither limit set; [`HubCacheBuilder::build`] then
    /// applies the default policy (`n / 64` hubs — see the module docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Caches the top `k` vertices by stub count (clamped to `n`).
    pub fn hub_count(mut self, k: usize) -> Self {
        self.hub_count = Some(k);
        self
    }

    /// Caps the cached **adjacency** at `bytes` (4 bytes per entry),
    /// accounted conservatively in pre-erasure stub counts — the realized
    /// cache (simple degrees) never exceeds the budget. The `ids` and
    /// `offsets` side tables (8 bytes per hub) are not charged against it.
    pub fn cache_budget_bytes(mut self, bytes: usize) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }

    /// Returns `graph` with a hub cache built to these limits, replacing any
    /// cache it already had (an empty selection leaves it without one).
    /// Deterministic: the selected hub set and every cached list are pure
    /// functions of the graph and the limits — thread counts cannot change
    /// a byte (the fill pass honors `RUMOR_THREADS` exactly like the
    /// graph's construction passes).
    pub fn build(self, mut graph: GeneratedGraph) -> GeneratedGraph {
        let n = graph.num_vertices();
        let default_k = if self.hub_count.is_none() && self.budget_bytes.is_none() {
            Some(n.div_ceil(DEFAULT_HUB_DIVISOR))
        } else {
            None
        };
        let entry_budget = self.budget_bytes.map(|b| (b / 4) as u64);
        let (threshold, hub_ids) = select_hubs(&graph, self.hub_count.or(default_k), entry_budget);

        let mut hub_offsets = Vec::with_capacity(hub_ids.len() + 1);
        hub_offsets.push(0u32);
        let mut total = 0u32;
        for &u in &hub_ids {
            total += graph.degree(u as usize) as u32; // Σ deg ≤ 2m ≤ u32::MAX
            hub_offsets.push(total);
        }
        let mut hub_adj = vec![0u32; total as usize];
        fill_cache(&graph, &hub_ids, &hub_offsets, &mut hub_adj);
        graph.hub_cache = (!hub_ids.is_empty()).then_some(HubCache {
            threshold,
            hub_ids,
            hub_offsets,
            hub_adj,
        });
        graph
    }
}

/// Picks the hub set: the top-k vertices by stub count, ties broken toward
/// lower ids. Returns the stub-count threshold (the weakest hub's count;
/// `u32::MAX` for an empty selection) and the ascending hub id list.
fn select_hubs(
    graph: &GeneratedGraph,
    k_limit: Option<usize>,
    entry_budget: Option<u64>,
) -> (u32, Vec<u32>) {
    let n = graph.num_vertices();
    let k_budget = match entry_budget {
        None => n,
        Some(budget) => {
            // Largest k whose top-k stub counts fit the entry budget: sort
            // a copy descending and take the longest affordable prefix.
            let mut sorted: Vec<u32> = (0..n).map(|u| graph.stub_degree(u) as u32).collect();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let mut acc = 0u64;
            let mut k = 0usize;
            for &c in &sorted {
                acc += u64::from(c);
                if acc > budget {
                    break;
                }
                k += 1;
            }
            k
        }
    };
    let k = k_limit.unwrap_or(n).min(k_budget).min(n);
    if k == 0 {
        return (u32::MAX, Vec::new());
    }
    // The k-th largest stub count (O(n) selection, no full sort), then one
    // ascending sweep keeps everything strictly above it plus the
    // lowest-id ties — fully deterministic.
    let mut counts: Vec<u32> = (0..n).map(|u| graph.stub_degree(u) as u32).collect();
    let (_, &mut threshold, _) = counts.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    let greater = (0..n)
        .filter(|&u| graph.stub_degree(u) as u32 > threshold)
        .count();
    let mut ties_left = k - greater;
    let mut hub_ids = Vec::with_capacity(k);
    for u in 0..n {
        let c = graph.stub_degree(u) as u32;
        if c > threshold {
            hub_ids.push(u as u32);
        } else if c == threshold && ties_left > 0 {
            hub_ids.push(u as u32);
            ties_left -= 1;
        }
    }
    (threshold, hub_ids)
}

/// Materializes every hub's exact sorted neighbor list into `hub_adj`,
/// splitting the hub range across scoped workers at entry-balanced
/// boundaries (honoring `RUMOR_THREADS`). Each worker writes a disjoint
/// slice, so the pass is deterministic at every thread count.
fn fill_cache(graph: &GeneratedGraph, hub_ids: &[u32], hub_offsets: &[u32], hub_adj: &mut [u32]) {
    let hubs = hub_ids.len();
    let total = hub_adj.len();
    if hubs == 0 {
        return;
    }
    let workers = configured_threads()
        .min(hubs)
        .min(total.div_ceil(PAR_FILL_FLOOR))
        .max(1);
    if workers == 1 {
        fill_range(graph, hub_ids, hub_offsets, 0..hubs, hub_adj);
        return;
    }
    // Worker w takes hubs [bounds[w], bounds[w + 1]): boundaries land at
    // the first hub at or past each equal share of the total entry count,
    // so one giant hub cannot serialize the pass behind it.
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0usize);
    for w in 1..workers {
        let target = (total as u64 * w as u64 / workers as u64) as u32;
        let idx = hub_offsets[..=hubs].partition_point(|&o| o < target);
        bounds.push(idx.min(hubs).max(bounds[w - 1]));
    }
    bounds.push(hubs);
    std::thread::scope(|scope| {
        let mut rest = hub_adj;
        for w in 0..workers {
            let (lo, hi) = (bounds[w], bounds[w + 1]);
            let entries = (hub_offsets[hi] - hub_offsets[lo]) as usize;
            let (slice, tail) = rest.split_at_mut(entries);
            rest = tail;
            scope.spawn(move || fill_range(graph, hub_ids, hub_offsets, lo..hi, slice));
        }
    });
}

/// One worker's share of the cache fill: hubs `range`, writing into the
/// sub-slice of the adjacency that starts at `hub_offsets[range.start]`.
fn fill_range(
    graph: &GeneratedGraph,
    hub_ids: &[u32],
    hub_offsets: &[u32],
    range: std::ops::Range<usize>,
    out: &mut [u32],
) {
    let base = hub_offsets[range.start] as usize;
    let mut scratch: Vec<u32> = Vec::new();
    for h in range {
        let u = hub_ids[h] as usize;
        let stubs = graph.stub_degree(u);
        if scratch.len() < stubs {
            scratch.resize(stubs, 0);
        }
        let len = graph.neighbors_into_buf(u, &mut scratch);
        debug_assert_eq!(len, graph.degree(u), "cache/degree disagreement at {u}");
        let start = hub_offsets[h] as usize - base;
        out[start..start + len].copy_from_slice(&scratch[..len]);
    }
}

impl GeneratedGraph {
    /// This graph with the default hub cache: the top `n / 64` vertices by
    /// stub count (see the module docs for why that covers most stationary
    /// mass on power-law instances).
    pub fn over(self) -> Self {
        HubCacheBuilder::new().build(self)
    }

    /// This graph with a hub cache of exactly the top `k` vertices by stub
    /// count (clamped to `n`). `k = 0` leaves it without a cache; `k = n`
    /// materializes every list.
    pub fn with_hub_count(self, k: usize) -> Self {
        HubCacheBuilder::new().hub_count(k).build(self)
    }

    /// How many vertices the hub cache holds (`0` without a cache).
    pub fn hub_count(&self) -> usize {
        self.hub_cache.as_ref().map_or(0, |c| c.hub_ids.len())
    }

    /// Whether `u`'s neighbor list is answered from the hub cache.
    pub fn is_hub(&self, u: VertexId) -> bool {
        u < self.num_vertices()
            && self
                .hub_cache
                .as_ref()
                .is_some_and(|c| c.list(u, self.stub_degree(u)).is_some())
    }

    /// Bytes held by the hub cache itself (ids + offsets + adjacency);
    /// included in [`Topology::memory_bytes`].
    pub fn cache_bytes(&self) -> usize {
        self.hub_cache.as_ref().map_or(0, |c| {
            (c.hub_ids.capacity() + c.hub_offsets.capacity() + c.hub_adj.capacity())
                * std::mem::size_of::<u32>()
        })
    }

    /// The fraction of stationary probability mass the hub cache absorbs —
    /// i.e. the expected hub-hit rate of a stationary agent's neighbor
    /// draws: `Σ deg(hub) / 2m`. `0.0` without a cache or on edgeless
    /// graphs.
    pub fn hub_hit_fraction(&self) -> f64 {
        let total = self.total_degree();
        match &self.hub_cache {
            Some(c) if total > 0 => {
                f64::from(*c.hub_offsets.last().expect("offsets never empty")) / total as f64
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn chung_lu(n: usize, seed: u64) -> GeneratedGraph {
        GeneratedGraph::chung_lu(n, 2.5, 6.0, seed).unwrap()
    }

    #[test]
    fn hub_selection_takes_top_k_by_stub_count_with_low_id_ties() {
        let inner = chung_lu(400, 3);
        let k = 25;
        let cached = inner.clone().with_hub_count(k);
        assert_eq!(cached.hub_count(), k);
        // Every cached vertex's stub count is >= every uncached vertex's,
        // and among equal counts the cached ids are the smallest.
        let min_cached = (0..400)
            .filter(|&u| cached.is_hub(u))
            .map(|u| inner.stub_degree(u))
            .min()
            .unwrap();
        for u in 0..400 {
            if !cached.is_hub(u) {
                let c = inner.stub_degree(u);
                assert!(c <= min_cached, "uncached {u} outranks a hub");
                if c == min_cached {
                    let larger_tie_cached =
                        (0..u).any(|v| !cached.is_hub(v) && inner.stub_degree(v) == min_cached);
                    assert!(
                        !larger_tie_cached || !cached.is_hub(u),
                        "tie-break must prefer lower ids"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_lists_equal_inner_lists_everywhere() {
        let inner = chung_lu(500, 7);
        for k in [0usize, 1, 13, 100, 500, 5000] {
            let cached = inner.clone().with_hub_count(k);
            assert_eq!(cached.hub_count(), k.min(500));
            for u in 0..500 {
                assert_eq!(cached.degree(u), inner.degree(u));
                let mut a = Vec::new();
                cached.for_each_neighbor(u, |v| a.push(v));
                let mut b = Vec::new();
                inner.for_each_neighbor(u, |v| b.push(v));
                assert_eq!(a, b, "neighbor list diverged at {u} (k={k})");
            }
        }
    }

    #[test]
    fn draw_streams_are_bit_identical_to_the_inner_backend() {
        let inner = chung_lu(300, 1);
        let cached = inner.clone().with_hub_count(40);
        for u in 0..300 {
            let mut a = StdRng::seed_from_u64(u as u64);
            let mut b = a.clone();
            for _ in 0..20 {
                assert_eq!(
                    cached.random_neighbor(u, &mut a),
                    inner.random_neighbor(u, &mut b)
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "stream position at {u}");
        }
        let mut a = StdRng::seed_from_u64(9);
        let mut b = a.clone();
        for _ in 0..500 {
            assert_eq!(
                cached.sample_stationary(&mut a),
                inner.sample_stationary(&mut b)
            );
        }
    }

    #[test]
    fn membership_agrees_with_the_inner_backend() {
        let inner = chung_lu(120, 5);
        let cached = inner.clone().with_hub_count(12);
        for u in 0..120 {
            for v in 0..120 {
                assert_eq!(
                    cached.contains_edge(u, v),
                    inner.contains_edge(u, v),
                    "membership ({u}, {v})"
                );
            }
        }
        assert!(!cached.contains_edge(0, 120));
        assert!(!cached.contains_edge(120, 0));
    }

    #[test]
    fn budget_builder_respects_the_byte_ceiling() {
        let inner = chung_lu(1000, 2);
        let budget = 2 << 10; // 2 KiB of adjacency = 512 entries
        let cached = HubCacheBuilder::new()
            .cache_budget_bytes(budget)
            .build(inner.clone());
        assert!(cached.hub_count() > 0, "2 KiB must afford some hubs");
        let adj_bytes = cached
            .hub_cache
            .as_ref()
            .unwrap()
            .hub_adj
            .len()
            .checked_mul(std::mem::size_of::<u32>())
            .unwrap();
        assert!(
            adj_bytes <= budget,
            "cached adjacency {adj_bytes} bytes exceeds the {budget} budget"
        );
        // Adding a count limit takes the smaller cache.
        let both = HubCacheBuilder::new()
            .cache_budget_bytes(budget)
            .hub_count(3)
            .build(inner);
        assert_eq!(both.hub_count(), 3);
    }

    #[test]
    fn default_policy_caches_a_64th_of_the_graph() {
        let inner = chung_lu(640, 4);
        let cached = inner.clone().over();
        assert_eq!(cached.hub_count(), 10);
        assert!(cached.hub_hit_fraction() > 0.0);
        assert!(cached.cache_bytes() > 0);
        assert_eq!(
            cached.memory_bytes(),
            inner.memory_bytes() + cached.cache_bytes()
        );
        assert_eq!((inner.hub_count(), inner.cache_bytes()), (0, 0));
        assert_eq!(inner.hub_hit_fraction(), 0.0);
        // Rebuilding replaces the cache; k = 0 drops it.
        assert_eq!(cached.clone().with_hub_count(3).hub_count(), 3);
        assert!(cached.with_hub_count(0).hub_cache.is_none());
    }

    #[test]
    fn hub_hit_fraction_is_the_cached_stationary_mass() {
        let inner = chung_lu(500, 6);
        let cached = inner.clone().with_hub_count(30);
        let cached_degree: usize = (0..500)
            .filter(|&u| cached.is_hub(u))
            .map(|u| inner.degree(u))
            .sum();
        let want = cached_degree as f64 / inner.total_degree() as f64;
        assert!((cached.hub_hit_fraction() - want).abs() < 1e-12);
        // Full cache absorbs everything; empty cache nothing.
        assert_eq!(inner.clone().with_hub_count(500).hub_hit_fraction(), 1.0);
        assert_eq!(inner.with_hub_count(0).hub_hit_fraction(), 0.0);
    }

    #[test]
    fn fill_is_thread_invariant() {
        let inner = chung_lu(800, 8);
        let reference = inner.clone().with_hub_count(200);
        let previous = std::env::var_os("RUMOR_THREADS");
        std::env::set_var("RUMOR_THREADS", "3");
        let threaded = inner.with_hub_count(200);
        match previous {
            Some(value) => std::env::set_var("RUMOR_THREADS", value),
            None => std::env::remove_var("RUMOR_THREADS"),
        }
        let (a, b) = (
            reference.hub_cache.as_ref().unwrap(),
            threaded.hub_cache.as_ref().unwrap(),
        );
        assert_eq!(a.hub_ids, b.hub_ids);
        assert_eq!(a.hub_offsets, b.hub_offsets);
        assert_eq!(a.hub_adj, b.hub_adj);
    }

    #[test]
    fn edgeless_graphs_degenerate_cleanly() {
        let inner = GeneratedGraph::gnp(50, 0.0, 1).unwrap();
        let cached = inner.over();
        assert_eq!(cached.hub_hit_fraction(), 0.0);
        assert_eq!(cached.degree(0), 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(cached.random_neighbor(0, &mut rng), None);
    }
}
