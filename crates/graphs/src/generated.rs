//! The generated topology backend: seed-keyed random families whose edges
//! are derived on demand from a counter-based hash.
//!
//! [`GeneratedGraph`] supports two random families — **G(n, p)**
//! (Erdős–Rényi-style binomial degrees) and **Chung–Lu power-law** expected
//! degrees — at scales where a CSR build would spend gigabytes on adjacency
//! arrays. The backend stores only two `u32` prefix-sum tables (8 bytes per
//! vertex, independent of the edge count) and computes every adjacency query
//! from the vendored Philox stream module (`rand::stream`), keyed by the
//! construction seed.
//!
//! # Construction
//!
//! The family is an **erased configuration model**, the standard sparse
//! emulation of the target distributions, chosen because it is the one
//! construction whose adjacency is *locally* computable in `O(deg)` with
//! `O(n)` memory (independent per-pair coin flips would force an `O(n)` scan
//! per neighbor query, and an `O(n²)` degree pass):
//!
//! 1. **Degrees.** Every vertex `u` draws a stub count from
//!    `Binomial(n − 1, q_u)` using its own counter-based Philox stream
//!    (`q_u = p` for G(n, p); `q_u = w_u / (n − 1)` for Chung–Lu weights
//!    `w_u ∝ (u + 1)^{−1/(β−1)}`, capped at `√(d̄·n)`). This matches the
//!    degree distribution of the target model exactly in the G(n, p) case
//!    and in expectation (`E[deg u] ≈ w_u`) for Chung–Lu. The pass is
//!    embarrassingly parallel — each vertex's draw is a pure function of
//!    `(seed, u)`.
//! 2. **Pairing.** The `S = Σ stubs` stub endpoints are matched by a
//!    keyed pseudorandom permutation: a 4-round Feistel network whose round
//!    function is `philox2x64_6`, cycle-walked onto `[0, S)`. Stubs at
//!    positions `2k` and `2k + 1` of the shuffled order form an edge, so the
//!    partner of a stub is a pure `O(1)` function of `(seed, stub)` and the
//!    partner relation is an involution — membership is symmetric by
//!    construction. (If `S` is odd, the stub at the last position stays
//!    unmatched.)
//! 3. **Erasure.** Self-loops are dropped and parallel stub pairs merged;
//!    the stored per-vertex degrees (a second parallel pass) are the
//!    *simple*-graph degrees, so the backend presents an ordinary simple
//!    undirected graph.
//!
//! # Determinism contract
//!
//! The whole graph is a pure function of `(family parameters, seed)`:
//! construction thread counts, query order, and platform do not change a
//! single edge (all floating-point steps use only IEEE-exactly-rounded
//! operations — `+ − × ÷ sqrt` — no libm). [`GeneratedGraph::materialize`]
//! rebuilds the identical edge set as a CSR [`Graph`], and neighbor draws go
//! through the same degree-specialized sampler both other backends use
//! ([`crate::graph`]'s `index_word`/`sample_index`), so a simulation on a
//! `GeneratedGraph` is **bit-identical** to the same simulation on its
//! materialized CSR — pinned by `tests/generated_equivalence.rs` (structure
//! and draw streams) and `rumor-core`'s `tests/generated_topology.rs` (whole
//! simulations across protocols, engines, and thread counts).
//!
//! # Cost model
//!
//! Memory is `≈ 8n` bytes (two `u32` offset tables, plus a coarse owner
//! index of one `u32` per 1024 stubs) — for average degree `d̄` the
//! equivalent CSR footprint (`8m + 16n = (4d̄ + 16)n` bytes) is
//! `≈ (d̄/2 + 2)` times larger, an order of magnitude from `d̄ ≈ 16` up
//! (`BENCH_random.json` records the measured ratio — 22× at `d̄ = 40`).
//! The price is per-query work: a neighbor
//! query re-derives the vertex's stub partners (`O(deg)` Philox block
//! evaluations) and sorts them, so a draw costs microseconds instead of
//! nanoseconds. Prefer the CSR backend when the graph fits in memory and is
//! reused across many trials; prefer `GeneratedGraph` for scenario sweeps at
//! scales where the CSR does not fit.
//!
//! The optional hub cache (built by [`HubCacheBuilder`](crate::HubCacheBuilder)
//! or [`GeneratedGraph::over`]) removes most of that price for agent walks:
//! it stores the exact sorted lists of the highest-stub-count vertices, and
//! every neighbor query reads a cached list when it has one. Answers and
//! draw streams are unchanged at every cache size (see `hub_cached.rs`).

use std::sync::OnceLock;

use rand::stream::{philox2x64_6, StreamKey, StreamRng};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::error::{GraphError, Result};
use crate::graph::{index_word, sample_index, Graph, VertexId};
use crate::hub_cached::HubCache;
use crate::topology::Topology;

/// Key-derivation constant for the per-seed Philox keys (arbitrary odd
/// tag; fixed forever — changing it would silently change every generated
/// graph).
const DERIVE_KEY: u64 = 0x52554D_4F525F47;
/// Purpose tag for the stub-pairing permutation key.
const PAIR_PURPOSE: u64 = 1;
/// Purpose tag for the per-vertex degree streams.
const DEGREE_PURPOSE: u64 = 2;
/// Feistel round count for the stub-pairing permutation (each round is one
/// `philox2x64_6` evaluation; 4 rounds of a keyed PRF give a pseudorandom
/// permutation by the Luby–Rackoff bound).
const FEISTEL_ROUNDS: u64 = 4;
/// Neighbor lists up to this many stubs are assembled on the stack; larger
/// (hub) vertices fall back to a heap buffer.
const STACK_NEIGHBORS: usize = 96;
/// Log₂ of the stub-block size of the coarse owner index: one `u32` per
/// 1024 stubs (0.4% of the offsets table) confines each stub→owner lookup
/// to a couple of cache lines instead of a full binary search over the
/// offsets table — the dominant cost of a partner query at 10⁷ vertices.
const COARSE_BITS: u32 = 10;

/// A seed-keyed generated random topology (see the module docs above):
/// G(n, p) or Chung–Lu power-law degrees, `O(n)` memory, adjacency derived
/// on demand from Philox, bit-identical to its materialized CSR build.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rumor_graphs::{GeneratedGraph, Topology};
///
/// // A sparse G(n, p) instance: 10⁵ vertices at ~12 expected degree in
/// // ~800 KiB, where the CSR build would hold ~10⁶ adjacency entries.
/// let g = GeneratedGraph::gnp(100_000, 12.0 / 99_999.0, 7)?;
/// assert_eq!(g.num_vertices(), 100_000);
/// assert!(g.memory_bytes() < 1 << 20);
///
/// // Sampling works exactly like the CSR backend.
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let v = g.sample_stationary(&mut rng);
/// assert!(g.degree(v) > 0);
/// # Ok::<(), rumor_graphs::GraphError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratedGraph {
    model: Model,
    seed: u64,
    n: usize,
    /// Simple-graph edge count (post-erasure).
    num_edges: usize,
    /// The stub-pairing permutation (key + cycle-walking domain).
    pairing: Pairing,
    /// `stub_offsets[u]..stub_offsets[u + 1]` are vertex `u`'s stub ids.
    stub_offsets: Vec<u32>,
    /// Coarse owner index: `stub_coarse[b]` is the owner of stub `b << 10`
    /// (see [`COARSE_BITS`]), bracketing every owner lookup.
    stub_coarse: Vec<u32>,
    /// Prefix sums of the **simple** degrees — the same offset table the
    /// materialized CSR stores, which is what makes stationary sampling
    /// bit-identical across backends.
    slot_offsets: Vec<u32>,
    /// `Some(d)` iff every vertex has simple degree `d` (cached, as in CSR).
    regular: Option<usize>,
    /// Lazily computed bipartiteness (a BFS 2-coloring is `O(n + m)` hash
    /// evaluations — only paid if a caller actually asks).
    bipartite: OnceLock<bool>,
    /// Exact sorted lists of the top-k vertices by stub count, if a hub
    /// cache was built (`None` means every query takes the hashed path).
    pub(crate) hub_cache: Option<HubCache>,
}

/// The supported random families with their derived constants.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum Model {
    /// Binomial degrees `Binomial(n − 1, p)` — the G(n, p) degree law.
    Gnp {
        /// Per-pair edge probability.
        p: f64,
    },
    /// Chung–Lu power-law expected degrees `w_u = min(scale · (n/(u+1))^γ,
    /// cap)` with `γ = 1/(exponent − 1)`.
    ChungLu {
        /// Power-law exponent `β > 2`.
        exponent: f64,
        /// Target average degree `d̄`.
        mean_degree: f64,
        /// `γ = 1 / (β − 1)`.
        gamma: f64,
        /// Normalization making the weights average to `d̄` (before capping).
        scale: f64,
        /// Maximum weight `√(d̄ · n)` (the classic Chung–Lu cap).
        cap: f64,
    },
}

/// The keyed stub-pairing permutation: a 4-round Feistel network over a
/// power-of-two domain, cycle-walked onto `[0, stubs)`. Encrypt maps a stub
/// id to its position in the shuffled order; positions `2k` / `2k + 1` are
/// partners.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Pairing {
    key: u64,
    /// Total stub count `S` (the permutation's codomain is `[0, S)`).
    stubs: u64,
    /// Bits per Feistel half; the walked domain is `2^(2 · half_bits)`.
    half_bits: u32,
}

impl Pairing {
    fn new(key: u64, stubs: u64) -> Self {
        // Smallest bit count with 2^bits >= stubs, split into two equal
        // Feistel halves (the walked domain is < 4 · stubs, so cycle walks
        // terminate in ~2 expected steps).
        let bits = (64 - (stubs.max(2) - 1).leading_zeros()).max(2);
        let half_bits = bits.div_ceil(2);
        Pairing {
            key,
            stubs,
            half_bits,
        }
    }

    #[inline]
    fn half_mask(&self) -> u64 {
        (1u64 << self.half_bits) - 1
    }

    /// The walked power-of-two domain size (test diagnostics).
    #[cfg(test)]
    fn domain(&self) -> u64 {
        1u64 << (2 * self.half_bits)
    }

    /// One Feistel encryption over the power-of-two domain.
    #[inline]
    fn encrypt(&self, x: u64) -> u64 {
        let mask = self.half_mask();
        let mut l = x >> self.half_bits;
        let mut r = x & mask;
        for round in 0..FEISTEL_ROUNDS {
            let f = philox2x64_6([r, round], self.key)[0] & mask;
            (l, r) = (r, l ^ f);
        }
        (l << self.half_bits) | r
    }

    /// The inverse of [`Pairing::encrypt`].
    #[inline]
    fn decrypt(&self, x: u64) -> u64 {
        let mask = self.half_mask();
        let mut l = x >> self.half_bits;
        let mut r = x & mask;
        for round in (0..FEISTEL_ROUNDS).rev() {
            let f = philox2x64_6([l, round], self.key)[0] & mask;
            (l, r) = (r ^ f, l);
        }
        (l << self.half_bits) | r
    }

    /// The shuffled position of stub `s` (cycle-walked bijection on
    /// `[0, stubs)`).
    #[inline]
    fn position(&self, s: u64) -> u64 {
        debug_assert!(s < self.stubs);
        let mut y = self.encrypt(s);
        while y >= self.stubs {
            y = self.encrypt(y);
        }
        y
    }

    /// The stub at shuffled position `t` (inverse of [`Pairing::position`]).
    #[inline]
    fn stub_at(&self, t: u64) -> u64 {
        debug_assert!(t < self.stubs);
        let mut y = self.decrypt(t);
        while y >= self.stubs {
            y = self.decrypt(y);
        }
        y
    }

    /// The partner stub of `s` under the pairing, or `None` for the single
    /// unmatched stub of an odd total. An involution:
    /// `partner(partner(s)) == Some(s)` whenever defined — which is what
    /// makes edge membership symmetric.
    #[inline]
    fn partner(&self, s: u64) -> Option<u64> {
        let pos = self.position(s);
        let mate = pos ^ 1;
        if mate >= self.stubs {
            return None;
        }
        Some(self.stub_at(mate))
    }
}

/// Deterministic `x^e` for `x > 0`, `0 ≤ e < 1`, via the binary expansion of
/// the exponent and repeated square roots. Every step is an IEEE
/// exactly-rounded operation (`sqrt`, `×`), so the result is bit-identical
/// on every conforming platform — unlike libm `powf`.
fn det_pow_frac(x: f64, e: f64) -> f64 {
    debug_assert!(x > 0.0 && (0.0..1.0).contains(&e));
    let mut result = 1.0f64;
    let mut frac = e;
    let mut base = x.sqrt();
    for _ in 0..64 {
        if frac == 0.0 {
            break;
        }
        frac *= 2.0; // exact: scaling by a power of two
        if frac >= 1.0 {
            frac -= 1.0; // exact: frac < 2
            result *= base;
        }
        base = base.sqrt();
    }
    result
}

/// Deterministic `x^k` for integer `k ≥ 0` by binary exponentiation
/// (multiplications only — no libm).
fn pow_int(x: f64, mut k: usize) -> f64 {
    let mut base = x;
    let mut acc = 1.0f64;
    while k > 0 {
        if k & 1 == 1 {
            acc *= base;
        }
        base *= base;
        k >>= 1;
    }
    acc
}

/// A uniform draw in `[0, 1)` with 53 random bits (the standard `u64 → f64`
/// construction; deterministic).
#[inline]
fn uniform_f64(rng: &mut StreamRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exact `Binomial(trials, q)` sampling by chunked CDF inversion: the trial
/// count is split into chunks with `chunk · q ≤ 32` so the starting pmf
/// `(1 − q)^chunk ≥ e⁻³²` never underflows, and each chunk is inverted with
/// one uniform draw and the multiplicative pmf recurrence (a sum of
/// binomials with a shared `q` is the binomial of the summed trials, so the
/// chunking is distribution-exact). All arithmetic is `+ − × ÷` — platform
/// deterministic. `O(trials · q + #chunks)` expected time.
fn sample_binomial(rng: &mut StreamRng, trials: usize, q: f64) -> usize {
    if trials == 0 || q <= 0.0 {
        return 0;
    }
    if q >= 1.0 {
        return trials;
    }
    let max_chunk = ((32.0 / q) as usize).clamp(1, trials);
    let odds = q / (1.0 - q);
    let mut remaining = trials;
    let mut total = 0usize;
    while remaining > 0 {
        let chunk = remaining.min(max_chunk);
        let u = uniform_f64(rng);
        let mut pmf = pow_int(1.0 - q, chunk);
        let mut cdf = pmf;
        let mut k = 0usize;
        while u >= cdf && k < chunk {
            pmf *= ((chunk - k) as f64 / (k + 1) as f64) * odds;
            cdf += pmf;
            k += 1;
        }
        total += k;
        remaining -= chunk;
    }
    total
}

/// The vertex owning stub (or slot) `pos` under the prefix table `offsets`:
/// the unique `u` with `offsets[u] <= pos < offsets[u + 1]` (runs of equal
/// offsets — empty lists — are skipped, exactly as in the CSR backend).
#[inline]
fn owner_of(offsets: &[u32], pos: u64) -> usize {
    offsets.partition_point(|&o| u64::from(o) <= pos) - 1
}

/// Borrowed view of the stub tables: the offsets plus the coarse owner
/// index that brackets every lookup (see [`COARSE_BITS`]).
#[derive(Clone, Copy)]
struct StubTable<'a> {
    offsets: &'a [u32],
    coarse: &'a [u32],
}

impl StubTable<'_> {
    /// The vertex owning stub `t` — the same value a full
    /// [`owner_of`] search returns, but confined by the coarse index to the
    /// couple of cache lines between two block anchors.
    #[inline]
    fn owner(&self, t: u64) -> usize {
        let b = (t >> COARSE_BITS) as usize;
        let lo = self.coarse[b] as usize;
        let hi = self
            .coarse
            .get(b + 1)
            .map_or(self.offsets.len() - 1, |&v| v as usize);
        // The answer lies in [lo, hi]; entries up to index lo are <= t and
        // entries past index hi + 1 are > t, so counting within the
        // bracket reproduces the global partition point.
        let slice = &self.offsets[lo + 1..(hi + 2).min(self.offsets.len())];
        lo + slice.partition_point(|&o| u64::from(o) <= t)
    }
}

/// Collects the sorted, deduplicated simple neighbors of `u` into `buf`
/// (which must hold at least `u`'s stub count) and returns how many there
/// are. Shared by the construction degree pass and every query, so the two
/// can never disagree.
fn neighbors_into(stubs: &StubTable<'_>, pairing: &Pairing, u: usize, buf: &mut [u32]) -> usize {
    let lo = u64::from(stubs.offsets[u]);
    let hi = u64::from(stubs.offsets[u + 1]);
    let mut len = 0usize;
    for s in lo..hi {
        if let Some(t) = pairing.partner(s) {
            let v = stubs.owner(t);
            if v != u {
                buf[len] = v as u32;
                len += 1;
            }
        }
    }
    let filled = &mut buf[..len];
    filled.sort_unstable();
    // In-place dedup of the sorted run (parallel stub pairs collapse).
    let mut out = 0usize;
    for i in 0..len {
        if i == 0 || buf[i] != buf[out - 1] {
            buf[out] = buf[i];
            out += 1;
        }
    }
    out
}

/// The worker count the parallel construction passes use: `RUMOR_THREADS`
/// if set (the same knob the simulation engines honor), else the host's
/// available parallelism.
pub(crate) fn configured_threads() -> usize {
    std::env::var("RUMOR_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1)
        })
}

/// Splits `0..n` into contiguous ranges and runs `f` on each range in a
/// scoped worker (honoring `RUMOR_THREADS` like the simulation engines);
/// each worker writes a disjoint sub-slice of `out`, so the pass is
/// deterministic at every thread count.
fn par_fill<F: Fn(usize, &mut [u32]) + Sync>(out: &mut [u32], f: F) {
    let n = out.len();
    let workers = configured_threads().min(n.div_ceil(16_384)).max(1);
    if workers == 1 {
        f(0, out);
        return;
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for (i, slice) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || f(i * chunk, slice));
        }
    });
}

impl GeneratedGraph {
    fn invalid(reason: &str) -> GraphError {
        GraphError::InvalidParameters {
            reason: reason.into(),
        }
    }

    /// Derives an independent Philox key for one purpose from the
    /// construction seed and the model discriminant.
    fn derive_key(seed: u64, model_tag: u64, purpose: u64) -> u64 {
        philox2x64_6([seed, (model_tag << 32) | purpose], DERIVE_KEY)[0]
    }

    /// A G(n, p)-style random graph: every vertex's degree is
    /// `Binomial(n − 1, p)` (the exact G(n, p) degree law) and the stubs are
    /// matched by the seed-keyed pairing — the standard sparse G(n, p)
    /// emulation (see the module docs for why independent per-pair coins
    /// cannot support `O(n)`-memory local queries).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if `n == 0` or `p` is
    /// outside `[0, 1]`, and [`GraphError::TooLarge`] if `n` exceeds `u32`
    /// vertex addressing or the (expected or sampled) stub total exceeds
    /// `u32` slot addressing — lower `p` or `n`.
    pub fn gnp(n: usize, p: f64, seed: u64) -> Result<Self> {
        if n == 0 {
            return Err(Self::invalid("gnp requires n >= 1"));
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(Self::invalid("gnp requires p in [0, 1]"));
        }
        Self::build(Model::Gnp { p }, n, seed)
    }

    /// [`GeneratedGraph::gnp`] parameterized by expected average degree
    /// (`p = mean_degree / (n − 1)`), the natural way to hold density fixed
    /// across a size sweep.
    ///
    /// # Errors
    ///
    /// As for [`GeneratedGraph::gnp`] (in particular `mean_degree` must be
    /// in `[0, n − 1]`).
    pub fn gnp_with_mean_degree(n: usize, mean_degree: f64, seed: u64) -> Result<Self> {
        if n < 2 {
            return Err(Self::invalid("gnp_with_mean_degree requires n >= 2"));
        }
        Self::gnp(n, mean_degree / (n - 1) as f64, seed)
    }

    /// A Chung–Lu power-law random graph: vertex `u` has expected degree
    /// `w_u = min(scale · (n / (u + 1))^{1/(β−1)}, √(d̄·n))`, normalized so
    /// the uncapped weights average to `mean_degree`. Lower-indexed vertices
    /// are the hubs (vertex 0 is the largest). This is the degree profile of
    /// the power-law social networks studied in the rumor-spreading
    /// literature (exponents β ≈ 2–3).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameters`] if `n < 2`, the exponent is
    /// not `> 2`, or `mean_degree` is not in `(0, n − 1]`, and
    /// [`GraphError::TooLarge`] if the (expected or sampled) stub total
    /// exceeds `u32` slot addressing.
    pub fn chung_lu(n: usize, exponent: f64, mean_degree: f64, seed: u64) -> Result<Self> {
        if n < 2 {
            return Err(Self::invalid("chung_lu requires n >= 2"));
        }
        // NaN parameters fail these explicit comparisons too.
        if exponent.is_nan() || exponent <= 2.0 || !exponent.is_finite() {
            return Err(Self::invalid("chung_lu requires exponent > 2"));
        }
        if mean_degree.is_nan() || mean_degree <= 0.0 || mean_degree > (n - 1) as f64 {
            return Err(Self::invalid("chung_lu requires mean_degree in (0, n-1]"));
        }
        let gamma = 1.0 / (exponent - 1.0);
        // Normalize the raw weights (n/(u+1))^γ to average mean_degree. The
        // sum is accumulated in ascending vertex order — a fixed, documented
        // order, so it is part of the determinism contract.
        let mut raw_sum = 0.0f64;
        for u in 0..n {
            raw_sum += det_pow_frac(n as f64 / (u + 1) as f64, gamma);
        }
        let scale = mean_degree * n as f64 / raw_sum;
        let cap = (mean_degree * n as f64).sqrt();
        Self::build(
            Model::ChungLu {
                exponent,
                mean_degree,
                gamma,
                scale,
                cap,
            },
            n,
            seed,
        )
    }

    /// The expected degree of `u` under the model: `p · (n − 1)` for
    /// G(n, p), the (capped) Chung–Lu weight `w_u` otherwise. Erasure of
    /// self-loops and parallel stubs pulls realized degrees slightly below
    /// this; the property tests bound the gap.
    pub fn expected_degree(&self, u: VertexId) -> f64 {
        (self.n - 1) as f64 * self.success_probability(u)
    }

    /// The per-trial success probability `q_u` of `u`'s binomial stub draw.
    fn success_probability(&self, u: VertexId) -> f64 {
        debug_assert!(u < self.n);
        match self.model {
            Model::Gnp { p } => p,
            Model::ChungLu {
                gamma, scale, cap, ..
            } => {
                let w = (scale * det_pow_frac(self.n as f64 / (u + 1) as f64, gamma)).min(cap);
                (w / (self.n - 1) as f64).min(1.0)
            }
        }
    }

    fn build(model: Model, n: usize, seed: u64) -> Result<Self> {
        const STUB_LIMIT: u64 = u32::MAX as u64;
        if n > u32::MAX as usize {
            return Err(GraphError::TooLarge {
                what: "vertex count".into(),
                value: n as u64,
                limit: STUB_LIMIT,
            });
        }
        // Fail fast when the *expected* stub total is already far beyond
        // u32 slot addressing: the degree pass costs O(stub total) work, so
        // waiting for the exact prefix-sum check below would burn minutes of
        // sampling before reporting an error the parameters imply up front.
        // The floor is a certain lower bound on E[S] (for Chung–Lu, every
        // capped weight is at least min(scale, cap)), and binomial
        // concentration makes S ≤ limit at E[S] > 1.25 · limit
        // astronomically unlikely, so nothing representable is rejected.
        let expected_stub_floor = match model {
            Model::Gnp { p } => n as f64 * (n - 1) as f64 * p,
            Model::ChungLu { scale, cap, .. } => n as f64 * scale.min(cap).min((n - 1) as f64),
        };
        if expected_stub_floor > 1.25 * STUB_LIMIT as f64 {
            return Err(GraphError::TooLarge {
                what: "expected stub total".into(),
                value: expected_stub_floor as u64,
                limit: STUB_LIMIT,
            });
        }
        let model_tag = match model {
            Model::Gnp { .. } => 1,
            Model::ChungLu { .. } => 2,
        };
        let degree_key = StreamKey::from_seed(Self::derive_key(seed, model_tag, DEGREE_PURPOSE));
        let shell = GeneratedGraph {
            model,
            seed,
            n,
            num_edges: 0,
            pairing: Pairing::new(Self::derive_key(seed, model_tag, PAIR_PURPOSE), 0),
            stub_offsets: Vec::new(),
            stub_coarse: Vec::new(),
            slot_offsets: Vec::new(),
            regular: None,
            bipartite: OnceLock::new(),
            hub_cache: None,
        };

        // Pass 1 (parallel): per-vertex stub degrees, each a pure function
        // of (seed, u) — one counter-based stream per vertex. Counts are
        // written straight into the offsets table (position u + 1) and
        // prefix-summed in place, so construction never allocates a
        // separate degree vector — peak RSS stays at the two tables the
        // finished graph keeps.
        let mut stub_offsets = vec![0u32; n + 1];
        par_fill(&mut stub_offsets[1..], |base, out| {
            let round = degree_key.round_key(0);
            for (i, slot) in out.iter_mut().enumerate() {
                let u = base + i;
                let q = shell.success_probability(u);
                let mut stream = round.stream(u as u64);
                *slot = sample_binomial(&mut stream, n - 1, q) as u32;
            }
        });
        let mut total: u64 = 0;
        for slot in stub_offsets.iter_mut().skip(1) {
            total += u64::from(*slot);
            if total > STUB_LIMIT {
                // The sampled total wandered past the limit even though the
                // expectation sat below the fast-fail threshold: reject with
                // the same typed error instead of wrapping the u32 table.
                return Err(GraphError::TooLarge {
                    what: "sampled stub total".into(),
                    value: total,
                    limit: STUB_LIMIT,
                });
            }
            *slot = total as u32;
        }
        let pairing = Pairing::new(Self::derive_key(seed, model_tag, PAIR_PURPOSE), total);

        // The coarse owner index: one anchor per stub block, built by a
        // single monotone sweep with exactly `owner_of`'s tie semantics.
        let blocks = (total >> COARSE_BITS) as usize + 1;
        let mut stub_coarse = Vec::with_capacity(blocks);
        let mut anchor = 0usize;
        for b in 0..blocks {
            let t = (b as u64) << COARSE_BITS;
            while anchor + 1 < stub_offsets.len() && u64::from(stub_offsets[anchor + 1]) <= t {
                anchor += 1;
            }
            stub_coarse.push(anchor as u32);
        }

        // Pass 2 (parallel): simple degrees through the shared
        // enumerate-sort-dedup path, so stored degrees and query-time
        // neighbor lists can never disagree. Same in-place prefix trick.
        let mut slot_offsets = vec![0u32; n + 1];
        let stubs_ref = StubTable {
            offsets: &stub_offsets,
            coarse: &stub_coarse,
        };
        let pairing_ref = &pairing;
        par_fill(&mut slot_offsets[1..], |base, out| {
            let mut buf: Vec<u32> = Vec::new();
            for (i, slot) in out.iter_mut().enumerate() {
                let u = base + i;
                let stubs = (stubs_ref.offsets[u + 1] - stubs_ref.offsets[u]) as usize;
                if buf.len() < stubs {
                    buf.resize(stubs, 0);
                }
                *slot = neighbors_into(&stubs_ref, pairing_ref, u, &mut buf) as u32;
            }
        });
        let mut slots: u64 = 0;
        let mut max_degree = 0u32;
        let first = slot_offsets.get(1).copied().unwrap_or(0);
        let mut regular = true;
        for slot in slot_offsets.iter_mut().skip(1) {
            let d = *slot;
            max_degree = max_degree.max(d);
            regular &= d == first;
            slots += u64::from(d);
            *slot = slots as u32; // slots <= total <= u32::MAX
        }
        if max_degree as usize > crate::graph::MAX_SAMPLER_DEGREE {
            return Err(Self::invalid(
                "generated graph's maximum degree exceeds the sampler word range",
            ));
        }
        debug_assert!(slots.is_multiple_of(2), "simple degree total must be even");
        Ok(GeneratedGraph {
            model,
            seed,
            n,
            num_edges: (slots / 2) as usize,
            pairing,
            stub_offsets,
            stub_coarse,
            slot_offsets,
            regular: regular.then_some(first as usize),
            bipartite: OnceLock::new(),
            hub_cache: None,
        })
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A short stable family name (for bench/report labels).
    pub fn family_name(&self) -> &'static str {
        match self.model {
            Model::Gnp { .. } => "gnp",
            Model::ChungLu { .. } => "chung-lu",
        }
    }

    /// The Chung–Lu power-law exponent, if this is a Chung–Lu instance.
    pub fn power_law_exponent(&self) -> Option<f64> {
        match self.model {
            Model::Gnp { .. } => None,
            Model::ChungLu { exponent, .. } => Some(exponent),
        }
    }

    /// The model's target average degree: `p · (n − 1)` for G(n, p), the
    /// configured pre-cap mean weight for Chung–Lu. Realized average degree
    /// sits slightly below this (weight capping and stub erasure).
    pub fn target_mean_degree(&self) -> f64 {
        match self.model {
            Model::Gnp { p } => p * (self.n - 1) as f64,
            Model::ChungLu { mean_degree, .. } => mean_degree,
        }
    }

    /// Vertex `u`'s stub count (its degree before self-loop/parallel-edge
    /// erasure). Bounds the work of one neighbor query.
    pub fn stub_degree(&self, u: VertexId) -> usize {
        (self.stub_offsets[u + 1] - self.stub_offsets[u]) as usize
    }

    /// Collects `u`'s sorted, deduplicated simple neighbors into `buf`
    /// (which must hold at least [`GeneratedGraph::stub_degree`]`(u)`
    /// entries) and returns how many there are — always exactly
    /// `self.degree(u)`. The hub-cache construction pass uses this to
    /// materialize exact adjacency through the same enumeration path every
    /// query takes, so the cache can never disagree with the hashed path.
    pub(crate) fn neighbors_into_buf(&self, u: VertexId, buf: &mut [u32]) -> usize {
        let table = StubTable {
            offsets: &self.stub_offsets,
            coarse: &self.stub_coarse,
        };
        neighbors_into(&table, &self.pairing, u, buf)
    }

    /// Maximum simple degree over all vertices (`None` only for `n == 0`,
    /// which the constructors reject).
    pub fn max_degree(&self) -> Option<usize> {
        (0..self.n).map(|u| self.degree(u)).max()
    }

    /// Whether `(u, v)` is an edge — `O(deg)` (re-derives the smaller-stub
    /// endpoint's neighbor list, or binary-searches it when the hub cache
    /// holds it). Symmetric by the pairing involution; the
    /// property tests pin `contains_edge(u, v) == contains_edge(v, u)`.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u >= self.n || v >= self.n || u == v {
            return false;
        }
        let (probe, other) = if self.stub_degree(u) <= self.stub_degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.with_neighbors(probe, |ns| ns.binary_search(&(other as u32)).is_ok())
    }

    /// Runs `f` on `u`'s sorted simple neighbor list: the hub cache's copy
    /// when it holds `u`, otherwise derived on the stack for ordinary
    /// vertices and on the heap for hubs beyond [`STACK_NEIGHBORS`] stubs.
    fn with_neighbors<T>(&self, u: VertexId, f: impl FnOnce(&[u32]) -> T) -> T {
        let stubs = self.stub_degree(u);
        if let Some(list) = self.hub_cache.as_ref().and_then(|c| c.list(u, stubs)) {
            return f(list);
        }
        let table = StubTable {
            offsets: &self.stub_offsets,
            coarse: &self.stub_coarse,
        };
        if stubs <= STACK_NEIGHBORS {
            let mut buf = [0u32; STACK_NEIGHBORS];
            let len = neighbors_into(&table, &self.pairing, u, &mut buf);
            debug_assert_eq!(len, self.degree(u));
            f(&buf[..len])
        } else {
            let mut buf = vec![0u32; stubs];
            let len = neighbors_into(&table, &self.pairing, u, &mut buf);
            debug_assert_eq!(len, self.degree(u));
            f(&buf[..len])
        }
    }

    /// The `i`-th neighbor of `u` in ascending (sorted) order — exactly the
    /// value the materialized CSR stores at `adjacency[offsets[u] + i]`, read
    /// from the hub cache when `u` is a hub.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `i` is out of range.
    pub fn nth_neighbor(&self, u: VertexId, i: usize) -> VertexId {
        self.with_neighbors(u, |ns| ns[i] as VertexId)
    }

    /// Builds the CSR [`Graph`] with the identical vertex numbering and edge
    /// set — the differential-testing anchor. Intended for tests and small
    /// instances; the backend exists precisely because this does not fit in
    /// memory at target scales.
    ///
    /// # Errors
    ///
    /// Propagates builder errors (none are expected: the derived edge set is
    /// simple by construction).
    pub fn materialize(&self) -> Result<Graph> {
        let mut b = crate::builder::GraphBuilder::with_capacity(self.n, self.num_edges);
        for u in 0..self.n {
            self.with_neighbors(u, |ns| -> Result<()> {
                for &v in ns {
                    let v = v as usize;
                    if u < v {
                        b.add_edge(u, v)?;
                    }
                }
                Ok(())
            })?;
        }
        Ok(b.build())
    }

    /// The byte footprint the equivalent CSR build would need: adjacency
    /// (`2m` u32 entries), offsets (`n + 1` u32), and the per-vertex 12-byte
    /// sampler table. This is the length-based floor of
    /// [`Graph::memory_bytes`] (which reports capacities), so the bench's
    /// memory-ratio claims are conservative.
    pub fn csr_equivalent_bytes(&self) -> usize {
        2 * self.num_edges * std::mem::size_of::<u32>()
            + (self.n + 1) * std::mem::size_of::<u32>()
            + self.n * 12
    }

    /// BFS 2-coloring over every component (identical semantics to
    /// [`crate::algorithms::is_bipartite`] on the materialized CSR).
    fn compute_bipartite(&self) -> bool {
        let mut color = vec![u8::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..self.n {
            if color[start] != u8::MAX {
                continue;
            }
            color[start] = 0;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                let cu = color[u];
                let conflict = self.with_neighbors(u, |ns| {
                    for &v in ns {
                        let v = v as usize;
                        if color[v] == u8::MAX {
                            color[v] = 1 - cu;
                            queue.push_back(v);
                        } else if color[v] == cu {
                            return true;
                        }
                    }
                    false
                });
                if conflict {
                    return false;
                }
            }
        }
        true
    }
}

impl Topology for GeneratedGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn degree(&self, u: VertexId) -> usize {
        (self.slot_offsets[u + 1] - self.slot_offsets[u]) as usize
    }

    fn for_each_neighbor(&self, u: VertexId, mut f: impl FnMut(VertexId)) {
        self.with_neighbors(u, |ns| {
            for &v in ns {
                f(v as VertexId);
            }
        });
    }

    #[inline]
    fn random_neighbor<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> Option<VertexId> {
        let d = self.degree(u);
        if d == 0 {
            return None;
        }
        let i = sample_index(index_word(d), rng);
        Some(self.nth_neighbor(u, i as usize))
    }

    #[inline]
    fn random_neighbor_nonisolated<R: Rng + ?Sized>(&self, u: VertexId, rng: &mut R) -> VertexId {
        let d = self.degree(u);
        assert!(d != 0, "random_neighbor_nonisolated on isolated vertex {u}");
        let i = sample_index(index_word(d), rng);
        self.nth_neighbor(u, i as usize)
    }

    #[inline]
    fn random_neighbor_with<R: Rng, F: FnOnce() -> R>(
        &self,
        u: VertexId,
        make_rng: F,
    ) -> Option<VertexId> {
        let d = self.degree(u);
        if d == 0 {
            return None;
        }
        if d == 1 {
            // Forced outcome; under counter-based streams the unused draw is
            // simply never computed (see `Graph::random_neighbor_with`).
            return Some(self.nth_neighbor(u, 0));
        }
        let mut rng = make_rng();
        let i = sample_index(index_word(d), &mut rng);
        Some(self.nth_neighbor(u, i as usize))
    }

    fn sample_stationary<R: Rng + ?Sized>(&self, rng: &mut R) -> VertexId {
        assert!(
            self.num_edges > 0,
            "stationary sampling undefined without edges"
        );
        let pos = rng.gen_range(0..2 * self.num_edges);
        owner_of(&self.slot_offsets, pos as u64)
    }

    fn sample_stationary_into<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        out: &mut Vec<u32>,
    ) {
        assert!(
            self.num_edges > 0,
            "stationary sampling undefined without edges"
        );
        let slots = 2 * self.num_edges;
        out.clear();
        out.reserve(count);
        if let Some(d) = self.regular {
            // Mirrors the CSR regular fast path bit for bit.
            out.extend((0..count).map(|_| (rng.gen_range(0..slots) / d) as u32));
        } else {
            out.extend(
                (0..count)
                    .map(|_| owner_of(&self.slot_offsets, rng.gen_range(0..slots) as u64) as u32),
            );
        }
    }

    fn is_bipartite(&self) -> bool {
        *self.bipartite.get_or_init(|| self.compute_bipartite())
    }

    fn regular_degree(&self) -> Option<usize> {
        self.regular
    }

    fn memory_bytes(&self) -> usize {
        self.stub_offsets.capacity() * std::mem::size_of::<u32>()
            + self.slot_offsets.capacity() * std::mem::size_of::<u32>()
            + self.stub_coarse.capacity() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
            + self.cache_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pairing_is_an_involution_without_fixed_points() {
        for stubs in [2u64, 3, 7, 64, 65, 1000] {
            for key in [0u64, 1, 0xDEAD_BEEF] {
                let p = Pairing::new(key, stubs);
                assert!(p.domain() >= stubs);
                for s in 0..stubs {
                    // position/stub_at invert each other.
                    assert_eq!(p.stub_at(p.position(s)), s, "S={stubs} key={key}");
                    match p.partner(s) {
                        Some(t) => {
                            assert_ne!(t, s, "a stub cannot partner itself");
                            assert_eq!(p.partner(t), Some(s), "not an involution");
                        }
                        None => {
                            assert!(stubs % 2 == 1, "unmatched stub in an even total");
                            assert_eq!(p.position(s), stubs - 1);
                        }
                    }
                }
                // Exactly one unmatched stub iff S is odd.
                let unmatched = (0..stubs).filter(|&s| p.partner(s).is_none()).count();
                assert_eq!(unmatched as u64, stubs % 2);
            }
        }
    }

    #[test]
    fn det_pow_frac_matches_powf_closely() {
        for &(x, e) in &[
            (2.0, 0.5),
            (10.0, 0.25),
            (1.0, 0.9),
            (123_456.0, 1.0 / 1.5),
            (3.3, 0.666_666),
        ] {
            let got = det_pow_frac(x, e);
            let want = f64::powf(x, e);
            assert!(
                (got - want).abs() <= 1e-12 * want.max(1.0),
                "{x}^{e}: {got} vs {want}"
            );
        }
        assert_eq!(det_pow_frac(7.0, 0.0), 1.0);
    }

    #[test]
    fn binomial_sampler_matches_moments() {
        let key = StreamKey::from_seed(99).round_key(0);
        let (trials, q) = (500usize, 0.03f64);
        let draws = 4000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..draws {
            let k = sample_binomial(&mut key.stream(i), trials, q) as f64;
            sum += k;
            sum_sq += k * k;
        }
        let mean = sum / draws as f64;
        let var = sum_sq / draws as f64 - mean * mean;
        let want_mean = trials as f64 * q;
        let want_var = want_mean * (1.0 - q);
        assert!((mean - want_mean).abs() < 0.5, "mean {mean} vs {want_mean}");
        assert!((var - want_var).abs() < 2.0, "var {var} vs {want_var}");
        // Extremes are exact.
        assert_eq!(sample_binomial(&mut key.stream(0), 50, 0.0), 0);
        assert_eq!(sample_binomial(&mut key.stream(0), 50, 1.0), 50);
        assert_eq!(sample_binomial(&mut key.stream(0), 0, 0.7), 0);
    }

    #[test]
    fn coarse_owner_index_matches_the_full_search() {
        // Hub-heavy Chung–Lu instances give offset tables with multi-block
        // rows *and* runs of empty rows — the two shapes the coarse
        // bracket must handle. Every stub's owner must match the plain
        // partition-point search.
        for g in [
            GeneratedGraph::chung_lu(3000, 2.2, 6.0, 1).unwrap(),
            GeneratedGraph::gnp(500, 0.01, 2).unwrap(),
            GeneratedGraph::gnp(40, 0.9, 3).unwrap(),
        ] {
            let table = StubTable {
                offsets: &g.stub_offsets,
                coarse: &g.stub_coarse,
            };
            let total = u64::from(*g.stub_offsets.last().unwrap());
            for t in 0..total {
                assert_eq!(
                    table.owner(t),
                    owner_of(&g.stub_offsets, t),
                    "owner of stub {t} ({})",
                    g.family_name()
                );
            }
        }
    }

    #[test]
    fn construction_is_a_pure_function_of_parameters() {
        let a = GeneratedGraph::gnp(300, 0.03, 5).unwrap();
        let b = GeneratedGraph::gnp(300, 0.03, 5).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.slot_offsets, b.slot_offsets);
        assert_eq!(a.stub_offsets, b.stub_offsets);
        // Thread counts cannot change the pass output: force one worker,
        // restoring whatever setting the process was launched with (the CI
        // invariance jobs pin RUMOR_THREADS for the whole run).
        let previous = std::env::var_os("RUMOR_THREADS");
        std::env::set_var("RUMOR_THREADS", "1");
        let c = GeneratedGraph::gnp(300, 0.03, 5).unwrap();
        match previous {
            Some(value) => std::env::set_var("RUMOR_THREADS", value),
            None => std::env::remove_var("RUMOR_THREADS"),
        }
        assert_eq!(a.slot_offsets, c.slot_offsets);
    }

    #[test]
    fn degree_sum_is_twice_the_edge_count() {
        for seed in 0..3u64 {
            let g = GeneratedGraph::gnp(250, 0.04, seed).unwrap();
            let total: usize = (0..g.num_vertices()).map(|u| g.degree(u)).sum();
            assert_eq!(total, 2 * g.num_edges());
            let g = GeneratedGraph::chung_lu(250, 2.5, 6.0, seed).unwrap();
            let total: usize = (0..g.num_vertices()).map(|u| g.degree(u)).sum();
            assert_eq!(total, 2 * g.num_edges());
        }
    }

    #[test]
    fn neighbor_lists_are_sorted_dedup_and_loop_free() {
        let g = GeneratedGraph::chung_lu(400, 2.2, 8.0, 3).unwrap();
        for u in 0..g.num_vertices() {
            let mut ns = Vec::new();
            g.for_each_neighbor(u, |v| ns.push(v));
            assert_eq!(ns.len(), g.degree(u), "degree mismatch at {u}");
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted/dup at {u}");
            assert!(!ns.contains(&u), "self-loop at {u}");
            for &v in &ns {
                assert!(g.contains_edge(u, v) && g.contains_edge(v, u));
            }
        }
    }

    #[test]
    fn hubs_get_hub_degrees_under_chung_lu() {
        let g = GeneratedGraph::chung_lu(2000, 2.5, 6.0, 11).unwrap();
        // Vertex 0 is the heaviest; its expected degree dwarfs the tail's.
        assert!(g.expected_degree(0) > 10.0 * g.expected_degree(1999));
        assert!(g.degree(0) > g.degree(1999));
        assert!(g.max_degree().unwrap() >= g.degree(0));
        assert_eq!(g.power_law_exponent(), Some(2.5));
        assert_eq!(g.family_name(), "chung-lu");
    }

    #[test]
    fn constructors_reject_invalid_parameters() {
        assert!(GeneratedGraph::gnp(0, 0.5, 0).is_err());
        assert!(GeneratedGraph::gnp(10, -0.1, 0).is_err());
        assert!(GeneratedGraph::gnp(10, 1.5, 0).is_err());
        assert!(GeneratedGraph::gnp_with_mean_degree(1, 1.0, 0).is_err());
        assert!(GeneratedGraph::chung_lu(1, 2.5, 1.0, 0).is_err());
        assert!(GeneratedGraph::chung_lu(10, 2.0, 3.0, 0).is_err());
        assert!(GeneratedGraph::chung_lu(10, 2.5, 0.0, 0).is_err());
        assert!(GeneratedGraph::chung_lu(10, 2.5, 100.0, 0).is_err());
        assert!(GeneratedGraph::gnp(10, f64::NAN, 0).is_err());
    }

    #[test]
    fn overflowing_stub_totals_fail_fast_with_too_large() {
        // n·(n−1)·p ≈ 10¹⁰ stubs — far past u32 slot addressing. Sampling
        // that many stubs costs ~10¹⁰ operations, so the regression test
        // only passes quickly because the expected-total check rejects the
        // spec *before* the degree pass (the bug was a silent u32 wrap at
        // prefix-sum time after minutes of sampling).
        let t0 = std::time::Instant::now();
        let err = GeneratedGraph::gnp(100_000, 1.0, 1).unwrap_err();
        assert!(
            matches!(
                err,
                GraphError::TooLarge { ref what, value, limit }
                    if what == "expected stub total"
                        && value > limit
                        && limit == u64::from(u32::MAX)
            ),
            "want TooLarge, got {err:?}"
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "overflow rejection must not sample the degree pass"
        );

        // Same fast path for a Chung–Lu spec whose weight floor already
        // certifies overflow (n = 10⁶ at mean degree 3·10⁴).
        let err = GeneratedGraph::chung_lu(1_000_000, 2.5, 30_000.0, 1).unwrap_err();
        assert!(
            matches!(err, GraphError::TooLarge { ref what, .. } if what == "expected stub total"),
            "want TooLarge, got {err:?}"
        );

        // Representable specs at the same n are untouched.
        assert!(GeneratedGraph::gnp_with_mean_degree(100_000, 12.0, 1).is_ok());
    }

    #[test]
    fn empty_and_extreme_probabilities() {
        let empty = GeneratedGraph::gnp(50, 0.0, 1).unwrap();
        assert_eq!(empty.num_edges(), 0);
        assert_eq!(empty.degree(7), 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(empty.random_neighbor(0, &mut rng), None);
        assert!(empty.is_bipartite());
        assert_eq!(empty.regular_degree(), Some(0));
        // n = 1: no possible stubs.
        let single = GeneratedGraph::gnp(1, 0.9, 1).unwrap();
        assert_eq!(single.num_edges(), 0);
    }

    #[test]
    fn memory_is_linear_in_n_not_m() {
        let sparse = GeneratedGraph::gnp_with_mean_degree(20_000, 4.0, 2).unwrap();
        let dense = GeneratedGraph::gnp_with_mean_degree(20_000, 24.0, 2).unwrap();
        assert!(dense.num_edges() > 4 * sparse.num_edges());
        // The offset tables are the same size either way; only the coarse
        // owner index (one u32 per 1024 stubs, ~0.4% of a CSR adjacency)
        // grows with density.
        assert!(dense.memory_bytes() <= sparse.memory_bytes() + sparse.memory_bytes() / 20);
        // And the CSR-equivalent footprint grows with m.
        assert!(dense.csr_equivalent_bytes() > 3 * sparse.csr_equivalent_bytes());
        assert!(dense.csr_equivalent_bytes() > 10 * dense.memory_bytes());
    }

    #[test]
    fn stationary_sampling_respects_empty_lists_and_degree_bias() {
        let g = GeneratedGraph::gnp(120, 0.02, 9).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let v = g.sample_stationary(&mut rng);
            assert!(g.degree(v) > 0, "sampled isolated vertex {v}");
        }
        let mut bulk = Vec::new();
        g.sample_stationary_into(300, &mut StdRng::seed_from_u64(8), &mut bulk);
        let mut singles_rng = StdRng::seed_from_u64(8);
        let singles: Vec<u32> = (0..300)
            .map(|_| g.sample_stationary(&mut singles_rng) as u32)
            .collect();
        assert_eq!(bulk, singles, "bulk must replay single draws");
    }
}
