//! `serve_mix`: an in-process `rumor-serve` on loopback, driven by `nproc`
//! closed-loop clients that each wait for a reply before sending the next
//! request, as sweep clients do. Each client runs a seeded mix:
//!
//! * about 60% fresh push-pull and 20% fresh visit-exchange jobs, each on
//!   `hypercube` dimension 10 with 32 trials;
//! * about 10% resubmissions of one of its earlier jobs (result cache);
//! * about 10% uploaded-graph ops, alternating between uploading a fresh
//!   random-regular CSR graph (an op of its own) and a push-pull job on it.
//!
//! A job simulates for a few ms, so parsing, admission, queueing and the
//! socket dominate. The timed phase runs without a state dir: with one,
//! every trial's manifest rewrite reached the disk as a write plus a
//! discard (about 1,400 of each per second on a 2-core ext4 host), and the
//! latencies followed the host disk rather than the server. The traced run
//! probes that durable path on its own (`serve.durable_job_ms`,
//! `serve.state_dir_bytes`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};
use rumor_core::{simulate_topology, ProtocolKind, SimulationSpec};
use rumor_experiments::serve::protocol::{
    fnv1a64, parse_json, parse_request, trial_line, with_session, Json,
};
use rumor_experiments::serve::UploadReport;
use rumor_experiments::{
    ClientError, JobResult, ServeClient, ServeConfig, Server, ServerHandle, SubmitRequest,
    TopologySpec, TrialOutcome,
};
use rumor_graphs::codec::encode_csr;
use rumor_graphs::generators::random_regular;
use rumor_graphs::{AnyTopology, Graph, ImplicitGraph, Topology};

use super::{secs, timed_setup, Ctx, OpRecord, Run, MIN_OPS};
use crate::layers;
use crate::report::Metric;
use crate::stats::{derive_seed, median};
use crate::trace::Tracer;

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Hypercube dimension of the family jobs.
    pub dim: u32,
    /// Trials per job.
    pub trials: usize,
    /// Vertices of an uploaded graph.
    pub upload_n: usize,
    /// Degree of an uploaded (random regular) graph.
    pub upload_degree: usize,
    /// Upload graphs each client builds during set-up.
    pub pool: usize,
}

/// The benchmarked shape.
pub const FULL: Size = Size {
    dim: 10,
    trials: 32,
    upload_n: 1024,
    upload_degree: 8,
    pool: 64,
};

/// One in this many fresh jobs is checked against a direct run.
const SAMPLE_EVERY: u32 = 8;

/// What one planned op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A fresh push-pull job on the hypercube.
    PushPull,
    /// A fresh visit-exchange job on the hypercube.
    VisitExchange,
    /// Resubmits the client's `pick`-th earlier fresh hypercube job.
    Resubmit,
    /// Uploads the client's `graph`-th CSR graph.
    Upload,
    /// A fresh push-pull job on the client's most recent upload.
    UploadedJob,
}

/// One planned op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What it does.
    pub kind: Kind,
    /// Base seed of a fresh job.
    pub seed: u64,
    /// Index into the client's earlier hypercube jobs (resubmissions).
    pub pick: usize,
    /// Index of the client's upload graph (uploads and their jobs).
    pub graph: usize,
    /// Whether the job's trial lines are checked against a direct run.
    pub sampled: bool,
}

/// A client's op sequence: a pure function of `(seed, client)`.
#[derive(Debug)]
pub struct Plan {
    rng: SmallRng,
    fresh: usize,
    uploads: usize,
    pending_job: bool,
}

impl Plan {
    /// The plan of client `client` under workload seed `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        Plan {
            rng: SmallRng::seed_from_u64(derive_seed(seed, 1 << 40 | client as u64)),
            fresh: 0,
            uploads: 0,
            pending_job: false,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.gen_range(0u32..100);
        let seed = self.rng.gen_range(0u64..1 << 53);
        let sampled = self.rng.gen_range(0..SAMPLE_EVERY) == 0;
        let mut op = Op {
            kind: Kind::PushPull,
            seed,
            pick: 0,
            graph: self.uploads.saturating_sub(1),
            sampled,
        };
        op.kind = match roll {
            0..=59 => Kind::PushPull,
            60..=79 => Kind::VisitExchange,
            80..=89 if self.fresh > 0 => {
                op.pick = self.rng.gen_range(0..self.fresh);
                Kind::Resubmit
            }
            80..=89 => Kind::PushPull,
            _ if self.pending_job => {
                self.pending_job = false;
                Kind::UploadedJob
            }
            _ => {
                op.graph = self.uploads;
                self.uploads += 1;
                self.pending_job = true;
                Kind::Upload
            }
        };
        if matches!(op.kind, Kind::PushPull | Kind::VisitExchange) {
            self.fresh += 1;
        }
        op
    }
}

/// The `index`-th upload graph of `client`.
pub fn upload_graph(size: Size, seed: u64, client: usize, index: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(derive_seed(
        seed,
        2 << 40 | (client as u64) << 20 | index as u64,
    ));
    random_regular(size.upload_n, size.upload_degree, &mut rng).expect("random regular graph")
}

/// The hypercube job `op` describes (fresh, or the one it resubmits).
pub fn family_request(size: Size, client: usize, kind: Kind, seed: u64) -> SubmitRequest {
    let protocol = if kind == Kind::VisitExchange {
        "visit-exchange"
    } else {
        "push-pull"
    };
    let mut request = SubmitRequest::new(
        &format!("client-{client}"),
        TopologySpec::new("hypercube", size.dim as usize),
        protocol,
        size.trials,
    );
    request.seed = seed;
    request
}

/// The trial lines a server must stream for `request` on `topology`,
/// session framing included, computed by direct simulation. The mix runs
/// only push-pull and visit-exchange, which the server's bipartite remedy
/// leaves unchanged.
pub fn direct_lines(request: &SubmitRequest, topology: &AnyTopology) -> Vec<String> {
    let base = request.to_spec().expect("valid protocol");
    let job = request.digest();
    (0..request.trials)
        .map(|i| {
            let spec = base.clone().with_seed(request.seed.wrapping_add(i as u64));
            let o = simulate_topology(topology, 0, &spec);
            let outcome = if o.completed {
                TrialOutcome::Completed(o)
            } else {
                TrialOutcome::RoundCapped(o)
            };
            with_session(&trial_line(i, &outcome), job, i as u64 + 1)
        })
        .collect()
}

/// FNV-1a-64 of a job's trial lines: what a client keeps of a live stream
/// to compare a later replay against.
pub fn stream_digest(lines: &[String]) -> u64 {
    fnv1a64(lines.join("\n").as_bytes())
}

/// Whether a job's reply passes its output check. Every trial must stream,
/// completed. A fresh job must really run, not come from the cache. A
/// resubmission must not re-run: the server answers it from its cache, or,
/// when it races the finished job's publication to the cache, attaches it
/// to that job; either way it must replay the live stream, whose
/// [`stream_digest`] `replays` holds for resubmissions.
pub fn job_ok(size: Size, r: &JobResult, replays: Option<u64>) -> bool {
    let complete = r.trial_lines.len() == size.trials && r.taxonomy.completed == size.trials;
    match replays {
        Some(live) => {
            complete && (r.cached || r.duplicate) && stream_digest(&r.trial_lines) == live
        }
        None => complete && !r.cached,
    }
}

/// Whether an upload passes its output check. `upload_done` comes only
/// after the server re-hashed the bytes it assembled and matched the digest
/// of the local encoding the client declared (a mismatch is an
/// `upload_error`, so `Err` here), and decoded them to the declared vertex
/// and edge counts. Each benchmarked graph is new to the server, so it must
/// also have acked every chunk rather than answer from a stored entry. The
/// uploaded-graph job that follows checks that the digest resolves.
pub fn upload_ok(report: &Result<UploadReport, ClientError>) -> bool {
    report
        .as_ref()
        .is_ok_and(|r| r.resumed_from == 0 && r.chunks_sent == r.chunks)
}

/// A running server and what the clients will upload. Dropping it drains
/// the server, waits for its thread and removes its state dir, if any.
struct Served {
    handle: ServerHandle,
    join: Option<std::thread::JoinHandle<()>>,
    state_dir: Option<PathBuf>,
    /// Per client: graphs with their canonical encodings.
    pools: Vec<Vec<(Graph, Vec<u8>)>>,
    pool_build_s: f64,
}

impl Served {
    fn start(ctx: &Ctx, size: Size, state_dir: Option<PathBuf>) -> Served {
        let t = Instant::now();
        // Each client builds its own graphs, on its own thread.
        let pools = std::thread::scope(|scope| {
            let builders: Vec<_> = (0..ctx.nproc)
                .map(|c| {
                    scope.spawn(move || {
                        (0..size.pool)
                            .map(|k| {
                                let g = ctx.tracer.span("graphs", 0, None, |_| {
                                    upload_graph(size, ctx.seed, c, k)
                                });
                                let bytes = encode_csr(&g);
                                (g, bytes)
                            })
                            .collect()
                    })
                })
                .collect();
            builders
                .into_iter()
                .map(|b| b.join().expect("pool builder"))
                .collect()
        });
        let pool_build_s = secs(t);
        let mut config = ServeConfig::new().with_workers(ctx.nproc);
        if let Some(dir) = &state_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).expect("create the state dir");
            config = config.with_state_dir(dir.clone());
        }
        let server = ctx
            .tracer
            .span("serve", 0, None, |_| Server::bind("127.0.0.1:0", config))
            .expect("bind a loopback port");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("serve"));
        Served {
            handle,
            join: Some(join),
            state_dir,
            pools,
            pool_build_s,
        }
    }

    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.drain();
        if self.join.take().is_some_and(|join| join.join().is_err()) {
            eprintln!("serve_mix: the server thread panicked");
        }
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A job kept for the check against a direct run.
struct Sampled {
    record: usize,
    request: SubmitRequest,
    /// Upload graph `(client, index)`, or `None` for the hypercube.
    graph: Option<(usize, usize)>,
    lines: Vec<String>,
    latency_s: f64,
}

#[derive(Default)]
struct ClientOut {
    records: Vec<OpRecord>,
    sampled: Vec<Sampled>,
    upload_s: Vec<f64>,
    jobs: usize,
}

/// One closed-loop client: runs its planned ops until `deadline`, and at
/// least `min_ops` of them.
fn client_loop(
    ctx: &Ctx,
    size: Size,
    served: &Served,
    client: usize,
    deadline: Instant,
    min_ops: usize,
) -> ClientOut {
    let off = Tracer::new(false);
    let sc = ServeClient::new(&served.addr());
    let pool = &served.pools[client];
    let mut plan = Plan::new(ctx.seed, client);
    // Earlier fresh jobs with the digest of their live stream.
    let mut history: Vec<(SubmitRequest, u64)> = Vec::new();
    let mut out = ClientOut::default();
    let mut index = 0u64;
    while out.records.len() < min_ops || Instant::now() < deadline {
        index += 1;
        let op = plan.next_op();
        let op_id = (client as u64) << 32 | index;
        let traced = ctx.traces_op(index);
        let tracer = if traced { ctx.tracer } else { &off };
        // The op's upload graph; those beyond the set-up pool are built
        // outside the op.
        let extra;
        let encoded: &[u8] = match pool.get(op.graph) {
            _ if !matches!(op.kind, Kind::Upload | Kind::UploadedJob) => &[],
            Some((_, bytes)) => bytes,
            None => {
                extra = encode_csr(&upload_graph(size, ctx.seed, client, op.graph));
                &extra
            }
        };
        let request = match op.kind {
            Kind::PushPull | Kind::VisitExchange => {
                Some(family_request(size, client, op.kind, op.seed))
            }
            Kind::Resubmit => Some(history[op.pick].0.clone()),
            Kind::UploadedJob => {
                let mut r = SubmitRequest::new(
                    &format!("client-{client}"),
                    TopologySpec::uploaded(fnv1a64(encoded)),
                    "push-pull",
                    size.trials,
                );
                r.seed = op.seed;
                Some(r)
            }
            Kind::Upload => None,
        };
        let t = Instant::now();
        let record = match request {
            None => {
                let report = tracer.span("bench", op_id, None, |p| {
                    tracer.span("serve", op_id, p, |_| sc.upload_bytes(encoded))
                });
                let latency_s = secs(t);
                out.upload_s.push(latency_s);
                if let Err(e) = &report {
                    eprintln!("serve_mix: client {client} op {index} (Upload) failed: {e:?}");
                }
                OpRecord {
                    latency_s,
                    trials: 0,
                    job: false,
                    ok: upload_ok(&report),
                    traced,
                }
            }
            Some(request) => {
                out.jobs += 1;
                let result = tracer.span("bench", op_id, None, |p| {
                    tracer.span("serve", op_id, p, |_| sc.submit_once(&request))
                });
                let latency_s = secs(t);
                let (ok, trials) = match &result {
                    Ok(r) => {
                        let replays = (op.kind == Kind::Resubmit).then(|| history[op.pick].1);
                        (job_ok(size, r, replays), r.trial_lines.len() as u64)
                    }
                    Err(e) => {
                        eprintln!(
                            "serve_mix: client {client} op {index} ({:?}) failed: {e:?}",
                            op.kind
                        );
                        (false, 0)
                    }
                };
                if !ok && result.is_ok() {
                    eprintln!(
                        "serve_mix: client {client} op {index} ({:?}) failed its output check",
                        op.kind
                    );
                }
                if let Ok(r) = result {
                    if op.sampled && op.kind != Kind::Resubmit {
                        out.sampled.push(Sampled {
                            record: out.records.len(),
                            request: request.clone(),
                            graph: (op.kind == Kind::UploadedJob).then_some((client, op.graph)),
                            lines: r.trial_lines.clone(),
                            latency_s,
                        });
                    }
                    if matches!(op.kind, Kind::PushPull | Kind::VisitExchange) {
                        history.push((request, stream_digest(&r.trial_lines)));
                    }
                } else if matches!(op.kind, Kind::PushPull | Kind::VisitExchange) {
                    // Keep the plan's indexes aligned; a later resubmission
                    // of a failed job fails its check too.
                    history.push((request, stream_digest(&[])));
                }
                OpRecord {
                    latency_s,
                    trials,
                    job: true,
                    ok,
                    traced,
                }
            }
        };
        out.records.push(record);
    }
    out
}

/// Compares every sampled job's trial lines with a direct run of its spec
/// and marks the op failed where they differ. Returns, per sampled job, the
/// direct run's time over the job's latency.
fn check_sampled(
    outs: &mut [ClientOut],
    pools: &[Vec<(Graph, Vec<u8>)>],
    size: Size,
    seed: u64,
    hypercube: &AnyTopology,
) -> Vec<f64> {
    let mut sim_share = Vec::new();
    for out in outs {
        for s in &out.sampled {
            let topology = match s.graph {
                None => hypercube.clone(),
                Some((c, k)) => AnyTopology::from(match pools[c].get(k) {
                    Some((g, _)) => g.clone(),
                    None => upload_graph(size, seed, c, k),
                }),
            };
            let t = Instant::now();
            let expected = direct_lines(&s.request, &topology);
            sim_share.push(secs(t) / s.latency_s);
            if expected != s.lines {
                eprintln!(
                    "serve_mix: job {:016x} differs from its direct run",
                    s.request.digest()
                );
                out.records[s.record].ok = false;
            }
        }
    }
    sim_share
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => dir_bytes(&e.path()),
                    _ => e.metadata().map_or(0, |m| m.len()),
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Run {
    let size = FULL;
    let hypercube = AnyTopology::from(ImplicitGraph::hypercube(size.dim).expect("hypercube"));
    let mut pool_build_s = Vec::new();
    let (served, setup_s) = timed_setup(|_| {
        let s = Served::start(ctx, size, None);
        pool_build_s.push(s.pool_build_s);
        s
    });
    let mut run = Run {
        setup_s,
        ..Run::default()
    };

    // Warm-up: one fresh job, checked byte for byte and digested.
    let warm = family_request(size, 0, Kind::PushPull, derive_seed(ctx.seed, 0));
    let warm_lines = ServeClient::new(&served.addr())
        .submit_once(&warm)
        .map(|r| r.trial_lines)
        .unwrap_or_default();
    run.check(direct_lines(&warm, &hypercube) == warm_lines);
    run.outcome_digest = stream_digest(&warm_lines);

    let clients = ctx.nproc;
    let min_ops = MIN_OPS.div_ceil(clients);
    let queue_max = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut outs: Vec<ClientOut> = std::thread::scope(|scope| {
        if ctx.tracer.enabled() {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    queue_max.fetch_max(served.handle.status().queue_depth, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let served = &served;
                scope.spawn(move || client_loop(ctx, size, served, c, deadline, min_ops))
            })
            .collect();
        let outs = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        stop.store(true, Ordering::Relaxed);
        outs
    });
    run.wall_s = secs(start);
    let status = served.handle.status();

    // Sampled jobs against a direct run, after the timed phase.
    let sim_share = check_sampled(&mut outs, &served.pools, size, ctx.seed, &hypercube);
    run.ops = outs
        .iter()
        .flat_map(|o| o.records.iter().copied())
        .collect();

    if ctx.tracer.enabled() {
        let jobs: usize = outs.iter().map(|o| o.jobs).sum::<usize>() + 1;
        let upload_s: Vec<f64> = outs
            .iter()
            .flat_map(|o| o.upload_s.iter().copied())
            .collect();
        let mut m = ctx.tracer.span("bench", u64::MAX, None, |p| {
            probes(ctx, size, &served, &hypercube, &mut run, p)
        });
        m.extend([
            Metric::new("graphs.build_s", median(&pool_build_s).unwrap_or(0.0), "s"),
            Metric::new(
                "serve.sim_share",
                median(&sim_share).unwrap_or(0.0),
                "ratio",
            ),
            Metric::new(
                "serve.queue_depth_max",
                queue_max.load(Ordering::Relaxed) as f64,
                "count",
            ),
            Metric::new(
                "serve.cache_hit_ratio",
                status.cache_hits as f64 / jobs as f64,
                "ratio",
            ),
            Metric::new(
                "serve.upload_ms",
                median(&upload_s).unwrap_or(0.0) * 1e3,
                "ms",
            ),
            Metric::new("serve.shed", status.shed as f64, "count"),
            Metric::new(
                "serve.protocol_errors",
                status.protocol_errors as f64,
                "count",
            ),
            Metric::new("serve.resumes", status.resumes as f64, "count"),
        ]);
        run.per_layer = m;
    }
    drop(served);
    run
}

fn probes(
    ctx: &Ctx,
    size: Size,
    served: &Served,
    hypercube: &AnyTopology,
    run: &mut Run,
    parent: Option<u64>,
) -> Vec<Metric> {
    let tracer = ctx.tracer;
    let seed = ctx.seed;
    let cube = hypercube.as_implicit().expect("implicit hypercube");
    let csr = &served.pools[0][0].0;
    let mut m = layers::rand_probes(seed, tracer, parent);
    let pool_bytes: usize = served
        .pools
        .iter()
        .flatten()
        .map(|(g, _)| g.memory_bytes())
        .sum();
    m.extend([
        Metric::new(
            "graphs.memory_bytes",
            (cube.memory_bytes() + pool_bytes) as f64,
            "bytes",
        ),
        Metric::new(
            "graphs.neighbor_ns.implicit",
            tracer.span("graphs", 1, parent, |_| {
                layers::neighbor_ns(cube, &layers::stationary_sample(cube, 1 << 16, seed), seed)
            }),
            "ns",
        ),
        Metric::new(
            "graphs.neighbor_ns.csr",
            tracer.span("graphs", 2, parent, |_| {
                layers::neighbor_ns(csr, &layers::stationary_sample(csr, 1 << 16, seed), seed)
            }),
            "ns",
        ),
        Metric::new(
            "graphs.stationary_ns",
            tracer.span("graphs", 3, parent, |_| layers::stationary_ns(cube, seed)),
            "ns",
        ),
        Metric::new(
            "walks.step_ns_per_agent",
            tracer.span("walks", 0, parent, |_| layers::walk_step_ns(cube, 64, seed)),
            "ns",
        ),
    ]);
    for kind in [ProtocolKind::PushPull, ProtocolKind::VisitExchange] {
        m.extend(layers::core_trial(
            cube,
            0,
            &SimulationSpec::new(kind).with_seed(seed),
            9,
            tracer,
            parent,
        ));
    }

    // Request encode and parse, in process.
    let request = family_request(size, 0, Kind::PushPull, seed);
    let line = request.to_line();
    const CALLS: usize = 4096;
    let encode_us = tracer.span("serve", 1, parent, |_| {
        layers::ns_per(CALLS, || {
            for _ in 0..CALLS {
                std::hint::black_box(request.to_line());
            }
        }) / 1e3
    });
    let parse_us = tracer.span("serve", 2, parent, |_| {
        layers::ns_per(CALLS, || {
            for _ in 0..CALLS {
                std::hint::black_box(parse_request(&line).is_ok());
            }
        }) / 1e3
    });
    m.push(Metric::new("serve.encode_us", encode_us, "us"));
    m.push(Metric::new("serve.parse_us", parse_us, "us"));

    // Submit → accepted → first trial → done, timed at the wire.
    let wire = tracer.span("serve", 3, parent, |_| {
        wire_phases(&served.addr(), size, seed)
    });
    run.check(wire.is_some());
    let [accept, first, stream] = wire.unwrap_or_default();
    m.push(Metric::new("serve.accept_ms", accept, "ms"));
    m.push(Metric::new("serve.first_trial_ms", first, "ms"));
    m.push(Metric::new("serve.stream_ms", stream, "ms"));

    let durable = tracer.span("serve", 4, parent, |_| durable_probe(ctx, size));
    run.check(durable.is_some());
    let (job_ms, state_dir_bytes) = durable.unwrap_or_default();
    m.push(Metric::new("serve.durable_job_ms", job_ms, "ms"));
    m.push(Metric::new(
        "serve.state_dir_bytes",
        state_dir_bytes as f64,
        "bytes",
    ));
    m
}

/// Fresh jobs the durability probe runs on a server with a state dir.
const DURABLE_JOBS: u64 = 24;

/// The durable path the timed phase leaves out: one client runs
/// [`DURABLE_JOBS`] fresh jobs and one upload against a server whose
/// manifests and content store live in a state dir. Returns the median job
/// latency (ms) and the state dir's size afterwards; `None` if an op fails.
fn durable_probe(ctx: &Ctx, size: Size) -> Option<(f64, u64)> {
    let dir = ctx
        .out_dir
        .join(format!("serve-state-{}", std::process::id()));
    let served = Served::start(ctx, size, Some(dir.clone()));
    let client = ServeClient::new(&served.addr());
    let bytes = &served.pools[0][0].1;
    upload_ok(&client.upload_bytes(bytes)).then_some(())?;
    let mut job_ms = Vec::new();
    for j in 0..DURABLE_JOBS {
        let request = family_request(size, 0, Kind::PushPull, derive_seed(ctx.seed, 4 << 40 | j));
        let t = Instant::now();
        let r = client.submit_once(&request).ok()?;
        job_ms.push(secs(t) * 1e3);
        (r.taxonomy.completed == size.trials && !r.cached).then_some(())?;
    }
    Some((median(&job_ms)?, dir_bytes(&dir)))
}

/// Median ms of submit→accepted, accepted→first trial line and first trial
/// line→done over fresh jobs on one raw connection; `None` if a stream is
/// malformed.
fn wire_phases(addr: &str, size: Size, seed: u64) -> Option<[f64; 3]> {
    const JOBS: u64 = 16;
    let stream = TcpStream::connect(addr).ok()?;
    // As `ServeClient` does: one write per line, no Nagle delay.
    stream.set_nodelay(true).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    for j in 0..JOBS {
        let mut request = family_request(size, 9, Kind::PushPull, derive_seed(seed, 3 << 40 | j));
        request.client = "wire-probe".to_string();
        let line = request.to_line() + "\n";
        let sent = Instant::now();
        writer.write_all(line.as_bytes()).ok()?;
        let (mut accepted, mut first, mut trials) = (None, None, 0);
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).ok()? == 0 {
                return None;
            }
            let v = parse_json(line.trim_end()).ok()?;
            match v.get("type").and_then(Json::as_str)? {
                "accepted" => accepted = Some(Instant::now()),
                "trial" => {
                    first.get_or_insert_with(Instant::now);
                    trials += 1;
                }
                "done" if trials == size.trials => {
                    let (a, f) = (accepted?, first?);
                    phases[0].push(a.duration_since(sent).as_secs_f64() * 1e3);
                    phases[1].push(f.duration_since(a).as_secs_f64() * 1e3);
                    phases[2].push(f.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                _ => return None,
            }
        }
    }
    let [a, f, s] = phases.map(|p| median(&p).unwrap_or(0.0));
    Some([a, f, s])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, client: usize, ops: usize) -> Vec<Op> {
        let mut p = Plan::new(seed, client);
        (0..ops).map(|_| p.next_op()).collect()
    }

    #[test]
    fn op_sequences_are_seed_determined() {
        assert_eq!(plan(11, 0, 500), plan(11, 0, 500));
        assert_ne!(plan(11, 0, 500), plan(12, 0, 500));
        assert_ne!(plan(11, 0, 500), plan(11, 1, 500));
        let ops = plan(11, 0, 4000);
        let share = |k: Kind| ops.iter().filter(|o| o.kind == k).count() as f64 / ops.len() as f64;
        assert!((share(Kind::PushPull) - 0.60).abs() < 0.04);
        assert!((share(Kind::VisitExchange) - 0.20).abs() < 0.03);
        assert!((share(Kind::Resubmit) - 0.10).abs() < 0.02);
        assert!((share(Kind::Upload) + share(Kind::UploadedJob) - 0.10).abs() < 0.02);
        // Every uploaded-graph job follows its upload, and resubmissions
        // only name earlier fresh jobs.
        let mut fresh = 0;
        let mut last_upload = None;
        for op in &ops {
            match op.kind {
                Kind::PushPull | Kind::VisitExchange => fresh += 1,
                Kind::Resubmit => assert!(op.pick < fresh),
                Kind::Upload => last_upload = Some(op.graph),
                Kind::UploadedJob => assert_eq!(Some(op.graph), last_upload),
            }
        }
    }

    /// Runs the sampled-job check on one job whose client saw `lines`;
    /// returns whether the op still counts as passed.
    fn sampled_passes(
        request: &SubmitRequest,
        graph: Option<(usize, usize)>,
        lines: Vec<String>,
        pools: &[Vec<(Graph, Vec<u8>)>],
        size: Size,
        cube: &AnyTopology,
    ) -> bool {
        let record = OpRecord {
            latency_s: 1.0,
            trials: lines.len() as u64,
            job: true,
            ok: true,
            traced: false,
        };
        let mut outs = vec![ClientOut {
            records: vec![record],
            sampled: vec![Sampled {
                record: 0,
                request: request.clone(),
                graph,
                lines,
                latency_s: 1.0,
            }],
            ..ClientOut::default()
        }];
        check_sampled(&mut outs, pools, size, 9, cube);
        outs[0].records[0].ok
    }

    #[test]
    fn served_outputs_pass_their_checks_and_wrong_ones_fail() {
        let size = Size {
            dim: 5,
            trials: 4,
            upload_n: 64,
            upload_degree: 4,
            pool: 1,
        };
        let server = Server::bind("127.0.0.1:0", ServeConfig::new().with_workers(2)).unwrap();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        let client = ServeClient::new(&handle.addr().to_string());
        let cube = AnyTopology::from(ImplicitGraph::hypercube(size.dim).unwrap());
        let graph = upload_graph(size, 9, 0, 0);
        let bytes = encode_csr(&graph);
        let pools = vec![vec![(graph.clone(), bytes.clone())]];
        let flip = |lines: &[String]| {
            let mut flipped = lines.to_vec();
            flipped[1] =
                flipped[1].replace("\"status\":\"completed\"", "\"status\":\"round-capped\"");
            assert_ne!(flipped, lines, "the flip changes a line");
            flipped
        };
        let passes = |request: &SubmitRequest, graph, lines| {
            sampled_passes(request, graph, lines, &pools, size, &cube)
        };

        for kind in [Kind::PushPull, Kind::VisitExchange] {
            let request = family_request(size, 0, kind, 77);
            let live = client.submit_once(&request).unwrap();
            assert!(job_ok(size, &live, None));
            assert!(passes(&request, None, live.trial_lines.clone()));
            assert!(!passes(&request, None, flip(&live.trial_lines)));

            // A resubmission replays the live stream; a flipped replay, or a
            // fresh job answered from the cache, fails its check.
            let replay = client.submit_once(&request).unwrap();
            let live_digest = stream_digest(&live.trial_lines);
            assert!(job_ok(size, &replay, Some(live_digest)));
            let mut flipped = replay.clone();
            flipped.trial_lines = flip(&replay.trial_lines);
            assert!(!job_ok(size, &flipped, Some(live_digest)));
            assert!(!job_ok(size, &replay, None));
        }

        // A new graph uploads; the same graph again is answered from the
        // store and fails the check, as does an encoding the server cannot
        // decode.
        assert!(upload_ok(&client.upload_bytes(&bytes)));
        assert!(!upload_ok(&client.upload_bytes(&bytes)));
        let mut garbled = encode_csr(&upload_graph(size, 9, 0, 1));
        garbled[0] ^= 1;
        assert!(!upload_ok(&client.upload_bytes(&garbled)));

        let mut request = SubmitRequest::new(
            "c",
            TopologySpec::uploaded(fnv1a64(&bytes)),
            "push-pull",
            size.trials,
        );
        request.seed = 5;
        let live = client.submit_once(&request).unwrap();
        assert!(job_ok(size, &live, None));
        let on_graph = Some((0, 0));
        assert!(passes(&request, on_graph, live.trial_lines.clone()));
        assert!(!passes(&request, on_graph, flip(&live.trial_lines)));

        handle.drain();
        join.join().unwrap();
    }
}
