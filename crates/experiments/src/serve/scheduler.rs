//! The serve scheduler: a shared worker pool with per-client fair
//! round-robin, digest-keyed result caching, manifest-backed crash
//! recovery, and checkpoint-draining shutdown.
//!
//! ## Fairness
//!
//! Jobs queue per client name, and workers claim **one trial at a time**
//! from the client queues in rotating round-robin order. A client
//! submitting a 1000-trial sweep therefore cannot starve a client with a
//! 4-trial smoke job: even with a single worker, the small job's trials
//! interleave 1:1 with the big job's.
//!
//! ## Durability
//!
//! With a state directory configured, every finished trial is recorded in a
//! digest-keyed manifest (`job-<digest>.rman`, the PR 6 `RMAN` format)
//! through an atomic temp-file rewrite, and long-running trials checkpoint
//! at chunk cadence into per-trial snapshot directories. A killed server
//! therefore loses **no completed trial**: resubmitting the same spec after
//! a restart reuses every recorded trial and resumes suspended ones from
//! their newest valid snapshot.
//!
//! ## Determinism
//!
//! Trials are pure functions of their derived seed, trial lines are emitted
//! in trial-index order, and the line format uses exactly the fields that
//! survive a manifest round-trip — so live, recovered, duplicate-attached,
//! and cached response streams are byte-identical.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rumor_core::{
    resume_in, simulate_resumable_in, CheckpointCadence, ResumableRun, SimSnapshot, SimWorkspace,
    SimulationSpec,
};
use rumor_graphs::{with_topology, AnyTopology, Topology, VertexId};

use crate::runner::{panic_message, Manifest, TrialOutcome, TrialTaxonomy};
use crate::serve::protocol::{trial_line, SubmitRequest, MAX_LINE_BYTES};
use crate::serve::shed::{admit, AdmissionLimits, Verdict};
use crate::serve::store::{ContentStore, UploadError};
use crate::serve::sync::{lock_recover, wait_recover, wait_timeout_recover};

/// Configuration of a serve instance (scheduler + server).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (`0` = one per logical core).
    pub workers: usize,
    /// Admission bounds (queue depth / open jobs).
    pub limits: AdmissionLimits,
    /// Durability root: manifests (`job-*.rman`) and per-trial checkpoint
    /// directories live here. `None` disables crash recovery (results are
    /// still cached in memory).
    pub state_dir: Option<PathBuf>,
    /// Rounds between deadline/drain checks (and checkpoint captures) on
    /// the resumable path.
    pub chunk_rounds: u64,
    /// Test hook: sleep this long before each trial, so kill/overload tests
    /// can reliably interrupt a run mid-job. `0` in production.
    pub throttle_ms: u64,
    /// How long a drain waits for in-flight work before forcing shutdown.
    pub grace: Duration,
    /// Close a connection that has sent nothing (not even a heartbeat) for
    /// this long — reclaims the session thread behind a half-open TCP peer.
    pub idle_timeout: Duration,
    /// Upper bound on one NDJSON line, both directions (default
    /// [`MAX_LINE_BYTES`]). Upload chunk sizes derive from this bound.
    pub max_line_bytes: usize,
    /// LRU byte quota for the topology content store (`None` = unbounded).
    /// Only unreferenced committed graphs are ever evicted.
    pub store_quota_bytes: Option<u64>,
}

impl ServeConfig {
    /// Production-shaped defaults: per-core workers, default admission
    /// bounds, 64-round chunks, 30 s drain grace, no state directory.
    pub fn new() -> Self {
        ServeConfig {
            workers: 0,
            limits: AdmissionLimits::new(),
            state_dir: None,
            chunk_rounds: 64,
            throttle_ms: 0,
            grace: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            max_line_bytes: MAX_LINE_BYTES,
            store_quota_bytes: None,
        }
    }

    /// Sets the durability root.
    pub fn with_state_dir(mut self, dir: PathBuf) -> Self {
        self.state_dir = Some(dir);
        self
    }

    /// Sets the half-open connection reclaim timeout.
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the NDJSON line bound (and thereby the upload chunk size).
    pub fn with_max_line_bytes(mut self, max_line_bytes: usize) -> Self {
        self.max_line_bytes = max_line_bytes;
        self
    }

    /// Sets the content store's LRU byte quota.
    pub fn with_store_quota_bytes(mut self, quota: u64) -> Self {
        self.store_quota_bytes = Some(quota);
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time snapshot of the scheduler's counters (the `stats` verb).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Trials actually executed (excludes manifest/cache reuse).
    pub trials_executed: usize,
    /// Submissions rejected by admission control.
    pub shed: usize,
    /// Submissions answered from the in-memory result cache.
    pub cache_hits: usize,
    /// Submissions attached to an identical in-flight job.
    pub duplicate_hits: usize,
    /// Trials currently queued or running.
    pub pending_trials: usize,
    /// Jobs currently open.
    pub pending_jobs: usize,
}

/// A finished job's replayable result: trial lines in index order plus the
/// outcome taxonomy. Only fully deterministic jobs (every trial completed
/// or round-capped) are cached.
#[derive(Debug)]
pub(crate) struct CachedJob {
    pub(crate) digest: u64,
    pub(crate) trial_lines: Vec<String>,
    pub(crate) taxonomy: TrialTaxonomy,
}

/// The scheduler's answer to one submission.
pub(crate) enum Submission {
    /// Answered from the result cache — O(1), no execution.
    Cached(Arc<CachedJob>),
    /// Attached to a (possibly brand-new) job; `duplicate` marks attachment
    /// to an identical job that was already in flight.
    Attached { job: Arc<Job>, duplicate: bool },
    /// Shed by admission control.
    Overloaded { retry_after_ms: u64 },
    /// The server is draining and admits nothing new.
    Draining,
    /// Validation failed (unknown family/protocol, out-of-range spec, …).
    Rejected(String),
    /// The submission named an uploaded topology the content store does not
    /// hold (never uploaded, evicted by quota, or corrupt at rest) — the
    /// typed cue for the client to re-upload and resubmit idempotently.
    UnknownTopology {
        /// The missing topology's content digest.
        topology: u64,
    },
}

/// The scheduler's answer to a `resume` lookup by digest.
pub(crate) enum Lookup {
    /// The job is in flight: re-attach to its live feed.
    Running(Arc<Job>),
    /// The job finished deterministically: replay from the result cache.
    Cached(Arc<CachedJob>),
    /// Nothing under that digest (never submitted, or lost to a restart).
    Unknown,
}

/// One admitted sweep job.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) digest: u64,
    pub(crate) trials: usize,
    pub(crate) reused: usize,
    topology: AnyTopology,
    /// The content-store pin held for an uploaded topology: released when
    /// the job leaves the pending/running set, so quota eviction can never
    /// remove a graph a live job references.
    upload_pin: Option<u64>,
    base_spec: SimulationSpec,
    source: VertexId,
    deadline: Option<Instant>,
    /// Trials recovered from the manifest at admission (never re-claimed).
    prefilled: Vec<bool>,
    next_trial: AtomicUsize,
    state: Mutex<JobState>,
    progress: Condvar,
}

#[derive(Debug)]
struct JobState {
    outcomes: Vec<Option<TrialOutcome>>,
    recorded: usize,
    next_emit: usize,
    lines: Vec<String>,
    finished: bool,
    drained: bool,
    manifest: Option<Manifest>,
}

impl Job {
    /// Records one trial outcome: manifest write, in-order line emission,
    /// subscriber wakeup. Returns `true` when this was the job's last trial;
    /// the caller then [`retire`]s the job, which is what marks it finished.
    fn record(&self, trial: usize, outcome: TrialOutcome) -> bool {
        // Poison-tolerant throughout `Job` and `Scheduler`: a worker or
        // session thread that panics while holding a lock must cost only
        // its own trial/session, never wedge the feed Condvar for every
        // other subscriber (see `serve::sync`).
        let mut state = lock_recover(&self.state);
        if state.outcomes[trial].is_some() || state.finished {
            return false; // drain raced a duplicate record; keep the first
        }
        if let Some(manifest) = &mut state.manifest {
            manifest.record(trial, &outcome);
        }
        state.outcomes[trial] = Some(outcome);
        state.recorded += 1;
        advance_emit(&mut state);
        self.progress.notify_all();
        state.recorded == self.trials
    }

    /// Bounded wait for session forwarder threads: blocks until the feed
    /// has lines past `from` or the job reaches a terminal state, but
    /// returns after `timeout` even with no progress, so a forwarder whose
    /// connection died can observe the session's closed flag and exit
    /// instead of leaking. `from` past the current feed is tolerated (an
    /// over-claiming `resume` waits instead of panicking).
    pub(crate) fn wait_lines_timeout(
        &self,
        from: usize,
        timeout: Duration,
    ) -> (Vec<String>, bool, bool) {
        let deadline = Instant::now() + timeout;
        let mut state = lock_recover(&self.state);
        while state.lines.len() <= from && !state.finished && !state.drained {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            let (next, timed_out) = wait_timeout_recover(&self.progress, state, remaining);
            state = next;
            if timed_out {
                break;
            }
        }
        let lines = if state.lines.len() > from {
            state.lines[from..].to_vec()
        } else {
            Vec::new()
        };
        (lines, state.finished, state.drained)
    }

    /// The finished job's taxonomy (all-NotRun for unfinished jobs).
    pub(crate) fn taxonomy(&self) -> TrialTaxonomy {
        let state = lock_recover(&self.state);
        let outcomes: Vec<TrialOutcome> = state
            .outcomes
            .iter()
            .map(|o| o.clone().unwrap_or(TrialOutcome::NotRun))
            .collect();
        TrialTaxonomy::of(&outcomes)
    }

    fn cacheable(state: &JobState) -> bool {
        state.outcomes.iter().all(|o| {
            matches!(
                o,
                Some(TrialOutcome::Completed(_)) | Some(TrialOutcome::RoundCapped(_))
            )
        })
    }
}

/// Emits trial lines for every contiguous recorded outcome past the cursor
/// — the in-order guarantee behind byte-identical streams.
fn advance_emit(state: &mut JobState) {
    while state.next_emit < state.outcomes.len() {
        match &state.outcomes[state.next_emit] {
            Some(outcome) => {
                let line = trial_line(state.next_emit, outcome);
                state.lines.push(line);
                state.next_emit += 1;
            }
            None => break,
        }
    }
}

struct SchedState {
    /// Per-client FIFO queues; the fairness unit.
    queues: Vec<(String, VecDeque<Arc<Job>>)>,
    /// Next client queue to serve.
    cursor: usize,
    pending_trials: usize,
    running: HashMap<u64, Arc<Job>>,
    cache: HashMap<u64, Arc<CachedJob>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<SchedState>,
    work_ready: Condvar,
    draining: AtomicBool,
    executed: AtomicUsize,
    shed: AtomicUsize,
    cache_hits: AtomicUsize,
    duplicate_hits: AtomicUsize,
    config: ServeConfig,
    store: ContentStore,
}

/// Releases a finished/retired job's content-store pin, if it holds one.
fn release_upload_pin(shared: &Shared, job: &Job) {
    if let Some(digest) = job.upload_pin {
        shared.store.unpin(digest);
    }
}

/// The worker pool + queue state. One per server; shared with connection
/// handler threads.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Starts the worker pool and opens the topology content store (under
    /// `<state-dir>/store` when durable, in memory otherwise).
    pub(crate) fn start(config: ServeConfig) -> std::io::Result<Scheduler> {
        let store = ContentStore::open(
            config.state_dir.as_ref().map(|dir| dir.join("store")),
            config.store_quota_bytes,
        )
        .map_err(|e| std::io::Error::other(e.to_string()))?;
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queues: Vec::new(),
                cursor: 0,
                pending_trials: 0,
                running: HashMap::new(),
                cache: HashMap::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            executed: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            duplicate_hits: AtomicUsize::new(0),
            config,
            store,
        });
        let workers = (0..shared.config.resolved_workers())
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Scheduler {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The topology content store (upload verbs and status counters).
    pub(crate) fn store(&self) -> &ContentStore {
        &self.shared.store
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> ServeStats {
        let state = lock_recover(&self.shared.state);
        ServeStats {
            trials_executed: self.shared.executed.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            duplicate_hits: self.shared.duplicate_hits.load(Ordering::Relaxed),
            pending_trials: state.pending_trials,
            pending_jobs: state.running.len(),
        }
    }

    /// Whether a drain has been requested.
    pub(crate) fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::Relaxed)
    }

    /// Admits, deduplicates, or sheds one submission.
    pub(crate) fn submit(&self, request: SubmitRequest) -> Submission {
        if self.draining() {
            return Submission::Draining;
        }
        let digest = request.digest();
        // Uploaded topologies resolve through the content store; resolving
        // pins the entry, and the pin follows the job (or is released on any
        // path that does not create one), so eviction can never race a live
        // submission.
        let mut upload_pin: Option<u64> = None;
        let unpin_on_exit = |pin: Option<u64>| {
            if let Some(digest) = pin {
                self.shared.store.unpin(digest);
            }
        };
        let topology = match request.topology.uploaded_digest() {
            Some(topology_digest) => match self.shared.store.resolve_pinned(topology_digest) {
                Ok(graph) => {
                    upload_pin = Some(topology_digest);
                    AnyTopology::from(graph)
                }
                // Never uploaded, evicted, or corrupt at rest (the store
                // already dropped a corrupt entry): re-upload is the cure.
                Err(
                    UploadError::UnknownTopology { .. }
                    | UploadError::DigestMismatch { .. }
                    | UploadError::Invalid { .. },
                ) => {
                    return Submission::UnknownTopology {
                        topology: topology_digest,
                    }
                }
                Err(e) => return Submission::Rejected(e.to_string()),
            },
            None => match request.topology.build() {
                Ok(t) => t,
                Err(e) => return Submission::Rejected(e),
            },
        };
        let base = match request.to_spec() {
            Ok(s) => s,
            Err(e) => {
                unpin_on_exit(upload_pin);
                return Submission::Rejected(e);
            }
        };
        let source: VertexId = 0;
        // One dispatch at admission: adapt (the paper's bipartite remedy)
        // and validate against the actual graph, so workers only ever see
        // well-formed jobs.
        let checked = with_topology!(&topology, g => {
            let adapted = base.adapted_to(g);
            adapted.validate(g, source).map(|()| adapted)
        });
        let spec = match checked {
            Ok(spec) => spec,
            Err(e) => {
                unpin_on_exit(upload_pin);
                return Submission::Rejected(e.to_string());
            }
        };

        let mut state = lock_recover(&self.shared.state);
        if state.shutdown || self.draining() {
            unpin_on_exit(upload_pin);
            return Submission::Draining;
        }
        if let Some(cached) = state.cache.get(&digest) {
            self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
            unpin_on_exit(upload_pin);
            return Submission::Cached(Arc::clone(cached));
        }
        if let Some(job) = state.running.get(&digest) {
            self.shared.duplicate_hits.fetch_add(1, Ordering::Relaxed);
            unpin_on_exit(upload_pin);
            return Submission::Attached {
                job: Arc::clone(job),
                duplicate: true,
            };
        }
        match admit(
            &self.shared.config.limits,
            state.pending_trials,
            state.running.len(),
            request.trials,
        ) {
            Verdict::Overloaded { retry_after_ms } => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                unpin_on_exit(upload_pin);
                return Submission::Overloaded { retry_after_ms };
            }
            Verdict::Admit => {}
        }

        // Manifest recovery: completed trials recorded by a previous run of
        // this digest (possibly by a server that was killed) are reused.
        let trials = request.trials;
        let manifest_path = self
            .shared
            .config
            .state_dir
            .as_ref()
            .map(|dir| dir.join(format!("job-{digest:016x}.rman")));
        let mut outcomes: Vec<Option<TrialOutcome>> = vec![None; trials];
        let mut manifest_lines: Vec<Option<String>> = vec![None; trials];
        if let Some(path) = &manifest_path {
            for (index, outcome) in Manifest::load(path, digest, trials, spec.kind.name())
                .into_iter()
                .enumerate()
            {
                if let Some(outcome) = outcome {
                    manifest_lines[index] = Manifest::status_line(index, &outcome);
                    outcomes[index] = Some(outcome);
                }
            }
        }
        let reused = outcomes.iter().filter(|o| o.is_some()).count();
        let prefilled: Vec<bool> = outcomes.iter().map(|o| o.is_some()).collect();
        let manifest = manifest_path.map(|path| {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            Manifest {
                path,
                digest,
                lines: manifest_lines,
            }
        });
        let mut job_state = JobState {
            outcomes,
            recorded: reused,
            next_emit: 0,
            lines: Vec::new(),
            finished: false,
            drained: false,
            manifest,
        };
        advance_emit(&mut job_state);
        let job = Arc::new(Job {
            digest,
            trials,
            reused,
            topology,
            upload_pin,
            base_spec: spec,
            source,
            deadline: request
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            prefilled,
            next_trial: AtomicUsize::new(0),
            state: Mutex::new(job_state),
            progress: Condvar::new(),
        });
        if reused == trials {
            // Everything came back from the manifest: publish to the cache
            // and answer without touching the queues (no running job, so no
            // pin to carry).
            retire(&self.shared, &mut state, &job);
            return Submission::Attached {
                job,
                duplicate: false,
            };
        }
        state.pending_trials += trials - reused;
        state.running.insert(digest, Arc::clone(&job));
        match state.queues.iter_mut().find(|(c, _)| *c == request.client) {
            Some((_, queue)) => queue.push_back(Arc::clone(&job)),
            None => {
                let mut queue = VecDeque::new();
                queue.push_back(Arc::clone(&job));
                state.queues.push((request.client, queue));
            }
        }
        self.shared.work_ready.notify_all();
        Submission::Attached {
            job,
            duplicate: false,
        }
    }

    /// Looks a job up by digest for a `resume`: in-flight jobs re-attach to
    /// the live feed, finished deterministic jobs replay from the result
    /// cache. `Unknown` covers everything else (never submitted, evicted by
    /// a restart, or finished non-deterministically) — the client's
    /// fallback is an idempotent resubmission, which replays recorded
    /// trials from the on-disk manifest instead.
    pub(crate) fn lookup(&self, digest: u64) -> Lookup {
        let state = lock_recover(&self.shared.state);
        if let Some(job) = state.running.get(&digest) {
            return Lookup::Running(Arc::clone(job));
        }
        if let Some(cached) = state.cache.get(&digest) {
            return Lookup::Cached(Arc::clone(cached));
        }
        Lookup::Unknown
    }

    /// Stops admission and wakes every worker; workers exit after their
    /// current trial (checkpointing it if it is long-running).
    pub(crate) fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let state = lock_recover(&self.shared.state);
        self.shared.work_ready.notify_all();
        drop(state);
    }

    /// Completes a drain: waits up to `grace` for in-flight trials, joins
    /// the workers, and terminates every unfinished job's feed so no
    /// subscriber hangs. Completed trials are already on disk.
    pub(crate) fn finish_drain(&self) {
        let grace = self.shared.config.grace;
        let deadline = Instant::now() + grace;
        let workers: Vec<_> = std::mem::take(&mut *lock_recover(&self.workers));
        for worker in workers {
            // Workers exit after at most one chunk past the drain flag;
            // join unconditionally (bounded by chunk cadence, not grace).
            let _ = worker.join();
            if Instant::now() > deadline {
                // Grace expired: remaining workers are between chunks and
                // will exit momentarily; keep joining — bounded wait.
                continue;
            }
        }
        let mut state = lock_recover(&self.shared.state);
        state.shutdown = true;
        for (_, job) in state.running.drain() {
            let mut job_state = lock_recover(&job.state);
            if !job_state.finished {
                job_state.drained = true;
            }
            job.progress.notify_all();
            drop(job_state);
            release_upload_pin(&self.shared, &job);
        }
        state.queues.clear();
        state.pending_trials = 0;
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.begin_drain();
        self.finish_drain();
    }
}

/// Retires a job whose every trial is recorded. Runs under the scheduler
/// lock and takes the job lock inside it (the scheduler → job order). The
/// job leaves the running set and, if every trial is deterministic
/// (completed/round-capped), enters the result cache **before** it is
/// marked finished, so a client that sees the job finish and resubmits
/// always gets the cache hit. Jobs with timed-out, panicked, or skipped
/// trials are not cached and re-run on resubmission.
fn retire(shared: &Shared, state: &mut SchedState, job: &Job) {
    state.running.remove(&job.digest);
    let mut job_state = lock_recover(&job.state);
    if Job::cacheable(&job_state) {
        state.cache.insert(
            job.digest,
            Arc::new(CachedJob {
                digest: job.digest,
                trial_lines: job_state.lines.clone(),
                taxonomy: TrialTaxonomy::of(
                    &job_state
                        .outcomes
                        .iter()
                        .map(|o| o.clone().expect("cacheable ⇒ all recorded"))
                        .collect::<Vec<_>>(),
                ),
            }),
        );
    }
    job_state.finished = true;
    job.progress.notify_all();
    drop(job_state);
    release_upload_pin(shared, job);
}

fn worker_loop(shared: &Shared) {
    loop {
        let claim = {
            let mut state = lock_recover(&shared.state);
            loop {
                if state.shutdown || shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(claim) = claim_next(shared, &mut state) {
                    break claim;
                }
                state = wait_recover(&shared.work_ready, state);
            }
        };
        let (job, trial) = claim;
        match execute_trial(shared, &job, trial) {
            Some(outcome) => {
                shared.executed.fetch_add(1, Ordering::Relaxed);
                if job.record(trial, outcome) {
                    retire(shared, &mut lock_recover(&shared.state), &job);
                }
            }
            None => {
                // Drain suspended the trial after checkpointing it; nothing
                // is recorded, so a restarted server re-claims it and
                // resumes from the snapshot.
            }
        }
    }
}

/// Claims the next trial ticket in client round-robin order. Runs under the
/// scheduler lock. Also retires deadline-expired jobs (their unclaimed
/// trials become `NotRun`).
fn claim_next(shared: &Shared, state: &mut SchedState) -> Option<(Arc<Job>, usize)> {
    let queues = state.queues.len();
    if queues == 0 {
        return None;
    }
    let mut expired: Vec<Arc<Job>> = Vec::new();
    let mut claim = None;
    'scan: for step in 0..queues {
        let qi = (state.cursor + step) % queues;
        loop {
            let Some(job) = state.queues[qi].1.front().cloned() else {
                break; // empty client queue
            };
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                state.queues[qi].1.pop_front();
                expired.push(job);
                continue;
            }
            match claim_ticket(&job) {
                Some(trial) => {
                    state.pending_trials = state.pending_trials.saturating_sub(1);
                    state.cursor = (qi + 1) % queues;
                    claim = Some((job, trial));
                    break 'scan;
                }
                None => {
                    // Fully claimed; running trials will finish it.
                    state.queues[qi].1.pop_front();
                }
            }
        }
    }
    // Retire expired jobs: mark every unclaimed trial NotRun so their
    // subscribers get a terminal taxonomy instead of a hung connection.
    for job in expired {
        let mut marked = 0usize;
        while let Some(trial) = claim_ticket(&job) {
            marked += 1;
            if job.record(trial, TrialOutcome::NotRun) {
                retire(shared, state, &job);
            }
        }
        state.pending_trials = state.pending_trials.saturating_sub(marked);
    }
    claim
}

/// Claims this job's next unclaimed, non-prefilled trial index.
fn claim_ticket(job: &Job) -> Option<usize> {
    loop {
        let trial = job.next_trial.fetch_add(1, Ordering::Relaxed);
        if trial >= job.trials {
            return None;
        }
        if !job.prefilled[trial] {
            return Some(trial);
        }
    }
}

/// Runs one trial. `None` means a drain suspended it mid-flight (after
/// persisting a checkpoint); anything else is a recordable outcome.
fn execute_trial(shared: &Shared, job: &Job, trial: usize) -> Option<TrialOutcome> {
    if shared.config.throttle_ms > 0 {
        std::thread::sleep(Duration::from_millis(shared.config.throttle_ms));
    }
    let mut spec = job.base_spec.clone();
    spec.seed = job.base_spec.seed.wrapping_add(trial as u64);
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        return Some(TrialOutcome::NotRun);
    }
    let ckpt_dir = shared.config.state_dir.as_ref().map(|dir| {
        dir.join(format!("ckpt-{:016x}", job.digest))
            .join(format!("t{trial}"))
    });
    with_topology!(&job.topology, g => run_one(shared, g, job, &spec, ckpt_dir))
}

fn run_one<G: Topology>(
    shared: &Shared,
    graph: &G,
    job: &Job,
    spec: &SimulationSpec,
    ckpt_dir: Option<PathBuf>,
) -> Option<TrialOutcome> {
    // One deterministic same-seed replay after a panic, mirroring
    // `run_trials_guarded`: a panic that reproduces is reported with its
    // payload, one left by a poisoned workspace is absorbed.
    let mut last_panic = String::new();
    for attempt in 1..=2u32 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_one_attempt(shared, graph, job, spec, ckpt_dir.as_deref())
        }));
        match result {
            Ok(outcome) => return outcome,
            Err(payload) => {
                last_panic = panic_message(&*payload);
                if attempt == 2 {
                    return Some(TrialOutcome::Panicked {
                        message: last_panic,
                        attempts: attempt,
                    });
                }
            }
        }
    }
    Some(TrialOutcome::Panicked {
        message: last_panic,
        attempts: 2,
    })
}

fn run_one_attempt<G: Topology>(
    shared: &Shared,
    graph: &G,
    job: &Job,
    spec: &SimulationSpec,
    ckpt_dir: Option<&std::path::Path>,
) -> Option<TrialOutcome> {
    let mut workspace = SimWorkspace::new();
    let cadence = CheckpointCadence::every_rounds(shared.config.chunk_rounds);
    let mut drained = false;
    let mut sink = |snapshot: &SimSnapshot| {
        if shared.draining.load(Ordering::Relaxed) {
            if let Some(dir) = ckpt_dir {
                // Keep the two newest snapshots: one survivor plus a
                // fallback if the newest write raced the kill.
                let _ = snapshot.write_atomic_retained(dir, 2);
            }
            drained = true;
            return false;
        }
        job.deadline.is_none_or(|d| Instant::now() < d)
    };
    // Resume from a prior run's suspension checkpoint when one exists (a
    // drained server's long trial picks up mid-broadcast, not from round 0).
    let resumed = ckpt_dir
        .and_then(|dir| SimSnapshot::load_newest(dir).ok().flatten())
        .and_then(|snapshot| {
            resume_in(
                graph,
                job.source,
                spec,
                &snapshot,
                &mut workspace,
                cadence,
                &mut sink,
            )
            .ok()
        });
    let run = match resumed {
        Some(run) => run,
        None => simulate_resumable_in(graph, job.source, spec, &mut workspace, cadence, &mut sink),
    };
    match run {
        ResumableRun::Finished(outcome) => {
            if let Some(dir) = ckpt_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            Some(TrialOutcome::finished(outcome))
        }
        ResumableRun::Suspended(_) if drained => None,
        ResumableRun::Suspended(snapshot) => Some(TrialOutcome::timed_out(&snapshot)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::TopologySpec;

    fn smoke_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            ..ServeConfig::new()
        }
    }

    fn collect(job: &Arc<Job>) -> (Vec<String>, bool) {
        let mut lines = Vec::new();
        loop {
            let (new, finished, drained) =
                job.wait_lines_timeout(lines.len(), Duration::from_secs(1));
            lines.extend(new);
            if finished || drained {
                return (lines, drained);
            }
        }
    }

    #[test]
    fn executes_a_job_and_caches_the_result() {
        // Several distinct requests, each resubmitted the moment its feed
        // reports finished: the cache entry must already be visible then,
        // so every resubmission is a cache hit, never a duplicate attach.
        let scheduler = Scheduler::start(smoke_config()).expect("scheduler");
        let requests = [
            ("complete", 32, "push", 4),
            ("complete", 24, "pull", 3),
            ("star", 40, "push-pull", 2),
            ("cycle", 16, "visit-exchange", 5),
            ("complete", 20, "meet-exchange", 1),
            ("path", 12, "push", 6),
            ("double-star", 10, "pull", 2),
            ("hypercube", 4, "push-pull", 3),
        ];
        let mut executed = 0;
        for (hits, (family, n, protocol, trials)) in requests.into_iter().enumerate() {
            let request = SubmitRequest::new("t", TopologySpec::new(family, n), protocol, trials);
            let Submission::Attached { job, duplicate } = scheduler.submit(request.clone()) else {
                panic!("expected attachment for {family}/{protocol}");
            };
            assert!(!duplicate);
            let (lines, drained) = collect(&job);
            assert!(!drained);
            assert_eq!(lines.len(), trials);
            assert!(lines[0].contains("\"index\":0"));
            assert_eq!(job.taxonomy().completed, trials);
            executed += trials;
            assert_eq!(scheduler.stats().trials_executed, executed);
            // Resubmission is a cache hit with byte-identical lines.
            let Submission::Cached(cached) = scheduler.submit(request) else {
                panic!("expected cache hit for {family}/{protocol}");
            };
            assert_eq!(cached.trial_lines, lines);
            assert_eq!(scheduler.stats().trials_executed, executed);
            assert_eq!(scheduler.stats().cache_hits, hits + 1);
        }
    }

    #[test]
    fn rejects_invalid_specs_with_the_cause() {
        let scheduler = Scheduler::start(smoke_config()).expect("scheduler");
        let bad_family = scheduler.submit(SubmitRequest::new(
            "t",
            TopologySpec::new("torus", 8),
            "push",
            1,
        ));
        assert!(matches!(bad_family, Submission::Rejected(_)));
        let bad_proto = scheduler.submit(SubmitRequest::new(
            "t",
            TopologySpec::new("complete", 8),
            "smoke-signals",
            1,
        ));
        let Submission::Rejected(message) = bad_proto else {
            panic!("expected rejection");
        };
        assert!(message.contains("smoke-signals"), "message: {message}");
    }

    #[test]
    fn draining_scheduler_admits_nothing() {
        let scheduler = Scheduler::start(smoke_config()).expect("scheduler");
        scheduler.begin_drain();
        let verdict = scheduler.submit(SubmitRequest::new(
            "t",
            TopologySpec::new("star", 8),
            "push",
            1,
        ));
        assert!(matches!(verdict, Submission::Draining));
        scheduler.finish_drain();
    }

    #[test]
    fn overload_sheds_with_typed_verdict() {
        let config = ServeConfig {
            workers: 1,
            throttle_ms: 50,
            limits: AdmissionLimits {
                max_pending_trials: 4,
                max_pending_jobs: 64,
            },
            ..ServeConfig::new()
        };
        let scheduler = Scheduler::start(config).expect("scheduler");
        let first = SubmitRequest::new("hog", TopologySpec::new("complete", 16), "push", 4);
        assert!(matches!(
            scheduler.submit(first),
            Submission::Attached { .. }
        ));
        let second = SubmitRequest::new("hog", TopologySpec::new("complete", 16), "pull", 4);
        assert!(matches!(
            scheduler.submit(second),
            Submission::Overloaded { .. }
        ));
        assert_eq!(scheduler.stats().shed, 1);
    }
}
