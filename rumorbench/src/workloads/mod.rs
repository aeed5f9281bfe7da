//! The three workloads and what they share: op records, the timed loop and
//! the run a workload hands back.

pub mod powerlaw;
pub mod serve_mix;
pub mod thm1;

use std::path::PathBuf;
use std::time::Instant;

use crate::report::Metric;
use crate::trace::Tracer;

/// Times set-up this many times per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// A timed loop runs at least this many ops even past its deadline, so
/// `op_ms_tail` always has ten samples beyond it.
pub const MIN_OPS: usize = 20;

/// Everything a workload needs from the command line.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// Seconds the timed phase lasts.
    pub seconds: f64,
    /// Threads and connections the load may use.
    pub nproc: usize,
    /// Span collector (disabled in untraced runs).
    pub tracer: &'a Tracer,
    /// Scratch directory inside the checkout.
    pub out_dir: PathBuf,
}

impl Ctx<'_> {
    /// In a traced run, odd ops are traced and even ones are not, so the
    /// overhead is measured inside one run; untraced runs trace nothing.
    pub fn traces_op(&self, index: u64) -> bool {
        self.tracer.enabled() && index % 2 == 1
    }
}

/// One timed op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// Wall time of the op, seconds.
    pub latency_s: f64,
    /// Trial results the op delivered to its caller.
    pub trials: u64,
    /// Whether the op is a job: one that asks for trials. `op_ms_p50` and
    /// `op_ms_tail` are taken over jobs; `serve_mix` uploads are not jobs.
    pub job: bool,
    /// Whether it succeeded and passed its output check.
    pub ok: bool,
    /// Whether spans were recorded around it.
    pub traced: bool,
}

/// What a workload run hands back for reporting.
#[derive(Debug, Default)]
pub struct Run {
    /// Each set-up repetition's wall time, seconds.
    pub setup_s: Vec<f64>,
    /// The timed ops.
    pub ops: Vec<OpRecord>,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Checks outside the timed ops (warm-up op, once-per-run checks).
    pub checks_attempted: u64,
    /// How many of those failed.
    pub checks_failed: u64,
    /// Digest of the warm-up op's outputs.
    pub outcome_digest: u64,
    /// Per-layer measurements (traced runs; missing names report 0).
    pub per_layer: Vec<Metric>,
}

impl Run {
    /// Counts one check outside the timed ops.
    pub fn check(&mut self, ok: bool) {
        self.checks_attempted += 1;
        self.checks_failed += u64::from(!ok);
    }
}

/// Times set-up [`SETUP_REPS`] times and keeps the last instance.
pub fn timed_setup<T>(mut build: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let built = build(rep);
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("SETUP_REPS > 0"), times)
}

/// Runs `op(index)` for indexes `1, 2, …` until `seconds` have passed and
/// at least [`MIN_OPS`] ran; returns the per-op outputs and the wall time.
pub fn timed_loop<T>(seconds: f64, mut op: impl FnMut(u64) -> T) -> (Vec<T>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut index = 1;
    while out.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        out.push(op(index));
        index += 1;
    }
    (out, start.elapsed().as_secs_f64())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
