//! The run's stamp, its results file, and the one-line summary the
//! benchmark prints last.

use std::fmt::Write as _;
use std::path::Path;

use rumor_experiments::serve::protocol::{escape_json, parse_json, Json};

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// The workload seed every input was generated from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measured seconds requested.
    pub seconds: f64,
    /// Git revision read from `.git/HEAD`, or `unknown` outside a clone.
    pub git_rev: String,
    /// Logical cores of the host.
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: String,
}

impl Stamp {
    /// Stamps a run of `workload` in the current directory.
    pub fn here(workload: &str, seed: u64, trace: bool, seconds: f64) -> Self {
        Stamp {
            workload: workload.to_string(),
            seed,
            trace,
            seconds,
            git_rev: git_rev(Path::new(".git")),
            nproc: nproc(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        }
    }
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names, following one symbolic ref through loose or
/// packed refs; `unknown` when there is no repository.
pub fn git_rev(git_dir: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, r) = line.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Provenance.
    pub stamp: Stamp,
    /// Ops (and run-level checks) attempted.
    pub attempted: u64,
    /// Ops that errored, were shed, or failed their output check.
    pub failed: u64,
    /// Digest of the fixed warm-up op's outputs: two builds given the same
    /// seed must agree on it.
    pub outcome_digest: u64,
    /// Percentile `op_ms_tail` was taken at (median over its windows).
    pub tail_percentile: f64,
    /// Untraced job latencies `op_ms_p50` and `op_ms_tail` were taken over.
    pub tail_samples: usize,
    /// Windows those latencies were cut into for `op_ms_tail`.
    pub tail_windows: usize,
    /// End-to-end metrics (from untraced ops).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Whether every op passed its output check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line the benchmark prints: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    pub fn summary_line(&self) -> String {
        let metrics = if self.stamp.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(metrics, false)
        )
    }

    /// The full results file.
    pub fn to_json(&self) -> String {
        let s = &self.stamp;
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"git_rev\":\"{}\",\"nproc\":{},\"profile\":\"{}\",\"attempted\":{},\"failed\":{},\"outcome_digest\":\"{:016x}\",\"tail_percentile\":{},\"tail_samples\":{},\"tail_windows\":{},\"end_to_end\":{},\"per_layer\":{}}}",
            escape_json(&s.workload),
            s.seed,
            s.trace,
            num(s.seconds),
            escape_json(&s.git_rev),
            s.nproc,
            escape_json(&s.profile),
            self.attempted,
            self.failed,
            self.outcome_digest,
            num(self.tail_percentile),
            self.tail_samples,
            self.tail_windows,
            metrics_json(&self.end_to_end, true),
            metrics_json(&self.per_layer, true),
        )
    }

    /// Parses a results file written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let v = parse_json(text)?;
        let str_of = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {k}"))
        };
        let u64_of = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer {k}"))
        };
        let f64_of = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number {k}"))
        };
        let metrics_of = |k: &str| -> Result<Vec<Metric>, String> {
            let Some(Json::Object(map)) = v.get(k) else {
                return Err(format!("missing object {k}"));
            };
            // Keys come back sorted; restore the written order.
            let mut out: Vec<(u64, Metric)> = Vec::new();
            for (name, m) in map {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric value")?;
                let unit = m.get("unit").and_then(Json::as_str).ok_or("metric unit")?;
                let order = m
                    .get("order")
                    .and_then(Json::as_u64)
                    .ok_or("metric order")?;
                out.push((order, Metric::new(name.clone(), value, unit)));
            }
            out.sort_by_key(|(o, _)| *o);
            Ok(out.into_iter().map(|(_, m)| m).collect())
        };
        Ok(Report {
            stamp: Stamp {
                workload: str_of("workload")?,
                seed: u64_of("seed")?,
                trace: v
                    .get("trace")
                    .and_then(Json::as_bool)
                    .ok_or("missing trace")?,
                seconds: f64_of("seconds")?,
                git_rev: str_of("git_rev")?,
                nproc: u64_of("nproc")? as usize,
                profile: str_of("profile")?,
            },
            attempted: u64_of("attempted")?,
            failed: u64_of("failed")?,
            outcome_digest: u64::from_str_radix(&str_of("outcome_digest")?, 16)
                .map_err(|e| e.to_string())?,
            tail_percentile: f64_of("tail_percentile")?,
            tail_samples: u64_of("tail_samples")? as usize,
            tail_windows: u64_of("tail_windows")? as usize,
            end_to_end: metrics_of("end_to_end")?,
            per_layer: metrics_of("per_layer")?,
        })
    }
}

/// `{"name":{"value":v,"unit":"u"},…}` in the given order. The results
/// file adds an `order` key so a reader can restore that order.
fn metrics_json(metrics: &[Metric], with_order: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"",
            escape_json(&m.name),
            num(m.value),
            escape_json(&m.unit)
        );
        if with_order {
            let _ = write!(out, ",\"order\":{i}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never produced by a passing run) read as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            stamp: Stamp {
                workload: "thm1_regular".into(),
                seed: 42,
                trace: false,
                seconds: 10.0,
                git_rev: "0123abcd".into(),
                nproc: 2,
                profile: "release".into(),
            },
            attempted: 31,
            failed: 0,
            outcome_digest: 0xdead_beef_0000_0001,
            tail_percentile: 100.0 * 21.0 / 31.0,
            tail_samples: 31,
            tail_windows: 1,
            end_to_end: vec![
                Metric::new("setup_s", 0.812_734_1, "s"),
                Metric::new("op_ms_p50", 401.25, "ms"),
                Metric::new("peak_rss_mb", 1.0 / 3.0, "MiB"),
                Metric::new("ok_frac", 1.0, "ratio"),
            ],
            per_layer: vec![Metric::new("core.rounds.push-pull", 21.0, "count")],
        }
    }

    #[test]
    fn results_file_round_trips_exactly() {
        let r = sample();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let mut traced = r;
        traced.stamp.trace = true;
        traced.failed = 2;
        assert_eq!(Report::from_json(&traced.to_json()).unwrap(), traced);
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let r = sample();
        let v = parse_json(&r.summary_line()).unwrap();
        let Json::Object(map) = &v else { panic!() };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("op_ms_p50")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(401.25)
        );
        assert!(metrics.get("core.rounds.push-pull").is_none());
        let Some(Json::Object(entry)) = metrics.get("setup_s") else {
            panic!()
        };
        assert_eq!(entry.keys().collect::<Vec<_>>(), ["unit", "value"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn git_rev_follows_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("rumorbench-git-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        assert_eq!(git_rev(&dir.join("absent")), "unknown");
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_rev(&dir), "abc123");
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_rev(&dir), "def456");
        std::fs::write(dir.join("HEAD"), "fedcba\n").unwrap();
        assert_eq!(git_rev(&dir), "fedcba");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
