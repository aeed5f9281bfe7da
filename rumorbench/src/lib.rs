//! The repository benchmark. See `README.md` beside this crate for the
//! workloads, the metrics and how to run it.

#![forbid(unsafe_code)]

pub mod layers;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use report::{peak_rss_mb, Metric, Report, Stamp};
use stats::{median, windowed_tail};
use trace::Tracer;
use workloads::{Ctx, Run};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["thm1_regular", "powerlaw_agents", "serve_mix"];

/// Every end-to-end metric, with its unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the timed phase lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--workload" => {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
                }
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("bad --seconds {value:?}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}; 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// Where results, traces and the server's state dir go, relative to the
/// working directory (the checkout root).
pub const OUT_DIR: &str = ".bench_out";

/// Runs one workload and writes its results file (and, traced, its spans).
pub fn run(args: &Args) -> Result<Report, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let stamp = Stamp::here(&args.workload, args.seed, args.trace, args.seconds);
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: stamp.nproc,
        tracer: &tracer,
        out_dir: out_dir.clone(),
    };
    let run = match args.workload.as_str() {
        "thm1_regular" => workloads::thm1::run(&ctx),
        "powerlaw_agents" => workloads::powerlaw::run(&ctx),
        "serve_mix" => workloads::serve_mix::run(&ctx),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let report = summarize(stamp, run, &tracer);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        out_dir.join(format!("result-{stem}.json")),
        report.to_json() + "\n",
    )
    .map_err(|e| format!("write results: {e}"))?;
    if args.trace {
        trace::write_jsonl(
            &tracer.spans(),
            &out_dir.join(format!("trace-{stem}.jsonl")),
        )
        .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(report)
}

/// Turns a workload run into its report.
pub fn summarize(stamp: Stamp, run: Run, tracer: &Tracer) -> Report {
    let ms = |traced: bool| -> Vec<f64> {
        run.ops
            .iter()
            .filter(|o| o.job && o.traced == traced)
            .map(|o| o.latency_s * 1e3)
            .collect()
    };
    let untraced = ms(false);
    let t = windowed_tail(&untraced);
    let attempted = run.ops.len() as u64 + run.checks_attempted;
    let failed = run.ops.iter().filter(|o| !o.ok).count() as u64 + run.checks_failed;
    let trials: u64 = run.ops.iter().map(|o| o.trials).sum();
    let end_to_end = vec![
        Metric::new("setup_s", median(&run.setup_s).unwrap_or(0.0), "s"),
        Metric::new("trials_per_s", trials as f64 / run.wall_s, "1/s"),
        Metric::new("op_ms_p50", median(&untraced).unwrap_or(0.0), "ms"),
        Metric::new("op_ms_tail", t.map_or(0.0, |t| t.value), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let per_layer = if tracer.enabled() {
        let spans = tracer.spans();
        let mut m = run.per_layer;
        let overhead = match (median(&ms(true)), median(&untraced)) {
            (Some(on), Some(off)) if off > 0.0 => 100.0 * (on / off - 1.0),
            _ => 0.0,
        };
        m.push(Metric::new("trace.overhead_pct", overhead, "%"));
        m.push(Metric::new("trace.spans", spans.len() as f64, "count"));
        for (layer, ns) in trace::self_time_ns(&spans) {
            m.push(Metric::new(
                format!("trace.self_ms.{layer}"),
                ns as f64 / 1e6,
                "ms",
            ));
        }
        layers::complete(&m)
    } else {
        Vec::new()
    };
    Report {
        stamp,
        attempted,
        failed,
        outcome_digest: run.outcome_digest,
        tail_percentile: t.map_or(0.0, |t| t.percentile),
        tail_samples: untraced.len(),
        tail_windows: t.map_or(0, |t| t.windows),
        end_to_end,
        per_layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_experiments::serve::protocol::{parse_json, Json};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = Args::parse(&strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_mix".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "serve_mix"],
            &["--workload", "serve_mix", "--seed", "x"],
            &["--workload", "serve_mix", "--seed", "1", "--trace", "2"],
            &["--workload", "serve_mix", "--seed", "1", "--seconds", "0"],
            &["--workload", "serve_mix", "--seed", "1", "--trace", "0"],
            &["--workload", "serve_mix", "--seed"],
        ] {
            assert!(Args::parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn failed_ops_and_checks_count_against_ok_frac() {
        use workloads::OpRecord;
        let op = |ms: f64, ok: bool, job: bool| OpRecord {
            latency_s: ms / 1e3,
            trials: if job { 2 } else { 0 },
            job,
            ok,
            traced: false,
        };
        // Thirty jobs, then three slow non-job ops (uploads), one failed:
        // they count as attempted but stay out of the latency metrics.
        let mut ops: Vec<OpRecord> = (0..30)
            .map(|i| op(f64::from(i) + 1.0, i != 7, true))
            .collect();
        ops.extend((0..3).map(|i| op(1000.0, i != 1, false)));
        let mut run = Run {
            setup_s: vec![0.3, 0.1, 0.2],
            ops,
            wall_s: 2.0,
            ..Run::default()
        };
        run.check(false);
        let r = summarize(
            Stamp::here("thm1_regular", 1, false, 2.0),
            run,
            &Tracer::new(false),
        );
        assert_eq!((r.attempted, r.failed, r.correct()), (34, 3, false));
        let get = |n: &str| r.end_to_end.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.2);
        assert_eq!(get("trials_per_s"), 30.0);
        assert_eq!(get("op_ms_p50"), 15.5);
        assert_eq!(get("op_ms_tail"), 20.0);
        assert_eq!(
            (r.tail_percentile, r.tail_samples, r.tail_windows),
            (100.0 * 20.0 / 30.0, 30, 1)
        );
        assert_eq!(get("ok_frac"), 1.0 - 3.0 / 34.0);
        let names: Vec<&str> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
    }

    /// The names and units in `BENCHMARK.json` are the ones this crate
    /// prints.
    #[test]
    fn benchmark_json_lists_what_the_benchmark_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Array(items)) = v.get(key) else {
                panic!("{key}")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(layers::PER_LAYER));
        let Some(Json::Array(w)) = v.get("workloads") else {
            panic!()
        };
        let names: Vec<&str> = w
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    /// The prediction map names every per-layer metric and only known
    /// end-to-end metrics and workloads.
    #[test]
    fn prediction_map_covers_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json");
        let v = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Object(map)) = v.get("per_layer") else {
            panic!()
        };
        let mut names: Vec<&str> = map.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        expected.sort_unstable();
        assert_eq!(names, expected);
        let workloads = |e: &Json, key: &str| -> Vec<String> {
            let Some(Json::Array(items)) = e.get(key) else {
                panic!("{key}")
            };
            items
                .iter()
                .map(|w| w.as_str().unwrap().to_string())
                .collect()
        };
        for (name, entry) in map {
            let Some(Json::Array(moves)) = entry.get("moves") else {
                panic!("{name}")
            };
            let mut touched = Vec::new();
            for m in moves {
                let metric = m.get("metric").and_then(Json::as_str).unwrap();
                let workload = m.get("workload").and_then(Json::as_str).unwrap();
                assert!(
                    END_TO_END.iter().any(|(n, _)| *n == metric),
                    "{name}: {metric}"
                );
                assert!(WORKLOADS.contains(&workload), "{name}: {workload}");
                touched.push(workload.to_string());
            }
            for w in workloads(entry, "unchanged_on") {
                assert!(
                    WORKLOADS.contains(&w.as_str()) && !touched.contains(&w),
                    "{name}: {w}"
                );
            }
            assert!(workloads(entry, "measured_on")
                .iter()
                .all(|w| WORKLOADS.contains(&w.as_str())));
        }
    }
}
