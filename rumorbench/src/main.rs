//! `rumorbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload, writes its results file under `.bench_out/`, and
//! prints one JSON summary as the last line of standard output.

use std::process::ExitCode;

use rumorbench::{run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rumorbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            let metrics = if args.trace {
                &report.per_layer
            } else {
                &report.end_to_end
            };
            for m in metrics {
                println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            if !args.trace {
                println!(
                    "# op_ms_tail is p{:.1} of {} jobs in {} windows; attempted {} failed {}; outcome digest {:016x}",
                    report.tail_percentile, report.tail_samples, report.tail_windows, report.attempted, report.failed, report.outcome_digest
                );
            }
            println!(
                "# rev {} nproc {} profile {} seed {}",
                report.stamp.git_rev, report.stamp.nproc, report.stamp.profile, report.stamp.seed
            );
            println!("{}", report.summary_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rumorbench: {e}");
            ExitCode::FAILURE
        }
    }
}
