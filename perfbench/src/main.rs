//! The benchmark command line:
//!
//! ```text
//! perfbench --workload <c880_stimuli|c880_campaign|nor_fig7>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload and prints its end-to-end metrics;
//! `--trace 1` runs the workload for `--seconds` with the per-layer
//! timings on, then the other two workloads at their minimum size, so
//! every layer metric is reported. Stdout ends with three lines: the
//! simulated statistics (identical on every run with one seed), the run
//! conditions and sample statistics, and the result object.

use std::process::ExitCode;

use perfbench::report::Report;
use perfbench::{campaign, job, Budget, WORKLOADS};

/// Operations each other workload runs in a traced run.
const TOUR_OPS: [(&str, u64); 3] = [("c880_stimuli", 64), ("c880_campaign", 2), ("nor_fig7", 4)];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let own = job(&args.workload).expect("validated workload");
    let budget = Budget {
        seconds: args.seconds,
        min_ops: 1,
    };
    own(&mut report, args.seed, budget, args.trace)?;
    if args.trace {
        for (name, ops) in TOUR_OPS {
            if name != args.workload {
                let tour = Budget {
                    seconds: 0.0,
                    min_ops: ops,
                };
                job(name).expect("known workload")(&mut report, args.seed, tour, true)?;
            }
        }
    }
    report.info_json("workload", mis_probe::json::json_string(&args.workload));
    report.info_num("seed", args.seed as f64);
    report.info_num("seconds", args.seconds);
    report.info_num(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    report.info_num("campaign_workers", campaign::workers() as f64);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.simulated_line());
            println!("{}", report.info_line());
            println!("{}", report.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
