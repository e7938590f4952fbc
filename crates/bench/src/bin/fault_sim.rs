//! Runs a deterministic fault-injection campaign over one `.bench`
//! netlist — the CLI front of `mis-fault`, and the coverage-pinning
//! gate CI runs over the committed fixtures.
//!
//! The netlist is lowered under the committed characterized cell
//! library and driven with the same deterministic traffic `sim_profile`
//! uses (seed base `0x5eed`), so the golden run here is byte-for-byte
//! the run CI already pins event counts on. The fault list is the
//! exhaustive single-stuck-at set (two faults per lowered signal), plus
//! `--glitches N` transient pulses placed deterministically across the
//! signals. The campaign report — coverage, per-output detections,
//! budget trips — is a pure function of the netlist, so its numbers can
//! be pinned with `--expect` exactly like `sim_profile`'s counters.
//!
//! Usage:
//!
//! ```text
//! fault_sim [--json] [--workers N] [--glitches N] [--max-events N]
//!           [--max-edges N] [--trace <out.json>] [--expect k=v,...]
//!           <netlist.bench>
//! fault_sim --fuzz ITERS [--seed N] [--workers N] [--json]
//! ```
//!
//! `--max-events N` and `--max-edges N` bound each fault's replay: it
//! charges one event for the fault site plus one per gate of the
//! site's fan-out cone it re-evaluates, and as edges the site's
//! rewritten edges plus those gates' output edges. A replay past a
//! limit counts as a budget trip, not a failure; `--max-events 0` trips
//! every fault.
//!
//! `--trace` records the campaign on a live `mis_probe::TraceSink` —
//! the golden run's gate spans plus, per worker, a chunk span, a
//! `fault_run` span per replay and coverage-over-time samples — and
//! writes the timeline as checker-validated Chrome Trace Format JSON.
//! The per-worker `fault.w<i>.busy` utilization timers and the
//! `fault.signals_reevaluated` histogram (gates re-evaluated per fault)
//! appear in the `--json` line whenever the campaign runs probed,
//! traced or not.
//!
//! `--fuzz` ignores the campaign flags and instead runs the
//! differential fuzz harness (random circuits, stimuli and faults;
//! engine-vs-reference bit-identity, campaign reports identical across
//! `1..=--workers` workers, cone replay equal to full replay per fault,
//! faulted-STA soundness, graceful budgets)
//! for the given iteration count — CI's smoke leg.
//!
//! Exit code 1 on campaign, fuzz, or expectation failure; 2 on usage
//! errors.

use std::process::ExitCode;

use mis_bench::emit;
use mis_bench::netlist::{committed_cells, traffic};
use mis_fault::{
    fuzz_differential, run_campaign_traced, stuck_at_sites, CampaignConfig, FaultOutcome,
    FaultSite, FuzzConfig,
};
use mis_probe::json::{is_wellformed, json_f64, json_string};
use mis_probe::{Probe, TraceSink};
use mis_sim::{BenchNetlist, RunBudget};
use mis_waveform::units::ps;

/// Parsed `--expect` pairs: probe metric name and pinned scalar.
fn parse_expect(spec: &str) -> Result<Vec<(String, u64)>, String> {
    spec.split(',')
        .map(|pair| {
            let (name, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("--expect pair '{pair}' is not metric=value"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("--expect value in '{pair}': {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

struct Args {
    json: bool,
    workers: usize,
    glitches: usize,
    max_events: Option<u64>,
    max_edges: Option<u64>,
    fuzz: Option<u32>,
    seed: u64,
    trace: Option<String>,
    expect: Vec<(String, u64)>,
    file: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        workers: 4,
        glitches: 0,
        max_events: None,
        max_edges: None,
        fuzz: None,
        seed: 0x5eed,
        trace: None,
        expect: Vec::new(),
        file: None,
    };
    let mut argv = std::env::args().skip(1);
    let value = |flag: &str, argv: &mut dyn Iterator<Item = String>| {
        argv.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--workers" => {
                args.workers = value("--workers", &mut argv)?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--glitches" => {
                args.glitches = value("--glitches", &mut argv)?
                    .parse()
                    .map_err(|e| format!("--glitches: {e}"))?;
            }
            "--max-events" => {
                args.max_events = Some(
                    value("--max-events", &mut argv)?
                        .parse()
                        .map_err(|e| format!("--max-events: {e}"))?,
                );
            }
            "--max-edges" => {
                args.max_edges = Some(
                    value("--max-edges", &mut argv)?
                        .parse()
                        .map_err(|e| format!("--max-edges: {e}"))?,
                );
            }
            "--fuzz" => {
                args.fuzz = Some(
                    value("--fuzz", &mut argv)?
                        .parse()
                        .map_err(|e| format!("--fuzz: {e}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed", &mut argv)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--trace" => {
                args.trace = Some(value("--trace", &mut argv)?);
            }
            "--expect" => {
                let spec = value("--expect", &mut argv)?;
                args.expect.extend(parse_expect(&spec)?);
            }
            _ if arg.starts_with("--") => return Err(format!("unknown flag '{arg}'")),
            _ if args.file.is_none() => args.file = Some(arg),
            _ => return Err("expected at most one <netlist.bench>".to_string()),
        }
    }
    if args.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    match (&args.fuzz, &args.file) {
        (None, None) => Err("expected a <netlist.bench> (or --fuzz ITERS)".to_string()),
        (Some(_), Some(_)) => Err("--fuzz takes no <netlist.bench>".to_string()),
        _ => Ok(args),
    }
}

/// The campaign's run budget from the `--max-*` flags.
fn budget(args: &Args) -> RunBudget {
    let mut b = RunBudget::UNLIMITED;
    if let Some(n) = args.max_events {
        b = b.with_max_events(n);
    }
    if let Some(n) = args.max_edges {
        b = b.with_max_edges(n);
    }
    b
}

/// `n` transient glitches spread deterministically across the lowered
/// signals: strided signal picks, staggered start times, cycling
/// widths. No randomness — the same flag always names the same faults,
/// so glitch coverage is pinnable too.
fn glitch_sites(net: &mis_digital::Network, n: usize) -> Result<Vec<FaultSite>, String> {
    let signals = net.signal_count();
    (0..n)
        .map(|i| {
            let idx = (i * 7 + 3) % signals;
            let id = net
                .signal_id(idx)
                .ok_or_else(|| format!("signal index {idx} out of range"))?;
            FaultSite::glitch(
                id,
                ps(100.0 + 83.0 * i as f64),
                ps(20.0 + 10.0 * (i % 5) as f64),
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}

fn run_fuzz(args: &Args, iterations: u32) -> Result<(), String> {
    let report = fuzz_differential(&FuzzConfig {
        iterations,
        seed: args.seed,
        max_workers: args.workers,
    })?;
    if args.json {
        let line = format!(
            "{{\"fuzz\":{{\"iterations\":{},\"edges_checked\":{},\"runs_compared\":{}}}}}",
            report.iterations, report.edges_checked, report.runs_compared
        );
        if !is_wellformed(&line) {
            return Err(format!("internal error: malformed JSON output: {line}"));
        }
        emit(format_args!("{line}\n"));
    } else {
        emit(format_args!(
            "fuzz ok: {} iterations, {} runs compared, {} edges checked \
             against faulted STA windows\n",
            report.iterations, report.runs_compared, report.edges_checked
        ));
    }
    Ok(())
}

fn run_campaign_cli(args: &Args, file: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let nl = BenchNetlist::parse(&text).map_err(|e| format!("parse {file}: {e}"))?;
    let cells = committed_cells()?;
    let lowered = nl.lower(&cells).map_err(|e| format!("lowering: {e}"))?;
    let inputs = traffic(lowered.inputs.len())?;

    let mut faults = stuck_at_sites(&lowered.net);
    let stuck = faults.len();
    faults.extend(glitch_sites(&lowered.net, args.glitches)?);

    let probe = Probe::new();
    let sink = if args.trace.is_some() {
        TraceSink::new()
    } else {
        TraceSink::disabled()
    };
    let config = CampaignConfig {
        workers: args.workers,
        budget: budget(args),
    };
    let report = run_campaign_traced(
        &lowered.net,
        &lowered.outputs,
        &inputs,
        &faults,
        &config,
        &probe,
        &sink,
    )
    .map_err(|e| format!("campaign: {e}"))?;

    if let Some(path) = &args.trace {
        let chrome = sink.snapshot().to_chrome_json();
        if !is_wellformed(&chrome) {
            return Err(format!("internal error: malformed trace JSON for {path}"));
        }
        std::fs::write(path, &chrome).map_err(|e| format!("write {path}: {e}"))?;
        if !args.json {
            emit(format_args!("wrote campaign timeline to {path}\n"));
        }
    }

    let snap = probe.report();
    if args.json {
        // Compose the file header with the probe object's body; the
        // probe line is `{"probe":{...}}`, so splice past its braces.
        let probe_line = snap.to_json_line();
        let line = format!(
            "{{\"file\":{},\"outputs\":{},\"faults\":{},\"stuck_at\":{},\"glitch\":{},\
             \"detected\":{},\"undetected\":{},\"budget_trips\":{},\"coverage\":{},{}",
            json_string(file),
            lowered.outputs.len(),
            report.total(),
            stuck,
            args.glitches,
            report.detected,
            report.total() - report.detected - report.budget_trips,
            report.budget_trips,
            json_f64(report.coverage()),
            &probe_line[1..],
        );
        if !is_wellformed(&line) {
            return Err(format!("internal error: malformed JSON output: {line}"));
        }
        emit(format_args!("{line}\n"));
    } else {
        emit(format_args!(
            "== {file} ({} inputs, {} outputs, {} gates)\n",
            nl.inputs().len(),
            nl.outputs().len(),
            nl.gates().len()
        ));
        emit(format_args!(
            "faults: {} ({stuck} stuck-at + {} glitch), workers: {}\n",
            report.total(),
            args.glitches,
            args.workers
        ));
        emit(format_args!(
            "coverage: {:.2}% ({} detected, {} undetected, {} budget-tripped)\n",
            100.0 * report.coverage(),
            report.detected,
            report.total() - report.detected - report.budget_trips,
            report.budget_trips
        ));
        emit(format_args!("per-output detections:\n"));
        for (k, &id) in lowered.outputs.iter().enumerate() {
            emit(format_args!(
                "  {:<12} {}\n",
                lowered.net.signal_name(id),
                report.per_output[k]
            ));
        }
        let undetected: Vec<String> = report
            .results
            .iter()
            .filter(|r| r.outcome == FaultOutcome::Undetected)
            .map(|r| format!("{}@{}", r.site.kind, lowered.net.signal_name(r.site.signal)))
            .collect();
        if !undetected.is_empty() {
            const SHOW: usize = 12;
            emit(format_args!(
                "undetected ({}): {}{}\n",
                undetected.len(),
                undetected[..undetected.len().min(SHOW)].join(", "),
                if undetected.len() > SHOW { ", ..." } else { "" }
            ));
        }
    }

    let mut drifted = false;
    for (name, want) in &args.expect {
        let got = snap.get(name).and_then(mis_probe::MetricValue::scalar);
        if got != Some(*want) {
            eprintln!(
                "fault_sim: {file}: expected {name}={want}, got {}",
                got.map_or("<missing>".to_string(), |v| v.to_string())
            );
            drifted = true;
        }
    }
    if drifted {
        return Err("pinned metric expectations failed".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fault_sim: {e}");
            eprintln!(
                "usage: fault_sim [--json] [--workers N] [--glitches N] [--max-events N] \
                 [--max-edges N] [--trace <out.json>] [--expect k=v,...] <netlist.bench>"
            );
            eprintln!(
                "       --max-events/--max-edges bound each fault's replay: one event \
                 for the site plus one per re-evaluated cone gate"
            );
            eprintln!("       fault_sim --fuzz ITERS [--seed N] [--workers N] [--json]");
            return ExitCode::from(2);
        }
    };
    let result = match (args.fuzz, &args.file) {
        (Some(iterations), _) => run_fuzz(&args, iterations),
        (None, Some(file)) => run_campaign_cli(&args, file),
        (None, None) => unreachable!("parse_args requires a file or --fuzz"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fault_sim: {e}");
            ExitCode::from(1)
        }
    }
}
