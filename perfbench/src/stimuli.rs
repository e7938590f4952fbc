//! The `c880_stimuli` job: many distinct seeded stimuli through one warm
//! `Simulator::run_in` on one thread, each output checked against its
//! static arrival window.

use std::time::Instant;

use mis_analyze::{TimingAnalysis, Window};
use mis_digital::{CachedHybridChannel, SignalId, TraceTransform, TwoInputTransform};
use mis_probe::Probe;
use mis_sim::Simulator;
use mis_waveform::{DigitalTrace, TraceArena};

use crate::circuit::{self, fallback, Setups};
use crate::gen::stimulus;
use crate::report::{loop_metrics, peak_rss, secs, Report, Summary};
use crate::{fig7, Budget};

/// Stimuli behind the per-stimulus probe counts (a fixed prefix of the
/// pool, so the counts are a pure function of the seed).
pub const COUNT_STIMULI: u64 = 64;

/// `latency_tail_ms` percentile and the minimum runs that leave ten
/// samples beyond it.
const TAIL_Q: f64 = 0.99;
const MIN_RUNS: u64 = 1000;

/// Runs between two timed set-ups.
const SETUP_EVERY: u64 = 150;

/// Runs per `ops_per_s` window: whole cycles of the three traffic
/// shapes.
const WINDOW: usize = 300;

/// Absolute slack for window containment, as the STA soundness tests
/// use.
const TOL: f64 = 1e-15;

/// Output edges of the last run outside their static arrival windows.
fn window_violations(
    sta: &TimingAnalysis,
    inputs: &[DigitalTrace],
    sim: &Simulator<'_>,
    arena: &TraceArena,
    outputs: &[SignalId],
) -> usize {
    let input_windows: Vec<Window> = inputs
        .iter()
        .map(|t| Window::from_edge_times(&t.edges().iter().map(|e| e.time).collect::<Vec<_>>()))
        .collect();
    let windows = sta.arrival_windows(&input_windows);
    outputs
        .iter()
        .map(|&id| {
            let w = windows[id.index()];
            sim.trace(arena, id)
                .times()
                .iter()
                .filter(|&&t| !w.contains(t, TOL))
                .count()
        })
        .sum()
}

/// Samples of the traced run's extra measurements.
#[derive(Default)]
struct Traced {
    generate: Vec<f64>,
    check: Vec<f64>,
    probed: Vec<f64>,
    cached_ns_per_edge: Vec<f64>,
    inertial_ns_per_edge: Vec<f64>,
    kernels: Vec<f64>,
    op_wall: Vec<f64>,
}

/// Runs the job.
///
/// # Errors
///
/// A message if set-up or stimulus generation fails; failed runs are
/// counted, not returned.
pub fn job(report: &mut Report, seed: u64, budget: Budget, trace: bool) -> Result<(), String> {
    let mut setups = Setups::default();
    let c880 = setups.run()?;
    let net = &c880.lowered.net;
    let outputs = &c880.lowered.outputs;
    let width = c880.lowered.inputs.len();
    let sta = TimingAnalysis::new(net);
    let mut sim = Simulator::new(net).map_err(|e| e.to_string())?;
    let mut arena = TraceArena::new();
    // Warm the arena on one stimulus of each traffic shape.
    for k in 0..3 {
        sim.run_in(&stimulus(seed, k, width)?, &mut arena)
            .map_err(|e| format!("warm-up: {e}"))?;
    }

    let probe = Probe::new();
    let mut probed = Simulator::new_probed(net, &probe).map_err(|e| e.to_string())?;
    let mut probed_arena = TraceArena::new();
    let cached = CachedHybridChannel::new(&c880.lib).map_err(|e| e.to_string())?;
    let inertial = fallback()?;
    let mut traced = Traced::default();

    let min_runs = if trace {
        budget.min_ops
    } else {
        budget.min_ops.max(MIN_RUNS)
    };
    let mut times = Vec::new();
    let mut violations = 0usize;
    let started = Instant::now();
    let mut k = 0;
    while k < min_runs || started.elapsed().as_secs_f64() < budget.seconds {
        let op_started = Instant::now();
        let inputs = stimulus(seed, k, width)?;
        let generated = Instant::now();
        // Alternate which engine goes first so cache warmth favours
        // neither side of the probe-overhead comparison.
        if trace && k % 2 == 1 {
            let t0 = Instant::now();
            probed
                .run_in(&inputs, &mut probed_arena)
                .map_err(|e| format!("probed run {k}: {e}"))?;
            traced.probed.push(secs(t0.elapsed()));
        }
        let t0 = Instant::now();
        let run = sim.run_in(&inputs, &mut arena);
        let dt = secs(t0.elapsed());
        let t1 = Instant::now();
        let ok = match run {
            Ok(()) => {
                let bad = window_violations(&sta, &inputs, &sim, &arena, outputs);
                violations += bad;
                bad == 0
            }
            Err(e) => {
                eprintln!("stimulus {k}: {e}");
                false
            }
        };
        let checked = secs(t1.elapsed());
        report.ops(1, u64::from(!ok));
        times.push(dt);
        if trace {
            if k % 2 == 0 {
                let t0 = Instant::now();
                probed
                    .run_in(&inputs, &mut probed_arena)
                    .map_err(|e| format!("probed run {k}: {e}"))?;
                traced.probed.push(secs(t0.elapsed()));
            }
            let edges: usize = inputs.iter().map(|t| t.edges().len()).sum();
            let t0 = Instant::now();
            for pair in inputs.chunks_exact(2) {
                cached
                    .apply2(&pair[0], &pair[1])
                    .map_err(|e| format!("cached apply2: {e}"))?;
            }
            let t1 = Instant::now();
            for t in &inputs {
                inertial
                    .apply(t)
                    .map_err(|e| format!("inertial apply: {e}"))?;
            }
            let t2 = Instant::now();
            traced.generate.push(secs(generated - op_started));
            traced.check.push(checked);
            traced
                .cached_ns_per_edge
                .push(secs(t1 - t0) * 1e9 / edges as f64);
            traced
                .inertial_ns_per_edge
                .push(secs(t2 - t1) * 1e9 / edges as f64);
            traced.kernels.push(secs(t2 - t0));
            traced.op_wall.push(secs(op_started.elapsed()));
        }
        if k % SETUP_EVERY == 0 {
            setups.run()?;
        }
        k += 1;
    }
    setups.report(report, trace);

    let counts = circuit::counts(&c880, seed, COUNT_STIMULI)?;
    report.stat("counts_per_stimulus", counts.json());
    report.info_num("window_violations", violations as f64);
    let busy: f64 = times.iter().sum();
    if trace {
        let mean = |v: &[f64]| Summary::of(v).mean;
        let run = busy / times.len() as f64;
        report.metric("sim.run_us", run * 1e6, "us");
        counts.add_metrics(report);
        report.metric(
            "digital.cached_apply2_ns_per_edge",
            mean(&traced.cached_ns_per_edge),
            "ns",
        );
        report.metric(
            "digital.inertial_apply_ns_per_edge",
            mean(&traced.inertial_ns_per_edge),
            "ns",
        );
        report.metric("waveform.generate_us", mean(&traced.generate) * 1e6, "us");
        report.metric("analyze.sta_check_us", mean(&traced.check) * 1e6, "us");
        report.metric(
            "probe.overhead_pct",
            (mean(&traced.probed) / run - 1.0) * 100.0,
            "%",
        );
        // The op wall time (generate, run, check, probed re-run, kernel
        // isolation) beside the sum of the calls timed within it.
        let layer_sum = mean(&traced.generate)
            + run
            + mean(&traced.check)
            + mean(&traced.probed)
            + mean(&traced.kernels);
        report.info_num("stimuli.op_wall_us", mean(&traced.op_wall) * 1e6);
        report.info_num("stimuli.layer_sum_us", layer_sum * 1e6);
    } else {
        loop_metrics(report, 1.0, &times, WINDOW, TAIL_Q);
        peak_rss(report);
        fig7::committed_accuracy(report, &c880.lib, seed)?;
    }
    Ok(())
}
