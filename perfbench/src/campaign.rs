//! The `c880_campaign` job: exhaustive stuck-at plus 24 glitch faults,
//! one seeded stimulus per campaign, through `run_campaign` on
//! `min(nproc, 2)` workers.

use std::time::Instant;

use mis_fault::{
    run_campaign, run_campaign_probed, stuck_at_sites, CampaignConfig, CampaignReport,
};
use mis_probe::json::json_f64;
use mis_probe::{MetricValue, Probe};
use mis_sim::Simulator;
use mis_waveform::TraceArena;

use crate::circuit::{self, Setups};
use crate::gen::{glitch_sites, stimulus};
use crate::report::{loop_metrics, peak_rss, secs, Report, Summary};
use crate::{fig7, Budget};

/// Glitch faults added to the stuck-at list (`fault_sim --glitches 24`).
pub const GLITCHES: usize = 24;

/// `latency_tail_ms` percentile and the minimum campaigns that leave
/// ten samples beyond it.
const TAIL_Q: f64 = 0.75;
const MIN_CAMPAIGNS: u64 = 40;

/// Campaigns per `ops_per_s` window: one per traffic shape.
const WINDOW: usize = 3;

/// Worker count: the host's parallelism, capped at two.
#[must_use]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Per-campaign samples of the traced run.
#[derive(Default)]
struct Traced {
    golden: Vec<f64>,
    replay: Vec<f64>,
    util: Vec<f64>,
    imbalance: Vec<f64>,
    spawn_wait: Vec<f64>,
    layer_sum: Vec<f64>,
}

impl Traced {
    /// Folds in one probed campaign's worker timers.
    fn record(&mut self, probe: &Probe, workers: usize, wall: f64, golden: f64) {
        let snap = probe.report();
        let busy: Vec<f64> = (0..workers)
            .filter_map(|w| match snap.get(&format!("fault.w{w}.busy")) {
                Some(MetricValue::Timer { total_ns, .. }) => Some(*total_ns as f64 * 1e-9),
                _ => None,
            })
            .collect();
        let injected = snap
            .get("fault.injected")
            .and_then(MetricValue::scalar)
            .unwrap_or(0);
        let total: f64 = busy.iter().sum();
        let longest = busy.iter().copied().fold(0.0, f64::max);
        self.golden.push(golden);
        self.replay.push(total / injected as f64);
        self.util.push(total / (workers as f64 * wall));
        self.imbalance.push(longest / (total / busy.len() as f64));
        self.spawn_wait.push(wall - longest);
        self.layer_sum.push(golden + longest);
    }
}

/// Runs the job.
///
/// # Errors
///
/// A message if set-up or stimulus generation fails; failed campaigns
/// are counted, not returned.
pub fn job(report: &mut Report, seed: u64, budget: Budget, trace: bool) -> Result<(), String> {
    let mut setups = Setups::default();
    let c880 = setups.run()?;
    let net = &c880.lowered.net;
    let outputs = &c880.lowered.outputs;
    let width = c880.lowered.inputs.len();
    let mut faults = stuck_at_sites(net);
    faults.extend(glitch_sites(net, GLITCHES)?);
    let n = faults.len() as u64;
    let workers = workers();
    let config = CampaignConfig {
        workers,
        ..CampaignConfig::default()
    };
    // The determinism check: the first campaign at one worker, which the
    // timed first campaign must reproduce exactly. It also warms up.
    let first = stimulus(seed, 0, width)?;
    let single = run_campaign(net, outputs, &first, &faults, &CampaignConfig::default())
        .map_err(|e| format!("single-worker campaign: {e}"))?;

    let mut golden_sim = Simulator::new(net).map_err(|e| e.to_string())?;
    let mut golden_arena = TraceArena::new();
    let mut traced = Traced::default();
    let min_campaigns = if trace {
        budget.min_ops
    } else {
        budget.min_ops.max(MIN_CAMPAIGNS)
    };
    let mut times = Vec::new();
    let mut coverage = f64::NAN;
    let started = Instant::now();
    let mut j = 0;
    while j < min_campaigns || started.elapsed().as_secs_f64() < budget.seconds {
        let inputs = stimulus(seed, j, width)?;
        let probe = Probe::new();
        let t0 = Instant::now();
        let result = if trace {
            run_campaign_probed(net, outputs, &inputs, &faults, &config, &probe)
        } else {
            run_campaign(net, outputs, &inputs, &faults, &config)
        };
        let dt = secs(t0.elapsed());
        let ok = match &result {
            Ok(r) => {
                let same = j != 0 || *r == single;
                if !same {
                    eprintln!("campaign report differs between 1 and {workers} workers");
                }
                same && r.budget_trips == 0 && r.total() == faults.len()
            }
            Err(e) => {
                eprintln!("campaign {j}: {e}");
                false
            }
        };
        if j == 0 {
            coverage = result.as_ref().map_or(f64::NAN, CampaignReport::coverage);
        }
        report.ops(n, if ok { 0 } else { n });
        times.push(dt);
        if trace {
            let t0 = Instant::now();
            golden_sim
                .run_in(&inputs, &mut golden_arena)
                .map_err(|e| format!("golden run {j}: {e}"))?;
            traced.record(&probe, workers, dt, secs(t0.elapsed()));
        }
        setups.run()?;
        j += 1;
    }
    setups.report(report, trace);

    report.info_num("workers", workers as f64);
    report.info_num("faults", n as f64);
    report.stat("fault.coverage", json_f64(coverage));
    if trace {
        let mean = |v: &[f64]| Summary::of(v).mean;
        report.metric("fault.golden_us", mean(&traced.golden) * 1e6, "us");
        report.metric("fault.replay_us", mean(&traced.replay) * 1e6, "us");
        report.metric("fault.worker_util", mean(&traced.util), "ratio");
        report.metric("fault.imbalance", mean(&traced.imbalance), "ratio");
        report.metric("fault.spawn_wait_ms", mean(&traced.spawn_wait) * 1e3, "ms");
        report.metric("fault.coverage", coverage, "ratio");
        report.info_num("campaign.op_wall_ms", mean(&times) * 1e3);
        report.info_num("campaign.layer_sum_ms", mean(&traced.layer_sum) * 1e3);
    } else {
        let counts = circuit::counts(&c880, seed, crate::stimuli::COUNT_STIMULI)?;
        report.stat("counts_per_stimulus", counts.json());
        loop_metrics(report, n as f64, &times, WINDOW, TAIL_Q);
        peak_rss(report);
        fig7::committed_accuracy(report, &c880.lib, seed)?;
    }
    Ok(())
}
