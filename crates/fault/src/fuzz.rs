//! The differential fuzz harness: random circuits, random stimuli,
//! random faults — cross-checked against the reference evaluator, across
//! campaign worker counts, and against the faulted static timing
//! windows.
//!
//! Every iteration draws, from a [`TestRng`] seeded off the configured
//! base (so any failure is reproducible from its printed seed):
//!
//! 1. a random feed-forward network over *bounded* channels (none,
//!    pure-delay, inertial — the kinds whose [`mis_analyze`] windows
//!    are finite, so the soundness check below is non-vacuous);
//! 2. a random stimulus (strictly increasing edge times per input);
//! 3. one random [`FaultSite`] — stuck-at-0/1 or a transient glitch.
//!
//! It then asserts five properties the rest of the workspace argues
//! structurally:
//!
//! * **Engine bit-identity.** On the fault-free run, [`Simulator`]
//!   produces exactly the trace of the [`Network::run_in`] reference for
//!   every signal.
//! * **Campaign determinism.** A [`run_campaign`] over the network's
//!   stuck-at list plus the random fault reports the same result at
//!   every worker count up to the configured maximum.
//! * **Cone replay equals full replay.** For every fault of that
//!   campaign, [`ConeReplay`] leaves every signal's trace exactly as a
//!   full [`Simulator::run_controlled_in`] under the fault's overlay
//!   does, marks changed exactly the signals whose trace differs from
//!   the golden run, and so agrees with the campaign's detections. Its
//!   budget holds too: exactly `1 + re-evaluated` events succeed, one
//!   fewer trips.
//! * **Faulted STA soundness.** Every edge of every faulty trace lands
//!   inside the signal's arrival window computed by
//!   [`TimingAnalysis::arrival_windows_edited`] under the fault's
//!   [`crate::FaultSite::window_edit`].
//! * **Graceful budgets.** With exactly enough event budget the faulty
//!   run succeeds; with one event less it returns
//!   [`mis_digital::SimError::BudgetExceeded`] — never a panic or a
//!   hang.
//!
//! A violation aborts the fuzz with a message naming the iteration and
//! seed; `scripts/ci.sh` runs a bounded iteration count as a smoke leg
//! through the `fault_sim --fuzz` CLI.

use mis_analyze::TimingAnalysis;
use mis_digital::{GateKind, InertialChannel, Network, PureDelayChannel, SimError};
use mis_sim::{ConeReplay, RunBudget, Simulator};
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

use crate::campaign::{run_campaign, CampaignConfig};
use crate::site::{stuck_at_sites, FaultOverlay, FaultSite};

/// Bounds for one fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Iterations (one random circuit + stimulus + fault each).
    pub iterations: u32,
    /// Base seed; iteration `i` uses `seed + i`.
    pub seed: u64,
    /// Campaign worker counts checked: `1..=max_workers`.
    pub max_workers: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 32,
            seed: 0x5eed,
            max_workers: 8,
        }
    }
}

/// What a completed fuzz run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    /// Iterations completed.
    pub iterations: u32,
    /// Faulty-trace edges checked against their STA windows.
    pub edges_checked: u64,
    /// Runs compared, per iteration: the engine against the reference,
    /// one campaign per worker count, and per campaign fault the cone
    /// replay against the full replay plus its two budget probes.
    pub runs_compared: u64,
}

/// Absolute slack for window-containment checks: far below the
/// picosecond scale of every generated delay, far above accumulated
/// `f64` rounding at that scale.
const WINDOW_TOL: f64 = 1e-15;

/// A random feed-forward network over bounded channels only.
fn random_network(rng: &mut TestRng) -> Network {
    const BINARY: [GateKind; 5] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
    ];
    let n_inputs = 2 + rng.gen_u64_below(3) as usize;
    let n_gates = 1 + rng.gen_u64_below(10) as usize;
    let mut net = Network::new();
    let mut ids = Vec::new();
    for i in 0..n_inputs {
        ids.push(
            net.add_input(&format!("in{i}"))
                .expect("inputs precede the gates"),
        );
    }
    for g in 0..n_gates {
        let name = format!("g{g}");
        let channel = match rng.gen_u64_below(3) {
            0 => None,
            1 => Some(Box::new(
                PureDelayChannel::new(ps(10.0 + rng.gen_u64_below(70) as f64))
                    .expect("positive delay"),
            ) as Box<dyn mis_digital::TraceTransform>),
            _ => Some(Box::new(
                InertialChannel::symmetric(
                    ps(10.0 + rng.gen_u64_below(70) as f64),
                    ps(5.0 + rng.gen_u64_below(40) as f64),
                )
                .expect("positive delays"),
            ) as Box<dyn mis_digital::TraceTransform>),
        };
        let pick = ids[rng.gen_u64_below(ids.len() as u64) as usize];
        let id = if rng.gen_bool(0.3) {
            let kind = if rng.gen_bool(0.5) {
                GateKind::Not
            } else {
                GateKind::Buf
            };
            net.add_gate(&name, kind, &[pick], channel)
                .expect("operands precede the gate")
        } else {
            let kind = BINARY[rng.gen_u64_below(5) as usize];
            let other = ids[rng.gen_u64_below(ids.len() as u64) as usize];
            net.add_gate(&name, kind, &[pick, other], channel)
                .expect("operands precede the gate")
        };
        ids.push(id);
    }
    net
}

/// A random stimulus trace: up to six strictly increasing edges.
fn random_trace(rng: &mut TestRng) -> DigitalTrace {
    let initial = rng.gen_bool(0.5);
    let n = rng.gen_u64_below(7);
    let mut t = ps(50.0 + rng.gen_u64_below(100) as f64);
    let mut edges = Vec::new();
    let mut rising = !initial;
    for _ in 0..n {
        edges.push((t, rising));
        rising = !rising;
        t += ps(20.0 + rng.gen_u64_below(100) as f64);
    }
    DigitalTrace::with_edges(initial, edges).expect("strictly increasing times")
}

/// A random fault over the network's signals.
fn random_fault(rng: &mut TestRng, net: &Network) -> FaultSite {
    let signal = net
        .signal_id(rng.gen_u64_below(net.signal_count() as u64) as usize)
        .expect("index < signal_count");
    match rng.gen_u64_below(3) {
        0 => FaultSite::stuck_at_0(signal),
        1 => FaultSite::stuck_at_1(signal),
        _ => FaultSite::glitch(
            signal,
            ps(rng.gen_u64_below(1200) as f64),
            ps(5.0 + rng.gen_u64_below(80) as f64),
        )
        .expect("positive finite width"),
    }
}

/// Runs the differential fuzz. Returns coverage statistics on success.
///
/// # Errors
///
/// A `String` describing the first violated property, including the
/// iteration index and effective seed for reproduction. (A violation
/// is an engine or analysis bug, not an input error — the harness
/// surfaces it as data so CLI and CI callers can print it and fail.)
pub fn fuzz_differential(config: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut edges_checked = 0u64;
    let mut runs_compared = 0u64;
    for i in 0..config.iterations {
        let seed = config.seed.wrapping_add(u64::from(i));
        let tag = |what: &str| format!("fuzz iteration {i} (seed {seed:#x}): {what}");
        let mut rng = TestRng::seed_from_u64(seed);
        let net = random_network(&mut rng);
        let inputs: Vec<DigitalTrace> = (0..net.input_count())
            .map(|_| random_trace(&mut rng))
            .collect();
        let site = random_fault(&mut rng, &net);
        let overlay = FaultOverlay::new(site);

        // Fault-free run: the engine against the reference evaluator.
        let mut sim = Simulator::new(&net).map_err(|e| tag(&e.to_string()))?;
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena)
            .map_err(|e| tag(&e.to_string()))?;
        let mut reference = TraceArena::new();
        net.run_in(&inputs, &mut reference)
            .map_err(|e| tag(&e.to_string()))?;
        runs_compared += 1;
        for s in 0..net.signal_count() {
            let id = net.signal_id(s).expect("s < signal_count");
            if sim.trace(&arena, id) != reference.trace(s) {
                return Err(tag(&format!(
                    "engine diverges from the reference on signal {}",
                    net.signal_name(id)
                )));
            }
        }

        // Campaigns over every signal: the same report at every worker
        // count.
        let outputs: Vec<_> = (0..net.signal_count())
            .filter_map(|s| net.signal_id(s))
            .collect();
        let mut faults = stuck_at_sites(&net);
        faults.push(site);
        let mut baseline = None;
        for workers in 1..=config.max_workers {
            let report = run_campaign(
                &net,
                &outputs,
                &inputs,
                &faults,
                &CampaignConfig {
                    workers,
                    ..CampaignConfig::default()
                },
            )
            .map_err(|e| tag(&e.to_string()))?;
            runs_compared += 1;
            match &baseline {
                None => baseline = Some(report),
                Some(want) if *want != report => {
                    return Err(tag(&format!(
                        "campaign report at {workers} workers differs from 1 worker"
                    )))
                }
                Some(_) => {}
            }
        }
        let baseline = baseline.expect("max_workers >= 1");

        // Cone replay against full replay, per campaign fault: the same
        // trace on every signal, the same changed set as the campaign's
        // detections (its outputs are every signal, in signal order),
        // and exactly `1 + re-evaluated` budget events.
        let mut cone = ConeReplay::new(&net).map_err(|e| tag(&e.to_string()))?;
        let mut local = TraceArena::new();
        let mut full = TraceArena::new();
        for (fault, result) in faults.iter().zip(&baseline.results) {
            let overlay = FaultOverlay::new(*fault);
            let replay = |cone: &mut ConeReplay, local: &mut TraceArena, budget: &RunBudget| {
                cone.replay(&arena, local, fault.signal, &overlay, budget)
            };
            replay(&mut cone, &mut local, &RunBudget::UNLIMITED)
                .map_err(|e| tag(&format!("cone replay of {fault}: {e}")))?;
            sim.run_controlled_in(&inputs, &mut full, &RunBudget::UNLIMITED, Some(&overlay))
                .map_err(|e| tag(&e.to_string()))?;
            let mut differing = Vec::new();
            for (s, &id) in outputs.iter().enumerate() {
                let want = sim.trace(&full, id);
                let differs = want != arena.trace(s);
                if differs {
                    differing.push(s);
                }
                if cone.changed(id) != differs || cone.trace(&arena, &local, id) != want {
                    return Err(tag(&format!(
                        "cone replay of {fault} diverges from full replay on signal {}",
                        net.signal_name(id)
                    )));
                }
            }
            if differing != result.detecting_outputs {
                return Err(tag(&format!(
                    "campaign detections of {fault} differ from full replay"
                )));
            }
            let events = 1 + cone.reevaluated() as u64;
            replay(
                &mut cone,
                &mut local,
                &RunBudget::UNLIMITED.with_max_events(events),
            )
            .map_err(|e| tag(&format!("{events} events should replay {fault}, got: {e}")))?;
            match replay(
                &mut cone,
                &mut local,
                &RunBudget::UNLIMITED.with_max_events(events - 1),
            ) {
                Err(SimError::BudgetExceeded { .. }) => {}
                other => {
                    return Err(tag(&format!(
                        "cone replay of {fault} under {} events returned {other:?}",
                        events - 1
                    )))
                }
            }
            runs_compared += 3;
        }

        // The faulty run every remaining check reads.
        sim.run_controlled_in(&inputs, &mut arena, &RunBudget::UNLIMITED, Some(&overlay))
            .map_err(|e| tag(&e.to_string()))?;

        // Faulted STA soundness: every faulty edge inside its edited
        // window.
        let ta = TimingAnalysis::new(&net);
        let input_windows: Vec<mis_analyze::Window> = inputs
            .iter()
            .map(|t| {
                mis_analyze::Window::from_edge_times(
                    &t.edges().iter().map(|e| e.time).collect::<Vec<f64>>(),
                )
            })
            .collect();
        let windows = ta.arrival_windows_edited(&input_windows, &[site.window_edit()]);
        for (s, window) in windows.iter().enumerate() {
            let id = net.signal_id(s).expect("s < signal_count");
            let trace = sim.trace(&arena, id);
            for &t in trace.times() {
                edges_checked += 1;
                if !window.contains(t, WINDOW_TOL) {
                    return Err(tag(&format!(
                        "edge at {:.3} ps on {} escapes its faulted STA window {window} under {site}",
                        t / 1e-12,
                        net.signal_name(id),
                    )));
                }
            }
        }

        // Graceful budgets: exactly enough succeeds; one event short
        // trips. Always an error, never a panic or hang.
        let gates = (net.signal_count() - net.input_count()) as u64;
        let exact = RunBudget::UNLIMITED.with_max_events(gates);
        sim.run_controlled_in(&inputs, &mut arena, &exact, Some(&overlay))
            .map_err(|e| tag(&format!("exact budget should suffice, got: {e}")))?;
        let short = RunBudget::UNLIMITED.with_max_events(gates - 1);
        match sim.run_controlled_in(&inputs, &mut arena, &short, Some(&overlay)) {
            Err(SimError::BudgetExceeded { .. }) => {}
            other => {
                return Err(tag(&format!(
                    "engine under a short budget returned {other:?}"
                )))
            }
        }
    }
    Ok(FuzzReport {
        iterations: config.iterations,
        edges_checked,
        runs_compared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fuzz_passes() {
        let report = fuzz_differential(&FuzzConfig {
            iterations: 12,
            seed: 0xfa111,
            max_workers: 4,
        })
        .unwrap();
        assert_eq!(report.iterations, 12);
        assert!(report.edges_checked > 0, "fuzz must exercise real edges");
        // Per iteration: engine vs reference, one campaign per worker
        // count, and three cone-replay checks per campaign fault (two
        // stuck-ats per signal plus the random fault).
        let want: u64 = (0..12u64)
            .map(|i| {
                let net = random_network(&mut TestRng::seed_from_u64(0xfa111 + i));
                1 + 4 + 3 * (2 * net.signal_count() as u64 + 1)
            })
            .sum();
        assert_eq!(report.runs_compared, want);
    }

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let config = FuzzConfig {
            iterations: 6,
            seed: 42,
            max_workers: 2,
        };
        let a = fuzz_differential(&config).unwrap();
        let b = fuzz_differential(&config).unwrap();
        assert_eq!(a, b);
    }
}
