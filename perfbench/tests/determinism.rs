//! The benchmark drives the same circuit, cells and stimulus CI pins,
//! and its simulated statistics are a pure function of the seed.

use std::process::Command;

use mis_fault::{run_campaign, stuck_at_sites, CampaignConfig};
use perfbench::circuit::{counts, Setups};
use perfbench::gen::{glitch_sites, stimulus, CI_SEED};

#[test]
fn first_ci_stimulus_reproduces_the_pinned_engine_counts() {
    let c880 = Setups::default().run().expect("c880 set-up");
    let counts = counts(&c880, CI_SEED, 1).expect("probed run");
    // The values `scripts/ci.sh` pins for c880 with `sim_profile --expect`.
    for (name, want) in [
        ("sim.events_popped", 510),
        ("sim.gates_evaluated", 510),
        ("sim.edges.input", 1200),
        ("sim.edges.mis", 1238),
        ("sim.edges.not", 1750),
        ("chan.pending_cancelled", 65),
        ("chan.table_lookups", 741),
        ("chan.pulse_filtered", 1424),
    ] {
        assert_eq!(counts.total(name), want, "{name}");
    }
}

#[test]
fn first_ci_campaign_reproduces_the_pinned_coverage() {
    let c880 = Setups::default().run().expect("c880 set-up");
    let net = &c880.lowered.net;
    let mut faults = stuck_at_sites(net);
    faults.extend(glitch_sites(net, perfbench::campaign::GLITCHES).expect("glitches"));
    let inputs = stimulus(CI_SEED, 0, c880.lowered.inputs.len()).expect("stimulus");
    let config = CampaignConfig {
        workers: 2,
        ..CampaignConfig::default()
    };
    let report =
        run_campaign(net, &c880.lowered.outputs, &inputs, &faults, &config).expect("campaign");
    // `fault_sim --glitches 24 --expect fault.injected=1164,fault.detected=1049`.
    assert_eq!(report.total(), 1164);
    assert_eq!(report.detected, 1049);
    assert_eq!(report.budget_trips, 0);
}

/// The stdout lines of one zero-second run.
fn run(workload: &str, seed: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "0"])
        .args(["--trace", trace])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    assert!(
        lines[lines.len() - 1].starts_with("{\"correct\":true,"),
        "{workload}: {stdout}"
    );
    lines
}

/// The `{"simulated":...}` line of one zero-second timed run.
fn simulated_line(workload: &str, seed: &str) -> String {
    let lines = run(workload, seed, "0");
    let line = lines[lines.len() - 3].clone();
    assert!(line.starts_with("{\"simulated\":{"), "{workload}: {line}");
    line
}

/// Metric names listed in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn runs_report_exactly_the_listed_metrics() {
    for (section, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
        let names = listed(section);
        assert!(!names.is_empty(), "{section}");
        for workload in perfbench::WORKLOADS {
            let result = run(workload, "3", trace).pop().expect("result line");
            for name in &names {
                assert!(
                    result.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} --trace {trace} misses {name}: {result}"
                );
            }
            assert_eq!(
                result.matches("\"value\":").count(),
                names.len(),
                "{workload} --trace {trace}: {result}"
            );
        }
    }
}

#[test]
fn simulated_statistics_repeat_exactly_for_one_seed() {
    for workload in perfbench::WORKLOADS {
        let first = simulated_line(workload, "7");
        assert_eq!(first, simulated_line(workload, "7"), "{workload}");
        assert_ne!(first, simulated_line(workload, "8"), "{workload}");
    }
}
