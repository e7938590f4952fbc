//! Campaign results on the committed C432 and C880 fixtures against a
//! full-replay reference: every fault's outcome and detecting outputs
//! must equal what a full `Simulator::run_controlled_in` under the
//! fault's overlay observes, output by output. The fault list is the
//! one `fault_sim --glitches 24` pins coverage on: every stuck-at site
//! plus 24 deterministic glitches, under the committed cells and one
//! seeded stimulus per fixture.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::{InertialChannel, Network};
use mis_fault::{
    run_campaign, stuck_at_sites, CampaignConfig, FaultOutcome, FaultOverlay, FaultResult,
    FaultSite,
};
use mis_sim::{BenchNetlist, CellLibrary, RunBudget, Simulator};
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_cells() -> CellLibrary {
    let text = std::fs::read_to_string(workspace_root().join("data/charlib/nor_paper.mislib"))
        .expect("committed NOR library");
    let lib = CharLib::from_text(&text).expect("library parses");
    CellLibrary::hybrid(
        &lib,
        Some(InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel")),
    )
    .expect("cell library")
}

/// `fault_sim`'s traffic: 400/150 ps local pairs, 40 edges, seeded off
/// `0x5eed`.
fn traffic(n: usize) -> Vec<DigitalTrace> {
    (0..n)
        .map(|i| {
            let pair = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, 40)
                .generate(0x5eed + i as u64)
                .expect("trace generation");
            if i % 2 == 0 {
                pair.a
            } else {
                pair.b
            }
        })
        .collect()
}

/// `fault_sim --glitches n`'s sites: strided signals, staggered starts,
/// cycling widths.
fn glitch_sites(net: &Network, n: usize) -> Vec<FaultSite> {
    (0..n)
        .map(|i| {
            let id = net.signal_id((i * 7 + 3) % net.signal_count()).unwrap();
            FaultSite::glitch(
                id,
                ps(100.0 + 83.0 * i as f64),
                ps(20.0 + 10.0 * (i % 5) as f64),
            )
            .unwrap()
        })
        .collect()
}

#[test]
fn campaign_equals_full_replay_on_c432_and_c880() {
    let cells = committed_cells();
    for (file, detected) in [("c432.bench", 356), ("c880.bench", 1049)] {
        let text = std::fs::read_to_string(workspace_root().join("data/bench").join(file))
            .expect("fixture");
        let lowered = BenchNetlist::parse(&text)
            .expect("fixture parses")
            .lower(&cells)
            .expect("lowering");
        let (net, outputs) = (&lowered.net, &lowered.outputs);
        let inputs = traffic(lowered.inputs.len());
        let mut faults = stuck_at_sites(net);
        faults.extend(glitch_sites(net, 24));

        let report = run_campaign(
            net,
            outputs,
            &inputs,
            &faults,
            &CampaignConfig {
                workers: 2,
                budget: RunBudget::UNLIMITED,
            },
        )
        .expect("campaign");
        assert_eq!(report.detected, detected, "{file}: pinned coverage");

        let mut sim = Simulator::new(net).unwrap();
        let mut golden = TraceArena::new();
        sim.run_in(&inputs, &mut golden).unwrap();
        let mut full = TraceArena::new();
        for (site, got) in faults.iter().zip(&report.results) {
            sim.run_controlled_in(
                &inputs,
                &mut full,
                &RunBudget::UNLIMITED,
                Some(&FaultOverlay::new(*site)),
            )
            .unwrap();
            let detecting: Vec<usize> = outputs
                .iter()
                .enumerate()
                .filter(|&(_, &id)| sim.trace(&full, id) != golden.trace(id.index()))
                .map(|(k, _)| k)
                .collect();
            let want = FaultResult {
                site: *site,
                outcome: if detecting.is_empty() {
                    FaultOutcome::Undetected
                } else {
                    FaultOutcome::Detected
                },
                detecting_outputs: detecting,
            };
            assert_eq!(*got, want, "{file}: {site}");
        }
    }
}
