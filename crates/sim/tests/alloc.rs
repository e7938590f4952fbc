//! Steady-state allocation-freedom of the engine, asserted with the
//! `mis-testkit` counting allocator: after one warm-up run has sized
//! the arena, re-running [`Simulator::run_in`] over same-shaped inputs
//! performs **zero** heap allocations — on the committed C432- and
//! C880-scale fixtures with `Arc`-shared cached-hybrid cells, the exact
//! workloads of the `netlist_throughput` bench tier. The counter is
//! thread-local — see
//! `worker_thread_allocations_stay_off_this_threads_count` below, which
//! pins down that serial-scoped contract.
//!
//! An integration test (its own binary) so the counting allocator can be
//! installed globally without touching any other target.

use std::path::PathBuf;

use mis_charlib::CharLib;
use mis_digital::InertialChannel;
use mis_fault::{stuck_at_sites, FaultOverlay, FaultSite};
use mis_probe::{Probe, TraceSink};
use mis_sim::{BenchNetlist, CellLibrary, ConeReplay, RunBudget, Simulator};
use mis_testkit::alloc::{self, CountingAllocator};
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, TraceArena};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

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

fn fixture(name: &str) -> BenchNetlist {
    let text =
        std::fs::read_to_string(workspace_root().join("data/bench").join(name)).expect("fixture");
    BenchNetlist::parse(&text).expect("fixture parses")
}

fn traffic(n: usize, seed: u64) -> Vec<DigitalTrace> {
    (0..n)
        .map(|i| {
            let pair = TraceConfig::new(ps(400.0), ps(150.0), Assignment::Local, 40)
                .generate(seed + i as u64)
                .expect("trace generation");
            if i % 2 == 0 {
                pair.a
            } else {
                pair.b
            }
        })
        .collect()
}

#[test]
fn warm_simulator_run_in_is_allocation_free() {
    let cells = committed_cells();
    for (file, seed) in [
        ("c432.bench", 0x432),
        ("c880.bench", 0x880),
        ("c17.bench", 0xC17),
    ] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let mut sim = Simulator::new(&lowered.net).expect("engine construction");
        let mut arena = TraceArena::new();
        // Warm-up: sizes the arena storage; also pins down the edge
        // counts a repeat run must hit.
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let warm_edges = arena.total_edges();
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                sim.run_in(&inputs, &mut arena).expect("steady-state run");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: steady-state Simulator::run_in allocated {allocations} times"
        );
        assert_eq!(arena.total_edges(), warm_edges, "{file}: reproducible");
    }
}

#[test]
fn warm_probed_simulator_run_in_is_allocation_free_and_counts_events() {
    // The zero-allocation contract must survive with a *live* probe
    // attached: counters are preallocated at registration, the census
    // walk reads the sealed arena without building anything, and the
    // span timer records into fixed atomics. Same fixtures, same
    // traffic as the unprobed gate above.
    let cells = committed_cells();
    for (file, seed) in [
        ("c432.bench", 0x432),
        ("c880.bench", 0x880),
        ("c17.bench", 0xC17),
    ] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let probe = Probe::new();
        let mut sim = Simulator::new_probed(&lowered.net, &probe).expect("engine construction");
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let warm_pops = sim.counters().events_popped();
        assert!(warm_pops > 0, "{file}: probe saw the warm-up run");
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                sim.run_in(&inputs, &mut arena).expect("steady-state run");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: steady-state probed run_in allocated {allocations} times"
        );
        // Identical inputs charge identical event counts every run.
        assert_eq!(
            sim.counters().events_popped(),
            warm_pops * 6,
            "{file}: per-run event count is reproducible"
        );
        assert_eq!(sim.counters().runs(), 6, "{file}: six runs recorded");
    }
}

#[test]
fn warm_traced_simulator_run_in_is_allocation_free() {
    // Tracing is held to the same bar as the probe: with a *live*
    // TraceSink attached, a warm run writes every run/gate/seal event
    // into the track's ring buffer — preallocated at registration, so
    // the steady state allocates nothing. (The ring wraps rather than
    // grow: "allocation-bounded" means bounded at construction.)
    let cells = committed_cells();
    for (file, seed) in [
        ("c432.bench", 0x432),
        ("c880.bench", 0x880),
        ("c17.bench", 0xC17),
    ] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let probe = Probe::new();
        let sink = TraceSink::new();
        let mut sim =
            Simulator::new_traced(&lowered.net, &probe, &sink).expect("engine construction");
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                sim.run_in(&inputs, &mut arena).expect("steady-state run");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: steady-state traced run_in allocated {allocations} times"
        );
        let snap = sink.snapshot();
        let track = snap.track("sim").expect("sim track registered");
        assert!(
            !track.events.is_empty(),
            "{file}: traced runs recorded events"
        );
    }
}

#[test]
fn tripped_budget_runs_stay_allocation_free() {
    // The graceful-degradation path is held to the same standard as the
    // happy path: a warm engine re-run under a too-small RunBudget must
    // return SimError::BudgetExceeded without a single heap allocation
    // — the error variant is allocation-free by construction (resource
    // tag + integer limit, no String), and tripping mid-run must not
    // disturb the arena's reset-not-shrink reuse. A full unbudgeted run
    // after each trip stays allocation-free too.
    let cells = committed_cells();
    for (file, seed) in [("c432.bench", 0x432), ("c880.bench", 0x880)] {
        let lowered = fixture(file).lower(&cells).expect("lowering");
        let inputs = traffic(lowered.inputs.len(), seed);
        let mut sim = Simulator::new(&lowered.net).expect("engine construction");
        let mut arena = TraceArena::new();
        sim.run_in(&inputs, &mut arena).expect("warm-up run");
        let warm_edges = arena.total_edges();
        let budget = mis_sim::RunBudget::UNLIMITED.with_max_events(25);
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                match sim.run_budgeted_in(&inputs, &mut arena, &budget) {
                    Err(mis_digital::SimError::BudgetExceeded { .. }) => {}
                    _ => panic!("a 25-event budget must trip on {file}"),
                }
                sim.run_in(&inputs, &mut arena).expect("run after a trip");
            }
        });
        assert_eq!(
            allocations, 0,
            "{file}: tripped-budget cycling allocated {allocations} times"
        );
        assert_eq!(arena.total_edges(), warm_edges, "{file}: reproducible");
    }
}

#[test]
fn warm_cone_replay_of_every_c880_fault_is_allocation_free() {
    // The campaign hot path: every stuck-at site plus the 24 glitches of
    // `fault_sim --glitches 24`, each cone-replayed against one shared
    // golden arena. After one pass over the list has sized the local
    // arena, a second pass allocates nothing.
    let lowered = fixture("c880.bench")
        .lower(&committed_cells())
        .expect("lowering");
    let net = &lowered.net;
    let inputs = traffic(lowered.inputs.len(), 0x5eed);
    let mut golden = TraceArena::new();
    Simulator::new(net)
        .expect("engine construction")
        .run_in(&inputs, &mut golden)
        .expect("golden run");
    let mut faults = stuck_at_sites(net);
    faults.extend((0..24).map(|i| {
        let id = net.signal_id((i * 7 + 3) % net.signal_count()).unwrap();
        FaultSite::glitch(
            id,
            ps(100.0 + 83.0 * i as f64),
            ps(20.0 + 10.0 * (i % 5) as f64),
        )
        .expect("glitch site")
    }));
    let mut replay = ConeReplay::new(net).expect("replay state");
    let mut local = TraceArena::new();
    let pass = |replay: &mut ConeReplay, local: &mut TraceArena| {
        let mut reevaluated = 0;
        for site in &faults {
            let overlay = FaultOverlay::new(*site);
            replay
                .replay(&golden, local, site.signal, &overlay, &RunBudget::UNLIMITED)
                .expect("replay");
            reevaluated += replay.reevaluated();
        }
        reevaluated
    };
    let warm = pass(&mut replay, &mut local);
    assert!(warm > 0, "the faults reach their cones");
    let (allocations, again) = alloc::count_in(|| pass(&mut replay, &mut local));
    assert_eq!(
        allocations, 0,
        "warm cone replay allocated {allocations} times"
    );
    assert_eq!(again, warm, "reproducible");
}

#[test]
fn worker_thread_allocations_stay_off_this_threads_count() {
    // The counting allocator is thread-local by design: a zero-allocation
    // assertion is a claim about the asserting thread's own hot path, not
    // about the process. Pin that down — a spawned worker allocating
    // freely must not disturb a serial-scoped `count_in`, which is
    // exactly why campaign worker threads (and any parallel test
    // runner) cannot pollute the engine's gate above.
    let (allocations, ()) = alloc::count_in(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let v: Vec<u64> = (0..4096).collect();
                assert_eq!(v.len(), 4096);
            });
        });
    });
    // The scope machinery itself allocates on this thread (thread spawn),
    // but the worker's 4096-element Vec must not be attributed here.
    assert!(
        allocations < 32,
        "worker-thread allocations leaked into the spawning thread's count: {allocations}"
    );
}
