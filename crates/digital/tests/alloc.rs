//! Steady-state allocation-freedom of the arena engine, asserted with
//! the `mis-testkit` counting allocator.
//!
//! The contract under test (see `TraceArena`'s reuse contract): after a
//! warm-up run has sized the arena's buffers, re-running the same network
//! over inputs of the same shape performs **zero** heap allocations —
//! input copy-in, fused ideal-gate passes, every ported channel kernel,
//! and span sealing all reuse warmed storage.
//!
//! This is an integration test (its own binary) precisely so the counting
//! allocator can be installed globally without touching any other target.

use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::netlists::{self, CellLibrary};
use mis_digital::{
    CachedHybridChannel, ExpChannel, GateKind, InertialChannel, Network, PureDelayChannel,
    TraceTransform,
};
use mis_testkit::alloc::{self, CountingAllocator};
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf, TraceArena};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn quick_lib() -> CharLib {
    CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
}

/// A network exercising every ported kernel: input copy-in, zero-time
/// unary and binary gates, fused gate + channel passes (pure, inertial,
/// exp involution), and the cached hybrid two-input scheduler.
fn mixed_network(lib: &CharLib) -> Network {
    let mut net = Network::new();
    let a = net.add_input("a").unwrap();
    let b = net.add_input("b").unwrap();
    let buf = net
        .add_gate(
            "buf",
            GateKind::Buf,
            &[a],
            Some(Box::new(PureDelayChannel::new(ps(5.0)).unwrap())),
        )
        .unwrap();
    let inv = net.add_gate("inv", GateKind::Not, &[b], None).unwrap();
    let nor = net
        .add_gate(
            "nor",
            GateKind::Nor,
            &[buf, inv],
            Some(Box::new(
                InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap(),
            )),
        )
        .unwrap();
    let nand = net
        .add_gate(
            "nand",
            GateKind::Nand,
            &[nor, a],
            Some(Box::new(
                ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(20.0)).unwrap(),
            )),
        )
        .unwrap();
    let hybrid = net
        .add_two_input_channel_gate(
            "hybrid",
            [a, b],
            Box::new(CachedHybridChannel::new(lib).unwrap()),
        )
        .unwrap();
    net.add_gate("xor", GateKind::Xor, &[nand, hybrid], None)
        .unwrap();
    net
}

fn traffic(seed: u64) -> Vec<DigitalTrace> {
    let pair = TraceConfig::new(ps(160.0), ps(60.0), Assignment::Local, 120)
        .generate(seed)
        .expect("trace generation");
    vec![pair.a, pair.b]
}

#[test]
fn warm_run_in_is_allocation_free() {
    let lib = quick_lib();
    let net = mixed_network(&lib);
    let inputs = traffic(0xA11);
    let mut arena = TraceArena::new();
    // Warm-up: sizes the flat time array, span list, staging buffers.
    net.run_in(&inputs, &mut arena).expect("warm-up run");
    let warm_edges = arena.total_edges();
    let (allocations, ()) = alloc::count_in(|| {
        for _ in 0..10 {
            net.run_in(&inputs, &mut arena).expect("steady-state run");
        }
    });
    assert_eq!(
        allocations, 0,
        "steady-state Network::run_in allocated {allocations} times"
    );
    assert_eq!(arena.total_edges(), warm_edges, "runs are reproducible");
}

#[test]
fn warm_netlist_benchmarks_are_allocation_free() {
    let lib = quick_lib();
    let cells = CellLibrary::hybrid(&lib, None).unwrap();
    let chain = netlists::ripple_chain(GateKind::Nor, 8, &cells).unwrap();
    let c17 = netlists::c17(&cells).unwrap();
    let tree = netlists::fanout_tree(
        4,
        &CellLibrary::inertial(InertialChannel::symmetric(ps(30.0), ps(30.0)).unwrap()),
    )
    .unwrap();

    let chain_in = traffic(0xC41);
    let c17_in: Vec<DigitalTrace> = (0..5).flat_map(|i| traffic(0xC17 + i)).take(5).collect();
    let tree_in = vec![traffic(0x7EE).remove(0)];

    let mut arena = TraceArena::new();
    for (built, inputs) in [(&chain, &chain_in), (&c17, &c17_in), (&tree, &tree_in)] {
        built.net.run_in(inputs, &mut arena).expect("warm-up");
        let (allocations, ()) = alloc::count_in(|| {
            built.net.run_in(inputs, &mut arena).expect("steady state");
        });
        assert_eq!(
            allocations, 0,
            "netlist run_in allocated {allocations} times"
        );
    }
}

#[test]
fn warm_channel_apply_into_is_allocation_free() {
    // The guarantee holds for both sinks: metric *registration* is the
    // cold path that may allocate; *recording* is atomic updates only,
    // and the disabled sink drops records after one branch.
    use mis_digital::{ChannelCounters, TwoInputTransform};
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let inertial = InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap();
    let probe = mis_probe::Probe::new();
    let registered = ChannelCounters::register(&probe);
    let inputs = traffic(0xB0B);
    let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
    abuf.copy_trace(&inputs[0]);
    bbuf.copy_trace(&inputs[1]);
    let mut out = EdgeBuf::new();
    for stats in [ChannelCounters::disabled(), &registered] {
        // Warm-up (also sizes the buffers).
        cached
            .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out, stats)
            .unwrap();
        inertial.apply_into(abuf.as_ref(), &mut out, stats).unwrap();
        let warm_lookups = stats.table_lookups();
        let (allocations, ()) = alloc::count_in(|| {
            for _ in 0..5 {
                cached
                    .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out, stats)
                    .unwrap();
                inertial.apply_into(abuf.as_ref(), &mut out, stats).unwrap();
            }
        });
        assert_eq!(
            allocations, 0,
            "warm apply_into allocated {allocations} times"
        );
        // Counters are cumulative and deterministic: five identical
        // applications add five times the warm-up's totals (zero for the
        // disabled sink).
        assert_eq!(stats.table_lookups(), 6 * warm_lookups);
    }
    assert!(
        registered.table_lookups() > 0,
        "dense traffic must walk the MIS surfaces"
    );
}

#[test]
fn counting_allocator_observes_allocations() {
    // Sanity of the harness itself: an allocating closure counts > 0 and
    // the deallocation counter moves with frees.
    let before_dealloc = alloc::thread_deallocations();
    let (n, v) = alloc::count_in(|| vec![1u64; 1000]);
    assert!(n >= 1, "vec allocation must be observed");
    drop(v);
    assert!(alloc::thread_deallocations() > before_dealloc);
}
