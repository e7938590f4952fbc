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
use mis_digital::netlists::{self, CachedHybridFactory};
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
    let mut factory = CachedHybridFactory::new(&lib).unwrap();
    let chain = netlists::ripple_chain(GateKind::Nor, 8, &mut factory).unwrap();
    let c17 = netlists::c17(&mut factory).unwrap();
    let tree = netlists::fanout_tree(4, &mut || {
        Some(Box::new(InertialChannel::symmetric(ps(30.0), ps(30.0)).unwrap()) as Box<_>)
    })
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
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let inertial = InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap();
    let inputs = traffic(0xF00);
    let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
    abuf.copy_trace(&inputs[0]);
    bbuf.copy_trace(&inputs[1]);
    let mut out = EdgeBuf::new();
    // Warm-up.
    use mis_digital::TwoInputTransform;
    cached
        .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
        .unwrap();
    inertial.apply_into(abuf.as_ref(), &mut out).unwrap();
    let (allocations, ()) = alloc::count_in(|| {
        cached
            .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut out)
            .unwrap();
        inertial.apply_into(abuf.as_ref(), &mut out).unwrap();
    });
    assert_eq!(
        allocations, 0,
        "warm apply_into allocated {allocations} times"
    );
}

#[test]
fn warm_probed_channel_applies_are_allocation_free_and_count_events() {
    // The probed entry points carry the same zero-allocation guarantee
    // as the unprobed ones: metric *registration* is the cold path that
    // may allocate; *recording* is atomic updates only.
    use mis_digital::{ChannelCounters, TwoInputTransform};
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let inertial = InertialChannel::symmetric(ps(45.0), ps(35.0)).unwrap();
    let probe = mis_probe::Probe::new();
    let stats = ChannelCounters::register(&probe);
    let inputs = traffic(0xB0B);
    let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
    abuf.copy_trace(&inputs[0]);
    bbuf.copy_trace(&inputs[1]);
    let mut out = EdgeBuf::new();
    // Warm-up (also sizes the buffers).
    cached
        .apply2_into_probed(abuf.as_ref(), bbuf.as_ref(), &mut out, &stats)
        .unwrap();
    inertial
        .apply_into_probed(abuf.as_ref(), &mut out, &stats)
        .unwrap();
    let before_lookups = stats.table_lookups();
    assert!(
        before_lookups > 0,
        "dense traffic must walk the MIS surfaces"
    );
    let (allocations, ()) = alloc::count_in(|| {
        for _ in 0..5 {
            cached
                .apply2_into_probed(abuf.as_ref(), bbuf.as_ref(), &mut out, &stats)
                .unwrap();
            inertial
                .apply_into_probed(abuf.as_ref(), &mut out, &stats)
                .unwrap();
        }
    });
    assert_eq!(
        allocations, 0,
        "warm probed applies allocated {allocations} times"
    );
    // Counters are cumulative and deterministic: five identical
    // applications add five times the warm-up's totals.
    assert_eq!(stats.table_lookups(), 6 * before_lookups);
}

#[test]
fn probed_and_unprobed_paths_produce_identical_traces() {
    use mis_digital::{ChannelCounters, TwoInputTransform};
    let lib = quick_lib();
    let cached = CachedHybridChannel::new(&lib).unwrap();
    let probe = mis_probe::Probe::new();
    let stats = ChannelCounters::register(&probe);
    for seed in [0x1u64, 0x2, 0x3, 0x44] {
        let inputs = traffic(seed);
        let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
        abuf.copy_trace(&inputs[0]);
        bbuf.copy_trace(&inputs[1]);
        let (mut plain, mut probed) = (EdgeBuf::new(), EdgeBuf::new());
        cached
            .apply2_into(abuf.as_ref(), bbuf.as_ref(), &mut plain)
            .unwrap();
        cached
            .apply2_into_probed(abuf.as_ref(), bbuf.as_ref(), &mut probed, &stats)
            .unwrap();
        assert_eq!(plain.to_trace(), probed.to_trace(), "seed {seed:#x}");
    }
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
