//! Property-based tests for the delay channels: involution axioms,
//! cancellation sanity, well-formedness of channel outputs under random
//! traffic, hybrid-channel causality, and bit-identity of the arena
//! engine (`Network::run_in`, the `*_into` channel kernels) against the
//! legacy allocating composition. On the in-repo `mis-testkit` harness
//! (offline replacement for `proptest`).

use std::sync::OnceLock;

use mis_charlib::{CharConfig, CharLib};
use mis_core::NorParams;
use mis_digital::{
    gates, involution, CachedHybridChannel, ChannelCounters, ExpChannel, GateKind,
    HybridNorChannel, InertialChannel, NandDual, Network, PureDelayChannel, SumExpChannel,
    TraceTransform, TwoInputTransform,
};
use mis_testkit::prelude::*;
use mis_testkit::rng::TestRng;
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf, TraceArena};

/// The original proptest suite ran these properties at 48 cases each.
const CASES: u32 = 48;

/// Random well-formed trace with gaps on the gate-delay scale.
fn trace(max_edges: usize) -> impl Strategy<Value = DigitalTrace> {
    (any_bool(), vec(5e-12..400e-12f64, 0..max_edges)).prop_map(|(init, gaps)| {
        let mut t = 100e-12;
        let mut v = init;
        let mut trace = DigitalTrace::constant(init);
        for g in gaps {
            t += g;
            v = !v;
            trace.push_edge(t, v).expect("monotone");
        }
        trace
    })
}

#[test]
fn exp_channel_involution_for_random_parameters() {
    Config::with_cases(CASES).run(
        &(20e-12..120e-12f64, 20e-12..120e-12f64, 0.0..15e-12f64),
        |&(sis_up, sis_down, dp)| {
            prop_assume!(sis_up > dp + 1e-12 && sis_down > dp + 1e-12);
            let ch = ExpChannel::from_sis_delays(sis_up, sis_down, dp).unwrap();
            for i in 0..20 {
                let t = -20e-12 + 10e-12 * i as f64;
                let d = ch.delta_up(t);
                if d.is_finite() {
                    let back = -ch.delta_down(-d);
                    // Tolerance: the ln/exp round trip amplifies f64 rounding
                    // when T ≫ τ; one attosecond absolute + 1e-6 relative is
                    // far below any physical significance.
                    prop_assert!(
                        (back - t).abs() < 1e-18 + 1e-6 * t.abs(),
                        "pair involution broken at T={t:e}: {back:e}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn sumexp_involution_for_random_shapes() {
    Config::with_cases(CASES).run(
        &(0.1..0.9f64, 1.2..8.0f64, 30e-12..100e-12f64),
        |&(a, ratio, sis)| {
            let ch = SumExpChannel::from_sis_delay(sis, 10e-12, a, ratio).unwrap();
            let rep = involution::check(|t| ch.delta(t), -15e-12, 300e-12, 60);
            prop_assert!(
                rep.holds(ps(0.05)),
                "worst violation {:e} at {:e}",
                rep.worst_violation,
                rep.worst_at
            );
            Ok(())
        },
    );
}

#[test]
fn channels_produce_wellformed_output_on_random_traffic() {
    Config::with_cases(CASES).run(&trace(12), |input| {
        // Well-formedness is enforced by DigitalTrace construction inside
        // each channel; additionally: outputs are causal.
        let first_in = input.edges().first().map(|e| e.time);
        let channels: Vec<Box<dyn TraceTransform>> = vec![
            Box::new(InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap()),
            Box::new(ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(15.0)).unwrap()),
            Box::new(SumExpChannel::from_sis_delay(ps(50.0), ps(15.0), 0.7, 3.0).unwrap()),
        ];
        for ch in &channels {
            let out = ch.apply(input).unwrap();
            prop_assert_eq!(out.initial_value(), input.initial_value(), "{}", ch.name());
            if let (Some(t_in), Some(first_out)) = (first_in, out.edges().first()) {
                prop_assert!(first_out.time > t_in, "{} output precedes input", ch.name());
            }
            prop_assert!(
                out.transition_count() <= input.transition_count(),
                "{} created transitions",
                ch.name()
            );
        }
        Ok(())
    });
}

#[test]
fn hybrid_channel_causal_and_wellformed() {
    Config::with_cases(CASES).run(&(trace(8), trace(8)), |(a, b)| {
        let ch = HybridNorChannel::new(&NorParams::paper_table1()).unwrap();
        let out = ch.apply2(a, b).unwrap();
        // Initial value consistent with NOR of initial inputs.
        prop_assert_eq!(
            out.initial_value(),
            !(a.initial_value() || b.initial_value())
        );
        // Causality: no output edge before the first input edge + δ_min.
        let first_in = a
            .edges()
            .first()
            .map(|e| e.time)
            .into_iter()
            .chain(b.edges().first().map(|e| e.time))
            .fold(f64::INFINITY, f64::min);
        if let Some(first_out) = out.edges().first() {
            prop_assert!(first_out.time >= first_in + NorParams::paper_table1().delta_min - 1e-18);
        }
        Ok(())
    });
}

#[test]
fn hybrid_channel_monotone_under_time_shift() {
    Config::with_cases(CASES).run(
        &(trace(6), trace(6), 0.0..1e-9f64),
        |&(ref a, ref b, dt)| {
            // Time-invariance: shifting both inputs shifts the output.
            let ch = HybridNorChannel::new(&NorParams::paper_table1()).unwrap();
            let out = ch.apply2(a, b).unwrap();
            let out_shifted = ch.apply2(&a.shifted(dt), &b.shifted(dt)).unwrap();
            prop_assert_eq!(out.transition_count(), out_shifted.transition_count());
            for (e1, e2) in out.edges().iter().zip(out_shifted.edges()) {
                prop_assert!(
                    (e2.time - e1.time - dt).abs() < 1e-15,
                    "shift broken: {:e} vs {:e} + {dt:e}",
                    e2.time,
                    e1.time
                );
                prop_assert_eq!(e1.rising, e2.rising);
            }
            Ok(())
        },
    );
}

/// Characterized NOR library for the cached channels, built once (quick
/// config — enough for bit-identity checks, which compare the cached
/// channel against itself along two code paths, not against the exact
/// model).
fn shared_lib() -> &'static CharLib {
    static LIB: OnceLock<CharLib> = OnceLock::new();
    LIB.get_or_init(|| {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
    })
}

/// Random trace on a 5 ps grid, so exactly-simultaneous edges across
/// independently generated traces are common (the tie-handling paths of
/// the gate merge), including empty traces.
fn grid_trace(rng: &mut TestRng, max_edges: u64) -> DigitalTrace {
    let n = rng.gen_u64_below(max_edges + 1);
    let init = rng.gen_bool(0.5);
    let mut trace = DigitalTrace::constant(init);
    let mut ticks: u64 = 0;
    let mut v = init;
    for _ in 0..n {
        ticks += 1 + rng.gen_u64_below(40);
        v = !v;
        trace
            .push_edge(ps(100.0) + ticks as f64 * ps(5.0), v)
            .expect("monotone");
    }
    trace
}

/// One randomly generated gate of a netlist spec.
#[derive(Debug, Clone)]
enum SpecGate {
    /// BUF/NOT with an optional single-input channel.
    Unary { not: bool, src: usize, ch: usize },
    /// Binary zero-time gate with an optional single-input channel.
    Binary {
        kind: GateKind,
        a: usize,
        b: usize,
        ch: usize,
    },
    /// Cached hybrid two-input channel gate (NOR or NAND via duality).
    Cached { nand: bool, a: usize, b: usize },
}

/// Channel palette index → fresh allocating channel (`None` = no channel).
fn spec_channel(ch: usize) -> Option<Box<dyn TraceTransform>> {
    match ch {
        0 => None,
        1 => Some(Box::new(PureDelayChannel::new(ps(7.0)).unwrap())),
        2 => Some(Box::new(
            InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap(),
        )),
        3 => Some(Box::new(
            ExpChannel::from_sis_delays(ps(50.0), ps(38.0), ps(15.0)).unwrap(),
        )),
        _ => Some(Box::new(
            SumExpChannel::from_sis_delay(ps(50.0), ps(15.0), 0.7, 3.0).unwrap(),
        )),
    }
}

fn random_spec(rng: &mut TestRng) -> (usize, Vec<SpecGate>) {
    const BINARY: [GateKind; 5] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
    ];
    let n_inputs = 1 + rng.gen_u64_below(3) as usize;
    let n_gates = 1 + rng.gen_u64_below(6) as usize;
    let mut gates = Vec::with_capacity(n_gates);
    for g in 0..n_gates {
        let pick = |rng: &mut TestRng| rng.gen_u64_below((n_inputs + g) as u64) as usize;
        gates.push(match rng.gen_u64_below(4) {
            0 => SpecGate::Unary {
                not: rng.gen_bool(0.5),
                src: pick(rng),
                ch: rng.gen_u64_below(5) as usize,
            },
            1 | 2 => SpecGate::Binary {
                kind: BINARY[rng.gen_u64_below(5) as usize],
                a: pick(rng),
                b: pick(rng),
                ch: rng.gen_u64_below(5) as usize,
            },
            _ => SpecGate::Cached {
                nand: rng.gen_bool(0.5),
                a: pick(rng),
                b: pick(rng),
            },
        });
    }
    (n_inputs, gates)
}

/// Builds the spec as a [`Network`].
fn build_network(n_inputs: usize, spec: &[SpecGate]) -> Network {
    let mut net = Network::new();
    let mut ids = Vec::new();
    for i in 0..n_inputs {
        ids.push(net.add_input(&format!("in{i}")).unwrap());
    }
    for (g, gate) in spec.iter().enumerate() {
        let name = format!("g{g}");
        let id = match *gate {
            SpecGate::Unary { not, src, ch } => net
                .add_gate(
                    &name,
                    if not { GateKind::Not } else { GateKind::Buf },
                    &[ids[src]],
                    spec_channel(ch),
                )
                .unwrap(),
            SpecGate::Binary { kind, a, b, ch } => net
                .add_gate(&name, kind, &[ids[a], ids[b]], spec_channel(ch))
                .unwrap(),
            SpecGate::Cached { nand, a, b } => {
                let channel: Box<dyn TwoInputTransform> = if nand {
                    Box::new(NandDual::new(
                        CachedHybridChannel::new(shared_lib()).unwrap(),
                    ))
                } else {
                    Box::new(CachedHybridChannel::new(shared_lib()).unwrap())
                };
                net.add_two_input_channel_gate(&name, [ids[a], ids[b]], channel)
                    .unwrap()
            }
        };
        ids.push(id);
    }
    net
}

/// Evaluates the spec through the legacy allocating building blocks only
/// (`gates::*`, `TraceTransform::apply`, `TwoInputTransform::apply2`) —
/// the reference the arena engine must reproduce bit for bit.
fn eval_reference(
    n_inputs: usize,
    spec: &[SpecGate],
    inputs: &[DigitalTrace],
) -> Vec<DigitalTrace> {
    let mut traces: Vec<DigitalTrace> = inputs[..n_inputs].to_vec();
    for gate in spec {
        let next = match *gate {
            SpecGate::Unary { not, src, ch } => {
                let ideal = if not {
                    gates::not(&traces[src]).unwrap()
                } else {
                    gates::map1(|x| x, &traces[src]).unwrap()
                };
                match spec_channel(ch) {
                    Some(c) => c.apply(&ideal).unwrap(),
                    None => ideal,
                }
            }
            SpecGate::Binary { kind, a, b, ch } => {
                let (x, y) = (&traces[a], &traces[b]);
                let ideal = match kind {
                    GateKind::And => gates::and(x, y),
                    GateKind::Or => gates::or(x, y),
                    GateKind::Nand => gates::nand(x, y),
                    GateKind::Nor => gates::nor(x, y),
                    GateKind::Xor => gates::xor(x, y),
                    _ => unreachable!("binary spec"),
                }
                .unwrap();
                match spec_channel(ch) {
                    Some(c) => c.apply(&ideal).unwrap(),
                    None => ideal,
                }
            }
            SpecGate::Cached { nand, a, b } => {
                if nand {
                    NandDual::new(CachedHybridChannel::new(shared_lib()).unwrap())
                        .apply2(&traces[a], &traces[b])
                        .unwrap()
                } else {
                    CachedHybridChannel::new(shared_lib())
                        .unwrap()
                        .apply2(&traces[a], &traces[b])
                        .unwrap()
                }
            }
        };
        traces.push(next);
    }
    traces
}

#[test]
fn run_in_bit_identical_to_legacy_composition_on_random_netlists() {
    // The arena engine (SoA views, fused gate + channel passes, in-place
    // kernels, implicit polarities) must be *bit-identical* to composing
    // the allocating building blocks — for every channel kind, including
    // empty traces and exactly-simultaneous edges across inputs.
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let (n_inputs, spec) = random_spec(&mut rng);
        let inputs: Vec<DigitalTrace> = (0..n_inputs).map(|_| grid_trace(&mut rng, 8)).collect();
        let net = build_network(n_inputs, &spec);

        let reference = eval_reference(n_inputs, &spec, &inputs);
        let via_run = net.run(&inputs).unwrap();
        let mut arena = TraceArena::new();
        net.run_in(&inputs, &mut arena).unwrap();
        // A second run on the warm arena must reproduce the first (the
        // reuse contract: reset + reuse, no stale state).
        net.run_in(&inputs, &mut arena).unwrap();

        prop_assert_eq!(via_run.len(), reference.len(), "spec {spec:?}");
        prop_assert_eq!(arena.trace_count(), reference.len());
        for (i, want) in reference.iter().enumerate() {
            prop_assert_eq!(&via_run[i], want, "run: signal {i} diverged, spec {spec:?}");
            prop_assert_eq!(
                &arena.to_trace(i),
                want,
                "run_in: signal {i} diverged, spec {spec:?}"
            );
        }
        Ok(())
    });
}

#[test]
fn apply_into_bit_identical_to_apply_for_every_channel() {
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let input = grid_trace(&mut rng, 12);
        let mut view = EdgeBuf::new();
        view.copy_trace(&input);
        let mut out = EdgeBuf::new();
        for ch in 1..5 {
            let c = spec_channel(ch).unwrap();
            let want = c.apply(&input).unwrap();
            c.apply_into(view.as_ref(), &mut out, ChannelCounters::disabled())
                .unwrap();
            prop_assert_eq!(out.to_trace(), want, "channel {}", c.name());
        }
        Ok(())
    });
}

#[test]
fn apply2_into_bit_identical_to_apply2_for_cached_channels() {
    Config::with_cases(CASES).run(&(0u64..u64::MAX), |&seed| {
        let mut rng = TestRng::seed_from_u64(seed);
        let (a, b) = (grid_trace(&mut rng, 10), grid_trace(&mut rng, 10));
        let (mut va, mut vb) = (EdgeBuf::new(), EdgeBuf::new());
        va.copy_trace(&a);
        vb.copy_trace(&b);
        let mut out = EdgeBuf::new();

        let nor = CachedHybridChannel::new(shared_lib()).unwrap();
        nor.apply2_into(
            va.as_ref(),
            vb.as_ref(),
            &mut out,
            ChannelCounters::disabled(),
        )
        .unwrap();
        prop_assert_eq!(out.to_trace(), nor.apply2(&a, &b).unwrap(), "cached NOR");

        let nand = NandDual::new(CachedHybridChannel::new(shared_lib()).unwrap());
        nand.apply2_into(
            va.as_ref(),
            vb.as_ref(),
            &mut out,
            ChannelCounters::disabled(),
        )
        .unwrap();
        prop_assert_eq!(out.to_trace(), nand.apply2(&a, &b).unwrap(), "cached NAND");
        Ok(())
    });
}

#[test]
fn zero_time_gates_satisfy_boolean_algebra() {
    Config::with_cases(CASES).run(&(trace(6), trace(6)), |(a, b)| {
        // De Morgan over traces: NOR(a,b) == AND(¬a, ¬b).
        let lhs = gates::nor(a, b).unwrap();
        let rhs = gates::and(&gates::not(a).unwrap(), &gates::not(b).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
        // Idempotence: OR(a, a) == a.
        prop_assert_eq!(&gates::or(a, a).unwrap(), a);
        Ok(())
    });
}

#[test]
fn pure_delay_commutes_with_gates() {
    Config::with_cases(CASES).run(
        &(trace(6), trace(6), 0.0..100e-12f64),
        |&(ref a, ref b, d)| {
            // Delaying both inputs then NOR-ing equals NOR-ing then delaying.
            let ch = mis_digital::PureDelayChannel::new(d).unwrap();
            let path1 = gates::nor(&ch.apply(a).unwrap(), &ch.apply(b).unwrap()).unwrap();
            let path2 = ch.apply(&gates::nor(a, b).unwrap()).unwrap();
            prop_assert_eq!(path1, path2);
            Ok(())
        },
    );
}
