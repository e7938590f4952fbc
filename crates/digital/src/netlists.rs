//! Benchmark netlist builders: small standard circuits for exercising
//! [`Network`] at circuit scale — the workload of the interconnected-gates
//! follow-up paper and of standard-cell characterization flows.
//!
//! Three topologies with distinct event-flow shapes:
//!
//! * [`ripple_chain`] — a depth-`n` chain of two-input gates where each
//!   stage reconverges with a shared side input: serial event propagation,
//!   the worst case for per-gate overhead.
//! * [`c17`] — the classic ISCAS-85 C17 cut: six NAND2 gates, five
//!   inputs, two outputs, with fan-out and reconvergence.
//! * [`fanout_tree`] — a complete inverter tree: one input driving
//!   `2^depth − 1` gates, the pure fan-out extreme.
//!
//! Each builder is parameterized over a [`GateFactory`], which decides
//! how every two-input gate realizes its function and timing: a zero-time
//! gate followed by a single-input channel ([`ChannelPerGate`]), or a
//! two-input channel gate carrying the MIS-aware hybrid fast path
//! ([`CachedHybridFactory`]). The same topology can therefore be timed
//! under every delay model the workspace implements.

use std::sync::Arc;

use mis_charlib::CharLib;

use crate::channels::{TraceTransform, TwoInputTransform};
use crate::{CachedHybridChannel, CachedHybridNandChannel, GateKind, Network, SignalId, SimError};

/// A built benchmark circuit: the network plus its primary input and
/// output signal handles.
#[derive(Debug)]
pub struct BuiltNetlist {
    /// The feed-forward network.
    pub net: Network,
    /// Primary inputs, in declaration order.
    pub inputs: Vec<SignalId>,
    /// Designated outputs.
    pub outputs: Vec<SignalId>,
}

/// Supplies the realization of each two-input gate in a built netlist.
pub trait GateFactory {
    /// Adds one `kind` gate over `(a, b)` to `net` and returns its output
    /// signal.
    ///
    /// # Errors
    ///
    /// Propagates [`Network`] validation failures; implementations may
    /// also reject unsupported gate kinds.
    fn add(
        &mut self,
        net: &mut Network,
        name: &str,
        kind: GateKind,
        a: SignalId,
        b: SignalId,
    ) -> Result<SignalId, SimError>;
}

/// Realizes every gate as a zero-time Boolean gate followed by a fresh
/// single-input channel from the wrapped closure (`None` for ideal
/// zero-delay gates).
pub struct ChannelPerGate<F: FnMut() -> Option<Box<dyn TraceTransform>>>(pub F);

impl<F: FnMut() -> Option<Box<dyn TraceTransform>>> GateFactory for ChannelPerGate<F> {
    fn add(
        &mut self,
        net: &mut Network,
        name: &str,
        kind: GateKind,
        a: SignalId,
        b: SignalId,
    ) -> Result<SignalId, SimError> {
        net.add_gate(name, kind, &[a, b], (self.0)())
    }
}

/// Realizes NOR and NAND gates as cached hybrid two-input channel gates
/// built from one characterized NOR library (NAND through the analog
/// duality). The library is resampled **once** at factory construction
/// and held behind an [`Arc`]: every gate instance added by the factory
/// references the same ~20 KiB table set (a refcount bump per gate, not
/// a flat copy — at C432 scale the sharing is what keeps the resampled
/// surfaces cache-resident). Other gate kinds are rejected — the hybrid
/// model exists for the coupled pull-up/pull-down gates only.
#[derive(Debug, Clone)]
pub struct CachedHybridFactory {
    nor: Arc<CachedHybridChannel>,
    nand: CachedHybridNandChannel,
}

impl CachedHybridFactory {
    /// Creates the factory from a characterized **NOR** library.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Network`] for a non-NOR library.
    pub fn new(lib: &CharLib) -> Result<Self, SimError> {
        Ok(Self::from_shared(Arc::new(CachedHybridChannel::new(lib)?)))
    }

    /// Creates the factory around an already-shared table set (the same
    /// `Arc` a `mis-sim` cell library hands out), adding no copies.
    #[must_use]
    pub fn from_shared(nor: Arc<CachedHybridChannel>) -> Self {
        let nand = CachedHybridNandChannel::from_shared(Arc::clone(&nor));
        CachedHybridFactory { nor, nand }
    }

    /// The shared NOR table set driving every gate this factory adds.
    #[must_use]
    pub fn shared(&self) -> &Arc<CachedHybridChannel> {
        &self.nor
    }
}

impl GateFactory for CachedHybridFactory {
    fn add(
        &mut self,
        net: &mut Network,
        name: &str,
        kind: GateKind,
        a: SignalId,
        b: SignalId,
    ) -> Result<SignalId, SimError> {
        let channel: Box<dyn TwoInputTransform> = match kind {
            GateKind::Nor => Box::new(Arc::clone(&self.nor)),
            GateKind::Nand => Box::new(self.nand.clone()),
            other => {
                return Err(SimError::Network {
                    reason: format!("no cached hybrid model for {other:?} gates"),
                })
            }
        };
        net.add_two_input_channel_gate(name, [a, b], channel)
    }
}

/// A chain of `stages` two-input `kind` gates: stage 0 combines the two
/// primary inputs, every later stage combines the previous stage's output
/// with primary input `b` (a reconvergent side input, so every stage sees
/// genuine multi-input switching). The single output is the last stage.
///
/// # Errors
///
/// Returns [`SimError::Network`] for zero stages, a unary `kind`, or
/// factory failures.
pub fn ripple_chain(
    kind: GateKind,
    stages: usize,
    factory: &mut dyn GateFactory,
) -> Result<BuiltNetlist, SimError> {
    if stages == 0 || kind.arity() != 2 {
        return Err(SimError::Network {
            reason: format!(
                "ripple_chain needs a binary gate and ≥1 stages (got {kind:?} × {stages})"
            ),
        });
    }
    let mut net = Network::new();
    let a = net.add_input("a")?;
    let b = net.add_input("b")?;
    let mut prev = factory.add(&mut net, "s0", kind, a, b)?;
    for s in 1..stages {
        prev = factory.add(&mut net, &format!("s{s}"), kind, prev, b)?;
    }
    Ok(BuiltNetlist {
        net,
        inputs: vec![a, b],
        outputs: vec![prev],
    })
}

/// The ISCAS-85 **C17** benchmark cut: five inputs, six NAND2 gates, two
/// outputs, with fan-out (`g11` drives three gates) and reconvergence.
///
/// ```text
/// g10 = NAND(in1, in3)      g16 = NAND(in2, g11)     g22 = NAND(g10, g16)
/// g11 = NAND(in3, in6)      g19 = NAND(g11, in7)     g23 = NAND(g16, g19)
/// ```
///
/// # Errors
///
/// Propagates factory failures.
pub fn c17(factory: &mut dyn GateFactory) -> Result<BuiltNetlist, SimError> {
    let mut net = Network::new();
    let in1 = net.add_input("in1")?;
    let in2 = net.add_input("in2")?;
    let in3 = net.add_input("in3")?;
    let in6 = net.add_input("in6")?;
    let in7 = net.add_input("in7")?;
    let g10 = factory.add(&mut net, "g10", GateKind::Nand, in1, in3)?;
    let g11 = factory.add(&mut net, "g11", GateKind::Nand, in3, in6)?;
    let g16 = factory.add(&mut net, "g16", GateKind::Nand, in2, g11)?;
    let g19 = factory.add(&mut net, "g19", GateKind::Nand, g11, in7)?;
    let g22 = factory.add(&mut net, "g22", GateKind::Nand, g10, g16)?;
    let g23 = factory.add(&mut net, "g23", GateKind::Nand, g16, g19)?;
    Ok(BuiltNetlist {
        net,
        inputs: vec![in1, in2, in3, in6, in7],
        outputs: vec![g22, g23],
    })
}

/// A complete binary inverter tree of the given depth: one primary input
/// drives `2^depth − 1` NOT gates; the `2^(depth−1)` leaves are the
/// outputs. Every gate gets a fresh channel from `channel` (`None` for
/// zero-delay inverters).
///
/// # Errors
///
/// Returns [`SimError::Network`] for zero depth; propagates network
/// validation failures.
pub fn fanout_tree(
    depth: usize,
    channel: &mut dyn FnMut() -> Option<Box<dyn TraceTransform>>,
) -> Result<BuiltNetlist, SimError> {
    if depth == 0 {
        return Err(SimError::Network {
            reason: "fanout_tree needs depth ≥ 1".into(),
        });
    }
    let mut net = Network::new();
    let x = net.add_input("x")?;
    let mut level = vec![x];
    for d in 0..depth {
        let mut next = Vec::with_capacity(level.len() * 2);
        for (i, &src) in level.iter().enumerate() {
            for half in 0..2 {
                let id = net.add_gate(
                    &format!("n{d}_{}", 2 * i + half),
                    GateKind::Not,
                    &[src],
                    channel(),
                )?;
                next.push(id);
            }
        }
        level = next;
    }
    Ok(BuiltNetlist {
        net,
        inputs: vec![x],
        outputs: level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InertialChannel;
    use mis_charlib::CharConfig;
    use mis_core::NorParams;
    use mis_waveform::units::ps;
    use mis_waveform::{DigitalTrace, TraceArena};

    fn zero_time() -> ChannelPerGate<impl FnMut() -> Option<Box<dyn TraceTransform>>> {
        ChannelPerGate(|| None)
    }

    fn quick_lib() -> CharLib {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
    }

    #[test]
    fn c17_truth_table_on_constant_inputs() {
        let built = c17(&mut zero_time()).unwrap();
        // Exhaustive over all 32 input combinations: constant traces
        // propagate as initial values through zero-time NANDs.
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let inputs: Vec<DigitalTrace> = v.iter().map(|&x| DigitalTrace::constant(x)).collect();
            let traces = built.net.run(&inputs).unwrap();
            let nand = |x: bool, y: bool| !(x && y);
            let g10 = nand(v[0], v[2]);
            let g11 = nand(v[2], v[3]);
            let g16 = nand(v[1], g11);
            let g19 = nand(g11, v[4]);
            assert_eq!(
                traces[built.outputs[0].index()].initial_value(),
                nand(g10, g16),
                "out22 for bits {bits:05b}"
            );
            assert_eq!(
                traces[built.outputs[1].index()].initial_value(),
                nand(g16, g19),
                "out23 for bits {bits:05b}"
            );
        }
    }

    #[test]
    fn ripple_chain_depth_and_validation() {
        let built = ripple_chain(GateKind::Nor, 8, &mut zero_time()).unwrap();
        assert_eq!(built.net.input_count(), 2);
        assert_eq!(built.outputs.len(), 1);
        assert_eq!(built.outputs[0].index(), 9, "2 inputs + 8 stages");
        assert!(ripple_chain(GateKind::Nor, 0, &mut zero_time()).is_err());
        assert!(ripple_chain(GateKind::Not, 3, &mut zero_time()).is_err());
    }

    #[test]
    fn fanout_tree_shape() {
        let built = fanout_tree(3, &mut || {
            Some(Box::new(InertialChannel::symmetric(ps(10.0), ps(10.0)).unwrap()) as Box<_>)
        })
        .unwrap();
        assert_eq!(built.outputs.len(), 8);
        // 1 input + 2 + 4 + 8 gates.
        let input = DigitalTrace::with_edges(false, vec![(ps(100.0), true)]).unwrap();
        let mut arena = TraceArena::new();
        built.net.run_in(&[input], &mut arena).unwrap();
        assert_eq!(arena.trace_count(), 15);
        for &o in &built.outputs {
            // Depth-3 inversion: odd number of NOTs flips polarity; three
            // 10 ps inertial channels accumulate 30 ps.
            let v = arena.trace(o.index());
            assert!(v.initial_value());
            assert_eq!(v.len(), 1);
            assert!((v.times()[0] - ps(130.0)).abs() < 1e-18);
        }
        assert!(fanout_tree(0, &mut || None).is_err());
    }

    #[test]
    fn cached_factory_builds_hybrid_gates_and_rejects_others() {
        let lib = quick_lib();
        let mut f = CachedHybridFactory::new(&lib).unwrap();
        let chain = ripple_chain(GateKind::Nand, 3, &mut f).unwrap();
        let a = DigitalTrace::with_edges(true, vec![(ps(300.0), false)]).unwrap();
        let b = DigitalTrace::constant(true);
        let traces = chain.net.run(&[a, b]).unwrap();
        // NAND chain with b high: each stage inverts the previous signal.
        let out = &traces[chain.outputs[0].index()];
        assert!(!out.initial_value(), "NAND(1,1) = 0 settled");
        assert_eq!(out.transition_count(), 1);
        assert!(ripple_chain(GateKind::Xor, 2, &mut f).is_err());
    }
}
