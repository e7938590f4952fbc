//! Cell libraries and benchmark netlist builders.
//!
//! [`CellLibrary`] is the one place a gate type gets its timing: the
//! standard-cell view of the delay models. The characterized
//! cached-hybrid table set (~20 KiB of resampled delay surfaces) is held
//! behind one [`Arc`] and every NOR/NAND instance references it (NAND
//! through the free view-inversion duality, [`NandDual`]); every other
//! gate kind is a zero-time gate followed by an optional inertial
//! fallback channel. At C432 scale the sharing is the difference between
//! the tables living in cache and each gate dragging its own copy
//! through memory. `mis-sim` lowers `.bench` circuits through the same
//! library (`mis_sim::CellLibrary` re-exports it).
//!
//! Three builders time small standard circuits under a library — the
//! workload of the interconnected-gates follow-up paper and of
//! standard-cell characterization flows — with distinct event-flow
//! shapes:
//!
//! * [`ripple_chain`] — a depth-`n` chain of two-input gates where each
//!   stage reconverges with a shared side input: serial event propagation,
//!   the worst case for per-gate overhead.
//! * [`c17`] — the classic ISCAS-85 C17 cut: six NAND2 gates, five
//!   inputs, two outputs, with fan-out and reconvergence.
//! * [`fanout_tree`] — a complete inverter tree: one input driving
//!   `2^depth − 1` gates, the pure fan-out extreme.
//!
//! A library built from a committed `mis-charlib` text file skips
//! re-characterization entirely:
//!
//! ```no_run
//! use mis_charlib::CharLib;
//! use mis_digital::netlists::CellLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = std::fs::read_to_string("data/charlib/nor_paper.mislib")?;
//! let lib = CharLib::from_text(&text)?;
//! let cells = CellLibrary::hybrid(&lib, None)?;
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use mis_charlib::CharLib;

use crate::channels::TraceTransform;
use crate::{
    CachedHybridChannel, GateKind, InertialChannel, NandDual, Network, SignalId, SimError,
};

/// A gate-type → timing-realization mapping shared by every gate
/// instance of a netlist.
///
/// Three realizations exist:
///
/// * **ideal** — zero-time gates, no channels (logic checks);
/// * **fallback channel** — a zero-time gate followed by a clone of one
///   prototype [`InertialChannel`] (the channel struct is a few floats;
///   cloning per instance is free compared to table-backed cells);
/// * **cached hybrid** — NOR and NAND realized as two-input channel
///   gates referencing one [`Arc`]-shared [`CachedHybridChannel`] table
///   set (NAND as [`NandDual`] over the same tables).
#[derive(Debug, Clone)]
pub struct CellLibrary {
    nor: Option<Arc<CachedHybridChannel>>,
    fallback: Option<InertialChannel>,
}

impl CellLibrary {
    /// Zero-time gates throughout: pure logic, no delays.
    #[must_use]
    pub fn ideal() -> Self {
        CellLibrary {
            nor: None,
            fallback: None,
        }
    }

    /// Every gate becomes a zero-time gate followed by a clone of
    /// `channel`.
    #[must_use]
    pub fn inertial(channel: InertialChannel) -> Self {
        CellLibrary {
            nor: None,
            fallback: Some(channel),
        }
    }

    /// NOR/NAND gates share one cached-hybrid table set characterized
    /// from `lib` (a **NOR** library); every other gate kind falls back
    /// to `fallback` (zero-time when `None`).
    ///
    /// # Errors
    ///
    /// Propagates [`CachedHybridChannel::new`] failures (non-NOR
    /// library, invalid parameters).
    pub fn hybrid(lib: &CharLib, fallback: Option<InertialChannel>) -> Result<Self, SimError> {
        Ok(CellLibrary {
            nor: Some(Arc::new(CachedHybridChannel::new(lib)?)),
            fallback,
        })
    }

    /// The shared cached-hybrid table set, when this library carries one
    /// (lets tests assert instances share rather than copy).
    #[must_use]
    pub fn shared_tables(&self) -> Option<&Arc<CachedHybridChannel>> {
        self.nor.as_ref()
    }

    /// One fresh fallback channel, boxed for a gate output.
    fn channel(&self) -> Option<Box<dyn TraceTransform>> {
        self.fallback
            .clone()
            .map(|c| Box::new(c) as Box<dyn TraceTransform>)
    }

    /// Adds one two-input `kind` gate realized by this library.
    ///
    /// # Errors
    ///
    /// Propagates [`Network`] validation failures.
    pub fn add(
        &self,
        net: &mut Network,
        name: &str,
        kind: GateKind,
        a: SignalId,
        b: SignalId,
    ) -> Result<SignalId, SimError> {
        match (&self.nor, kind) {
            (Some(nor), GateKind::Nor) => {
                net.add_two_input_channel_gate(name, [a, b], Box::new(Arc::clone(nor)))
            }
            (Some(nor), GateKind::Nand) => net.add_two_input_channel_gate(
                name,
                [a, b],
                Box::new(NandDual::new(Arc::clone(nor))),
            ),
            _ => net.add_gate(name, kind, &[a, b], self.channel()),
        }
    }

    /// Adds one unary `kind` gate (`Not`/`Buf`) realized by this
    /// library (zero-time gate plus the fallback channel, if any).
    ///
    /// # Errors
    ///
    /// Propagates [`Network`] validation failures.
    pub fn add_unary(
        &self,
        net: &mut Network,
        name: &str,
        kind: GateKind,
        input: SignalId,
    ) -> Result<SignalId, SimError> {
        net.add_gate(name, kind, &[input], self.channel())
    }
}

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

/// A chain of `stages` two-input `kind` gates: stage 0 combines the two
/// primary inputs, every later stage combines the previous stage's output
/// with primary input `b` (a reconvergent side input, so every stage sees
/// genuine multi-input switching). The single output is the last stage.
///
/// # Errors
///
/// Returns [`SimError::Network`] for zero stages or a unary `kind`;
/// propagates network validation failures.
pub fn ripple_chain(
    kind: GateKind,
    stages: usize,
    cells: &CellLibrary,
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
    let mut prev = cells.add(&mut net, "s0", kind, a, b)?;
    for s in 1..stages {
        prev = cells.add(&mut net, &format!("s{s}"), kind, prev, b)?;
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
/// Propagates network validation failures.
pub fn c17(cells: &CellLibrary) -> Result<BuiltNetlist, SimError> {
    let mut net = Network::new();
    let in1 = net.add_input("in1")?;
    let in2 = net.add_input("in2")?;
    let in3 = net.add_input("in3")?;
    let in6 = net.add_input("in6")?;
    let in7 = net.add_input("in7")?;
    let g10 = cells.add(&mut net, "g10", GateKind::Nand, in1, in3)?;
    let g11 = cells.add(&mut net, "g11", GateKind::Nand, in3, in6)?;
    let g16 = cells.add(&mut net, "g16", GateKind::Nand, in2, g11)?;
    let g19 = cells.add(&mut net, "g19", GateKind::Nand, g11, in7)?;
    let g22 = cells.add(&mut net, "g22", GateKind::Nand, g10, g16)?;
    let g23 = cells.add(&mut net, "g23", GateKind::Nand, g16, g19)?;
    Ok(BuiltNetlist {
        net,
        inputs: vec![in1, in2, in3, in6, in7],
        outputs: vec![g22, g23],
    })
}

/// A complete binary inverter tree of the given depth: one primary input
/// drives `2^depth − 1` NOT gates; the `2^(depth−1)` leaves are the
/// outputs. Every gate is realized by `cells` (zero-time inverters under
/// [`CellLibrary::ideal`]).
///
/// # Errors
///
/// Returns [`SimError::Network`] for zero depth; propagates network
/// validation failures.
pub fn fanout_tree(depth: usize, cells: &CellLibrary) -> Result<BuiltNetlist, SimError> {
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
                let id = cells.add_unary(
                    &mut net,
                    &format!("n{d}_{}", 2 * i + half),
                    GateKind::Not,
                    src,
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
    use mis_charlib::CharConfig;
    use mis_core::NorParams;
    use mis_waveform::units::ps;
    use mis_waveform::{DigitalTrace, TraceArena};

    fn quick_lib() -> CharLib {
        CharLib::nor(&NorParams::paper_table1(), &CharConfig::quick()).expect("characterization")
    }

    #[test]
    fn c17_truth_table_on_constant_inputs() {
        let built = c17(&CellLibrary::ideal()).unwrap();
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
        let built = ripple_chain(GateKind::Nor, 8, &CellLibrary::ideal()).unwrap();
        assert_eq!(built.net.input_count(), 2);
        assert_eq!(built.outputs.len(), 1);
        assert_eq!(built.outputs[0].index(), 9, "2 inputs + 8 stages");
        assert!(ripple_chain(GateKind::Nor, 0, &CellLibrary::ideal()).is_err());
        assert!(ripple_chain(GateKind::Not, 3, &CellLibrary::ideal()).is_err());
    }

    #[test]
    fn fanout_tree_shape() {
        let cells = CellLibrary::inertial(InertialChannel::symmetric(ps(10.0), ps(10.0)).unwrap());
        let built = fanout_tree(3, &cells).unwrap();
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
        assert!(fanout_tree(0, &CellLibrary::ideal()).is_err());
    }

    #[test]
    fn hybrid_cells_time_a_nand_chain() {
        let cells = CellLibrary::hybrid(&quick_lib(), None).unwrap();
        let chain = ripple_chain(GateKind::Nand, 3, &cells).unwrap();
        let a = DigitalTrace::with_edges(true, vec![(ps(300.0), false)]).unwrap();
        let b = DigitalTrace::constant(true);
        let traces = chain.net.run(&[a, b]).unwrap();
        // NAND chain with b high: each stage inverts the previous signal.
        let out = &traces[chain.outputs[0].index()];
        assert!(!out.initial_value(), "NAND(1,1) = 0 settled");
        assert_eq!(out.transition_count(), 1);
    }

    #[test]
    fn hybrid_cells_share_one_table_set() {
        let cells = CellLibrary::hybrid(&quick_lib(), None).unwrap();
        let tables = Arc::clone(cells.shared_tables().unwrap());
        let before = Arc::strong_count(&tables);
        let mut net = Network::new();
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        for i in 0..16 {
            cells
                .add(&mut net, &format!("g{i}"), GateKind::Nor, a, b)
                .unwrap();
            cells
                .add(&mut net, &format!("h{i}"), GateKind::Nand, a, b)
                .unwrap();
        }
        // Every added gate bumped the refcount instead of copying tables.
        assert_eq!(Arc::strong_count(&tables), before + 32);
    }

    #[test]
    fn hybrid_falls_back_for_non_hybrid_kinds() {
        let cells = CellLibrary::hybrid(
            &quick_lib(),
            Some(InertialChannel::symmetric(ps(10.0), ps(10.0)).unwrap()),
        )
        .unwrap();
        let mut net = Network::new();
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let x = cells.add(&mut net, "x", GateKind::Xor, a, b).unwrap();
        let n = cells.add_unary(&mut net, "n", GateKind::Not, x).unwrap();
        let ta = DigitalTrace::with_edges(false, vec![(ps(100.0), true)]).unwrap();
        let tb = DigitalTrace::constant(false);
        let traces = net.run(&[ta, tb]).unwrap();
        // XOR rises 10 ps after a, the NOT falls 10 ps after that.
        assert!((traces[x.index()].edges()[0].time - ps(110.0)).abs() < 1e-18);
        assert!((traces[n.index()].edges()[0].time - ps(120.0)).abs() < 1e-18);
    }

    #[test]
    fn ideal_library_is_zero_time() {
        let cells = CellLibrary::ideal();
        let mut net = Network::new();
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let y = cells.add(&mut net, "y", GateKind::Nor, a, b).unwrap();
        let ta = DigitalTrace::with_edges(false, vec![(ps(50.0), true)]).unwrap();
        let traces = net.run(&[ta, DigitalTrace::constant(false)]).unwrap();
        assert_eq!(traces[y.index()].edges()[0].time, ps(50.0));
    }
}
