//! Cone-only replay: one overlay rewrite re-evaluated through its
//! fan-out cone against a shared golden run — the fault-campaign hot
//! path.
//!
//! A single-site rewrite can only change the traces of signals
//! downstream of the site. [`ConeReplay::replay`] therefore reads the
//! fault-free traces from a **golden** arena (one [`crate::Simulator`]
//! run without an overlay, so its span index equals the signal index)
//! and writes only what differs into a small per-worker **local**
//! arena:
//!
//! 1. the overlay's rewrite of the site's golden trace is sealed first;
//!    if it equals the golden trace, the rewrite is masked at the site
//!    and nothing else runs;
//! 2. the remaining signals are scanned in signal order (topological,
//!    see [`crate::engine`]). A gate is re-evaluated through the shared
//!    per-gate kernel `SignalSource::eval_in` only when one of its
//!    fan-ins is marked changed; its unchanged fan-ins are copied in
//!    from the golden arena first, once per replay;
//! 3. a re-evaluated gate whose new trace equals its golden trace is
//!    truncated off the local arena and not marked changed, so the
//!    replay stops propagating where the rewrite is masked.
//!
//! A gate's output is a pure function of its fan-in traces (every
//! channel is `&self`), and every trace a re-evaluated gate reads equals
//! the one a full [`crate::Simulator::run_controlled_in`] under the same
//! overlay would read, so every signal's replayed trace — the local span
//! of a changed signal, the golden span of any other — is
//! **bit-identical** to the full replay. `mis_fault::fuzz` cross-checks
//! this on random circuits; the `mis-fault` fixture test does on C432
//! and C880.
//!
//! # Budget accounting
//!
//! A replay charges one [`RunBudget`] event for the site plus one per
//! re-evaluated gate, and as edges the site's rewritten edges plus each
//! re-evaluated gate's output edges. The site is charged before the
//! masked-at-site check, so a zero event budget trips every replay.
//!
//! # Allocation
//!
//! The span map, the changed bits and the undo list are sized once at
//! construction, and the local arena is reset (not shrunk) per replay,
//! so a warm replay performs zero heap allocations (asserted by
//! `crates/sim/tests/alloc.rs` over every C880 stuck-at and glitch
//! site).

use mis_digital::{ChannelCounters, Network, SignalId, SimError};
use mis_waveform::{TraceArena, TraceRef};

use crate::budget::{BudgetMeter, RunBudget};
use crate::engine::check_index_width;
use crate::overlay::TraceOverlay;

/// [`ConeReplay`]'s span-map entry for a signal with no local span: its
/// trace is the golden one. A replay seals at most one span per signal
/// and the signal count fits `u32` (checked at construction), so no
/// local span index reaches it.
const GOLDEN: u32 = u32::MAX;

/// Per-worker scratch state of a cone-only replay over a borrowed
/// [`Network`] — see the module docs for the algorithm and the
/// bit-identity argument.
#[derive(Debug)]
pub struct ConeReplay<'n> {
    net: &'n Network,
    /// Local-arena span of each signal sealed there this replay, or
    /// [`GOLDEN`].
    span_of: Vec<u32>,
    /// Whether each signal's replayed trace differs from its golden one.
    changed: Vec<bool>,
    /// Signals whose `span_of`/`changed` entries this replay set: the
    /// next replay resets exactly these.
    undo: Vec<u32>,
    /// Gates re-evaluated by the latest replay.
    reevaluated: usize,
}

impl<'n> ConeReplay<'n> {
    /// Sizes the replay state for `net`.
    ///
    /// # Errors
    ///
    /// [`SimError::NetworkTooLarge`] when the signal count exceeds the
    /// engine's `u32` index width.
    pub fn new(net: &'n Network) -> Result<Self, SimError> {
        let n = net.signal_count();
        check_index_width(n)?;
        Ok(ConeReplay {
            net,
            span_of: vec![GOLDEN; n],
            changed: vec![false; n],
            undo: Vec::with_capacity(n),
            reevaluated: 0,
        })
    }

    /// Replays `overlay`'s rewrite of signal `site` through the site's
    /// fan-out cone, reading fault-free traces from `golden` and sealing
    /// the replayed ones into `local` (reset first). The overlay is
    /// consulted for `site` only. Afterwards [`ConeReplay::changed`] and
    /// [`ConeReplay::trace`] describe the replay until the next one.
    ///
    /// # Errors
    ///
    /// * [`SimError::Network`] — `golden` does not hold exactly one
    ///   span per signal (it must come from an overlay-free run of this
    ///   network).
    /// * [`SimError::BudgetExceeded`] — a budget limit tripped (see the
    ///   module docs for what is charged); `local` stays reusable.
    /// * Propagates overlay rewrite and channel failures.
    ///
    /// # Panics
    ///
    /// Panics for a foreign `site`.
    pub fn replay(
        &mut self,
        golden: &TraceArena,
        local: &mut TraceArena,
        site: SignalId,
        overlay: &dyn TraceOverlay,
        budget: &RunBudget,
    ) -> Result<(), SimError> {
        if golden.trace_count() != self.net.signal_count() {
            return Err(SimError::Network {
                reason: format!(
                    "golden arena holds {} traces for {} signals",
                    golden.trace_count(),
                    self.net.signal_count()
                ),
            });
        }
        for &s in &self.undo {
            self.span_of[s as usize] = GOLDEN;
            self.changed[s as usize] = false;
        }
        self.undo.clear();
        self.reevaluated = 0;
        local.reset();
        let mut meter = BudgetMeter::start(budget);

        let s0 = site.index();
        meter.on_event()?;
        let (_, out, _) = local.stage();
        overlay.rewrite(site, golden.trace(s0), out)?;
        let span = local.seal_out();
        meter.on_edges(local.trace(span).len() as u64)?;
        if local.trace(span) == golden.trace(s0) {
            return Ok(());
        }
        self.seal(s0, span, true);

        let stats = ChannelCounters::disabled();
        for s in s0 + 1..self.net.signal_count() {
            let source = self
                .net
                .source(self.net.signal_id(s).expect("s < signal_count"));
            if !source.inputs().iter().any(|f| self.changed[f.index()]) {
                continue;
            }
            meter.on_event()?;
            self.reevaluated += 1;
            for f in source.inputs() {
                if self.span_of[f.index()] == GOLDEN {
                    let copied = local.push_ref(golden.trace(f.index()));
                    self.seal(f.index(), copied, false);
                }
            }
            let span_of = &self.span_of;
            let (span, _) = source.eval_in(local, |f| span_of[f.index()] as usize, stats)?;
            meter.on_edges(local.trace(span).len() as u64)?;
            if local.trace(span) == golden.trace(s) {
                local.truncate(span);
            } else {
                self.seal(s, span, true);
            }
        }
        Ok(())
    }

    /// Records signal `s`'s local span (lossless: at most one span per
    /// signal, whose count fits `u32`).
    fn seal(&mut self, s: usize, span: usize, changed: bool) {
        self.span_of[s] = span as u32;
        self.changed[s] = changed;
        self.undo.push(s as u32);
    }

    /// Whether the latest replay changed signal `id`'s trace from its
    /// golden trace.
    ///
    /// # Panics
    ///
    /// Panics for a foreign [`SignalId`].
    #[must_use]
    pub fn changed(&self, id: SignalId) -> bool {
        self.changed[id.index()]
    }

    /// Gates the latest replay re-evaluated (the site not counted), so
    /// the replay charged `1 + reevaluated()` budget events.
    #[must_use]
    pub fn reevaluated(&self) -> usize {
        self.reevaluated
    }

    /// Signal `id`'s replayed trace: its span in `local` if the latest
    /// replay sealed one there, else its span in `golden` (the arenas
    /// that replay ran on).
    ///
    /// # Panics
    ///
    /// Panics for a foreign [`SignalId`] or mismatched arenas.
    #[must_use]
    pub fn trace<'a>(
        &self,
        golden: &'a TraceArena,
        local: &'a TraceArena,
        id: SignalId,
    ) -> TraceRef<'a> {
        match self.span_of[id.index()] {
            GOLDEN => golden.trace(id.index()),
            span => local.trace(span as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use mis_digital::{GateKind, InertialChannel};
    use mis_waveform::units::ps;
    use mis_waveform::{DigitalTrace, EdgeBuf};

    /// Forces one signal to a constant.
    struct StuckAt {
        id: SignalId,
        value: bool,
    }

    impl TraceOverlay for StuckAt {
        fn rewrites(&self, id: SignalId) -> bool {
            id == self.id
        }

        fn rewrite(
            &self,
            _id: SignalId,
            _view: TraceRef<'_>,
            out: &mut EdgeBuf,
        ) -> Result<(), SimError> {
            out.clear(self.value);
            Ok(())
        }
    }

    /// y = NOR(a, b) behind an inertial channel, z = NOT(y), w = BUF(b)
    /// and m = AND(a, b); `a` pulses, `b` stays low, so m is constant
    /// low whatever `a` does.
    fn fixture() -> (Network, [SignalId; 6], Vec<DigitalTrace>) {
        let mut net = Network::new();
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let ch = InertialChannel::symmetric(ps(40.0), ps(30.0)).unwrap();
        let y = net
            .add_gate("y", GateKind::Nor, &[a, b], Some(Box::new(ch)))
            .unwrap();
        let z = net.add_gate("z", GateKind::Not, &[y], None).unwrap();
        let w = net.add_gate("w", GateKind::Buf, &[b], None).unwrap();
        let m = net.add_gate("m", GateKind::And, &[a, b], None).unwrap();
        let ta =
            DigitalTrace::with_edges(false, vec![(ps(100.0), true), (ps(400.0), false)]).unwrap();
        (
            net,
            [a, b, y, z, w, m],
            vec![ta, DigitalTrace::constant(false)],
        )
    }

    fn golden_of(net: &Network, inputs: &[DigitalTrace]) -> TraceArena {
        let mut golden = TraceArena::new();
        Simulator::new(net)
            .unwrap()
            .run_in(inputs, &mut golden)
            .unwrap();
        golden
    }

    #[test]
    fn replay_matches_the_full_overlay_run_on_every_signal() {
        let (net, ids, inputs) = fixture();
        let golden = golden_of(&net, &inputs);
        let mut sim = Simulator::new(&net).unwrap();
        let mut cone = ConeReplay::new(&net).unwrap();
        let mut local = TraceArena::new();
        let mut full = TraceArena::new();
        for &site in &ids {
            for value in [false, true] {
                let ov = StuckAt { id: site, value };
                cone.replay(&golden, &mut local, site, &ov, &RunBudget::UNLIMITED)
                    .unwrap();
                sim.run_controlled_in(&inputs, &mut full, &RunBudget::UNLIMITED, Some(&ov))
                    .unwrap();
                for &id in &ids {
                    let want = sim.trace(&full, id);
                    assert_eq!(cone.trace(&golden, &local, id), want, "{site:?}");
                    assert_eq!(
                        cone.changed(id),
                        want != golden.trace(id.index()),
                        "{site:?}={value} at {id:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_rewrites_stop_at_the_site_or_at_the_masking_gate() {
        let (net, [a, b, y, z, w, m], inputs) = fixture();
        let golden = golden_of(&net, &inputs);
        let mut cone = ConeReplay::new(&net).unwrap();
        let mut local = TraceArena::new();
        // b is already constant low: masked at the site.
        let ov = StuckAt {
            id: b,
            value: false,
        };
        cone.replay(&golden, &mut local, b, &ov, &RunBudget::UNLIMITED)
            .unwrap();
        assert_eq!(cone.reevaluated(), 0);
        assert!(!cone.changed(b) && !cone.changed(w));
        // b stuck high changes every gate it feeds and z behind y.
        let ov = StuckAt { id: b, value: true };
        cone.replay(&golden, &mut local, b, &ov, &RunBudget::UNLIMITED)
            .unwrap();
        assert_eq!(cone.reevaluated(), 4);
        assert!([b, y, z, w, m].iter().all(|&id| cone.changed(id)));
        // a stuck low kills y's pulse, but m = AND(a, low b) masks it:
        // m is re-evaluated, matches golden, and is not marked. The
        // previous replay's marks are gone.
        let ov = StuckAt {
            id: a,
            value: false,
        };
        cone.replay(&golden, &mut local, a, &ov, &RunBudget::UNLIMITED)
            .unwrap();
        assert_eq!(cone.reevaluated(), 3);
        assert!(cone.changed(a) && cone.changed(y) && cone.changed(z));
        assert!(!cone.changed(m) && !cone.changed(w) && !cone.changed(b));
        assert_eq!(cone.trace(&golden, &local, m), golden.trace(m.index()));
    }

    #[test]
    fn budget_charges_the_site_and_each_reevaluated_gate() {
        let (net, [_, b, ..], inputs) = fixture();
        let golden = golden_of(&net, &inputs);
        let mut cone = ConeReplay::new(&net).unwrap();
        let mut local = TraceArena::new();
        let masked = StuckAt {
            id: b,
            value: false,
        };
        let one = RunBudget::UNLIMITED.with_max_events(1);
        cone.replay(&golden, &mut local, b, &masked, &one).unwrap();
        let zero = RunBudget::UNLIMITED.with_max_events(0);
        assert!(matches!(
            cone.replay(&golden, &mut local, b, &masked, &zero),
            Err(SimError::BudgetExceeded { .. })
        ));
        let high = StuckAt { id: b, value: true };
        let exact = RunBudget::UNLIMITED.with_max_events(5);
        cone.replay(&golden, &mut local, b, &high, &exact).unwrap();
        assert_eq!(cone.reevaluated(), 4);
        let short = RunBudget::UNLIMITED.with_max_events(4);
        assert!(matches!(
            cone.replay(&golden, &mut local, b, &high, &short),
            Err(SimError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn golden_arena_must_hold_one_span_per_signal() {
        let (net, [a, ..], _) = fixture();
        let mut cone = ConeReplay::new(&net).unwrap();
        let ov = StuckAt { id: a, value: true };
        let err = cone
            .replay(
                &TraceArena::new(),
                &mut TraceArena::new(),
                a,
                &ov,
                &RunBudget::UNLIMITED,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Network { .. }));
    }
}
