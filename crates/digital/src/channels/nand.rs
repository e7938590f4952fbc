use mis_waveform::{DigitalTrace, EdgeBuf, TraceRef};

use crate::channels::{DelayBounds, TwoInputTransform};
use crate::probe::ChannelCounters;
use crate::{gates, SimError};

/// A two-input **NAND** channel built from any two-input NOR channel `C`
/// through the exact duality `NAND(a, b) = ¬NOR(¬a, ¬b)` at the *analog*
/// level: input traces are inverted, pushed through the dual NOR's model,
/// and the output trace is inverted back. Because the duality maps
/// voltages by `v ↦ V_DD − v`, the timing (threshold crossings at
/// `V_DD/2`) is preserved exactly.
///
/// `NandDual<HybridNorChannel>` is the exact hybrid NAND (built from
/// [`mis_core::nand::NandParams::dual`]); `NandDual<Arc<CachedHybridChannel>>`
/// is the cached NAND cell, sharing one table set with the NOR cells.
///
/// # Examples
///
/// ```
/// use mis_core::nand::NandParams;
/// use mis_core::NorParams;
/// use mis_digital::{HybridNorChannel, NandDual, TwoInputTransform};
/// use mis_waveform::{DigitalTrace, units::ps};
///
/// # fn main() -> Result<(), mis_digital::SimError> {
/// let params = NandParams::from_dual(NorParams::paper_table1());
/// let ch = NandDual::new(HybridNorChannel::new(params.dual())?);
/// let a = DigitalTrace::with_edges(false, vec![(ps(200.0), true)])?;
/// let b = DigitalTrace::with_edges(false, vec![(ps(210.0), true)])?;
/// let out = ch.apply2(&a, &b)?;
/// assert!(out.initial_value());          // NAND of (0,0) is high
/// assert_eq!(out.transition_count(), 1); // one falling transition
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NandDual<C> {
    inner: C,
}

impl<C: TwoInputTransform> NandDual<C> {
    /// Wraps the dual NOR channel.
    #[must_use]
    pub fn new(inner: C) -> Self {
        NandDual { inner }
    }
}

impl<C: TwoInputTransform> TwoInputTransform for NandDual<C> {
    fn apply2(&self, a: &DigitalTrace, b: &DigitalTrace) -> Result<DigitalTrace, SimError> {
        let nor_out = self.inner.apply2(&gates::not(a)?, &gates::not(b)?)?;
        gates::not(&nor_out)
    }

    fn apply2_into(
        &self,
        a: TraceRef<'_>,
        b: TraceRef<'_>,
        out: &mut EdgeBuf,
        stats: &ChannelCounters,
    ) -> Result<(), SimError> {
        // In the SoA representation NOT is free (flip the initial value,
        // keep the times), so the duality costs nothing: run the dual NOR
        // on inverted views and invert the result in place. The adapter
        // is stats-transparent: the dual NOR's events are the NAND's.
        self.inner
            .apply2_into(a.inverted(), b.inverted(), out, stats)?;
        out.invert();
        Ok(())
    }

    fn name(&self) -> &str {
        "nand-dual"
    }

    /// Identical to the dual NOR's bounds: the duality inverts *values*,
    /// never edge times.
    fn delay_bounds(&self) -> Option<DelayBounds> {
        self.inner.delay_bounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HybridNorChannel;
    use mis_core::nand::NandParams;
    use mis_core::{NorParams, RisingInitialVn};
    use mis_waveform::units::ps;

    fn channel() -> NandDual<HybridNorChannel> {
        let params = NandParams::from_dual(NorParams::paper_table1());
        NandDual::new(HybridNorChannel::new(params.dual()).unwrap())
    }

    #[test]
    fn nand_logic_polarity() {
        let ch = channel();
        // Both inputs high → output low after the falling delay.
        let a = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).unwrap();
        let b = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).unwrap();
        let out = ch.apply2(&a, &b).unwrap();
        assert!(out.initial_value());
        assert_eq!(out.transition_count(), 1);
        assert!(!out.edges()[0].rising);
    }

    #[test]
    fn single_input_switching_does_not_toggle_output() {
        // NAND with one input low stays high regardless of the other.
        let ch = channel();
        let a =
            DigitalTrace::with_edges(false, vec![(ps(300.0), true), (ps(600.0), false)]).unwrap();
        let b = DigitalTrace::constant(false);
        let out = ch.apply2(&a, &b).unwrap();
        assert!(out.initial_value());
        assert_eq!(out.transition_count(), 0);
    }

    #[test]
    fn falling_delay_matches_nand_params() {
        let ch = channel();
        let params = NandParams::from_dual(NorParams::paper_table1());
        for &delta in &[ps(-25.0), 0.0, ps(25.0)] {
            let (ta, tb) = if delta >= 0.0 {
                (ps(400.0), ps(400.0) + delta)
            } else {
                (ps(400.0) - delta, ps(400.0))
            };
            let a = DigitalTrace::with_edges(false, vec![(ta, true)]).unwrap();
            let b = DigitalTrace::with_edges(false, vec![(tb, true)]).unwrap();
            let out = ch.apply2(&a, &b).unwrap();
            assert_eq!(out.transition_count(), 1, "Δ = {delta:e}");
            // The channel starts from (0,0): the dual NOR starts from
            // (1,1) with the Gnd V_N policy, i.e. NAND V_M hypothesis
            // VDD (duality flips it).
            let expected = tb.max(ta) + params.falling_delay(delta, RisingInitialVn::Vdd).unwrap();
            assert!(
                (out.edges()[0].time - expected).abs() < ps(0.01),
                "Δ = {delta:e}: {:e} vs {expected:e}",
                out.edges()[0].time
            );
        }
    }

    #[test]
    fn mis_speed_up_on_rising_output() {
        // Both inputs fall: the parallel pMOS charge the output — delays
        // shrink as |Δ| → 0 (dual of the NOR falling speed-up).
        let ch = channel();
        let mk = |delta: f64| {
            let (ta, tb) = if delta >= 0.0 {
                (ps(400.0), ps(400.0) + delta)
            } else {
                (ps(400.0) - delta, ps(400.0))
            };
            let a = DigitalTrace::with_edges(true, vec![(ta, false)]).unwrap();
            let b = DigitalTrace::with_edges(true, vec![(tb, false)]).unwrap();
            let out = ch.apply2(&a, &b).unwrap();
            assert_eq!(out.transition_count(), 1);
            out.edges()[0].time - ta.min(tb)
        };
        let d0 = mk(0.0);
        let d_far = mk(ps(300.0));
        assert!(d0 < d_far, "MIS speed-up: {d0:e} vs {d_far:e}");
    }
}
