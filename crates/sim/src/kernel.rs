//! Evaluation infrastructure for [`crate::Simulator`]: the per-gate
//! kernel and the index-width guard.
//!
//! The engine evaluates gates through [`eval_signal_into`], the very
//! same fused ideal-gate + channel passes `mis_digital::Network::run_in`
//! uses, and the same per-event cached-hybrid scheduler
//! (`apply2_into_probed`). Keeping the kernel in one place is what makes
//! the engine's bit-identity with the reference structural rather than
//! coincidental: a gate's output is a pure function of its fan-in
//! traces, computed by literally the same code.

use mis_digital::{gates, ChannelCounters, GateKind, SignalId, SignalSource, SimError};
use mis_waveform::{EdgeBuf, TraceRef};

/// The largest signal count the engine can address: it stores signal
/// and span indices as `u32`. [`crate::Simulator::new`] rejects
/// anything larger as [`SimError::NetworkTooLarge`]; static analysis
/// compares [`crate::bench::BenchNetlist::lowered_stats`] against this
/// limit to predict that rejection before allocation.
pub const ENGINE_INDEX_MAX: usize = u32::MAX as usize;

/// The engine stores signal and span indices as `u32`. Rejects counts
/// that would truncate, as [`SimError::NetworkTooLarge`].
pub(crate) fn check_index_width(count: usize) -> Result<(), SimError> {
    if count > ENGINE_INDEX_MAX {
        return Err(SimError::NetworkTooLarge {
            count,
            max: ENGINE_INDEX_MAX,
        });
    }
    Ok(())
}

/// The arena-level shortcut for a gate, if any: a channel-less unary
/// gate is a pure span duplicate (`TraceArena::push_duplicate` — in the
/// SoA layout logical NOT is an initial-value flip, so no staging round
/// trip is needed). Returns the source signal and whether to invert.
///
/// The engine consults this predicate before falling back to
/// [`eval_signal_into`].
pub(crate) fn duplicate_shortcut(source: &SignalSource<'_>) -> Option<(SignalId, bool)> {
    match source {
        SignalSource::Gate {
            kind,
            inputs,
            channel: None,
        } if kind.func2().is_none() => Some((inputs[0], matches!(kind, GateKind::Not))),
        _ => None,
    }
}

/// Evaluates one non-input signal through the fused ideal-gate + channel
/// kernels, writing the result into `out` (using `scratch` for the
/// fused binary-gate pass). Fan-in traces are obtained through
/// `resolve`, so the caller decides where sealed traces live (the
/// engine resolves through its span map, which overlay rewrites
/// redirect). (Callers normally peel off [`duplicate_shortcut`] gates
/// first; the channel-less unary arm below remains as the general
/// fallback so the kernel is total over non-input sources.)
///
/// Channel applications record into `stats` through the probed trait
/// entry points; unprobed engines pass the
/// [`ChannelCounters::disabled`] sink, which the probed paths treat as
/// a branch-only no-op, so there is exactly **one** kernel for both
/// probe modes.
///
/// # Errors
///
/// Propagates channel failures.
///
/// # Panics
///
/// Panics when `source` is [`SignalSource::Input`] — inputs are sealed
/// by the engine before any gate evaluation.
pub(crate) fn eval_signal_into<'a, F>(
    source: SignalSource<'_>,
    resolve: F,
    out: &mut EdgeBuf,
    scratch: &mut EdgeBuf,
    stats: &ChannelCounters,
) -> Result<(), SimError>
where
    F: Fn(SignalId) -> TraceRef<'a>,
{
    match source {
        SignalSource::Input => unreachable!("inputs are sealed before gate evaluation"),
        SignalSource::Gate {
            kind,
            inputs,
            channel,
        } => match kind.func2() {
            None => {
                let mut view = resolve(inputs[0]);
                if matches!(kind, GateKind::Not) {
                    view = view.inverted();
                }
                match channel {
                    None => {
                        out.copy_ref(view);
                        Ok(())
                    }
                    Some(ch) => ch.apply_into_probed(view, out, stats),
                }
            }
            Some(f) => {
                let va = resolve(inputs[0]);
                let vb = resolve(inputs[1]);
                match channel {
                    None => gates::combine2_into(f, va, vb, out),
                    Some(ch) => {
                        gates::combine2_into(f, va, vb, scratch)?;
                        ch.apply_into_probed(scratch.as_ref(), out, stats)
                    }
                }
            }
        },
        SignalSource::TwoInputChannelGate { inputs, channel } => {
            let va = resolve(inputs[0]);
            let vb = resolve(inputs[1]);
            channel.apply2_into_probed(va, vb, out, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_digital::SimError;

    #[test]
    fn index_width_boundary() {
        assert!(check_index_width(0).is_ok());
        assert!(check_index_width(u32::MAX as usize).is_ok());
        let err = check_index_width(u32::MAX as usize + 1).unwrap_err();
        match err {
            SimError::NetworkTooLarge { count, max } => {
                assert_eq!(count, u32::MAX as usize + 1);
                assert_eq!(max, u32::MAX as usize);
            }
            other => panic!("expected NetworkTooLarge, got {other:?}"),
        }
    }
}
