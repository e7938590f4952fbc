//! Channel-level instrumentation: the counter bundle the in-place
//! `apply_into`/`apply2_into` channel methods record into.
//!
//! The cached scheduler's hot loop counts events in plain local `u64`s
//! (an unconditional register increment is cheaper than even the
//! disabled-probe branch) and flushes the totals into the shared
//! [`ChannelCounters`] once per application, so instrumentation costs
//! the event loop nothing and unprobed callers — which pass the
//! [`ChannelCounters::disabled`] sink — run the very same code.

use std::sync::OnceLock;

use mis_probe::{Counter, Probe};

/// The per-channel counter bundle, registered under stable `chan.*`
/// metric names. One bundle serves every channel application recorded
/// against the same [`Probe`] (counters are cumulative across gates
/// and runs, which is what a netlist-level profile wants).
#[derive(Debug, Clone)]
pub struct ChannelCounters {
    /// Pending output transitions cancelled before commit — the cached
    /// scheduler's glitch suppressions plus reverted rises.
    pending_cancelled: Counter,
    /// MIS delay-surface evaluations (the `δ↑`/`δ↓` table walks; the
    /// single-input fall modes use precomputed constants and do not
    /// count).
    table_lookups: Counter,
    /// Output edges removed by inertial pulse rejection.
    pulse_filtered: Counter,
}

impl ChannelCounters {
    /// Registers (or re-attaches to) the `chan.*` metrics on `probe`.
    #[must_use]
    pub fn register(probe: &Probe) -> Self {
        ChannelCounters {
            pending_cancelled: probe.counter("chan.pending_cancelled"),
            table_lookups: probe.counter("chan.table_lookups"),
            pulse_filtered: probe.counter("chan.pulse_filtered"),
        }
    }

    /// The shared no-op bundle unprobed callers pass as `stats`:
    /// every record call is one predictable branch on a pre-loaded
    /// `false`, so the unprobed hot paths pay nothing measurable.
    #[must_use]
    pub fn disabled() -> &'static ChannelCounters {
        static DISABLED: OnceLock<ChannelCounters> = OnceLock::new();
        DISABLED.get_or_init(|| ChannelCounters::register(&Probe::disabled()))
    }

    /// Flushes one scheduler run's locally-accumulated totals.
    #[inline]
    pub fn flush_scheduler(&self, cancelled: u64, lookups: u64) {
        self.pending_cancelled.add(cancelled);
        self.table_lookups.add(lookups);
    }

    /// Records `n` edges removed by inertial pulse rejection.
    #[inline]
    pub fn add_pulse_filtered(&self, n: u64) {
        self.pulse_filtered.add(n);
    }

    /// Cumulative cancelled pending transitions.
    #[must_use]
    pub fn pending_cancelled(&self) -> u64 {
        self.pending_cancelled.value()
    }

    /// Cumulative delay-surface evaluations.
    #[must_use]
    pub fn table_lookups(&self) -> u64 {
        self.table_lookups.value()
    }

    /// Cumulative pulse-rejected edges.
    #[must_use]
    pub fn pulse_filtered(&self) -> u64 {
        self.pulse_filtered.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_counters_accumulate_and_share_names() {
        let probe = Probe::new();
        let a = ChannelCounters::register(&probe);
        let b = ChannelCounters::register(&probe);
        a.flush_scheduler(3, 10);
        b.flush_scheduler(1, 5);
        a.add_pulse_filtered(2);
        // Same names → same cells: both bundles observe the sum.
        assert_eq!(b.pending_cancelled(), 4);
        assert_eq!(a.table_lookups(), 15);
        assert_eq!(b.pulse_filtered(), 2);
        let report = probe.report();
        assert_eq!(report.get("chan.table_lookups").unwrap().scalar(), Some(15));
    }

    #[test]
    fn disabled_bundle_swallows_everything() {
        let sink = ChannelCounters::disabled();
        sink.flush_scheduler(100, 100);
        sink.add_pulse_filtered(100);
        assert_eq!(sink.pending_cancelled(), 0);
        assert_eq!(sink.table_lookups(), 0);
        assert_eq!(sink.pulse_filtered(), 0);
    }
}
