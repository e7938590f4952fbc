use crate::{AnalogWaveform, WaveformError};

/// A single transition of a binary signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Time of the threshold crossing, in seconds.
    pub time: f64,
    /// `true` for a rising (0→1) transition.
    pub rising: bool,
}

/// A binary signal: an initial value plus a strictly increasing,
/// polarity-alternating edge list.
///
/// This is the exchange format between the digital timing simulator, the
/// digitized analog reference, and the deviation-area metric.
///
/// # Examples
///
/// ```
/// use mis_waveform::DigitalTrace;
///
/// # fn main() -> Result<(), mis_waveform::WaveformError> {
/// let t = DigitalTrace::with_edges(false, vec![(1.0, true), (3.0, false)])?;
/// assert!(!t.value_at(0.5));
/// assert!(t.value_at(2.0));
/// assert!(!t.value_at(4.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DigitalTrace {
    initial: bool,
    edges: Vec<Edge>,
}

impl DigitalTrace {
    /// A constant trace with no transitions.
    #[must_use]
    pub fn constant(value: bool) -> Self {
        DigitalTrace {
            initial: value,
            edges: Vec::new(),
        }
    }

    /// Builds a trace from `(time, rising)` pairs.
    ///
    /// # Errors
    ///
    /// * [`WaveformError::NotMonotonic`] — times not strictly increasing,
    ///   or polarities fail to alternate starting from `initial`.
    /// * [`WaveformError::NonFinite`] — NaN/inf edge time.
    pub fn with_edges(initial: bool, edges: Vec<(f64, bool)>) -> Result<Self, WaveformError> {
        let mut trace = DigitalTrace::constant(initial);
        for (i, (time, rising)) in edges.into_iter().enumerate() {
            trace.push_edge(time, rising).map_err(|e| match e {
                WaveformError::NotMonotonic { reason, .. } => {
                    WaveformError::NotMonotonic { index: i, reason }
                }
                WaveformError::NonFinite { .. } => WaveformError::NonFinite { index: i },
                other => other,
            })?;
        }
        Ok(trace)
    }

    /// Appends an edge, enforcing monotonic time and alternating polarity.
    ///
    /// # Errors
    ///
    /// * [`WaveformError::NotMonotonic`] — `time` not after the last edge,
    ///   or `rising` equal to the current final value.
    /// * [`WaveformError::NonFinite`] — NaN/inf time.
    pub fn push_edge(&mut self, time: f64, rising: bool) -> Result<(), WaveformError> {
        if !time.is_finite() {
            return Err(WaveformError::NonFinite {
                index: self.edges.len(),
            });
        }
        if let Some(last) = self.edges.last() {
            if !(time > last.time) {
                return Err(WaveformError::NotMonotonic {
                    index: self.edges.len(),
                    reason: format!("edge at {time} not after previous edge at {}", last.time),
                });
            }
        }
        if rising == self.final_value() {
            return Err(WaveformError::NotMonotonic {
                index: self.edges.len(),
                reason: format!(
                    "edge polarity {} does not alternate (signal already {})",
                    if rising { "rising" } else { "falling" },
                    if self.final_value() { "high" } else { "low" },
                ),
            });
        }
        self.edges.push(Edge { time, rising });
        Ok(())
    }

    /// The signal value before the first edge.
    #[must_use]
    pub fn initial_value(&self) -> bool {
        self.initial
    }

    /// The signal value after the last edge.
    #[must_use]
    pub fn final_value(&self) -> bool {
        self.edges.last().map_or(self.initial, |e| e.rising)
    }

    /// The edge list.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The signal value at time `t`. Edges take effect *at* their
    /// timestamp: `value_at(e.time) == e.rising`.
    #[must_use]
    pub fn value_at(&self, t: f64) -> bool {
        // Index of the first edge strictly after t.
        let n_before = self.edges.partition_point(|e| e.time <= t);
        if n_before == 0 {
            self.initial
        } else {
            self.edges[n_before - 1].rising
        }
    }

    /// Number of transitions.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over pulse widths: the durations between consecutive edges.
    pub fn pulse_widths(&self) -> impl Iterator<Item = f64> + '_ {
        self.edges.windows(2).map(|w| w[1].time - w[0].time)
    }

    /// Removes pulses shorter than `min_width` (an *inertial* filter),
    /// returning the filtered trace. Cancellation cascades: removing a
    /// glitch may merge its neighbours into a pulse that is itself too
    /// short, matching the semantics of inertial delay channels.
    ///
    /// Implemented as a single stack pass (no clone of the edge vector,
    /// no revalidation): a new edge forming a too-short pulse with the
    /// last surviving edge annihilates together with it, re-exposing the
    /// edge before — exactly the cascade of the iterative formulation.
    /// Removing adjacent pairs preserves monotonicity and alternation, so
    /// the result is constructed directly.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidInput`] for a negative or NaN
    /// `min_width`.
    pub fn filter_short_pulses(&self, min_width: f64) -> Result<DigitalTrace, WaveformError> {
        if !(min_width >= 0.0) {
            return Err(WaveformError::InvalidInput {
                reason: "min_width must be a non-negative number".into(),
            });
        }
        let mut edges: Vec<Edge> = Vec::with_capacity(self.edges.len());
        for &e in &self.edges {
            if edges.last().is_some_and(|p| e.time - p.time < min_width) {
                edges.pop();
            } else {
                edges.push(e);
            }
        }
        Ok(DigitalTrace {
            initial: self.initial,
            edges,
        })
    }

    /// Constructs a trace from pre-validated parts: `edges` must be
    /// strictly increasing, finite, and alternating starting from
    /// `initial` (checked in debug builds only). Used by the SoA arena
    /// layer, whose representation guarantees the invariants.
    #[must_use]
    pub(crate) fn from_sorted_edges(initial: bool, edges: Vec<Edge>) -> Self {
        debug_assert!(edges
            .windows(2)
            .all(|w| w[0].time < w[1].time && w[0].rising != w[1].rising));
        debug_assert!(edges
            .first()
            .is_none_or(|e| e.time.is_finite() && e.rising != initial));
        DigitalTrace { initial, edges }
    }

    /// Shifts every edge by `dt`.
    #[must_use]
    pub fn shifted(&self, dt: f64) -> DigitalTrace {
        DigitalTrace {
            initial: self.initial,
            edges: self
                .edges
                .iter()
                .map(|e| Edge {
                    time: e.time + dt,
                    rising: e.rising,
                })
                .collect(),
        }
    }

    /// Renders the trace as an analog waveform with linear edges of the
    /// given `slew` (full 0→`vdd` transition time), centred on each edge so
    /// the 50 % crossing coincides with the edge time. Used to drive the
    /// analog simulator's inputs from generated digital traces.
    ///
    /// # Errors
    ///
    /// * [`WaveformError::InvalidInput`] — non-positive `slew` or `vdd`,
    ///   reversed time window, or edges closer together than `slew` (the
    ///   caller must pre-filter such traces).
    pub fn render_analog(
        &self,
        vdd: f64,
        slew: f64,
        t0: f64,
        t1: f64,
    ) -> Result<AnalogWaveform, WaveformError> {
        if !(slew > 0.0) || !(vdd > 0.0) {
            return Err(WaveformError::InvalidInput {
                reason: "slew and vdd must be positive".into(),
            });
        }
        if !(t1 > t0) {
            return Err(WaveformError::InvalidInput {
                reason: "t1 must exceed t0".into(),
            });
        }
        let level = |high: bool| if high { vdd } else { 0.0 };
        let mut ts = Vec::with_capacity(2 * self.edges.len() + 2);
        let mut vs = Vec::with_capacity(ts.capacity());
        let first_edge_start = self
            .edges
            .first()
            .map_or(f64::INFINITY, |e| e.time - slew / 2.0);
        ts.push(t0.min(first_edge_start) - slew);
        vs.push(level(self.initial));
        for (i, e) in self.edges.iter().enumerate() {
            let start = e.time - slew / 2.0;
            let end = e.time + slew / 2.0;
            if let Some(&last_t) = ts.last() {
                if start <= last_t {
                    return Err(WaveformError::InvalidInput {
                        reason: format!(
                            "edge {i} at {} overlaps previous ramp (slew {slew})",
                            e.time
                        ),
                    });
                }
            }
            ts.push(start);
            vs.push(level(!e.rising));
            ts.push(end);
            vs.push(level(e.rising));
        }
        let t_last = *ts.last().expect("at least the initial sample");
        ts.push(t1.max(t_last + slew));
        vs.push(level(self.final_value()));
        AnalogWaveform::from_samples(ts, vs)
    }
}

/// The deviation area between two traces over `[t0, t1]`: the total time
/// during which they disagree (the integral of `|a(t) − b(t)|` for 0/1
/// signals), the accuracy metric of the paper's Fig. 7.
///
/// # Errors
///
/// Returns [`WaveformError::InvalidInput`] when `t1 <= t0`.
///
/// # Examples
///
/// ```
/// use mis_waveform::{deviation_area, DigitalTrace};
///
/// # fn main() -> Result<(), mis_waveform::WaveformError> {
/// let a = DigitalTrace::with_edges(false, vec![(1.0, true), (2.0, false)])?;
/// let b = DigitalTrace::with_edges(false, vec![(1.5, true), (2.0, false)])?;
/// // They disagree on [1.0, 1.5).
/// assert!((deviation_area(&a, &b, 0.0, 3.0)? - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn deviation_area(
    a: &DigitalTrace,
    b: &DigitalTrace,
    t0: f64,
    t1: f64,
) -> Result<f64, WaveformError> {
    if !(t1 > t0) {
        return Err(WaveformError::InvalidInput {
            reason: "t1 must exceed t0".into(),
        });
    }
    // Merge the edge times inside the window into one sorted breakpoint
    // list; between consecutive breakpoints both traces are constant.
    let mut breaks: Vec<f64> = Vec::with_capacity(a.edges.len() + b.edges.len() + 2);
    breaks.push(t0);
    breaks.extend(
        a.edges
            .iter()
            .chain(b.edges.iter())
            .map(|e| e.time)
            .filter(|&t| t > t0 && t < t1),
    );
    breaks.push(t1);
    breaks.sort_by(|x, y| x.partial_cmp(y).expect("finite edge times"));
    breaks.dedup();

    let mut area = 0.0;
    for w in breaks.windows(2) {
        let mid = 0.5 * (w[0] + w[1]);
        if a.value_at(mid) != b.value_at(mid) {
            area += w[1] - w[0];
        }
    }
    Ok(area)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse(t_up: f64, t_down: f64) -> DigitalTrace {
        DigitalTrace::with_edges(false, vec![(t_up, true), (t_down, false)]).unwrap()
    }

    #[test]
    fn construction_enforces_alternation() {
        assert!(DigitalTrace::with_edges(false, vec![(1.0, true), (2.0, true)]).is_err());
        assert!(DigitalTrace::with_edges(true, vec![(1.0, true)]).is_err());
        assert!(DigitalTrace::with_edges(false, vec![(1.0, true), (1.0, false)]).is_err());
        assert!(DigitalTrace::with_edges(false, vec![(f64::NAN, true)]).is_err());
    }

    #[test]
    fn value_at_boundaries() {
        let t = pulse(1.0, 2.0);
        assert!(!t.value_at(0.999_999));
        assert!(t.value_at(1.0), "edge takes effect at its timestamp");
        assert!(t.value_at(1.999_999));
        assert!(!t.value_at(2.0));
        assert!(!t.final_value());
        assert_eq!(t.transition_count(), 2);
    }

    #[test]
    fn pulse_widths_iterator() {
        let t =
            DigitalTrace::with_edges(false, vec![(1.0, true), (3.0, false), (7.0, true)]).unwrap();
        let w: Vec<f64> = t.pulse_widths().collect();
        assert_eq!(w, vec![2.0, 4.0]);
    }

    #[test]
    fn filter_short_pulses_removes_glitch() {
        let t = DigitalTrace::with_edges(
            false,
            vec![(1.0, true), (1.1, false), (5.0, true), (9.0, false)],
        )
        .unwrap();
        let f = t.filter_short_pulses(0.5).unwrap();
        assert_eq!(f.transition_count(), 2);
        assert_eq!(f.edges()[0].time, 5.0);
    }

    #[test]
    fn filter_short_pulses_cascades() {
        // Removing the middle glitch merges its neighbours into a pulse
        // that is itself long enough to survive.
        let t = DigitalTrace::with_edges(
            false,
            vec![(0.0, true), (2.0, false), (2.1, true), (4.0, false)],
        )
        .unwrap();
        let f = t.filter_short_pulses(0.5).unwrap();
        assert_eq!(f.transition_count(), 2);
        assert_eq!(f.edges()[0].time, 0.0);
        assert_eq!(f.edges()[1].time, 4.0);
    }

    #[test]
    fn filter_rejects_negative_width() {
        for bad in [-1.0, f64::NAN] {
            assert!(pulse(0.0, 1.0).filter_short_pulses(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deviation_area_identical_is_zero() {
        let t = pulse(1.0, 2.0);
        assert_eq!(deviation_area(&t, &t, 0.0, 3.0).unwrap(), 0.0);
    }

    #[test]
    fn deviation_area_shifted_pulse() {
        let a = pulse(1.0, 2.0);
        let b = pulse(1.25, 2.25);
        let d = deviation_area(&a, &b, 0.0, 3.0).unwrap();
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deviation_area_is_symmetric() {
        let a = pulse(1.0, 2.0);
        let b = pulse(0.5, 2.75);
        let ab = deviation_area(&a, &b, 0.0, 3.0).unwrap();
        let ba = deviation_area(&b, &a, 0.0, 3.0).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn deviation_area_missing_pulse_counts_full_width() {
        let a = pulse(1.0, 2.0);
        let b = DigitalTrace::constant(false);
        assert!((deviation_area(&a, &b, 0.0, 3.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deviation_area_respects_window() {
        let a = pulse(1.0, 2.0);
        let b = DigitalTrace::constant(false);
        // Window covers only half the pulse.
        assert!((deviation_area(&a, &b, 0.0, 1.5).unwrap() - 0.5).abs() < 1e-12);
        assert!(deviation_area(&a, &b, 1.0, 1.0).is_err());
    }

    #[test]
    fn deviation_area_opposite_constants() {
        let a = DigitalTrace::constant(true);
        let b = DigitalTrace::constant(false);
        assert_eq!(deviation_area(&a, &b, 0.0, 5.0).unwrap(), 5.0);
    }

    #[test]
    fn shifted_moves_edges() {
        let t = pulse(1.0, 2.0).shifted(0.5);
        assert_eq!(t.edges()[0].time, 1.5);
        assert_eq!(t.edges()[1].time, 2.5);
    }

    #[test]
    fn render_analog_crosses_half_vdd_at_edges() {
        let t = pulse(1.0, 2.0);
        let w = t.render_analog(0.8, 0.1, 0.0, 3.0).unwrap();
        let c = w.crossings(0.4).unwrap();
        assert_eq!(c.len(), 2);
        assert!((c[0].0 - 1.0).abs() < 1e-12);
        assert!((c[1].0 - 2.0).abs() < 1e-12);
        // Round trip: digitizing recovers the original edges.
        let d = w.digitize(0.4).unwrap();
        assert_eq!(d.transition_count(), 2);
        assert!((d.edges()[0].time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_analog_rejects_overlapping_ramps() {
        let t = pulse(1.0, 1.05);
        assert!(t.render_analog(0.8, 0.2, 0.0, 3.0).is_err());
    }

    #[test]
    fn render_analog_rejects_bad_args() {
        let t = pulse(1.0, 2.0);
        assert!(t.render_analog(0.8, 0.0, 0.0, 3.0).is_err());
        assert!(t.render_analog(0.0, 0.1, 0.0, 3.0).is_err());
        assert!(t.render_analog(0.8, 0.1, 3.0, 0.0).is_err());
    }
}
