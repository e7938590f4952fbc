//! Random input-trace generation matching the paper's waveform
//! configurations (Section VI).
//!
//! The paper drives the NOR gate with randomized transition streams
//! described as `µ/σ – LOCAL` or `µ/σ – GLOBAL`:
//!
//! * **LOCAL** — each input receives its own stream; successive
//!   transitions on one input are separated by `N(µ, σ²)`-distributed
//!   intervals. With small µ the two inputs constantly switch in close
//!   temporal proximity, stressing the MIS region of the delay functions.
//! * **GLOBAL** — a single global stream of transition instants (intervals
//!   again `N(µ, σ²)`) is generated and each instant is assigned to one
//!   input at random. Consecutive transitions on *different* inputs are
//!   then typically far apart, probing the SIS tails (`|Δ| ≫ 0`).
//!
//! Intervals are clamped below at `min_gap` to keep traces physical
//! (the normal distribution has unbounded support; SPICE decks need
//! positive, non-overlapping edges).

use mis_testkit::rng::TestRng;

use crate::{DigitalTrace, WaveformError};

/// Whether transition streams are generated per input or shared globally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Assignment {
    /// Independent interval stream per input (`LOCAL` in the paper).
    Local,
    /// One global interval stream, each event assigned to a random input
    /// (`GLOBAL` in the paper).
    Global,
}

/// Configuration of a random two-input trace pair.
///
/// # Examples
///
/// The paper's `100/50 - LOCAL` configuration with 500 transitions:
///
/// ```
/// use mis_waveform::generate::{Assignment, TraceConfig};
/// use mis_waveform::units::ps;
///
/// # fn main() -> Result<(), mis_waveform::WaveformError> {
/// let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 500);
/// let pair = cfg.generate(42)?;
/// assert_eq!(pair.a.transition_count() + pair.b.transition_count(), 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Mean inter-transition interval, in seconds.
    pub mu: f64,
    /// Standard deviation of the interval, in seconds.
    pub sigma: f64,
    /// LOCAL or GLOBAL stream assignment.
    pub assignment: Assignment,
    /// Total number of transitions across both inputs.
    pub transitions: usize,
    /// Time of the first possible transition, in seconds.
    pub start_time: f64,
    /// Smallest allowed interval between consecutive transitions of one
    /// stream, in seconds.
    pub min_gap: f64,
}

impl TraceConfig {
    /// Creates a configuration with the paper's defaults for start time
    /// (100 ps of settled inputs) and minimum gap (1 ps).
    #[must_use]
    pub fn new(mu: f64, sigma: f64, assignment: Assignment, transitions: usize) -> Self {
        TraceConfig {
            mu,
            sigma,
            assignment,
            transitions,
            start_time: 100e-12,
            min_gap: 1e-12,
        }
    }

    /// Human-readable label matching the paper's captions, e.g.
    /// `"100/50 - LOCAL"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{:.0}/{:.0} - {}",
            self.mu / 1e-12,
            self.sigma / 1e-12,
            match self.assignment {
                Assignment::Local => "LOCAL",
                Assignment::Global => "GLOBAL",
            }
        )
    }

    /// Generates a reproducible trace pair from `seed`.
    ///
    /// Both inputs start low (the NOR output therefore starts high), which
    /// is the settled state the paper's SPICE decks use.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidInput`] unless `mu` and `min_gap`
    /// are finite and positive, `sigma` is finite and non-negative, and
    /// `start_time` is finite; also for zero transitions. A `min_gap`
    /// below the float resolution of the edge times returns the
    /// [`WaveformError::NotMonotonic`] of the repeated edge.
    pub fn generate(&self, seed: u64) -> Result<TracePair, WaveformError> {
        // Written positively so a NaN in any field fails its comparison.
        let valid = self.mu > 0.0
            && self.mu.is_finite()
            && self.sigma >= 0.0
            && self.sigma.is_finite()
            && self.min_gap > 0.0
            && self.min_gap.is_finite()
            && self.start_time.is_finite();
        if !valid {
            return Err(WaveformError::InvalidInput {
                reason: "mu and min_gap must be finite and positive, sigma finite and \
                         non-negative, start_time finite"
                    .into(),
            });
        }
        if self.transitions == 0 {
            return Err(WaveformError::InvalidInput {
                reason: "at least one transition required".into(),
            });
        }
        let mut rng = TestRng::seed_from_u64(seed);
        let mut a = DigitalTrace::constant(false);
        let mut b = DigitalTrace::constant(false);

        match self.assignment {
            Assignment::Local => {
                // Each input gets ~half the transitions on its own clock.
                let n_a = self.transitions / 2 + self.transitions % 2;
                let n_b = self.transitions / 2;
                let mut t = self.start_time;
                let mut val = false;
                for _ in 0..n_a {
                    t += self.interval(&mut rng);
                    val = !val;
                    a.push_edge(t, val)?;
                }
                // Offset B's stream start by an independent draw so the two
                // streams are not phase locked.
                let mut t = self.start_time + 0.5 * self.interval(&mut rng);
                let mut val = false;
                for _ in 0..n_b {
                    t += self.interval(&mut rng);
                    val = !val;
                    b.push_edge(t, val)?;
                }
            }
            Assignment::Global => {
                let mut t = self.start_time;
                for _ in 0..self.transitions {
                    t += self.interval(&mut rng);
                    if rng.gen_bool(0.5) {
                        let v = !a.final_value();
                        a.push_edge(t, v)?;
                    } else {
                        let v = !b.final_value();
                        b.push_edge(t, v)?;
                    }
                }
            }
        }
        let horizon = a
            .edges()
            .last()
            .map_or(self.start_time, |e| e.time)
            .max(b.edges().last().map_or(self.start_time, |e| e.time))
            + 4.0 * self.mu;
        Ok(TracePair { a, b, horizon })
    }

    /// Draws one `N(µ, σ²)` interval, clamped at `min_gap`
    /// (Box–Muller; the testkit PRNG is uniform-only, and exactly two
    /// uniform draws per sample keep the stream reproducible).
    fn interval(&self, rng: &mut TestRng) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).max(self.min_gap)
    }
}

/// A generated pair of input traces plus a simulation horizon comfortably
/// covering the last transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePair {
    /// Input A.
    pub a: DigitalTrace,
    /// Input B.
    pub b: DigitalTrace,
    /// Suggested end of simulation, in seconds.
    pub horizon: f64,
}

/// The four waveform configurations evaluated in the paper's Fig. 7, with
/// the stated transition counts (500, except 250 for `5000/5 - GLOBAL`).
#[must_use]
pub fn paper_configurations() -> Vec<TraceConfig> {
    use crate::units::ps;
    vec![
        TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 500),
        TraceConfig::new(ps(200.0), ps(100.0), Assignment::Local, 500),
        TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 500),
        TraceConfig::new(ps(5000.0), ps(5.0), Assignment::Global, 250),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::ps;

    #[test]
    fn generation_is_reproducible() {
        let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 100);
        let p1 = cfg.generate(7).unwrap();
        let p2 = cfg.generate(7).unwrap();
        assert_eq!(p1, p2);
        let p3 = cfg.generate(8).unwrap();
        assert_ne!(p1, p3);
    }

    #[test]
    fn local_splits_transitions_between_inputs() {
        let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 501);
        let p = cfg.generate(1).unwrap();
        assert_eq!(p.a.transition_count(), 251);
        assert_eq!(p.b.transition_count(), 250);
    }

    #[test]
    fn global_total_matches() {
        let cfg = TraceConfig::new(ps(2000.0), ps(1000.0), Assignment::Global, 500);
        let p = cfg.generate(1).unwrap();
        assert_eq!(p.a.transition_count() + p.b.transition_count(), 500);
        // Randomness should give both inputs a reasonable share.
        assert!(p.a.transition_count() > 150);
        assert!(p.b.transition_count() > 150);
    }

    #[test]
    fn intervals_respect_min_gap() {
        // σ ≫ µ forces many clamped draws.
        let cfg = TraceConfig::new(ps(10.0), ps(100.0), Assignment::Local, 400);
        let p = cfg.generate(3).unwrap();
        for w in p.a.pulse_widths() {
            assert!(w >= cfg.min_gap - 1e-24);
        }
    }

    #[test]
    fn mean_interval_is_near_mu() {
        let cfg = TraceConfig::new(ps(1000.0), ps(10.0), Assignment::Local, 2000);
        let p = cfg.generate(11).unwrap();
        let widths: Vec<f64> = p.a.pulse_widths().collect();
        let mean = widths.iter().sum::<f64>() / widths.len() as f64;
        assert!(
            (mean - ps(1000.0)).abs() < ps(20.0),
            "mean interval {mean:e} far from 1000 ps"
        );
    }

    #[test]
    fn global_mixes_inputs_with_large_separations() {
        // In GLOBAL mode with µ = 5000 ps, consecutive events on different
        // inputs should essentially never be within 100 ps.
        let cfg = TraceConfig::new(ps(5000.0), ps(5.0), Assignment::Global, 250);
        let p = cfg.generate(5).unwrap();
        let mut all: Vec<(f64, char)> =
            p.a.edges()
                .iter()
                .map(|e| (e.time, 'a'))
                .chain(p.b.edges().iter().map(|e| (e.time, 'b')))
                .collect();
        all.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        let close_cross_pairs = all
            .windows(2)
            .filter(|w| w[0].1 != w[1].1 && (w[1].0 - w[0].0) < ps(100.0))
            .count();
        assert_eq!(close_cross_pairs, 0);
    }

    #[test]
    fn horizon_covers_all_edges() {
        let cfg = TraceConfig::new(ps(100.0), ps(50.0), Assignment::Local, 100);
        let p = cfg.generate(9).unwrap();
        let last =
            p.a.edges()
                .last()
                .unwrap()
                .time
                .max(p.b.edges().last().unwrap().time);
        assert!(p.horizon > last);
    }

    #[test]
    fn labels_match_paper_captions() {
        let labels: Vec<String> = paper_configurations().iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "100/50 - LOCAL",
                "200/100 - LOCAL",
                "2000/1000 - GLOBAL",
                "5000/5 - GLOBAL"
            ]
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TraceConfig::new(0.0, ps(1.0), Assignment::Local, 10)
            .generate(0)
            .is_err());
        assert!(TraceConfig::new(ps(1.0), -ps(1.0), Assignment::Local, 10)
            .generate(0)
            .is_err());
        assert!(TraceConfig::new(ps(1.0), ps(1.0), Assignment::Local, 0)
            .generate(0)
            .is_err());
    }

    #[test]
    fn non_finite_and_zero_gap_fields_rejected() {
        // Without validation the first two panicked in `push_edge` (a
        // zero or infinite interval repeats an edge time) and a NaN
        // sigma silently clamped every interval to `min_gap`.
        let ok = TraceConfig::new(ps(100.0), ps(500.0), Assignment::Local, 200);
        let bad = [
            TraceConfig {
                min_gap: 0.0,
                ..ok.clone()
            },
            TraceConfig {
                mu: f64::INFINITY,
                ..ok.clone()
            },
            TraceConfig {
                sigma: f64::NAN,
                ..ok.clone()
            },
            TraceConfig {
                sigma: f64::INFINITY,
                ..ok.clone()
            },
            TraceConfig {
                min_gap: f64::NAN,
                ..ok.clone()
            },
            TraceConfig {
                start_time: f64::NEG_INFINITY,
                ..ok.clone()
            },
        ];
        for cfg in bad {
            assert!(
                matches!(cfg.generate(1), Err(WaveformError::InvalidInput { .. })),
                "{cfg:?}"
            );
        }
        assert!(ok.generate(1).is_ok());
        // A gap below the float resolution of the edge times repeats an
        // edge time: an error, not a panic.
        let tiny = TraceConfig {
            min_gap: 1e-30,
            ..ok.clone()
        };
        assert!(matches!(
            tiny.generate(1),
            Err(WaveformError::NotMonotonic { .. })
        ));
    }
}
