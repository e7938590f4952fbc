//! Event-driven digital timing simulation with pluggable delay channels —
//! the workspace's stand-in for the Involution Tool (Öhlinger et al.,
//! *Integration* 2021), which the paper extends with its hybrid channel.
//!
//! # Architecture
//!
//! The unit of computation is the *trace transform*: a delay channel maps
//! an input [`mis_waveform::DigitalTrace`] to an output trace. Channels:
//!
//! * [`PureDelayChannel`] — constant delay, no filtering.
//! * [`InertialChannel`] — constant delay plus removal of pulses shorter
//!   than a rejection window (the classic inertial model).
//! * [`ExpChannel`] — the IDM's exponential involution channel:
//!   `δ(T) = δ_p + τ·ln(2 − e^{−(T+δ_p)/τ})`, an exact involution
//!   (`−δ(−δ(T)) = T`), with the standard IDM cancellation rule.
//! * [`SumExpChannel`] — an involution channel whose switching waveform is
//!   a sum of two exponentials, with numerically inverted delays
//!   (the Involution Tool's more expressive channel family).
//! * [`HybridNorChannel`] — the paper's contribution as a *two-input*
//!   channel: wraps the continuous-state [`mis_core::channel::NorGateModel`]
//!   and defers input events by the pure delay `δ_min`.
//! * [`CachedHybridChannel`] — the characterized fast path of the hybrid
//!   model: schedules transitions from `mis-charlib` delay surfaces
//!   (one table lookup per event) instead of re-solving the delay
//!   equation, at near-inertial cost.
//! * [`NandDual`] — the NAND face of any two-input NOR channel, through
//!   the exact analog duality `NAND(a, b) = ¬NOR(¬a, ¬b)` (free on SoA
//!   views: inverted inputs in, inverted output out).
//!
//! [`Network`] composes zero-time Boolean gates with channels into
//! feed-forward circuits; [`accuracy`] implements the paper's Fig. 7
//! deviation-area experiment end to end.
//!
//! # The arena hot path
//!
//! Every channel trait carries one in-place method
//! ([`TraceTransform::apply_into`] / [`TwoInputTransform::apply2_into`])
//! over borrowed structure-of-arrays views, recording channel events
//! into a [`ChannelCounters`] sink (disabled when nobody is watching).
//! [`Network::run_in`] evaluates a whole netlist into a reusable
//! [`mis_waveform::TraceArena`]: input traces are copied into flat
//! storage, each gate runs through the per-gate kernel
//! [`SignalSource::eval_in`] (a fused ideal-gate + channel pass through
//! the arena's staging buffers), and a warm arena makes repeated
//! evaluations allocation-free. [`Network::run`] remains as the
//! allocating compatibility wrapper. [`netlists`] holds
//! [`netlists::CellLibrary`], the one place a gate type gets its timing
//! (shared cached-hybrid NOR/NAND cells, an inertial fallback), and the
//! benchmark circuits built from it (ripple chains, the ISCAS-85 C17
//! cut, fan-out trees).
//!
//! # Examples
//!
//! A single NOR gate modeled three ways:
//!
//! ```
//! use mis_digital::{gates, HybridNorChannel, InertialChannel, TraceTransform, TwoInputTransform};
//! use mis_core::NorParams;
//! use mis_waveform::{DigitalTrace, units::ps};
//!
//! # fn main() -> Result<(), mis_digital::SimError> {
//! let a = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
//! let b = DigitalTrace::with_edges(false, vec![(ps(115.0), true)])?;
//!
//! // Ideal zero-delay NOR, then an inertial channel at the output:
//! let ideal = gates::nor(&a, &b)?;
//! let inertial = InertialChannel::symmetric(ps(35.0), ps(35.0))?.apply(&ideal)?;
//!
//! // The hybrid two-input channel sees the inputs directly:
//! let hybrid = HybridNorChannel::new(&NorParams::paper_table1())?.apply2(&a, &b)?;
//! assert_eq!(inertial.transition_count(), hybrid.transition_count());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
mod channels;
pub mod continuity;
mod error;
pub mod gates;
pub mod involution;
pub mod netlists;
mod network;
pub mod probe;

pub use channels::cached::CachedHybridChannel;
pub use channels::exp::ExpChannel;
pub use channels::hybrid::HybridNorChannel;
pub use channels::inertial::InertialChannel;
pub use channels::nand::NandDual;
pub use channels::pure::PureDelayChannel;
pub use channels::sumexp::SumExpChannel;
pub use channels::{DelayBounds, TraceTransform, TwoInputTransform};
pub use error::{BudgetResource, SimError};
pub use network::{GateKind, Network, SignalId, SignalSource};
pub use probe::ChannelCounters;
