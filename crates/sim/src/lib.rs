//! **mis-sim** — event-driven netlist simulation over real circuits: the
//! layer that takes the workspace from "one gate, one channel" to "a
//! whole ISCAS benchmark through one engine".
//!
//! The paper validates its hybrid channel *inside* a timing simulator,
//! where shared event-queue overhead — not per-channel kernel cost —
//! dominates; the follow-up paper (Ferdowsi et al., 2024) evaluates on
//! interconnected circuits outright. This crate supplies that missing
//! granularity in three pieces:
//!
//! * [`mod@bench`] — an ISCAS-85 `.bench` parser/writer and its lowering
//!   onto the [`mis_digital::Network`] builder (topological ordering of
//!   forward references, balanced zero-time reduction of wide fan-ins,
//!   one timed cell per `.bench` gate). Committed fixtures for C17 and
//!   a C432-scale circuit live under `data/bench/`.
//! * [`CellLibrary`] — re-exported from [`mis_digital::netlists`], the
//!   one place a gate type gets its timing: one `Arc`-shared
//!   cached-hybrid table set for NOR and NAND (NAND through the free
//!   view-inversion duality) plus an inertial fallback for the
//!   non-hybrid gate kinds.
//! * [`engine`] — [`Simulator`], the netlist evaluator: every gate in
//!   signal order (already topological, by the `Network` builder's
//!   reference-before-use rule) through the per-gate kernel
//!   `Network::run_in` runs (`SignalSource::eval_in`), bit-identical to
//!   it and allocation-free on a warm arena.
//!
//! Two run controls thread through the engine: [`mod@budget`] bounds a
//! run (events, edges, deadline) with a graceful
//! [`mis_digital::SimError::BudgetExceeded`] instead of unbounded work,
//! and [`mod@overlay`] rewrites sealed traces mid-run — the injection
//! point the `mis-fault` campaigns build on. Parallelism lives one
//! level up, at the job level: `mis-fault` spreads a campaign's faulty
//! runs over worker threads, each with its own engine.
//!
//! # Examples
//!
//! ```
//! use mis_sim::{BenchNetlist, CellLibrary, Simulator};
//! use mis_waveform::{units::ps, DigitalTrace, TraceArena};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = BenchNetlist::parse(
//!     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)",
//! )?;
//! let lowered = nl.lower(&CellLibrary::ideal())?;
//! let mut sim = Simulator::new(&lowered.net)?;
//! let mut arena = TraceArena::new();
//! let a = DigitalTrace::with_edges(false, vec![(ps(100.0), true)])?;
//! let b = DigitalTrace::constant(false);
//! sim.run_in(&[a, b], &mut arena)?;
//! let y = sim.trace(&arena, lowered.outputs[0]);
//! assert!(y.initial_value());
//! assert_eq!(y.times(), &[ps(100.0)]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod budget;
pub mod engine;
mod error;
pub mod overlay;
pub mod probe;

pub use bench::{BenchFunc, BenchGate, BenchNetlist, LoweredNetlist, LoweredStats};
pub use budget::RunBudget;
pub use engine::{Simulator, ENGINE_INDEX_MAX};
pub use error::BenchError;
pub use mis_digital::netlists::CellLibrary;
pub use overlay::TraceOverlay;
pub use probe::{SimCounters, SimTracer};
