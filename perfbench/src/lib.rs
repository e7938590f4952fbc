//! The mis-delay benchmark: closed-loop batch jobs over the workspace's
//! public API, timed from outside the crates (see `NOTES.md` for the
//! workloads, metrics and bounds).
//!
//! Each job takes a workload seed and a [`Budget`], checks every
//! operation's output, and adds its metrics to a [`report::Report`]:
//! end-to-end metrics in a timed run, per-layer metrics in a traced run.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod circuit;
pub mod fig7;
pub mod gen;
pub mod report;
pub mod stimuli;

/// How long a job's timed loop runs: at least `seconds` of wall time
/// and at least `min_ops` operations (jobs raise `min_ops` further
/// where their tail percentile needs more samples).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock seconds to keep issuing operations.
    pub seconds: f64,
    /// Operations to complete regardless of time.
    pub min_ops: u64,
}

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["c880_stimuli", "c880_campaign", "nor_fig7"];

/// The job behind a workload name.
pub type Job = fn(&mut report::Report, u64, Budget, bool) -> Result<(), String>;

/// Looks a workload's job up by name.
#[must_use]
pub fn job(workload: &str) -> Option<Job> {
    match workload {
        "c880_stimuli" => Some(stimuli::job),
        "c880_campaign" => Some(campaign::job),
        "nor_fig7" => Some(fig7::job),
        _ => None,
    }
}
