//! The load generator: seeded C880 stimuli and the deterministic glitch
//! list. The program under test only ever receives the `DigitalTrace`s
//! built here.

use mis_digital::Network;
use mis_fault::FaultSite;
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::DigitalTrace;

/// The seed base CI's pinned counts were taken at.
pub const CI_SEED: u64 = 0x5eed;

/// Traffic shapes the stimulus pool cycles through, as
/// `(µ ps, σ ps, assignment, transitions per input pair)`. Shape 0 is
/// the CI shape, so stimulus 0 at [`CI_SEED`] is CI's stimulus; shape 1
/// is short-pulse local traffic (MIS-dense), shape 2 broad global
/// traffic (MIS-sparse).
const SHAPES: [(f64, f64, Assignment, usize); 3] = [
    (400.0, 150.0, Assignment::Local, 40),
    (100.0, 50.0, Assignment::Local, 40),
    (2000.0, 1000.0, Assignment::Global, 40),
];

/// The SplitMix64 output function: decorrelates nearby seeds, so
/// workload seeds 1 and 2 draw unrelated inputs.
#[must_use]
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stimulus `k` of the pool drawn from `seed`, for a circuit with
/// `inputs` primary inputs: input `i` takes trace `a` (even `i`) or `b`
/// (odd `i`) of a pair generated from `base + i`, where `base` is
/// `seed` itself for `k = 0` and `mix(seed ^ mix(k))` otherwise.
/// Stimulus 0 at [`CI_SEED`] is therefore the traffic `sim_profile` and
/// `fault_sim` drive fixtures with.
///
/// # Errors
///
/// A message if trace generation fails (it cannot for these shapes).
pub fn stimulus(seed: u64, k: u64, inputs: usize) -> Result<Vec<DigitalTrace>, String> {
    let (mu, sigma, assignment, transitions) = SHAPES[(k % SHAPES.len() as u64) as usize];
    let config = TraceConfig::new(ps(mu), ps(sigma), assignment, transitions);
    let base = if k == 0 { seed } else { mix(seed ^ mix(k)) };
    (0..inputs)
        .map(|i| {
            let pair = config
                .generate(base.wrapping_add(i as u64))
                .map_err(|e| format!("stimulus {k}: {e}"))?;
            Ok(if i % 2 == 0 { pair.a } else { pair.b })
        })
        .collect()
}

/// `n` transient glitches spread across the lowered signals by the rule
/// `fault_sim --glitches n` uses: strided signal picks, staggered start
/// times, cycling widths.
///
/// # Errors
///
/// A message if a site is out of range or rejected.
pub fn glitch_sites(net: &Network, n: usize) -> Result<Vec<FaultSite>, String> {
    let signals = net.signal_count();
    (0..n)
        .map(|i| {
            let idx = (i * 7 + 3) % signals;
            let id = net
                .signal_id(idx)
                .ok_or_else(|| format!("signal index {idx} out of range"))?;
            FaultSite::glitch(
                id,
                ps(100.0 + 83.0 * i as f64),
                ps(20.0 + 10.0 * (i % 5) as f64),
            )
            .map_err(|e| e.to_string())
        })
        .collect()
}
