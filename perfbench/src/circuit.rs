//! The C880 circuit under the committed cell library, set up the way a
//! user's job would: read, parse, load the tables, lower, build the
//! engine. Each step is timed from here, around the crate call.

use std::path::PathBuf;
use std::time::Instant;

use mis_charlib::CharLib;
use mis_digital::InertialChannel;
use mis_probe::json::json_f64;
use mis_probe::Probe;
use mis_sim::{BenchNetlist, CellLibrary, LoweredNetlist, Simulator};
use mis_waveform::units::ps;

use crate::report::{secs, Report, Summary};

/// A file under the repository's `data/` directory.
#[must_use]
pub fn data_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../data")
        .join(rel)
}

/// The symmetric inertial fallback for gate kinds outside the
/// characterized set (the committed realization `sim_profile` uses).
///
/// # Errors
///
/// A message if the channel is rejected (it cannot be for these delays).
pub fn fallback() -> Result<InertialChannel, String> {
    InertialChannel::symmetric(ps(50.0), ps(38.0)).map_err(|e| format!("fallback channel: {e}"))
}

/// The lowered C880 plus the committed NOR tables it was lowered with.
pub struct C880 {
    /// The lowered network with its input and output lists.
    pub lowered: LoweredNetlist,
    /// The committed `nor_paper.mislib` tables.
    pub lib: CharLib,
}

/// Timed C880 set-ups. A job sets up once before its loop and again at
/// intervals inside it (outside the timed operations), so the set-up
/// median samples the host over the whole run rather than one moment.
#[derive(Default)]
pub struct Setups {
    steps: [Vec<f64>; 4],
    totals: Vec<f64>,
}

impl Setups {
    /// Sets C880 up once, timing each step.
    ///
    /// # Errors
    ///
    /// A message naming the failing step.
    pub fn run(&mut self) -> Result<C880, String> {
        let t0 = Instant::now();
        let path = data_path("bench/c880.bench");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let nl = BenchNetlist::parse(&text).map_err(|e| format!("parse c880: {e}"))?;
        let t1 = Instant::now();
        let path = data_path("charlib/nor_paper.mislib");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let lib = CharLib::from_text(&text).map_err(|e| format!("parse tables: {e}"))?;
        let cells = CellLibrary::hybrid(&lib, Some(fallback()?))
            .map_err(|e| format!("cell library: {e}"))?;
        let t2 = Instant::now();
        let lowered = nl.lower(&cells).map_err(|e| format!("lower c880: {e}"))?;
        let t3 = Instant::now();
        let sim = Simulator::new(&lowered.net).map_err(|e| format!("engine: {e}"))?;
        let t4 = Instant::now();
        drop(sim);
        for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3), (t3, t4)]
            .into_iter()
            .enumerate()
        {
            self.steps[k].push(secs(b - a));
        }
        self.totals.push(secs(t4 - t0));
        Ok(C880 { lowered, lib })
    }

    /// Reports the median total as `setup_s` (timed run) or the median
    /// of each step as the set-up layer metrics (traced run).
    pub fn report(&self, report: &mut Report, trace: bool) {
        if trace {
            let names = [
                "sim.parse_us",
                "charlib.load_us",
                "sim.lower_us",
                "sim.engine_build_us",
            ];
            for (name, samples) in names.into_iter().zip(&self.steps) {
                report.metric(name, Summary::of(samples).median * 1e6, "us");
            }
        } else {
            let summary = Summary::of(&self.totals);
            report.metric("setup_s", summary.median, "s");
            report.info_json("setup_s", summary.json());
        }
    }
}

/// Probe counts per stimulus over stimuli `0..k` of the pool at `seed`,
/// from a fresh probed engine: the deterministic work census a
/// speed-only change must leave identical.
pub struct Counts {
    /// `(metric name, total over the k runs)`, in report order.
    totals: Vec<(&'static str, u64)>,
    /// Stimuli simulated.
    runs: u64,
}

/// The counters [`counts`] reads, in report order.
const COUNTERS: [&str; 8] = [
    "sim.events_popped",
    "sim.gates_evaluated",
    "sim.edges.input",
    "sim.edges.mis",
    "sim.edges.not",
    "chan.table_lookups",
    "chan.pending_cancelled",
    "chan.pulse_filtered",
];

/// Gate-output edge classes of the `sim.edges.*` census (every class
/// but primary inputs).
const GATE_EDGE_CLASSES: [&str; 8] = [
    "sim.edges.buf",
    "sim.edges.not",
    "sim.edges.and",
    "sim.edges.or",
    "sim.edges.nand",
    "sim.edges.nor",
    "sim.edges.xor",
    "sim.edges.mis",
];

/// Runs stimuli `0..k` at `seed` through `Simulator::new_probed` and
/// totals the probe counters.
///
/// # Errors
///
/// A message if generation or a run fails.
pub fn counts(c880: &C880, seed: u64, k: u64) -> Result<Counts, String> {
    let probe = Probe::new();
    let mut sim = Simulator::new_probed(&c880.lowered.net, &probe).map_err(|e| e.to_string())?;
    let mut arena = mis_waveform::TraceArena::new();
    for i in 0..k {
        let inputs = crate::gen::stimulus(seed, i, c880.lowered.inputs.len())?;
        sim.run_in(&inputs, &mut arena)
            .map_err(|e| format!("stimulus {i}: {e}"))?;
    }
    let snap = probe.report();
    let scalar = |name: &str| {
        snap.get(name)
            .and_then(mis_probe::MetricValue::scalar)
            .unwrap_or(0)
    };
    let mut totals: Vec<(&'static str, u64)> = COUNTERS.iter().map(|&n| (n, scalar(n))).collect();
    totals.push((
        "gate_edges",
        GATE_EDGE_CLASSES.iter().map(|&n| scalar(n)).sum(),
    ));
    Ok(Counts { totals, runs: k })
}

impl Counts {
    /// Total of one counter.
    #[must_use]
    pub fn total(&self, name: &str) -> u64 {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Table lookups per evaluated gate.
    #[must_use]
    pub fn lookups_per_gate(&self) -> f64 {
        self.total("chan.table_lookups") as f64 / self.total("sim.gates_evaluated") as f64
    }

    /// Edges removed by pulse filtering over edges the channels
    /// scheduled (gate-output edges kept plus edges filtered).
    #[must_use]
    pub fn filtered_share(&self) -> f64 {
        let filtered = self.total("chan.pulse_filtered") as f64;
        filtered / (self.total("gate_edges") as f64 + filtered)
    }

    /// The counts as a JSON object of per-stimulus values.
    #[must_use]
    pub fn json(&self) -> String {
        let mut fields: Vec<String> = self
            .totals
            .iter()
            .filter(|(n, _)| COUNTERS.contains(n))
            .map(|(n, v)| format!("\"{n}\":{}", json_f64(*v as f64 / self.runs as f64)))
            .collect();
        fields.push(format!(
            "\"chan.lookups_per_gate\":{}",
            json_f64(self.lookups_per_gate())
        ));
        fields.push(format!(
            "\"chan.filtered_share\":{}",
            json_f64(self.filtered_share())
        ));
        fields.push(format!("\"stimuli\":{}", self.runs));
        format!("{{{}}}", fields.join(","))
    }

    /// Adds the per-stimulus counts and both ratios as layer metrics.
    pub fn add_metrics(&self, report: &mut Report) {
        for &name in &COUNTERS {
            report.metric(name, self.total(name) as f64 / self.runs as f64, "count");
        }
        report.metric("chan.lookups_per_gate", self.lookups_per_gate(), "ratio");
        report.metric("chan.filtered_share", self.filtered_share(), "ratio");
    }
}
