//! The paper's Fig. 7 accuracy experiment as a benchmark job (the
//! `nor_fig7` workload), plus the accuracy pass every C880 run makes on
//! the committed tables it simulates with.

use std::time::Instant;

use mis_analog::measure::characteristic_delays;
use mis_analog::transient::TransientOptions;
use mis_analog::NorTech;
use mis_charlib::{CharConfig, CharLib};
use mis_core::charlie::CharacteristicDelays;
use mis_core::fit::{fit, FitConfig};
use mis_digital::accuracy::{reference_trace, run_experiment, ExperimentConfig, ModelScore};
use mis_digital::{
    gates, CachedHybridChannel, ExpChannel, HybridNorChannel, InertialChannel, TraceTransform,
    TwoInputTransform,
};
use mis_waveform::deviation_area;
use mis_waveform::generate::{paper_configurations, Assignment, TraceConfig};

use mis_probe::json::json_f64;

use crate::report::{loop_metrics, peak_rss, secs, Report, Summary};
use crate::Budget;

/// Score slots of `run_experiment` with a cached library attached.
const HM_WITH: usize = 3;
const HM_WITHOUT: usize = 2;
const CACHED: usize = 4;

/// Rounds (one pair per paper configuration each) behind the
/// `dev_ratio_*` metrics. Always completed, so the ratios are a pure
/// function of the seed.
pub const ACCURACY_ROUNDS: u64 = 6;

/// Repetitions of each calibration step behind the traced set-up
/// layer metrics.
const SETUP_REPS: usize = 7;

/// `latency_tail_ms` percentile; the timed loop scores at least
/// [`MIN_PAIRS`] pairs, so ten or more lie beyond it.
const TAIL_Q: f64 = 0.8;
const MIN_PAIRS: u64 = 52;

/// The experiment's base seed for a workload seed.
fn experiment_seed(seed: u64) -> u64 {
    crate::gen::mix(seed)
}

/// The seed of pair `(round, config)`: the seed `run_experiment` itself
/// gives repetition `round` of configuration `config` at base
/// [`experiment_seed`].
fn pair_seed(seed: u64, round: u64, config: usize) -> u64 {
    experiment_seed(seed).wrapping_add(1000 * config as u64 + round)
}

/// One scored pair.
struct Pair {
    config: usize,
    round: u64,
    models: Vec<ModelScore>,
}

/// Per-configuration means over rounds `0..ACCURACY_ROUNDS`, in the
/// shape `run_experiment` returns for `ACCURACY_ROUNDS` repetitions.
fn accuracy_means(pairs: &[Pair], configs: usize) -> Vec<Vec<ModelScore>> {
    (0..configs)
        .map(|c| {
            let rounds: Vec<&Pair> = pairs
                .iter()
                .filter(|p| p.config == c && p.round < ACCURACY_ROUNDS)
                .collect();
            let n = rounds.len() as f64;
            (0..rounds[0].models.len())
                .map(|m| ModelScore {
                    name: rounds[0].models[m].name.clone(),
                    raw_mean: rounds.iter().map(|p| p.models[m].raw_mean).sum::<f64>() / n,
                    normalized_mean: rounds
                        .iter()
                        .map(|p| p.models[m].normalized_mean)
                        .sum::<f64>()
                        / n,
                })
                .collect()
        })
        .collect()
}

/// Scores per-configuration means: returns `dev_ratio_hybrid` and
/// `dev_ratio_cached` (means over configurations of the normalized
/// deviation area of HM with δ_min and of HM cached), records them as a
/// simulated statistic under `key`, and counts the accuracy checks `tests/accuracy_experiment.rs` pins, each failing
/// configuration failing its `ACCURACY_ROUNDS` pairs:
///
/// * the cached channel stays within the characterization budget of the
///   exact hybrid channel: at most `budget` per transition, so at most
///   `transitions × budget` of mean deviation area;
/// * with `orderings`, on the short-pulse (local) configurations HM
///   with δ_min clearly beats inertial delay and dropping δ_min costs
///   accuracy.
fn assess(
    report: &mut Report,
    key: &str,
    means: &[Vec<ModelScore>],
    configs: &[TraceConfig],
    budget: f64,
    orderings: bool,
) -> (f64, f64) {
    let mut failed = 0;
    for (m, tc) in means.iter().zip(configs) {
        let mut ok =
            (m[CACHED].raw_mean - m[HM_WITH].raw_mean).abs() <= tc.transitions as f64 * budget;
        if orderings && tc.assignment == Assignment::Local {
            ok &= m[HM_WITH].normalized_mean < 0.75
                && m[HM_WITHOUT].normalized_mean > 1.5 * m[HM_WITH].normalized_mean;
        }
        if !ok {
            eprintln!("{key}: accuracy check failed on {}: {m:?}", tc.label());
            failed += ACCURACY_ROUNDS;
        }
    }
    report.ops(0, failed);
    let mean = |model: usize| {
        means.iter().map(|m| m[model].normalized_mean).sum::<f64>() / means.len() as f64
    };
    let (hybrid, cached) = (mean(HM_WITH), mean(CACHED));
    let per_config: Vec<String> = means
        .iter()
        .map(|m| json_f64(m[HM_WITH].normalized_mean))
        .collect();
    report.stat(
        key,
        format!(
            "{{\"pairs\":{},\"dev_ratio_hybrid\":{},\"dev_ratio_cached\":{},\"hybrid_per_config\":[{}]}}",
            ACCURACY_ROUNDS * means.len() as u64,
            json_f64(hybrid),
            json_f64(cached),
            per_config.join(",")
        ),
    );
    (hybrid, cached)
}

/// Adds the two accuracy metrics of a timed run.
fn dev_ratio_metrics(report: &mut Report, (hybrid, cached): (f64, f64)) {
    report.metric("dev_ratio_hybrid", hybrid, "ratio");
    report.metric("dev_ratio_cached", cached, "ratio");
}

/// The calibrated experiment: the hybrid model fitted to the analog
/// reference (`ExperimentConfig::calibrated`) plus tables built from
/// the fitted parameters (`CharLib::nor`).
fn calibrated() -> Result<(ExperimentConfig, f64), String> {
    let cfg = ExperimentConfig::calibrated(
        NorTech::freepdk15_like(),
        TransientOptions::default(),
        None,
        1,
    )
    .map_err(|e| format!("calibration: {e}"))?;
    let lib = CharLib::nor(&cfg.hybrid, &CharConfig::default())
        .map_err(|e| format!("characterization: {e}"))?;
    let budget = lib.budget();
    Ok((cfg.with_cached_library(lib), budget))
}

/// Layer timings of one scored pair, replayed call by call.
#[derive(Default)]
struct PairLayers {
    characterize: Vec<f64>,
    reference: Vec<f64>,
    hybrid_apply2: Vec<f64>,
    cached_apply2: Vec<f64>,
    exp_apply: Vec<f64>,
    deviation_area: Vec<f64>,
    layer_sum: Vec<f64>,
}

impl PairLayers {
    /// Replays pair `seed` of `tc` through the public calls
    /// `run_experiment` makes, timing each one.
    fn replay(
        &mut self,
        cfg: &ExperimentConfig,
        tc: &TraceConfig,
        seed: u64,
    ) -> Result<(), String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mut sum = 0.0;
        let mut timed = |samples: &mut Vec<f64>, t0: Instant| {
            let dt = secs(t0.elapsed());
            samples.push(dt);
            sum += dt;
        };
        let t0 = Instant::now();
        let chars = characteristic_delays(&cfg.tech, &cfg.tran).map_err(|e| err(&e))?;
        timed(&mut self.characterize, t0);
        let sis_fall = 0.5 * (chars[0] + chars[2]);
        let sis_rise = 0.5 * (chars[3] + chars[5]);
        let inertial = InertialChannel::symmetric(sis_rise, sis_fall).map_err(|e| err(&e))?;
        let exp = ExpChannel::from_sis_delays(sis_rise, sis_fall, cfg.exp_pure_delay)
            .map_err(|e| err(&e))?;
        let with = HybridNorChannel::new(&cfg.hybrid).map_err(|e| err(&e))?;
        let without =
            HybridNorChannel::new(&cfg.hybrid.without_pure_delay()).map_err(|e| err(&e))?;
        let lib = cfg.cached.as_ref().ok_or("experiment has no tables")?;
        let cached = CachedHybridChannel::new(lib).map_err(|e| err(&e))?;

        let mut tc = tc.clone();
        tc.min_gap = tc.min_gap.max(1.25 * cfg.tech.input_slew);
        let pair = tc.generate(seed).map_err(|e| err(&e))?;
        let t0 = Instant::now();
        let reference =
            reference_trace(cfg, &pair.a, &pair.b, pair.horizon).map_err(|e| err(&e))?;
        timed(&mut self.reference, t0);
        let ideal = gates::nor(&pair.a, &pair.b).map_err(|e| err(&e))?;
        let mut outputs = vec![inertial.apply(&ideal).map_err(|e| err(&e))?];
        let t0 = Instant::now();
        outputs.push(exp.apply(&ideal).map_err(|e| err(&e))?);
        timed(&mut self.exp_apply, t0);
        for ch in [&without, &with] {
            let t0 = Instant::now();
            outputs.push(ch.apply2(&pair.a, &pair.b).map_err(|e| err(&e))?);
            timed(&mut self.hybrid_apply2, t0);
        }
        let t0 = Instant::now();
        outputs.push(cached.apply2(&pair.a, &pair.b).map_err(|e| err(&e))?);
        timed(&mut self.cached_apply2, t0);
        for out in &outputs {
            let t0 = Instant::now();
            deviation_area(out, &reference, 0.0, pair.horizon).map_err(|e| err(&e))?;
            timed(&mut self.deviation_area, t0);
        }
        self.layer_sum.push(sum);
        Ok(())
    }

    fn add_metrics(&self, report: &mut Report) {
        let mean = |v: &[f64]| Summary::of(v).mean;
        report.metric("analog.reference_ms", mean(&self.reference) * 1e3, "ms");
        report.metric(
            "core.hybrid_apply2_us",
            mean(&self.hybrid_apply2) * 1e6,
            "us",
        );
        report.metric(
            "digital.cached_apply2_us",
            mean(&self.cached_apply2) * 1e6,
            "us",
        );
        report.metric("digital.exp_apply_us", mean(&self.exp_apply) * 1e6, "us");
        report.metric(
            "waveform.deviation_area_us",
            mean(&self.deviation_area) * 1e6,
            "us",
        );
        report.info_num(
            "fig7.characterize_per_pair_ms",
            mean(&self.characterize) * 1e3,
        );
        report.info_num("fig7.layer_sum_ms", mean(&self.layer_sum) * 1e3);
    }
}

/// Set-up layers of the calibration: characterization of the analog
/// reference, the least-squares fit, and the table build, each the
/// median of [`SETUP_REPS`] repetitions.
fn setup_layers(report: &mut Report, reference: &ExperimentConfig) -> Result<(), String> {
    let (tech, tran) = (NorTech::freepdk15_like(), TransientOptions::default());
    let mut steps: [Vec<f64>; 3] = Default::default();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let chars = characteristic_delays(&tech, &tran).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        // The rule `ExperimentConfig::calibrated(.., None, ..)` applies.
        let targets = CharacteristicDelays::from_array(chars);
        let fit_cfg = FitConfig {
            delta_min: (2.0 * targets.fall_zero - targets.fall_minus_inf).max(0.0),
            vdd: tech.vdd,
            vth: tech.vdd / 2.0,
            ..FitConfig::default()
        };
        let params = fit(&targets, &fit_cfg).map_err(|e| e.to_string())?.params;
        let t2 = Instant::now();
        CharLib::nor(&params, &CharConfig::default()).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        if params != reference.hybrid {
            return Err("replayed calibration differs from ExperimentConfig::calibrated".into());
        }
        for (k, (a, b)) in [(t0, t1), (t1, t2), (t2, t3)].into_iter().enumerate() {
            steps[k].push(secs(b - a));
        }
    }
    let names = ["analog.characterize_ms", "core.fit_ms", "charlib.build_ms"];
    for (name, samples) in names.into_iter().zip(&steps) {
        report.metric(name, Summary::of(samples).median * 1e3, "ms");
    }
    Ok(())
}

/// The `nor_fig7` job: calibrate, then score one Fig. 7 pair per
/// `run_experiment` call, cycling through the four paper configurations
/// round by round until the budget is spent (whole rounds only).
///
/// # Errors
///
/// A message if set-up fails; failed pairs are counted, not returned.
pub fn job(report: &mut Report, seed: u64, budget: Budget, trace: bool) -> Result<(), String> {
    // Calibration is timed once before the loop and again after every
    // round, so the set-up median samples the host over the whole run.
    let mut setups = Vec::new();
    let mut calibrate = || -> Result<(ExperimentConfig, f64), String> {
        let t0 = Instant::now();
        let calibration = calibrated()?;
        setups.push(secs(t0.elapsed()));
        Ok(calibration)
    };
    let (mut cfg, char_budget) = calibrate()?;
    let configs = paper_configurations();
    let min_pairs = if trace {
        budget.min_ops
    } else {
        budget.min_ops.max(MIN_PAIRS)
    };
    let min_rounds = ACCURACY_ROUNDS.max(min_pairs.div_ceil(configs.len() as u64));
    cfg.repetitions = 1;
    let mut pairs = Vec::new();
    let mut times = Vec::new();
    let mut layers = PairLayers::default();
    let started = Instant::now();
    let mut round = 0;
    let mut worst_excess = 0.0_f64;
    while round < min_rounds || started.elapsed().as_secs_f64() < budget.seconds {
        for (c, tc) in configs.iter().enumerate() {
            cfg.base_seed = pair_seed(seed, round, c);
            let t0 = Instant::now();
            let scored = run_experiment(&cfg, std::slice::from_ref(tc));
            let dt = secs(t0.elapsed());
            match scored {
                Ok(mut scores) => {
                    let models = scores.remove(0).models;
                    // Per pair the budget can be exceeded where a delay
                    // within budget flips a pulse-filter decision; the
                    // check runs on the means, as the pinned test does.
                    let excess = (models[CACHED].raw_mean - models[HM_WITH].raw_mean).abs()
                        / (tc.transitions as f64 * char_budget);
                    worst_excess = worst_excess.max(excess);
                    report.ops(1, 0);
                    times.push(dt);
                    pairs.push(Pair {
                        config: c,
                        round,
                        models,
                    });
                }
                Err(e) => {
                    eprintln!("pair {round}/{c}: {e}");
                    report.ops(1, 1);
                }
            }
            if trace {
                layers.replay(&cfg, tc, cfg.base_seed)?;
            }
        }
        calibrate()?;
        round += 1;
    }
    if trace {
        setup_layers(report, &cfg)?;
    } else {
        let summary = Summary::of(&setups);
        report.metric("setup_s", summary.median, "s");
        report.info_json("setup_s", summary.json());
    }
    let means = accuracy_means(&pairs, configs.len());
    let ratios = assess(report, "fig7", &means, &configs, char_budget, true);
    report.info_num("fig7.pairs", pairs.len() as f64);
    report.info_num("fig7.worst_pair_budget_use", worst_excess);
    if trace {
        layers.add_metrics(report);
        report.info_num("fig7.op_wall_ms", Summary::of(&times).mean * 1e3);
    } else {
        loop_metrics(report, 1.0, &times, configs.len(), TAIL_Q);
        peak_rss(report);
        dev_ratio_metrics(report, ratios);
    }
    Ok(())
}

/// The Fig. 7 accuracy of the committed tables a C880 run simulates
/// with: the exact hybrid model at the tables' parameters and the
/// cached channel over the tables, scored against the analog reference
/// on [`ACCURACY_ROUNDS`] pairs per paper configuration. Runs after the
/// timed loop, so it moves no C880 timing.
///
/// # Errors
///
/// A message if the experiment fails.
pub fn committed_accuracy(report: &mut Report, lib: &CharLib, seed: u64) -> Result<(), String> {
    let configs = paper_configurations();
    let cfg = ExperimentConfig {
        hybrid: *lib.params(),
        repetitions: ACCURACY_ROUNDS as usize,
        base_seed: experiment_seed(seed),
        ..ExperimentConfig::default()
    }
    .with_cached_library(lib.clone());
    let scores = run_experiment(&cfg, &configs).map_err(|e| format!("accuracy pass: {e}"))?;
    report.ops(ACCURACY_ROUNDS * configs.len() as u64, 0);
    let means: Vec<Vec<ModelScore>> = scores.into_iter().map(|s| s.models).collect();
    let ratios = assess(
        report,
        "committed_tables",
        &means,
        &configs,
        lib.budget(),
        false,
    );
    dev_ratio_metrics(report, ratios);
    Ok(())
}
