//! Micro-benchmarks of the computational kernels behind the figures:
//! single delay queries of the hybrid model, trajectory evaluation,
//! characteristic-delay extraction, the Section V parametrization, and
//! one analog transient of the reference gate.
//!
//! Runs on the in-repo `mis-testkit` bench harness (offline replacement
//! for `criterion`); JSON results land in `BENCH_model_kernels.json`.

use mis_analog::transient::TransientOptions;
use mis_analog::NorTech;
use mis_core::charlie::CharacteristicDelays;
use mis_core::{delay, fit, HybridTrajectory, Mode, ModeSwitch, NorParams, RisingInitialVn};
use mis_digital::{gates, ChannelCounters, InertialChannel, TraceTransform};
use mis_testkit::bench::{black_box, Harness};
use mis_waveform::generate::{Assignment, TraceConfig};
use mis_waveform::units::ps;
use mis_waveform::{DigitalTrace, EdgeBuf};

fn main() {
    let mut h = Harness::from_args("model_kernels");
    let p = NorParams::paper_table1();

    h.bench("falling_delay_single", || {
        delay::falling_delay(black_box(&p), black_box(ps(10.0))).expect("delay")
    });

    h.bench("rising_delay_single", || {
        delay::rising_delay(black_box(&p), black_box(ps(-10.0)), RisingInitialVn::Gnd)
            .expect("delay")
    });

    {
        let traj = HybridTrajectory::new(
            &p,
            Mode::S00,
            [p.vdd, p.vdd],
            0.0,
            &[
                ModeSwitch {
                    at: 0.0,
                    to: Mode::S10,
                },
                ModeSwitch {
                    at: ps(10.0),
                    to: Mode::S11,
                },
            ],
        )
        .expect("trajectory");
        h.bench("trajectory_eval_100_points", || {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += traj.eval(ps(i as f64))[1];
            }
            black_box(acc)
        });
    }

    h.bench("characteristic_delays_model", || {
        CharacteristicDelays::of_model(black_box(&p)).expect("characteristics")
    });

    {
        let targets = CharacteristicDelays::of_model(&p.without_pure_delay()).expect("targets");
        let cfg = fit::FitConfig {
            max_evals: 800,
            ..fit::FitConfig::default()
        };
        h.bench("fit_roundtrip", || {
            fit::fit(black_box(&targets), &cfg).expect("fit")
        });
    }

    {
        // One-time gate characterization (the cost the cached channel
        // amortizes): full default config, and a coarse quick variant.
        let cfg = mis_charlib::CharConfig::default();
        h.bench("charlib_build/nor_default", || {
            mis_charlib::CharLib::nor(black_box(&p), &cfg).expect("characterization")
        });
        let quick = mis_charlib::CharConfig {
            initial_points: 9,
            budget: ps(0.5),
            vn_fractions: vec![0.0, 0.5, 1.0],
            ..mis_charlib::CharConfig::default()
        };
        h.bench("charlib_build/nor_quick", || {
            mis_charlib::CharLib::nor(black_box(&p), &quick).expect("characterization")
        });
    }

    {
        // The fused ideal-gate + channel pass of `Network::run_in`, on
        // warm staging buffers — tracked separately from the netlist
        // benches so the fusion win is visible independently of topology
        // effects. 500 input transitions, as in `channel_throughput`.
        let pair = TraceConfig::new(ps(150.0), ps(60.0), Assignment::Local, 500)
            .generate(0xbe7)
            .expect("trace generation");
        let inertial = InertialChannel::symmetric(ps(50.0), ps(38.0)).expect("channel");
        let (mut abuf, mut bbuf) = (EdgeBuf::new(), EdgeBuf::new());
        abuf.copy_trace(&pair.a);
        bbuf.copy_trace(&pair.b);
        let mut scratch = EdgeBuf::new();
        let mut out = EdgeBuf::new();
        h.bench("fused_gate_channel/nor_inertial_500", || {
            gates::combine2_into(|x, y| !(x || y), abuf.as_ref(), bbuf.as_ref(), &mut scratch)
                .expect("ideal");
            inertial
                .apply_into(scratch.as_ref(), &mut out, ChannelCounters::disabled())
                .expect("inertial");
            out.len()
        });
        // The unfused equivalent (owned ideal trace + allocating apply),
        // for the before/after of the same work.
        h.bench("fused_gate_channel/nor_inertial_500_alloc", || {
            let ideal = gates::nor(&pair.a, &pair.b).expect("ideal");
            inertial.apply(&ideal).expect("inertial").transition_count()
        });
    }

    {
        let tech = NorTech::freepdk15_like();
        let opts = TransientOptions::default();
        let a = DigitalTrace::with_edges(false, vec![(ps(300.0), true)]).expect("trace");
        let bb = DigitalTrace::constant(false);
        h.bench("analog_transient_single_edge", || {
            tech.simulate_traces(black_box(&a), &bb, ps(700.0), &opts)
                .expect("transient")
        });
    }

    h.finish();
}
