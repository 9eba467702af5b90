//! The sublayer cost oracle under `Configuration::run_in_mode`: its
//! memo must be invisible. Every outcome equals the composition of the
//! un-memoised primitive engines, on a miss and on a hit, for any
//! input the key must tell apart, and from any number of threads.
//!
//! Each test prices shapes no other test in this file uses, so its
//! first call of a key is a miss even when the tests run in parallel.

use std::sync::Barrier;

use t3::core::configs::{Configuration, SublayerOutcome};
use t3::core::engine::{run_fused_gemm_rs, FusedOptions, PolicyChoice};
use t3::gpu::collective::{CollectiveKind, RingCollective};
use t3::gpu::engine::{run_gemm_isolated_in_mode, WritePolicy};
use t3::gpu::gemm::{GemmGrid, GemmShape};
use t3::models::Sublayer;
use t3::sim::config::SystemConfig;
use t3::sim::SimMode;
use t3_bench::experiments::{
    fig15, fig16, fig18, main_study_models, run_sublayer_matrix, ExperimentScale, SublayerCase,
};

/// `config` on `shape`, composed from the primitive engines as
/// Section 5.3 defines it, without going through the memo.
fn composed(
    config: Configuration,
    sys: &SystemConfig,
    shape: &GemmShape,
    mode: SimMode,
) -> SublayerOutcome {
    let grid = GemmGrid::new(&sys.gpu, *shape);
    let ring = |kind| RingCollective::baseline(kind, shape.output_bytes(), sys);
    let ag = ring(CollectiveKind::AllGather).simulate(sys);
    let (gemm_cycles, rs_cycles, span, mut stats) = match config {
        Configuration::T3 | Configuration::T3Mca => {
            let policy = if config == Configuration::T3 {
                PolicyChoice::RoundRobin
            } else {
                PolicyChoice::McaDynamic
            };
            let opts = FusedOptions {
                policy,
                mode,
                ..FusedOptions::default()
            };
            let fused = run_fused_gemm_rs(sys, grid, &opts);
            (fused.cycles, 0, fused.cycles, fused.stats)
        }
        Configuration::Sequential | Configuration::IdealOverlap | Configuration::IdealRsNmc => {
            let gemm = run_gemm_isolated_in_mode(sys, grid, WritePolicy::CachedLocal, mode);
            let rs = ring(CollectiveKind::ReduceScatter)
                .with_nmc(config == Configuration::IdealRsNmc)
                .simulate(sys);
            let mut stats = gemm.stats;
            stats.merge(&rs.stats);
            let span = if config == Configuration::Sequential {
                gemm.cycles + rs.cycles
            } else {
                gemm.cycles.max(rs.cycles)
            };
            (gemm.cycles, rs.cycles, span, stats)
        }
    };
    stats.merge(&ag.stats);
    SublayerOutcome {
        config,
        gemm_cycles,
        rs_cycles,
        ag_cycles: ag.cycles,
        total_cycles: span + ag.cycles,
        stats,
    }
}

/// Asserts `config` on `shape` prices as its primitive composition on
/// the first call and on a repeat.
fn assert_transparent(config: Configuration, sys: &SystemConfig, shape: &GemmShape, mode: SimMode) {
    let want = format!("{:?}", composed(config, sys, shape, mode));
    for call in ["first", "repeat"] {
        let got = format!("{:?}", config.run_in_mode(sys, shape, mode));
        assert_eq!(got, want, "{} {mode:?}, {call} call", config.name());
    }
}

#[test]
fn memo_is_transparent_for_every_configuration_and_mode() {
    let sys = SystemConfig::paper_default();
    let shape = GemmShape::new(1024, 2048, 2048);
    for mode in [SimMode::Stepped, SimMode::FastForward] {
        for config in Configuration::ALL {
            assert_transparent(config, &sys, &shape, mode);
        }
    }
    // The MCA policy moves this shape, so a fused key without the
    // options would hand one T3 variant the other's run.
    let span = |config: Configuration| config.run(&sys, &shape).gemm_cycles;
    assert_ne!(span(Configuration::T3), span(Configuration::T3Mca));
}

#[test]
fn memo_key_tells_apart_system_fields() {
    let base = SystemConfig::paper_default().with_num_gpus(8);
    let shape = GemmShape::new(512, 1536, 2048);
    let mode = SimMode::FastForward;
    let span = |config: Configuration, sys: &SystemConfig| {
        config.run_in_mode(sys, &shape, mode).gemm_cycles
    };
    let mut small_llc = base.clone();
    small_llc.mem.llc_capacity = 1 << 20;
    let fewer_gpus = base.clone().with_num_gpus(4);
    // A smaller LLC slows the isolated GEMM; fewer GPUs change the
    // fused ring (the isolated GEMM runs on one GPU either way). A key
    // that dropped `sys` would hand back the base run for both.
    for (name, sys, config) in [
        ("llc_capacity", &small_llc, Configuration::Sequential),
        ("num_gpus", &fewer_gpus, Configuration::T3Mca),
    ] {
        assert_ne!(
            span(config, sys),
            span(config, &base),
            "{name} must move {}",
            config.name()
        );
        for config in Configuration::ALL {
            assert_transparent(config, sys, &shape, mode);
        }
    }
}

#[test]
fn concurrent_callers_share_one_outcome_per_key() {
    let sys = SystemConfig::paper_default().with_num_gpus(4);
    let shape = GemmShape::new(256, 1024, 1536);
    let mode = SimMode::FastForward;
    let start = Barrier::new(4);
    let per_thread: Vec<Vec<String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let (sys, shape, start) = (&sys, &shape, &start);
                s.spawn(move || {
                    start.wait();
                    // Two threads open on the isolated GEMM and two on
                    // the T3 fused run, so each first run has a second
                    // caller asking for it while it simulates.
                    let mut outs: Vec<(usize, String)> = (0..Configuration::ALL.len())
                        .map(|i| (i + t % 2) % Configuration::ALL.len())
                        .map(|i| {
                            let out = Configuration::ALL[i].run_in_mode(sys, shape, mode);
                            (i, format!("{out:?}"))
                        })
                        .collect();
                    outs.sort();
                    outs.into_iter().map(|(_, out)| out).collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("pricing thread panicked"))
            .collect()
    });
    let want: Vec<String> = Configuration::ALL
        .iter()
        .map(|&c| format!("{:?}", composed(c, &sys, &shape, mode)))
        .collect();
    for (t, outs) in per_thread.iter().enumerate() {
        assert_eq!(outs, &want, "thread {t}");
    }
}

#[test]
fn figure_tables_are_identical_on_miss_and_hit() {
    let (model, tp) = main_study_models()
        .into_iter()
        .find(|(m, tp)| m.name == "Mega-GPT-2" && *tp == 16)
        .expect("Mega-GPT-2 TP=16 is in the main study");
    let pair = [(model.clone(), tp)];
    let miss = run_sublayer_matrix(&pair, ExperimentScale::FAST);
    let hit = run_sublayer_matrix(&pair, ExperimentScale::FAST);

    // The same matrix composed from the primitive engines, with the
    // `--fast` shapes (tokens / 8, at least 256).
    let sys = SystemConfig::paper_default().with_num_gpus(tp as usize);
    let fresh: Vec<SublayerCase> = Sublayer::ALL
        .into_iter()
        .map(|sublayer| {
            let mut shape = model.sublayer_gemm(sublayer, tp);
            shape.m = (shape.m / 8).max(256);
            SublayerCase {
                model: model.name.to_string(),
                tp,
                sublayer,
                outcomes: Configuration::ALL
                    .iter()
                    .map(|&c| composed(c, &sys, &shape, SimMode::default()))
                    .collect(),
            }
        })
        .collect();

    for (name, table) in [
        ("fig15", fig15 as fn(&[SublayerCase]) -> _),
        ("fig16", fig16),
        ("fig18", fig18),
    ] {
        let want = table(&fresh);
        for (run, cases) in [("miss", &miss), ("hit", &hit)] {
            let got = table(cases);
            assert_eq!(got.to_string(), want.to_string(), "{name} bytes on a {run}");
            assert_eq!(
                got.sim_cycles(),
                want.sim_cycles(),
                "{name} cycles on a {run}"
            );
        }
    }
}
