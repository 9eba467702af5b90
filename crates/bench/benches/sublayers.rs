//! Benches over the paper's evaluated configurations: one T-NLG
//! FC-2-like sublayer (tokens scaled 8x down) per configuration.
//! These are the per-table regeneration workloads of Figures 15/16 in
//! micro form; the `figures` binary runs them at full scale.
//!
//! `Configuration::run` memoises its engine runs per process, so after
//! the warm-up it would time lookups. Each bench therefore calls the
//! primitive engines a configuration decomposes into. Those engines
//! share each grid's LLC plan through a process memo, so after the
//! warm-up they no longer walk the cache; `llc_plan/*` times that
//! walk, the one per-line cost left, on the paper-scale matrix shapes.
//! `mc/busy_cycle/*` times the memory controller on its own: a window
//! of saturated cycles per policy, with one stream and with two.
//! `mc/drain/*` times the same one-stream window through
//! `advance_busy`, uninstrumented, which replays a lone stream's drain
//! in its tight loop.

use std::hint::black_box;
use t3_bench::experiments::main_study_models;
use t3_bench::harness::{bench, DEFAULT_ITERS};
use t3_core::configs::Configuration;
use t3_core::engine::run_fused_gemm_rs;
use t3_gpu::collective::{CollectiveKind, RingCollective};
use t3_gpu::engine::{run_gemm_isolated, WritePolicy};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_gpu::llc_plan::LlcPlan;
use t3_mem::arbiter::{ArbitrationPolicy, ComputeFirstPolicy, McaPolicy, RoundRobinPolicy};
use t3_mem::controller::{MemoryController, StreamId};
use t3_models::zoo;
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficClass;
use t3_sim::Cycle;

fn sublayer_shape() -> GemmShape {
    let mut s = zoo::t_nlg().sublayer_gemm(t3_models::Sublayer::Fc2, 8);
    s.m /= 8;
    s
}

/// Simulates `config` on `shape` through the un-memoised engines and
/// returns the sum of their cycles: the fused GEMM-RS for T3 variants,
/// the isolated GEMM plus the ring RS otherwise, and the ring AG.
fn simulate(config: Configuration, sys: &SystemConfig, shape: &GemmShape) -> Cycle {
    let grid = GemmGrid::new(&sys.gpu, *shape);
    let ring = |kind| RingCollective::baseline(kind, shape.output_bytes(), sys);
    let ag = ring(CollectiveKind::AllGather).simulate(sys).cycles;
    let span = match config.fused_options() {
        Some(opts) => run_fused_gemm_rs(sys, grid, &opts).cycles,
        None => {
            let rs = ring(CollectiveKind::ReduceScatter)
                .with_nmc(config == Configuration::IdealRsNmc)
                .simulate(sys);
            run_gemm_isolated(sys, grid, WritePolicy::CachedLocal).cycles + rs.cycles
        }
    };
    span + ag
}

fn bench_configurations() {
    let sys = SystemConfig::paper_default();
    let shape = sublayer_shape();
    for config in Configuration::ALL {
        bench(
            &format!("sublayer_configs/{}", config.name()),
            DEFAULT_ITERS,
            || black_box(simulate(config, &sys, &shape)),
        );
    }
}

fn bench_tp_scaling() {
    for tp in [8u64, 16] {
        let sys = SystemConfig::paper_default().with_num_gpus(tp as usize);
        let mut shape = zoo::t_nlg().sublayer_gemm(t3_models::Sublayer::Fc2, tp);
        shape.m /= 8;
        bench(&format!("t3_mca_tp_scaling/tp{tp}"), DEFAULT_ITERS, || {
            black_box(simulate(Configuration::T3Mca, &sys, &shape))
        });
    }
}

/// Builds, outside the memo, the LLC plan of every sublayer GEMM of
/// the paper-scale Fig. 15/16/18 matrix, with cached stores (the
/// isolated GEMM) and with bypassed ones (the fused GEMM-RS).
fn bench_llc_plans() {
    let sys = SystemConfig::paper_default();
    let grids: Vec<GemmGrid> = main_study_models()
        .iter()
        .flat_map(|(model, tp)| {
            t3_models::Sublayer::ALL
                .map(|sub| GemmGrid::new(&sys.gpu, model.sublayer_gemm(sub, *tp)))
        })
        .collect();
    for (mode, cached) in [("cached", true), ("bypassed", false)] {
        bench(
            &format!("llc_plan/paper_matrix/{mode}"),
            DEFAULT_ITERS,
            || {
                for grid in &grids {
                    black_box(LlcPlan::build(&sys.mem, grid.clone(), cached));
                }
            },
        );
    }
}

/// Busy controller cycles per `mc/busy_cycle/*` iteration.
const BUSY_CYCLES: Cycle = 100_000;

/// Steps a controller through [`BUSY_CYCLES`] saturated cycles per
/// iteration, under each policy, with only the compute stream loaded
/// and with both streams loaded (the comm stream with NMC updates).
/// An iteration's time over [`BUSY_CYCLES`] is the host cost of one
/// busy cycle.
fn bench_busy_controller() {
    let cfg = SystemConfig::paper_default().mem;
    // More bytes per stream than the window can service (~715 B/cycle).
    let bytes = BUSY_CYCLES * 1024;
    let policies: [(&str, ArbitrationPolicy); 3] = [
        ("compute_first", ComputeFirstPolicy::new().into()),
        ("round_robin", RoundRobinPolicy::new().into()),
        ("mca", McaPolicy::with_fixed_threshold(10).into()),
    ];
    for (name, policy) in policies {
        for streams in [1, 2] {
            let label = format!("mc/busy_cycle/{name}/{streams}_stream");
            bench(&label, DEFAULT_ITERS, || {
                let mut mc = MemoryController::new(&cfg, policy.clone());
                mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, bytes, 1.0);
                if streams == 2 {
                    let cost = cfg.nmc_cost_multiplier;
                    mc.enqueue(StreamId::Comm, TrafficClass::RsUpdate, bytes, cost);
                }
                for now in 0..BUSY_CYCLES {
                    mc.step(now, None);
                }
                black_box(mc.stats().total())
            });
        }
        let label = format!("mc/drain/{name}/1_stream");
        bench(&label, DEFAULT_ITERS, || {
            let mut mc = MemoryController::new(&cfg, policy.clone());
            mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, bytes, 1.0);
            // A far horizon and no watch: the leap ends at the window.
            let at = mc.advance_busy(0, BUSY_CYCLES, &[], None, None);
            black_box((at, mc.stats().total()))
        });
    }
}

fn main() {
    bench_busy_controller();
    bench_configurations();
    bench_tp_scaling();
    bench_llc_plans();
}
