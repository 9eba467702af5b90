//! Metamorphic properties of the timing model: how results must *move*
//! when a resource gets faster. Shapes are drawn from a seeded
//! deterministic PRNG, so a failure reproduces from the printed case
//! alone.

use t3::core::engine::{
    run_fused_gemm_all_to_all, run_fused_gemm_direct_rs, run_fused_gemm_rs, FusedOptions,
    PolicyChoice,
};
use t3::gpu::engine::{run_gemm_isolated, WritePolicy};
use t3::gpu::gemm::{GemmGrid, GemmShape};
use t3::sim::config::SystemConfig;
use t3::sim::rng::SplitMix64;
use t3::sim::Cycle;

/// HBM bandwidths in GB/s, in rising order.
const HBM_GB_S: [f64; 6] = [600.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0];

/// Every engine under test: its name and its cycles on one system.
type Engine = (&'static str, fn(&SystemConfig, GemmGrid) -> Cycle);

fn isolated(sys: &SystemConfig, grid: GemmGrid) -> Cycle {
    run_gemm_isolated(sys, grid, WritePolicy::CachedLocal).cycles
}

fn ring_round_robin(sys: &SystemConfig, grid: GemmGrid) -> Cycle {
    let opts = FusedOptions {
        policy: PolicyChoice::RoundRobin,
        ..FusedOptions::default()
    };
    run_fused_gemm_rs(sys, grid, &opts).cycles
}

fn ring_mca(sys: &SystemConfig, grid: GemmGrid) -> Cycle {
    let opts = FusedOptions {
        policy: PolicyChoice::McaDynamic,
        ..FusedOptions::default()
    };
    run_fused_gemm_rs(sys, grid, &opts).cycles
}

fn direct_rs(sys: &SystemConfig, grid: GemmGrid) -> Cycle {
    run_fused_gemm_direct_rs(sys, grid, &FusedOptions::default()).cycles
}

fn all_to_all(sys: &SystemConfig, grid: GemmGrid) -> Cycle {
    run_fused_gemm_all_to_all(sys, grid, &FusedOptions::default()).cycles
}

/// Cycles never rise as HBM bandwidth rises, for the isolated GEMM and
/// every mirrored fused schedule: more memory bandwidth only serves
/// every stream sooner.
#[test]
fn cycles_never_rise_with_hbm_bandwidth() {
    let engines: [Engine; 5] = [
        ("isolated GEMM", isolated),
        ("ring, round-robin", ring_round_robin),
        ("ring, T3-MCA", ring_mca),
        ("direct-RS", direct_rs),
        ("all-to-all", all_to_all),
    ];
    let mut rng = SplitMix64::new(7);
    let mut steps = 0;
    for _ in 0..16 {
        let gpus = rng.pick(&[4usize, 8]);
        let shape = GemmShape::new(
            rng.gen_range(2, 17) * 128,
            rng.gen_range(8, 65) * 128,
            rng.gen_range(2, 17) * 128,
        );
        for (name, engine) in engines {
            let mut last: Option<(f64, Cycle)> = None;
            for gb_s in HBM_GB_S {
                let mut sys = SystemConfig::paper_default().with_num_gpus(gpus);
                sys.mem.hbm_gb_s = gb_s;
                let cycles = engine(&sys, GemmGrid::new(&sys.gpu, shape));
                if let Some((slower, before)) = last {
                    assert!(
                        cycles <= before,
                        "{name}: {shape:?} on {gpus} GPUs takes {before} cycles at \
                         {slower} GB/s but {cycles} at {gb_s} GB/s"
                    );
                    steps += 1;
                }
                last = Some((gb_s, cycles));
            }
        }
    }
    assert_eq!(steps, 16 * 5 * 5);
}
