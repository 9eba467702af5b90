//! Busy leaps are exact: with the memory controller busy, the
//! fast-forward engines step the controller alone up to the next cycle
//! a component watches for, and every result must equal the stepped
//! reference — cycles, per-class traffic, DMA transfers, Tracker peak,
//! link bytes, time-series buckets and exported trace bytes. Shapes are
//! drawn from a seeded deterministic PRNG, so a failure reproduces
//! from the printed case alone.

use t3::core::engine::PolicyChoice;
use t3::core::engine::{
    run_fused_gemm_all_to_all, run_fused_gemm_direct_rs, run_fused_gemm_rs,
    run_fused_gemm_rs_instrumented, FusedOptions, FusedRunResult,
};
use t3::gpu::engine::{run_gemm_isolated_traced_in_mode, WritePolicy};
use t3::gpu::gemm::{GemmGrid, GemmShape};
use t3::mem::nmc::ReductionSubstrate;
use t3::models::zoo::{self, Sublayer};
use t3::sim::config::SystemConfig;
use t3::sim::rng::SplitMix64;
use t3::sim::SimMode;
use t3::trace::chrome::chrome_trace_json;
use t3::trace::{Detail, Instruments, Tracer};

/// A small sliced GEMM: several stages and chunks, still quick to step
/// cycle by cycle in a debug build.
fn seeded_shape(rng: &mut SplitMix64) -> GemmShape {
    let dim = |rng: &mut SplitMix64| rng.gen_range(2, 17) * 128 + rng.pick(&[0u64, 64, 100]);
    let m = dim(rng);
    let n = dim(rng);
    GemmShape::new(m, n, rng.gen_range(64, 512))
}

/// Every mirrored schedule (the ring, direct-RS and all-to-all) on each
/// seeded case.
#[test]
fn fused_ring_runs_are_identical_across_modes() {
    let mut rng = SplitMix64::new(0xB05E_1EA9);
    let policies = [
        PolicyChoice::RoundRobin,
        PolicyChoice::ComputeFirst,
        PolicyChoice::McaDynamic,
        PolicyChoice::McaFixed(5),
    ];
    for (i, policy) in policies.into_iter().cycle().take(12).enumerate() {
        let mut sys = SystemConfig::paper_default().with_num_gpus(rng.pick(&[4usize, 8]));
        sys.gpu.gemm_prefetch = rng.gen_bool();
        let shape = seeded_shape(&mut rng);
        let opts = FusedOptions {
            policy,
            substrate: if i % 2 == 0 {
                ReductionSubstrate::NearMemory
            } else {
                ReductionSubstrate::SystemAtomics
            },
            stagger: i % 3 != 2,
            timeseries_bucket: Some(rng.gen_range(64, 4096)),
            mode: SimMode::Stepped,
        };
        type Run = fn(&SystemConfig, GemmGrid, &FusedOptions) -> FusedRunResult;
        let schedules: [(&str, Run); 3] = [
            ("ring", run_fused_gemm_rs),
            ("direct-RS", run_fused_gemm_direct_rs),
            ("all-to-all", run_fused_gemm_all_to_all),
        ];
        for (name, schedule) in schedules {
            // The direct-link schedules always stagger; only the ring
            // varies it.
            let stagger = opts.stagger || name != "ring";
            let run = |mode| {
                let opts = FusedOptions {
                    mode,
                    stagger,
                    ..opts
                };
                schedule(&sys, GemmGrid::new(&sys.gpu, shape), &opts)
            };
            let stepped = format!("{:?}", run(SimMode::Stepped));
            let fast = format!("{:?}", run(SimMode::FastForward));
            let gpus = sys.num_gpus;
            assert_eq!(stepped, fast, "{name}: {opts:?} {shape:?} on {gpus} GPUs");
        }
    }
}

#[test]
fn isolated_gemm_runs_are_identical_across_modes() {
    let mut rng = SplitMix64::new(0x15_0CA7ED);
    let writes = [
        WritePolicy::CachedLocal,
        WritePolicy::BypassLocal,
        WritePolicy::BypassNmcUpdate(1.15),
    ];
    for write in writes {
        for prefetch in [false, true] {
            let mut sys = SystemConfig::paper_default();
            sys.gpu.gemm_prefetch = prefetch;
            let shape = seeded_shape(&mut rng);
            let bucket = Some(rng.gen_range(64, 4096));
            let run = |mode| {
                let grid = GemmGrid::new(&sys.gpu, shape);
                let mut ins = Instruments::full();
                let (r, ts) = run_gemm_isolated_traced_in_mode(
                    &sys,
                    grid,
                    write,
                    bucket,
                    mode,
                    Some(&mut ins),
                );
                let Instruments { tracer, metrics } = ins;
                let records = tracer.map(|t| format!("{:?}", t.records()));
                let exports = metrics.map(|m| (m.to_json(), m.to_csv()));
                (format!("{r:?} {ts:?}"), records, exports)
            };
            let stepped = run(SimMode::Stepped);
            assert!(
                stepped == run(SimMode::FastForward),
                "{write:?} prefetch={prefetch} {shape:?}"
            );
        }
    }
}

/// Per-wavefront Tracker updates are timestamped at the cycle their
/// region's last byte is serviced, so the fine trace pins every
/// region boundary a busy leap must stop at.
#[test]
fn fine_trace_exports_are_byte_identical_across_modes() {
    let mut sys = SystemConfig::paper_default();
    sys.num_gpus = 4;
    let shape = GemmShape::new(512, 1024, 256);
    let export = |mode| {
        let mut ins = Instruments {
            tracer: Some(Tracer::with_detail(Detail::Fine)),
            ..Instruments::full()
        };
        let opts = FusedOptions {
            policy: PolicyChoice::McaDynamic,
            mode,
            ..FusedOptions::default()
        };
        let grid = GemmGrid::new(&sys.gpu, shape);
        let run = run_fused_gemm_rs_instrumented(&sys, grid, &opts, Some(&mut ins));
        let tracer = ins.tracer.expect("tracer on");
        let metrics = ins.metrics.expect("metrics on");
        let json = chrome_trace_json(tracer.records(), sys.gpu.clock_ghz);
        (format!("{run:?}"), json, metrics.to_json())
    };
    let stepped = export(SimMode::Stepped);
    assert!(
        stepped.1.contains("tracker_update"),
        "the fine trace records Tracker updates"
    );
    assert!(
        stepped == export(SimMode::FastForward),
        "fine trace diverged across modes"
    );
}

/// The deterministic work counters: fast-forward walks the T-NLG FC-2
/// TP=8 sublayer (tokens / 8) in at most 1% as many loop steps as it
/// has cycles, while the stepped reference takes one step per cycle
/// and never leaps.
#[test]
fn busy_leaps_cut_loop_steps_below_one_percent_of_cycles() {
    let sys = SystemConfig::paper_default().with_num_gpus(8);
    let mut shape = zoo::t_nlg().sublayer_gemm(Sublayer::Fc2, 8);
    shape.m = (shape.m / 8).max(256);
    let counters = |mode| {
        let mut ins = Instruments::full();
        let opts = FusedOptions {
            mode,
            ..FusedOptions::default()
        };
        let run = run_fused_gemm_rs_instrumented(
            &sys,
            GemmGrid::new(&sys.gpu, shape),
            &opts,
            Some(&mut ins),
        );
        let m = ins.metrics.expect("metrics on");
        (
            run.cycles,
            m.work("run.loop_steps"),
            m.work("run.busy_leap_cycles"),
        )
    };
    let (cycles, steps, leaped) = counters(SimMode::FastForward);
    assert!(
        steps * 100 <= cycles,
        "{steps} loop steps for {cycles} cycles exceeds 1%"
    );
    assert!(leaped > 0, "the controller leaps its busy phases");
    let (stepped_cycles, stepped_steps, stepped_leaped) = counters(SimMode::Stepped);
    assert_eq!(stepped_cycles, cycles);
    assert!(stepped_steps >= cycles, "stepped mode steps every cycle");
    assert_eq!(stepped_leaped, 0, "stepped mode never leaps");
}
