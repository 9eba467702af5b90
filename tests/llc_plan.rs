//! `LlcPlan` against a live cache. A plan must hold exactly what an
//! `Llc` walked in the GEMM engine's order reports: per stage, the read
//! regions, then (cached stores only) the stage's output range as
//! writes and the write-backs they drain; at the end, the flush. That
//! must hold for any shape, geometry, replacement policy and store
//! mode, and the process memo must tell apart every LLC field.

use std::sync::Arc;

use t3::gpu::engine::{run_gemm_isolated, WritePolicy};
use t3::gpu::gemm::{GemmGrid, GemmShape};
use t3::gpu::llc_plan::LlcPlan;
use t3::mem::llc::{AccessKind, Llc};
use t3::sim::config::{LlcReplacement, MemConfig, SystemConfig};
use t3::sim::rng::SplitMix64;
use t3::sim::stats::TrafficClass;
use t3::sim::Bytes;

const MIB: Bytes = 1 << 20;

/// Everything a plan records, as a live cache walked in engine order
/// reports it: (per-stage read misses, per-stage write-backs, flush
/// bytes, hits, misses).
type Walk = (Vec<Bytes>, Vec<Bytes>, Bytes, u64, u64);

fn live_walk(mem: &MemConfig, grid: &GemmGrid, cached_stores: bool) -> Walk {
    let mut llc = Llc::new(mem);
    let (mut read_miss, mut writeback) = (Vec::new(), Vec::new());
    for stage in 0..grid.num_stages() {
        let mut miss = 0;
        for (addr, bytes) in grid.stage_read_regions(stage) {
            miss += llc.access_range(addr, bytes, AccessKind::Read).dram_bytes;
        }
        read_miss.push(miss);
        let mut wb = 0;
        if cached_stores {
            let (wg_start, wg_end) = grid.stage_wgs(stage);
            let (addr, _) = grid.wg_output_region(wg_start);
            let bytes = grid.wg_range_output_bytes(wg_start, wg_end);
            llc.access_range(addr, bytes, AccessKind::Write);
            wb = llc.take_writeback_bytes();
        }
        writeback.push(wb);
    }
    let flush = llc.flush_dirty();
    (read_miss, writeback, flush, llc.hits(), llc.misses())
}

fn recorded(plan: &LlcPlan) -> Walk {
    let stages = 0..plan.grid().num_stages();
    (
        stages
            .clone()
            .map(|s| plan.stage_read_miss_bytes(s))
            .collect(),
        stages.map(|s| plan.stage_writeback_bytes(s)).collect(),
        plan.flush_bytes(),
        plan.hits(),
        plan.misses(),
    )
}

fn llc(capacity: Bytes, ways: u32, replacement: LlcReplacement) -> MemConfig {
    let mut mem = SystemConfig::paper_default().mem;
    mem.llc_capacity = capacity;
    mem.llc_ways = ways;
    mem.llc_replacement = replacement;
    mem
}

fn working_set(shape: &GemmShape) -> Bytes {
    shape.a_bytes() + shape.b_bytes() + shape.output_bytes()
}

#[test]
fn plan_equals_a_live_cache_walked_in_engine_order() {
    let gpu = SystemConfig::paper_default().gpu;
    let mut rng = SplitMix64::new(0x011C_91A4);
    let mut shapes: Vec<GemmShape> = (0..4)
        .map(|_| {
            let m = rng.gen_range(128, 3072);
            let n = rng.gen_range(128, 3072);
            let k = rng.gen_range(64, 1536);
            GemmShape::new(m, n, k)
        })
        .collect();
    // Pin both ends of the range: one working set well below 1 MiB and
    // one above 16 MiB, whatever the draws.
    shapes.push(GemmShape::new(128, 256, 64));
    shapes.push(GemmShape::new(2048, 3072, 1536));
    let sets: Vec<Bytes> = shapes.iter().map(working_set).collect();
    for capacity in [MIB, 16 * MIB] {
        assert!(
            sets.iter().any(|&ws| ws < capacity),
            "a shape fits {capacity}"
        );
        assert!(
            sets.iter().any(|&ws| ws > capacity),
            "a shape overflows {capacity}"
        );
    }

    let geometries = [(16 * MIB, 16), (MIB, 8)];
    for (capacity, ways) in geometries {
        for replacement in [LlcReplacement::Random, LlcReplacement::Lru] {
            let mem = llc(capacity, ways, replacement);
            for shape in &shapes {
                let grid = GemmGrid::new(&gpu, *shape);
                for cached in [true, false] {
                    let plan = LlcPlan::shared(&mem, &grid, cached);
                    assert_eq!(
                        recorded(&plan),
                        live_walk(&mem, &grid, cached),
                        "{capacity} B, {ways} ways, {replacement:?}, {shape:?}, cached={cached}"
                    );
                }
            }
        }
    }
}

#[test]
fn isolated_gemm_traffic_is_the_plans() {
    // The engine issues exactly the plan's misses, write-backs and
    // flush as DRAM traffic (read overhead factor 1 for an untransposed
    // shape).
    let sys = SystemConfig::paper_default();
    let grid = GemmGrid::new(&sys.gpu, GemmShape::new(1536, 1280, 768));
    let plan = LlcPlan::shared(&sys.mem, &grid, true);
    let (read_miss, writeback, flush, _, _) = recorded(&plan);
    let run = run_gemm_isolated(&sys, grid, WritePolicy::CachedLocal);
    assert_eq!(
        run.stats.bytes(TrafficClass::GemmRead),
        read_miss.iter().sum::<Bytes>()
    );
    assert_eq!(
        run.stats.bytes(TrafficClass::GemmWrite),
        writeback.iter().sum::<Bytes>() + flush
    );
}

#[test]
fn memo_key_tells_apart_every_llc_field() {
    let sys = SystemConfig::paper_default();
    let base = sys.mem.clone();
    // A shape no other test in this file uses.
    let grid = GemmGrid::new(&sys.gpu, GemmShape::new(384, 640, 192));
    let first = LlcPlan::shared(&base, &grid, true);
    assert!(
        Arc::ptr_eq(&first, &LlcPlan::shared(&base, &grid, true)),
        "a second request must return the same plan"
    );
    let other_replacement = match base.llc_replacement {
        LlcReplacement::Random => LlcReplacement::Lru,
        LlcReplacement::Lru => LlcReplacement::Random,
    };
    let variants = [
        (
            "llc_capacity",
            MemConfig {
                llc_capacity: base.llc_capacity / 2,
                ..base.clone()
            },
        ),
        (
            "llc_ways",
            MemConfig {
                llc_ways: base.llc_ways / 2,
                ..base.clone()
            },
        ),
        (
            "llc_line",
            MemConfig {
                llc_line: base.llc_line * 2,
                ..base.clone()
            },
        ),
        (
            "llc_replacement",
            MemConfig {
                llc_replacement: other_replacement,
                ..base.clone()
            },
        ),
    ];
    for (field, mem) in &variants {
        let plan = LlcPlan::shared(mem, &grid, true);
        assert!(
            !Arc::ptr_eq(&first, &plan),
            "{field} must key a separate plan"
        );
    }
    assert!(
        !Arc::ptr_eq(&first, &LlcPlan::shared(&base, &grid, false)),
        "the store mode must key a separate plan"
    );
    // Fields outside the LLC share the plan.
    let faster = MemConfig {
        hbm_gb_s: base.hbm_gb_s * 2.0,
        ..base.clone()
    };
    assert!(Arc::ptr_eq(&first, &LlcPlan::shared(&faster, &grid, true)));
}
