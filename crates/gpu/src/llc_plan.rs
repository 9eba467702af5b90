//! The LLC's effect on one GEMM, walked once per process.
//!
//! [`GemmEngine`](crate::engine::GemmEngine) touches the LLC at two
//! points only, always in stage order: when a stage starts (its read
//! regions) and when the caller routes the stage's stores (cached
//! stores write the stage's output range). Every kernel starts on an
//! empty cache. So each stage's DRAM read misses and write-backs are a
//! pure function of the LLC geometry, the [`GemmGrid`] and whether
//! stores are cached, not of time or contention. An [`LlcPlan`] walks
//! that fixed access sequence through a live [`Llc`] once and keeps
//! the per-stage results; the engines read them and own no cache.
//!
//! Plans sit in one process-wide memo ([`LlcPlan::shared`]) keyed by
//! exactly those inputs, so the devices of an explicit multi-GPU run,
//! T3 and T3-MCA, and every figure that re-runs a grid share one walk.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::gemm::GemmGrid;
use t3_mem::llc::{AccessKind, Llc};
use t3_sim::config::MemConfig;
use t3_sim::Bytes;

/// What the LLC does to one GEMM kernel, stage by stage.
#[derive(Debug)]
pub struct LlcPlan {
    grid: GemmGrid,
    cached_stores: bool,
    /// DRAM read-miss bytes per stage (before the engine's read
    /// overhead factor).
    read_miss: Vec<Bytes>,
    /// Dirty-line write-back bytes the stage's stores drain; all zero
    /// when stores bypass the cache.
    writeback: Vec<Bytes>,
    flush: Bytes,
    hits: u64,
    misses: u64,
}

/// The process-wide plan memo: exact input key → a slot filled once.
/// Entries are never evicted.
type PlanSlot = Arc<OnceLock<Arc<LlcPlan>>>;
static PLANS: Mutex<BTreeMap<String, PlanSlot>> = Mutex::new(BTreeMap::new());

impl LlcPlan {
    /// Walks `grid` through a fresh LLC described by `mem`, in the
    /// engine's order: per stage, the read regions, then (when
    /// `cached_stores`) the stage's output range as writes and the
    /// write-backs they drain; finally the end-of-kernel flush.
    pub fn build(mem: &MemConfig, grid: GemmGrid, cached_stores: bool) -> Self {
        let mut llc = Llc::new(mem);
        let stages = grid.num_stages();
        let mut read_miss = Vec::with_capacity(stages as usize);
        let mut writeback = Vec::with_capacity(stages as usize);
        for stage in 0..stages {
            let regions = grid.stage_read_regions(stage).into_iter();
            let read = |(addr, bytes)| llc.access_range(addr, bytes, AccessKind::Read).dram_bytes;
            read_miss.push(regions.map(read).sum());
            writeback.push(if cached_stores {
                let (wg_start, wg_end) = grid.stage_wgs(stage);
                let (addr, _) = grid.wg_output_region(wg_start);
                let bytes = grid.wg_range_output_bytes(wg_start, wg_end);
                llc.access_range(addr, bytes, AccessKind::Write);
                llc.take_writeback_bytes()
            } else {
                0
            });
        }
        LlcPlan {
            flush: llc.flush_dirty(),
            hits: llc.hits(),
            misses: llc.misses(),
            grid,
            cached_stores,
            read_miss,
            writeback,
        }
    }

    /// The plan for (`mem`'s LLC, `grid`, `cached_stores`) from the
    /// process memo, built on the first request. The key holds only
    /// the LLC fields of `mem` (capacity, ways, line, replacement), so
    /// runs that differ in anything else share one plan. The lock is
    /// held only to fetch the key's slot; a second caller of a plan
    /// being built waits for it instead of repeating the walk.
    pub fn shared(mem: &MemConfig, grid: &GemmGrid, cached_stores: bool) -> Arc<LlcPlan> {
        let key = format!(
            "{} {} {} {:?} {grid:?} {cached_stores}",
            mem.llc_capacity, mem.llc_ways, mem.llc_line, mem.llc_replacement
        );
        let slot = {
            // The only update is one `entry().or_default()`, which
            // leaves the map valid even if it panics, so a poisoned
            // lock is safe to use.
            let mut plans = PLANS.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(plans.entry(key).or_default())
        };
        let plan = slot.get_or_init(|| Arc::new(LlcPlan::build(mem, grid.clone(), cached_stores)));
        Arc::clone(plan)
    }

    /// The grid this plan walks.
    pub fn grid(&self) -> &GemmGrid {
        &self.grid
    }

    /// Whether the plan caches the kernel's stores (the baseline) or
    /// sends them around the LLC (T3's uncached outputs).
    pub fn cached_stores(&self) -> bool {
        self.cached_stores
    }

    /// DRAM read-miss bytes of `stage`'s read phase.
    pub fn stage_read_miss_bytes(&self, stage: u64) -> Bytes {
        self.read_miss[stage as usize]
    }

    /// Write-back bytes `stage`'s cached stores drain (0 when stores
    /// bypass the cache).
    pub fn stage_writeback_bytes(&self, stage: u64) -> Bytes {
        self.writeback[stage as usize]
    }

    /// Dirty bytes the end-of-kernel flush writes back (0 when stores
    /// bypass the cache).
    pub fn flush_bytes(&self) -> Bytes {
        self.flush
    }

    /// Line hits over the whole kernel.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Line misses over the whole kernel.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}
