//! Overlapping an all-gather with its *consumer* GEMM (Section 7.2,
//! "TP with All-gather").
//!
//! Some tensor-parallel layouts all-gather activations *before* a
//! long-running GEMM instead of all-reducing after it. T3 extends to
//! this case by inverting the Tracker's role: it tracks
//! "all-gathered-input → GEMM-WG" and triggers a *WG scheduling
//! event* (instead of a DMA) once the input rows a workgroup consumes
//! have arrived. The paper notes the input→WG mapping is
//! kernel-implementation dependent and needs scheduling hints; the
//! [`AgFuseOptions::arrival_aligned`] flag models exactly that — with
//! hints, WG execution order follows chunk arrival; without, the first
//! stages may wait for the last chunk.
//!
//! As elsewhere, one GPU is simulated and arrivals are mirrored from
//! the ring's homogeneous timing.

use t3_gpu::collective::{CollectiveKind, RingCollective};
use t3_gpu::engine::{route_stage_stores, GemmEngine, GemmEvent, WritePolicy};
use t3_gpu::gemm::GemmGrid;
use t3_gpu::llc_plan::LlcPlan;
use t3_mem::arbiter::ComputeFirstPolicy;
use t3_mem::controller::{MemoryController, StreamId};
use t3_sim::clock::Clock;
use t3_sim::config::SystemConfig;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_sim::{Cycle, SimMode};

/// Options for the fused AG→GEMM run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgFuseOptions {
    /// Whether WG scheduling is aligned with chunk arrival order
    /// (the "additional programming hints" of Section 7.2). Without
    /// alignment, the stage that executes first needs the chunk that
    /// arrives last.
    pub arrival_aligned: bool,
}

impl Default for AgFuseOptions {
    fn default() -> Self {
        AgFuseOptions {
            arrival_aligned: true,
        }
    }
}

/// Outcome of a fused AG→GEMM run.
#[derive(Debug, Clone)]
pub struct AgFuseResult {
    /// End-to-end cycles (all-gather fully hidden or partially
    /// exposed, plus the GEMM).
    pub cycles: Cycle,
    /// DRAM traffic (incoming AG writes + the GEMM's own traffic).
    pub stats: TrafficStats,
    /// WG-scheduling trigger events fired (one per gated stage).
    pub scheduling_triggers: u64,
}

/// Runs the consumer GEMM with its A operand arriving via ring
/// all-gather, stages gated on input availability.
///
/// # Panics
///
/// Panics if the simulation fails to converge (an internal error).
pub fn run_fused_ag_gemm(sys: &SystemConfig, grid: GemmGrid, opts: &AgFuseOptions) -> AgFuseResult {
    let n = sys.num_gpus as u64;
    let shape = *grid.shape();
    let a_bytes = shape.a_bytes();
    let chunk_bytes = a_bytes / n;
    let link_ser = (chunk_bytes as f64 / sys.link.bytes_per_cycle()).ceil() as Cycle; // t3-lint: allow(float-cycles) -- matches Link::serialization_cycles rounding exactly
    let latency = sys.link.latency_cycles();

    // Chunk j of A covers rows [j*m/n, (j+1)*m/n). Arrival times:
    // the own shard at t=0; received shards pipelined one link
    // serialisation apart.
    let arrival_of_received = |j: u64| -> Cycle {
        debug_assert!(j >= 1);
        j * link_ser + latency
    };
    // Which chunk range a stage needs: every chunk covering its WGs'
    // A rows (a stage can span several input chunks).
    let chunks_of_stage = |stage: u64| -> (u64, u64) {
        let (w_start, w_end) = grid.stage_wgs(stage);
        let first_row = grid.wg_tile(w_start).row * grid.tile_dim();
        let last_tile = grid.wg_tile(w_end - 1);
        let last_row = last_tile.row * grid.tile_dim() + last_tile.height - 1;
        (
            (first_row * n / shape.m).min(n - 1),
            (last_row * n / shape.m).min(n - 1),
        )
    };
    // Availability time of consumption-order chunk j.
    let available_at = |j: u64| -> Cycle {
        if opts.arrival_aligned {
            if j == 0 {
                0
            } else {
                arrival_of_received(j)
            }
        } else {
            // Worst case: consumption order is the reverse of arrival
            // order (own shard consumed last).
            if j == n - 1 {
                0
            } else {
                arrival_of_received(n - 1 - j)
            }
        }
    };

    let mut mc = MemoryController::new(&sys.mem, ComputeFirstPolicy::new());
    let mut gemm = GemmEngine::new(&sys.gpu, LlcPlan::shared(&sys.mem, &grid, true));
    let mut announced: u64 = 0; // received chunks whose writes are enqueued
    let mut scheduling_triggers = 0u64;
    let mut gemm_done = false;
    let mut flushed = false;
    // Arrivals and stage gates are polled every cycle: never quiescent.
    let mut clock = Clock::new(SimMode::Stepped);

    loop {
        let now = clock.now();
        mc.step(now, None);
        // Mirrored incoming AG writes enter the comm stream on arrival.
        while announced + 1 < n && arrival_of_received(announced + 1) <= now {
            announced += 1;
            mc.enqueue(StreamId::Comm, TrafficClass::AgWrite, chunk_bytes, 1.0);
        }
        // Gate the GEMM: only step it when its current stage's input
        // chunk has arrived (the Tracker's WG-scheduling trigger).
        let stage = gemm.current_stage();
        let can_run = gemm_done || stage >= grid.num_stages() || {
            let (c_lo, c_hi) = chunks_of_stage(stage);
            (c_lo..=c_hi).all(|c| available_at(c) <= now)
        };
        if can_run {
            match gemm.step(now, &mut mc) {
                GemmEvent::Idle => {}
                GemmEvent::Finished => gemm_done = true,
                GemmEvent::StageStoresIssued { stage, .. } => {
                    scheduling_triggers += 1;
                    route_stage_stores(gemm.plan(), stage, WritePolicy::CachedLocal, &mut mc);
                }
            }
            // The kernel-boundary flush, once the stores have drained.
            if gemm_done && !flushed && mc.pending_bytes(StreamId::Compute) == 0 {
                flushed = true;
                let flush = gemm.plan().flush_bytes();
                if flush > 0 {
                    mc.enqueue(StreamId::Compute, TrafficClass::GemmWrite, flush, 1.0);
                }
            }
        }
        if gemm_done && announced == n - 1 && mc.is_idle() {
            break;
        }
        clock.advance(false, || None);
    }

    AgFuseResult {
        cycles: clock.now(),
        stats: mc.stats().clone(),
        scheduling_triggers,
    }
}

/// The sequential baseline: ring all-gather of the A operand, then the
/// GEMM.
pub fn sequential_ag_gemm(sys: &SystemConfig, grid: GemmGrid) -> AgFuseResult {
    let ag = RingCollective::baseline(CollectiveKind::AllGather, grid.shape().a_bytes(), sys)
        .simulate(sys);
    let gemm = t3_gpu::engine::run_gemm_isolated(sys, grid, WritePolicy::CachedLocal);
    let mut stats = ag.stats;
    stats.merge(&gemm.stats);
    AgFuseResult {
        cycles: ag.cycles + gemm.cycles,
        stats,
        scheduling_triggers: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_gpu::gemm::GemmShape;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    /// A consumer GEMM with a large gathered input: tall-skinny A.
    fn grid_of(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(8192, 1024, 1024))
    }

    #[test]
    fn aligned_fusion_beats_sequential() {
        let s = sys();
        let fused = run_fused_ag_gemm(&s, grid_of(&s), &AgFuseOptions::default());
        let seq = sequential_ag_gemm(&s, grid_of(&s));
        assert!(
            fused.cycles < seq.cycles,
            "fused {} must beat sequential {}",
            fused.cycles,
            seq.cycles
        );
        assert!(fused.scheduling_triggers > 0);
    }

    #[test]
    fn misaligned_scheduling_hurts() {
        let s = sys();
        let aligned = run_fused_ag_gemm(&s, grid_of(&s), &AgFuseOptions::default());
        let misaligned = run_fused_ag_gemm(
            &s,
            grid_of(&s),
            &AgFuseOptions {
                arrival_aligned: false,
            },
        );
        assert!(
            misaligned.cycles >= aligned.cycles,
            "misaligned {} vs aligned {}",
            misaligned.cycles,
            aligned.cycles
        );
    }

    #[test]
    fn fused_cannot_beat_the_gemm_alone() {
        let s = sys();
        let gemm = t3_gpu::engine::run_gemm_isolated(
            &s,
            grid_of(&s),
            t3_gpu::engine::WritePolicy::CachedLocal,
        );
        let fused = run_fused_ag_gemm(&s, grid_of(&s), &AgFuseOptions::default());
        assert!(fused.cycles as f64 >= gemm.cycles as f64 * 0.95);
    }

    #[test]
    fn fused_runs_are_pinned() {
        let s = sys();
        let stats = "TrafficStats { bytes: [20992256, 16777216, 0, 0, 0, 0, 14680064] }";
        for (arrival_aligned, cycles) in [(true, 345_038), (false, 462_481)] {
            let r = run_fused_ag_gemm(&s, grid_of(&s), &AgFuseOptions { arrival_aligned });
            assert_eq!(
                format!("{r:?}"),
                format!(
                    "AgFuseResult {{ cycles: {cycles}, stats: {stats}, scheduling_triggers: 7 }}"
                ),
                "arrival_aligned={arrival_aligned}"
            );
        }
    }

    #[test]
    fn incoming_traffic_covers_received_shards() {
        let s = sys();
        let grid = grid_of(&s);
        let a = grid.shape().a_bytes();
        let n = s.num_gpus as u64;
        let fused = run_fused_ag_gemm(&s, grid, &AgFuseOptions::default());
        let incoming = fused.stats.bytes(TrafficClass::AgWrite);
        let expected = a / n * (n - 1);
        assert_eq!(incoming, expected);
    }
}
