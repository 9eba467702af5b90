//! The fused device kernel's Tracker plumbing, shared by the mirrored
//! ([`crate::engine`]) and explicit ([`crate::multigpu`]) timing
//! engines.
//!
//! Every fused engine splits the GEMM's output into chunks of
//! workgroups, counts local stores into the [`Tracker`] when they enter
//! the memory-controller queue, and attributes incoming updates to
//! wavefront regions as DRAM services them (Section 4.2.1). This
//! module holds those pieces once: the wavefront-region walk, the
//! per-chunk trigger state, the attribution FIFO and the WG→chunk
//! split of a GEMM stage.

use std::collections::VecDeque;

use crate::addrmap::ChunkRoute;
use crate::fused::wf_rows;
use crate::tracker::{Tracker, WfId};
use t3_gpu::gemm::GemmGrid;
use t3_mem::controller::Watch;
use t3_sim::stats::TrafficClass;
use t3_sim::Bytes;

/// The non-empty wavefront output regions of WGs `[w0, w1)` in WG/WF
/// order, as `(wavefront, address, elements)`.
fn wf_regions(
    grid: &GemmGrid,
    (w0, w1): (u64, u64),
) -> impl Iterator<Item = (WfId, u64, u64)> + '_ {
    let wfs = grid.wfs_per_wg();
    let elem_bytes = grid.shape().elem_bytes;
    // WG output tiles are contiguous in WG order.
    let mut next_addr = if w0 < w1 {
        grid.wg_output_region(w0).0
    } else {
        0
    };
    (w0..w1).flat_map(move |wg| {
        let t = grid.wg_tile(wg);
        let base = next_addr;
        next_addr += grid.wg_output_bytes(wg);
        (0..wfs).filter_map(move |wf| {
            let (r0, r1) = wf_rows(t.height as usize, wfs, wf);
            let elems = (r1 - r0) as u64 * t.width;
            (elems > 0).then(|| {
                let addr = base + r0 as u64 * t.width * elem_bytes;
                (WfId { wg, wf }, addr, elems)
            })
        })
    })
}

/// Counts the wavefronts with non-empty output regions in WGs `bounds`.
pub(crate) fn count_nonempty_wfs(grid: &GemmGrid, bounds: (u64, u64)) -> usize {
    wf_regions(grid, bounds).count()
}

/// Counts the local NMC-update stores of WGs `bounds` in `tracker`, one
/// full region per wavefront, at memory-controller enqueue. Returns how
/// many wavefronts the stores completed.
pub(crate) fn record_local_stores(
    tracker: &mut Tracker,
    grid: &GemmGrid,
    bounds: (u64, u64),
    updates: u32,
) -> usize {
    wf_regions(grid, bounds)
        .filter(|&(wf, addr, elems)| {
            tracker
                .record_update(wf, addr, elems, elems, updates)
                .is_some()
        })
        .count()
}

/// Splits a GEMM stage's WGs `[wg_start, wg_end)` at the chunk
/// boundaries in `bounds` (ascending WG ranges that tile the grid),
/// yielding `(position, w0, w1)` per chunk the stage touches.
pub(crate) fn split_at_chunks(
    bounds: &[(u64, u64)],
    wg_start: u64,
    wg_end: u64,
) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
    bounds
        .iter()
        .enumerate()
        .filter_map(move |(pos, &(w0, w1))| {
            let (w0, w1) = (w0.max(wg_start), w1.min(wg_end));
            (w0 < w1).then_some((pos, w0, w1))
        })
}

/// One output chunk at a local position of the device's schedule.
#[derive(Debug)]
pub(crate) struct ChunkState {
    /// Collective chunk id.
    pub global_chunk: usize,
    /// The chunk's WG range in the GEMM grid (its memory regions).
    pub wg_bounds: (u64, u64),
    pub bytes: Bytes,
    pub route: ChunkRoute,
    /// Full passes of incoming updates the chunk expects.
    pub incoming_passes: usize,
    pub triggered_wfs: usize,
    expected_wfs: usize,
    dma_fired: bool,
    feed_built: bool,
}

impl ChunkState {
    pub(crate) fn new(
        grid: &GemmGrid,
        global_chunk: usize,
        wg_bounds: (u64, u64),
        route: ChunkRoute,
        incoming_passes: usize,
    ) -> Self {
        ChunkState {
            global_chunk,
            wg_bounds,
            bytes: grid.wg_range_output_bytes(wg_bounds.0, wg_bounds.1),
            route,
            incoming_passes,
            triggered_wfs: 0,
            expected_wfs: if route.tracked() {
                count_nonempty_wfs(grid, wg_bounds)
            } else {
                0
            },
            dma_fired: false,
            feed_built: false,
        }
    }

    /// Every tracked wavefront region of the chunk has triggered.
    pub(crate) fn complete(&self) -> bool {
        !self.route.tracked() || self.triggered_wfs == self.expected_wfs
    }

    /// The DMA's destination device, exactly once for a DMA-routed
    /// chunk: when its last wavefront triggers and the pre-programmed
    /// DMA fires.
    pub(crate) fn fire_dma(&mut self) -> Option<usize> {
        let device = match self.route {
            ChunkRoute::LocalThenDmaUpdate { device, .. }
            | ChunkRoute::LocalThenDmaStore { device } => device,
            _ => return None,
        };
        let fire = !self.dma_fired && self.triggered_wfs == self.expected_wfs;
        self.dma_fired |= fire;
        fire.then_some(device)
    }
}

/// A wavefront region in the incoming-update attribution FIFO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeedEntry {
    /// Local position of the region's chunk.
    pub position: usize,
    pub wf: WfId,
    pub addr: u64,
    elems: u64,
    updates: u32,
}

/// Incoming-update attribution: the FIFO of wavefront regions awaiting
/// comm-stream service, in announcement order, plus the serviced byte
/// count already attributed. Attribution advances only as the memory
/// controller actually services announced bytes, so a chunk's full
/// feed can be queued on its first announcement.
#[derive(Debug)]
pub(crate) struct Feed {
    entries: VecDeque<FeedEntry>,
    elem_bytes: Bytes,
    attributed: Bytes,
    /// Bytes already attributed to the front region.
    front_consumed: Bytes,
}

impl Feed {
    /// An empty feed for regions of `grid`'s output.
    pub(crate) fn new(grid: &GemmGrid) -> Self {
        Feed {
            entries: VecDeque::new(),
            elem_bytes: grid.shape().elem_bytes,
            attributed: 0,
            front_consumed: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues `passes` passes over the WF regions of WGs `bounds`,
    /// belonging to the chunk at `position` (threshold `updates`).
    pub(crate) fn push(
        &mut self,
        grid: &GemmGrid,
        bounds: (u64, u64),
        position: usize,
        updates: u32,
        passes: usize,
    ) {
        for _ in 0..passes {
            let regions = wf_regions(grid, bounds).map(|(wf, addr, elems)| FeedEntry {
                position,
                wf,
                addr,
                elems,
                updates,
            });
            self.entries.extend(regions);
        }
    }

    /// Queues the chunk at `position`'s incoming passes on its first
    /// announcement; later announcements are already covered.
    pub(crate) fn announce(&mut self, grid: &GemmGrid, chunks: &mut [ChunkState], position: usize) {
        let c = &mut chunks[position];
        if !c.feed_built {
            c.feed_built = true;
            let updates = c.route.updates_per_element();
            self.push(grid, c.wg_bounds, position, updates, c.incoming_passes);
        }
    }

    /// The counter value at which the front region completes, as a
    /// watch on `class` (the counter [`Feed::attribute`] is fed from):
    /// the bytes attributed so far plus what the front region still
    /// lacks. A busy leap stops there, so each region is attributed,
    /// counted in the Tracker and fired at exactly its stepped cycle.
    pub(crate) fn front_watch(&self, class: TrafficClass) -> Option<Watch> {
        self.entries.front().map(|e| {
            let left = e.elems * self.elem_bytes - self.front_consumed;
            Watch::Class(class, self.attributed + left)
        })
    }

    /// Attributes the comm stream's newly serviced incoming bytes
    /// (`serviced` is the cumulative count) to the FIFO in order. Each
    /// fully serviced region is counted in `tracker`; `fired` sees
    /// every region whose wavefront that count completes.
    pub(crate) fn attribute(
        &mut self,
        serviced: Bytes,
        tracker: &mut Tracker,
        mut fired: impl FnMut(&FeedEntry),
    ) {
        let mut delta = serviced - self.attributed;
        self.attributed = serviced;
        while delta > 0 {
            // t3-lint: allow(panic-reachable) -- the controller services only enqueued comm bytes, and every enqueue follows an announce that queued the chunk's full feed
            let e = *self.entries.front().expect("serviced more than announced");
            let region_bytes = e.elems * self.elem_bytes;
            let take = delta.min(region_bytes - self.front_consumed);
            self.front_consumed += take;
            delta -= take;
            if self.front_consumed == region_bytes {
                self.entries.pop_front();
                self.front_consumed = 0;
                if tracker
                    .record_update(e.wf, e.addr, e.elems, e.elems, e.updates)
                    .is_some()
                {
                    fired(&e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracker::TrackerConfig;
    use t3_gpu::gemm::GemmShape;
    use t3_sim::config::SystemConfig;

    fn grid() -> GemmGrid {
        let sys = SystemConfig::paper_default();
        GemmGrid::new(&sys.gpu, GemmShape::new(1000, 1000, 256))
    }

    #[test]
    fn wf_regions_tile_each_wg_output_exactly() {
        let g = grid();
        let elem_bytes = g.shape().elem_bytes;
        for wg in [0, 1, g.num_wgs() - 1] {
            let (addr, bytes) = g.wg_output_region(wg);
            let regions: Vec<_> = wf_regions(&g, (wg, wg + 1)).collect();
            assert_eq!(regions[0].1, addr, "wg {wg} starts at its tile");
            let covered: u64 = regions.iter().map(|r| r.2 * elem_bytes).sum();
            assert_eq!(covered, bytes, "wg {wg} regions cover its tile");
        }
        let all = (0, g.num_wgs());
        assert_eq!(
            count_nonempty_wfs(&g, all),
            wf_regions(&g, all).count(),
            "counting matches the walk"
        );
    }

    #[test]
    fn stages_split_at_chunk_boundaries() {
        let bounds = [(0, 3), (3, 7), (7, 9)];
        let segs: Vec<_> = split_at_chunks(&bounds, 2, 8).collect();
        assert_eq!(segs, vec![(0, 2, 3), (1, 3, 7), (2, 7, 8)]);
        assert_eq!(split_at_chunks(&bounds, 4, 4).count(), 0);
    }

    #[test]
    fn attribution_follows_service_in_fifo_order() {
        let g = grid();
        let mut tracker = Tracker::new(TrackerConfig::paper(g.wf_tile_elems()));
        let mut feed = Feed::new(&g);
        // Two updates per element: one local store pass, one incoming.
        let wg0 = (0, 1);
        assert_eq!(record_local_stores(&mut tracker, &g, wg0, 2), 0);
        feed.push(&g, wg0, 3, 2, 1);
        let total = g.wg_output_bytes(0);
        let mut fired = Vec::new();
        // Half the bytes serviced: only whole regions count.
        feed.attribute(total / 2, &mut tracker, |e| fired.push((e.position, e.wf)));
        let half = fired.len();
        assert!(half > 0 && half < count_nonempty_wfs(&g, wg0));
        feed.attribute(total, &mut tracker, |e| fired.push((e.position, e.wf)));
        assert_eq!(fired.len(), count_nonempty_wfs(&g, wg0));
        assert!(fired.iter().all(|&(pos, wf)| pos == 3 && wf.wg == 0));
        assert!(feed.is_empty());
    }
}
