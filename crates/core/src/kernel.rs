//! The fused device: one simulated GPU's GEMM, memory controller,
//! Tracker and DMA engine, stepped by both fused timing engines.
//!
//! The mirrored engine ([`crate::engine`]) steps one [`Device`] and
//! stands its outgoing traffic in for the incoming (Section 5.1.1); the
//! explicit engine ([`crate::multigpu`]) steps one per GPU over a
//! fabric. The engines own only what differs between them: the wires,
//! the inbox and the clock. Everything a device does in a cycle lives
//! here once, as phases the engines call in order:
//!
//! 1. [`Device::step_memory`] steps the controller and attributes the
//!    incoming updates it serviced to wavefront regions (Section 4.2.1);
//! 2. [`Device::receive`] enqueues an incoming copy on the comm stream;
//! 3. [`Device::step_gemm`] advances the producer GEMM and routes each
//!    stage's stores into its chunks: remote stores leave through the
//!    engine's wire, local ones are written as uncached NMC updates and
//!    counted in the [`Tracker`] at memory-controller enqueue;
//! 4. the [`DmaEngine`] hands a completed source read to the engine's
//!    wire;
//! 5. [`Device::fire_triggers`] fires the pre-programmed DMA of every
//!    chunk whose wavefront regions have all completed (Section 4.2.2).
//!
//! [`Device::finished`], [`Device::next_event`] and [`Device::watches`]
//! tell the engines when the device is done, when it next acts and
//! where a busy leap must stop, and [`Device::record_end`] books the
//! device's end-of-run metrics the same way for both engines.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::addrmap::ChunkRoute;
use crate::engine::FusedOptions;
use crate::fused::wf_rows;
use crate::tracker::{Tracker, TrackerConfig, WfId};
use t3_gpu::engine::{GemmEngine, GemmEvent};
use t3_gpu::gemm::GemmGrid;
use t3_gpu::llc_plan::LlcPlan;
use t3_mem::controller::{MemoryController, StreamId, Watch};
use t3_net::dma::{DmaCommand, DmaEngine};
use t3_sim::clock::Clock;
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficClass;
use t3_sim::timeseries::TimeSeries;
use t3_sim::{Bytes, Cycle};
use t3_trace::{reborrow, Event, Instruments};

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

/// Counts the local NMC-update stores of WGs `bounds` in `tracker`, one
/// full region per wavefront, at memory-controller enqueue. Returns how
/// many wavefronts the stores completed.
fn record_local_stores(
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
fn split_at_chunks(
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
    wg_bounds: (u64, u64),
    pub bytes: Bytes,
    pub route: ChunkRoute,
    /// Full passes of incoming updates the chunk expects.
    incoming_passes: usize,
    triggered_wfs: usize,
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
                wf_regions(grid, wg_bounds).count()
            } else {
                0
            },
            dma_fired: false,
            feed_built: false,
        }
    }

    /// Every tracked wavefront region of the chunk has triggered.
    fn complete(&self) -> bool {
        !self.route.tracked() || self.triggered_wfs == self.expected_wfs
    }

    /// The DMA's destination device, exactly once for a DMA-routed
    /// chunk: when its last wavefront triggers and the pre-programmed
    /// DMA fires.
    fn fire_dma(&mut self) -> Option<usize> {
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
struct FeedEntry {
    /// Local position of the region's chunk.
    position: usize,
    wf: WfId,
    addr: u64,
    elems: u64,
    updates: u32,
}

/// Incoming-update attribution: the FIFO of wavefront regions awaiting
/// comm-stream service, in announcement order, plus the serviced byte
/// count already attributed. Attribution advances only as the memory
/// controller actually services announced bytes, so a chunk's full
/// feed can be queued on its first announcement.
#[derive(Debug)]
struct Feed {
    entries: VecDeque<FeedEntry>,
    elem_bytes: Bytes,
    attributed: Bytes,
    /// Bytes already attributed to the front region.
    front_consumed: Bytes,
}

impl Feed {
    /// An empty feed for regions of `grid`'s output.
    fn new(grid: &GemmGrid) -> Self {
        Feed {
            entries: VecDeque::new(),
            elem_bytes: grid.shape().elem_bytes,
            attributed: 0,
            front_consumed: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues `passes` passes over the WF regions of WGs `bounds`,
    /// belonging to the chunk at `position` (threshold `updates`).
    fn push(
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
    fn announce(&mut self, grid: &GemmGrid, chunks: &mut [ChunkState], position: usize) {
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
    fn front_watch(&self, class: TrafficClass) -> Option<Watch> {
        self.entries.front().map(|e| {
            let left = e.elems * self.elem_bytes - self.front_consumed;
            Watch::Class(class, self.attributed + left)
        })
    }

    /// Attributes the comm stream's newly serviced incoming bytes
    /// (`serviced` is the cumulative count) to the FIFO in order. Each
    /// fully serviced region is counted in `tracker`; `fired` sees
    /// every region whose wavefront that count completes.
    fn attribute(
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

/// One simulated GPU running the fused kernel (see the module docs).
///
/// Position `p` holds the device's `p`-th chunk in execution order; its
/// route decides what the GEMM's stores to it do. A device whose routes
/// include a [`ChunkRoute::RemoteStore`] (all-to-all) moves data only:
/// its local stores and incoming copies are plain writes (the copies as
/// [`TrafficClass::AgWrite`]) and nothing is tracked. Otherwise it
/// *reduces*: local stores are NMC updates and the incoming copies
/// [`TrafficClass::RsUpdate`]s.
pub(crate) struct Device {
    grid: GemmGrid,
    pub(crate) mc: MemoryController,
    gemm: GemmEngine,
    tracker: Tracker,
    /// Per-position chunk state; each chunk's `wg_bounds` are its
    /// *global* WG range (its memory regions).
    pub(crate) chunks: Vec<ChunkState>,
    /// Per-position WG bounds in the device's execution order.
    local_bounds: Vec<(u64, u64)>,
    feed: Feed,
    /// Fired DMAs: their source reads, one in flight, in fire order.
    pub(crate) dma: DmaEngine,
    /// Cost multiplier of local stores and incoming copies.
    update_cost: f64,
    reduce: bool,
    first_stage_done: bool,
    gemm_done: bool,
    /// Set whenever a chunk counts a wavefront: only then can a DMA
    /// trigger become due. Starts set, so a chunk with no wavefronts
    /// fires on the first scan.
    scan_triggers: bool,
    /// Set by a busy leap: the controller has already stepped the cycle
    /// where the device's other components step next.
    pub(crate) mc_ahead: bool,
    /// Work counters: device steps, and controller cycles busy leaps
    /// stepped.
    loop_steps: u64,
    busy_leap_cycles: u64,
}

impl Device {
    /// A device running `plan`'s GEMM with `chunks` in execution order.
    pub(crate) fn new(
        sys: &SystemConfig,
        opts: &FusedOptions,
        plan: Arc<LlcPlan>,
        chunks: Vec<ChunkState>,
    ) -> Self {
        let grid = plan.grid().clone();
        let reduce = !chunks
            .iter()
            .any(|c| matches!(c.route, ChunkRoute::RemoteStore { .. }));
        let mut cursor = 0;
        let local_bounds = chunks
            .iter()
            .map(|c| {
                let start = cursor;
                cursor += c.wg_bounds.1 - c.wg_bounds.0;
                (start, cursor)
            })
            .collect();
        Device {
            mc: MemoryController::new(&sys.mem, opts.policy.build(sys)),
            gemm: GemmEngine::new(&sys.gpu, plan),
            tracker: Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())),
            feed: Feed::new(&grid),
            grid,
            chunks,
            local_bounds,
            dma: DmaEngine::new(),
            update_cost: if reduce {
                opts.substrate.update_cost_multiplier(&sys.mem)
            } else {
                1.0
            },
            reduce,
            first_stage_done: false,
            gemm_done: false,
            scan_triggers: true,
            mc_ahead: false,
            loop_steps: 0,
            busy_leap_cycles: 0,
        }
    }

    /// Steps the memory controller at `now` (unless a busy leap already
    /// did), then attributes the incoming updates it serviced.
    pub(crate) fn step_memory(
        &mut self,
        now: Cycle,
        ts: Option<&mut TimeSeries>,
        mut ins: Option<&mut Instruments>,
    ) {
        self.loop_steps += 1;
        if !std::mem::take(&mut self.mc_ahead) {
            self.mc.step_traced(now, ts, reborrow(&mut ins));
        }
        let (chunks, scan) = (&mut self.chunks, &mut self.scan_triggers);
        self.feed.attribute(
            self.mc.stats().bytes(TrafficClass::RsUpdate),
            &mut self.tracker,
            |e| {
                chunks[e.position].triggered_wfs += 1;
                *scan = true;
                if let Some(ins) = reborrow(&mut ins) {
                    if ins.tracer.as_ref().is_some_and(|t| t.fine()) {
                        ins.record(
                            now,
                            Event::TrackerUpdate {
                                wg: e.wf.wg,
                                wf: e.wf.wf as u64,
                                addr: e.addr,
                            },
                        );
                    }
                    ins.add("tracker.wf_completions", 1);
                }
            },
        );
    }

    /// Enqueues `bytes` of an incoming copy of the chunk at `position`
    /// on the comm stream, announcing the chunk's incoming feed first
    /// when the device reduces.
    pub(crate) fn receive(&mut self, position: usize, bytes: Bytes) {
        let class = if self.reduce {
            self.feed.announce(&self.grid, &mut self.chunks, position);
            TrafficClass::RsUpdate
        } else {
            TrafficClass::AgWrite
        };
        self.mc
            .enqueue(StreamId::Comm, class, bytes, self.update_cost);
    }

    /// Advances the producer GEMM at `now`. When a stage issues its
    /// stores, routes them chunk by chunk: a remote route hands them to
    /// `send(position, destination, bytes, ins)`, and every other route
    /// writes them locally and, when the device reduces, counts them in
    /// the Tracker. Returns the stage's WG end, if a stage ended.
    pub(crate) fn step_gemm(
        &mut self,
        now: Cycle,
        mut send: impl FnMut(usize, usize, Bytes, Option<&mut Instruments>),
        mut ins: Option<&mut Instruments>,
    ) -> Option<u64> {
        let (stage, wg_start, wg_end, bytes, started, compute_cycles) =
            match self.gemm.step(now, &mut self.mc) {
                GemmEvent::Idle => return None,
                GemmEvent::Finished => {
                    self.gemm_done = true;
                    return None;
                }
                GemmEvent::StageStoresIssued {
                    stage,
                    wg_start,
                    wg_end,
                    bytes,
                    started,
                    compute_cycles,
                } => (stage, wg_start, wg_end, bytes, started, compute_cycles),
            };
        if let Some(ins) = reborrow(&mut ins) {
            ins.record(
                now,
                Event::GemmStage {
                    stage,
                    wg_start,
                    wg_end,
                    start: started,
                    end: now,
                    bytes,
                    compute_cycles,
                },
            );
            ins.add("gemm.stages", 1);
            ins.observe("gemm.stage_cycles", now - started);
        }
        if !self.first_stage_done {
            // T3-MCA's first-stage memory-intensity probe (Section
            // 4.5): the first stage ran before any communication
            // traffic existed.
            let frac = self.mc.avg_occupancy_fraction();
            self.mc.observe_compute_intensity(frac);
            self.first_stage_done = true;
        }
        for (pos, w0, w1) in split_at_chunks(&self.local_bounds, wg_start, wg_end) {
            // Local WG offsets map 1:1 onto the chunk's global range,
            // whose tiles size the stores.
            let c = &mut self.chunks[pos];
            let (g0, local0) = (c.wg_bounds.0, self.local_bounds[pos].0);
            let global = (g0 + (w0 - local0), g0 + (w1 - local0));
            let bytes = self.grid.wg_range_output_bytes(global.0, global.1);
            match c.route {
                ChunkRoute::RemoteUpdate { device } | ChunkRoute::RemoteStore { device } => {
                    send(pos, device, bytes, reborrow(&mut ins));
                }
                route => {
                    self.mc.enqueue(
                        StreamId::Compute,
                        TrafficClass::GemmWrite,
                        bytes,
                        self.update_cost,
                    );
                    if self.reduce {
                        let updates = route.updates_per_element();
                        c.triggered_wfs +=
                            record_local_stores(&mut self.tracker, &self.grid, global, updates);
                        self.scan_triggers = true;
                    }
                }
            }
        }
        Some(wg_end)
    }

    /// Fires the DMA of every completed DMA-routed chunk, in position
    /// order, on a step that counted a wavefront. An empty chunk (fewer
    /// WGs than devices) completes at trigger, with nothing to read.
    pub(crate) fn fire_triggers(&mut self, now: Cycle, mut ins: Option<&mut Instruments>) {
        if !std::mem::take(&mut self.scan_triggers) {
            return;
        }
        for c in &mut self.chunks {
            let Some(dst) = c.fire_dma() else { continue };
            let (id, bytes) = (c.global_chunk as u64, c.bytes);
            if let Some(ins) = reborrow(&mut ins) {
                ins.record(now, Event::DmaTriggerFire { chunk: id, bytes });
                ins.add("dma.triggers_fired", 1);
            }
            self.dma.trigger(DmaCommand {
                id,
                dst,
                bytes,
                read_class: TrafficClass::RsRead,
            });
        }
    }

    /// Whether the device has nothing left to do: its GEMM is done,
    /// every tracked chunk is complete and every queue has drained.
    pub(crate) fn finished(&self) -> bool {
        self.gemm_done
            && (!self.reduce || self.chunks.iter().all(ChunkState::complete))
            && self.feed.is_empty()
            && self.dma.is_idle()
            && self.mc.is_idle()
    }

    /// The earliest cycle after `now` at which the GEMM or the DMA
    /// engine acts, as the controller stands (`None`: neither is timed).
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        components_next_event(&self.gemm, &self.dma, &self.mc, now)
    }

    /// The controller counters a busy leap must stop at: the GEMM's
    /// read target, the DMA source read and the incoming feed's front
    /// region. Until one is reached nothing but the controller acts.
    pub(crate) fn watches(&self) -> [Option<Watch>; 3] {
        [
            self.gemm.read_watch(),
            self.dma.read_watch(),
            self.feed.front_watch(TrafficClass::RsUpdate),
        ]
    }

    /// Moves `clock` past the cycle just stepped, as
    /// [`MemoryController::advance_clock`] does, for a loop stepping
    /// this one device; `outside` is the earliest event beyond it. A
    /// tracker fire can only follow a watched service or a GEMM store,
    /// so a leap skips no fire.
    pub(crate) fn advance_clock(
        &mut self,
        clock: &mut Clock,
        outside: impl FnOnce() -> Option<Cycle>,
        ts: Option<&mut TimeSeries>,
        ins: Option<&mut Instruments>,
    ) {
        let now = clock.now();
        let watches = self.watches();
        let (gemm, dma) = (&self.gemm, &self.dma);
        let leaped = self.mc.advance_clock(
            clock,
            |mc| {
                let own = components_next_event(gemm, dma, mc, now);
                own.into_iter().chain(outside()).min()
            },
            &watches,
            ts,
            ins,
        );
        self.busy_leap_cycles += leaped;
        self.mc_ahead = leaped > 0;
    }

    /// Leaps the busy controller alone from `now` (already stepped)
    /// toward `horizon`, stopping early at any of [`Device::watches`].
    /// Returns the cycle it stopped at, where the device's other
    /// components step next.
    pub(crate) fn leap_busy(
        &mut self,
        now: Cycle,
        horizon: Cycle,
        ins: Option<&mut Instruments>,
    ) -> Cycle {
        let watches = self.watches();
        let at = self.mc.advance_busy(now + 1, horizon, &watches, None, ins);
        self.busy_leap_cycles += at - now;
        self.mc_ahead = true;
        at
    }

    /// Tracker high-water mark.
    pub(crate) fn peak_tracker_entries(&self) -> usize {
        self.tracker.peak_entries()
    }

    /// Books the device's end-of-run record at `end`: its work counters,
    /// an LLC sample, and the cycle, DMA, Tracker, controller, LLC and
    /// traffic metrics.
    pub(crate) fn record_end(&self, end: Cycle, ins: &mut Instruments) {
        let (hits, misses) = (self.gemm.plan().hits(), self.gemm.plan().misses());
        ins.set_work("run.loop_steps", self.loop_steps);
        ins.set_work("run.busy_leap_cycles", self.busy_leap_cycles);
        ins.record(end, Event::LlcSample { hits, misses });
        if let Some(m) = ins.metrics.as_mut() {
            m.set("run.cycles", end);
            m.set("dma.transfers", self.dma.sent_commands());
            m.set("tracker.peak_entries", self.tracker.peak_entries() as u64);
            m.set("mc.stream_switches", self.mc.stream_switches());
            m.set("llc.hits", hits);
            m.set("llc.misses", misses);
            m.record_traffic(self.mc.stats());
        }
    }
}

/// The earliest of the GEMM's and the DMA engine's next events after
/// `now`, as `mc` stands.
fn components_next_event(
    gemm: &GemmEngine,
    dma: &DmaEngine,
    mc: &MemoryController,
    now: Cycle,
) -> Option<Cycle> {
    let gemm_at = gemm.next_event(now, mc);
    gemm_at.into_iter().chain(dma.next_event(now, mc)).min()
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
        assert!(half > 0 && half < wf_regions(&g, wg0).count());
        feed.attribute(total, &mut tracker, |e| fired.push((e.position, e.wf)));
        assert_eq!(fired.len(), wf_regions(&g, wg0).count());
        assert!(fired.iter().all(|&(pos, wf)| pos == 3 && wf.wg == 0));
        assert!(feed.is_empty());
    }
}
