//! Explicit multi-GPU simulation of the fused GEMM + reduce-scatter —
//! every GPU simulated, real cross-GPU traffic on a real fabric.
//!
//! The paper (and [`crate::engine`]) exploit the homogeneity of
//! tensor-parallel execution to simulate one GPU and mirror its
//! outgoing traffic as the incoming stream (Section 5.1.1). This
//! module drops that assumption: all `N` GPUs run their own GEMM
//! engine, memory controller, LLC, Tracker and DMA engine, and every
//! chunk travels over a [`t3_topo::Fabric`] from its producer to its
//! consumer — contending per hop with everything else on the wire.
//!
//! Two schedules, one source ([`t3_topo::Schedule`]):
//!
//! * **Ring fabrics** run the ascending mirror-image ring exactly as
//!   before (its purpose is to *validate the mirrored methodology*):
//!   device `d` computes global chunk `(d + p) mod N` at local
//!   position `p` and sends to `prev(d)`. Position 0 leaves as
//!   fine-grained remote stores; positions `1..=N-2` as
//!   Tracker-triggered DMA updates; the last position is the owned
//!   chunk. Each device's routes come from
//!   `OutputConfig::ring_reduce_scatter_ascending`, the mirror image
//!   of the schedule-derived ring configuration.
//! * **Every other fabric** (switch, torus, hierarchical,
//!   fully-connected) runs the direct schedule (Section 7.1): each
//!   non-owned chunk streams straight to its owner as fine-grained
//!   remote updates over its (possibly multi-hop) route, and the
//!   owned chunk completes in memory once the local pass plus `N-1`
//!   incoming passes have been counted by the Tracker. No DMAs are
//!   needed; messages crossing a shared switch port or a slow
//!   inter-node link contend in the fabric's per-link serialisers.
//!
//! # Engine
//!
//! One driver advances time in windows of `1 + min link latency`
//! cycles, short enough that no message sent inside a window can
//! arrive within it, so each window's arrivals are known at its start.
//! Devices are partitioned into contiguous shards; one loop,
//! `simulate_window`, runs a shard through a window on a [`Clock`]
//! bounded by the window end, stepped or fast-forward per
//! [`t3_sim::SimMode`]:
//!
//! * It walks cycles in order and, within a cycle, devices in order.
//!   It steps a device only when a fabric arrival is due, or when the
//!   device is unfinished and its memory controller is busy or its
//!   own `next_event` (GEMM stage boundaries, DMA polling) has come
//!   ([`Clock::due`]; stepped mode steps every unfinished device every
//!   cycle). A finished device is never stepped again.
//! * A skipped device replays its idle gap's side effects (tracer
//!   samples, arbiter wait counters, credit regeneration) in one
//!   `MemoryController::skip_idle` call just before it next steps, and
//!   through the final cycle when the run ends.
//! * When every memory controller of the shard is idle, the clock
//!   leaps to the earliest device event or pending arrival.
//!
//! [`run_multi_gpu_fused_rs_on`] is the driver at one shard: it runs
//! inline and sends straight into the fabric, so sends keep their
//! `(cycle, device)` order and device 0 can be instrumented.
//! [`run_multi_gpu_fused_rs_sharded`] runs one shard per worker thread,
//! buffering sends and replaying them at each window barrier in that
//! same order, so every width is byte-identical to one shard. In
//! fast-forward mode a barrier with every memory controller idle leaps
//! the next window's start to the earliest device event or fabric
//! arrival, so long link waits cost no empty windows.

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::thread;

use crate::addrmap::{ChunkRoute, OutputConfig};
use crate::engine::{FusedOptions, FusedRunResult};
use crate::kernel::{record_local_stores, split_at_chunks, ChunkState, Feed};
use crate::tracker::{Tracker, TrackerConfig};
use t3_gpu::engine::{GemmEngine, GemmEvent};
use t3_gpu::gemm::GemmGrid;
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::llc::Llc;
use t3_net::ring::Ring;
use t3_sim::clock::Clock;
use t3_sim::config::SystemConfig;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_sim::{Bytes, Cycle, SimMode};
use t3_topo::{Arrival, Fabric, Schedule, Topology};
use t3_trace::{reborrow, Event, Instruments};

/// Result of an explicit multi-GPU fused run.
#[derive(Debug, Clone)]
pub struct MultiGpuResult {
    /// Cycle at which the slowest GPU finished.
    pub cycles: Cycle,
    /// Per-GPU completion times.
    pub per_gpu_cycles: Vec<Cycle>,
    /// Per-GPU DRAM traffic.
    pub per_gpu_stats: Vec<TrafficStats>,
    /// Max minus min completion time (homogeneity check).
    pub skew: Cycle,
    /// Total DMA chunk transfers across GPUs.
    pub dma_transfers: u64,
    /// Observed wire bytes per fabric link, indexed by
    /// [`t3_topo::LinkId`]. Multi-hop messages count once per hop,
    /// so this must equal the schedule's per-link prediction.
    pub link_bytes: Vec<Bytes>,
}

impl MultiGpuResult {
    /// The mean per-GPU completion time.
    pub fn mean_cycles(&self) -> f64 {
        self.per_gpu_cycles.iter().sum::<Cycle>() as f64 / self.per_gpu_cycles.len() as f64
    }

    /// Relative difference between this run and a mirrored
    /// single-GPU result.
    pub fn mirror_error(&self, mirrored: &FusedRunResult) -> f64 {
        let a = self.cycles as f64;
        let b = mirrored.cycles as f64;
        (a - b).abs() / b
    }
}

/// One simulated GPU.
struct Gpu {
    mc: MemoryController,
    llc: Llc,
    gemm: GemmEngine,
    tracker: Tracker,
    /// The device's routes; maps an arriving chunk id to its position.
    config: OutputConfig,
    /// Per-position chunk state; each chunk's `wg_bounds` are its
    /// *global* WG range (its memory regions).
    chunks: Vec<ChunkState>,
    /// Per-position WG bounds in the device's execution order.
    local_bounds: Vec<(u64, u64)>,
    feed: Feed,
    /// The DMA source read in flight: (position, destination,
    /// serviced-read target).
    dma_reading: Option<(usize, usize, Bytes)>,
    /// Fired DMAs awaiting their source read: (position, destination).
    dma_queue: VecDeque<(usize, usize)>,
    first_stage_done: bool,
    gemm_done: bool,
    finished_at: Option<Cycle>,
    dma_transfers: u64,
    /// The next event as predicted after the device's last step.
    next: Option<Cycle>,
    /// The first cycle the device has neither stepped nor replayed.
    synced: Cycle,
}

impl Gpu {
    /// Whether the device has nothing left to do: its GEMM is done,
    /// every chunk is complete and every queue has drained.
    fn finished(&self) -> bool {
        self.mc.is_idle()
            && self.gemm_done
            && self.dma_reading.is_none()
            && self.dma_queue.is_empty()
            && self.feed.is_empty()
            && self.chunks.iter().all(ChunkState::complete)
    }
}

/// A fabric send a sharded worker buffered during its window, replayed
/// at the barrier in `(cycle, device, program order)`.
#[derive(Debug, Clone, Copy)]
struct SendIntent {
    cycle: Cycle,
    src: usize,
    dst: usize,
    tag: u64,
    bytes: Bytes,
}

/// Where a device's outgoing fabric traffic goes: straight onto the
/// shared fabric (a single shard) or into a per-worker buffer for
/// deterministic replay at the window barrier (several shards, which
/// never instrument, so the buffered variant ignores `ins`).
enum SendSink<'a> {
    Fabric(&'a mut Fabric),
    Buffer(&'a mut Vec<SendIntent>),
}

impl SendSink<'_> {
    /// A fine-grained remote-update stream send.
    fn send_update(
        &mut self,
        now: Cycle,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: Bytes,
        ins: Option<&mut Instruments>,
    ) {
        match self {
            SendSink::Fabric(fabric) => {
                fabric.send_traced(now, src, dst, tag, bytes, ins);
            }
            SendSink::Buffer(intents) => {
                debug_assert!(ins.is_none(), "sharded windows are uninstrumented");
                intents.push(SendIntent {
                    cycle: now,
                    src,
                    dst,
                    tag,
                    bytes,
                });
            }
        }
    }

    /// A Tracker-fired DMA chunk send; records the chunk's wire span
    /// as a [`Event::ChunkSend`] when instrumented.
    fn send_dma(
        &mut self,
        now: Cycle,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: Bytes,
        mut ins: Option<&mut Instruments>,
    ) {
        match self {
            SendSink::Fabric(fabric) if ins.is_some() => {
                let out_port = fabric.topo().route(src, dst)[0];
                let hops = fabric.topo().route(src, dst).len() as u64;
                let start = fabric.link(out_port).busy_until().max(now);
                fabric.send_traced(now, src, dst, tag, bytes, reborrow(&mut ins));
                if let Some(ins) = ins {
                    let end = fabric.link(out_port).busy_until();
                    ins.record(
                        end,
                        Event::ChunkSend {
                            chunk: tag,
                            bytes,
                            hops,
                            start,
                            end,
                        },
                    );
                    ins.add("dma.chunks_sent", 1);
                }
            }
            _ => self.send_update(now, src, dst, tag, bytes, ins),
        }
    }
}

/// Read-only per-run parameters shared by every device step.
struct StepCtx<'a> {
    grid: &'a GemmGrid,
    update_cost: f64,
}

/// Runs the fused GEMM-RS with every GPU simulated explicitly, on the
/// ring fabric the paper evaluates.
///
/// # Panics
///
/// Panics on non-convergence (internal error).
pub fn run_multi_gpu_fused_rs(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> MultiGpuResult {
    let topo = Topology::ring(sys.num_gpus, &sys.link);
    run_multi_gpu_fused_rs_on(sys, grid, opts, &topo, None)
}

/// Builds the per-device simulation state and the shared fabric.
///
/// # Panics
///
/// Panics on the option/topology preconditions shared by every engine
/// entry point (see [`run_multi_gpu_fused_rs_on`]).
fn build_run(
    sys: &SystemConfig,
    grid: &GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
) -> (Vec<Gpu>, Fabric) {
    assert!(opts.stagger, "the explicit model always staggers");
    assert_eq!(
        topo.num_gpus(),
        sys.num_gpus,
        "topology and system disagree on GPU count"
    );
    let n = sys.num_gpus;
    let is_ring = topo.is_ring();
    let ring = Ring::new(n);
    let sched = Schedule::reduce_scatter(topo);
    let fabric = Fabric::new(topo);

    let gpus: Vec<Gpu> = (0..n)
        .map(|d| {
            // Local execution order: positions 0..n. On a ring,
            // position p is global chunk (d + p) % n and everything
            // leaves toward prev(d) (the ascending mirror-image
            // schedule); elsewhere the schedule-derived configuration
            // names both the chunk and its owner.
            let config = if is_ring {
                OutputConfig::ring_reduce_scatter_ascending(ring, d)
            } else {
                OutputConfig::from_reduce_scatter_schedule(&sched, d)
            };
            let mut chunks = Vec::with_capacity(n);
            let mut local_bounds = Vec::with_capacity(n);
            let mut cursor = 0u64;
            for p in 0..n {
                let global_chunk = config.chunk_id(p);
                let incoming_passes = if is_ring {
                    usize::from(p >= 1)
                } else {
                    sched
                        .sends()
                        .filter(|s| s.dst == d && s.chunk == global_chunk)
                        .count()
                };
                let (g0, g1) = grid.chunk_wg_bounds(n as u64, global_chunk as u64);
                local_bounds.push((cursor, cursor + (g1 - g0)));
                cursor += g1 - g0;
                chunks.push(ChunkState::new(
                    grid,
                    global_chunk,
                    (g0, g1),
                    config.route(p),
                    incoming_passes,
                ));
            }
            Gpu {
                mc: MemoryController::new(&sys.mem, opts.policy.build(sys)),
                llc: Llc::new(&sys.mem),
                gemm: GemmEngine::new(&sys.gpu, grid.clone()),
                tracker: Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())),
                config,
                chunks,
                local_bounds,
                feed: Feed::new(grid),
                dma_reading: None,
                dma_queue: VecDeque::new(),
                first_stage_done: false,
                gemm_done: false,
                finished_at: None,
                dma_transfers: 0,
                // Every device steps at cycle 0, where its GEMM engine
                // re-anchors its launch.
                next: Some(0),
                synced: 0,
            }
        })
        .collect();
    (gpus, fabric)
}

/// Feeds one fabric arrival into its device's memory controller (phase
/// A of a device's cycle). `ins` must be `Some` only for the
/// instrumented device.
fn deliver_incoming(
    gpu: &mut Gpu,
    now: Cycle,
    arrival: Arrival,
    ctx: &StepCtx,
    ins: Option<&mut Instruments>,
) {
    if let Some(ins) = ins {
        ins.record(
            now,
            Event::ChunkRecv {
                chunk: arrival.tag,
                bytes: arrival.bytes,
            },
        );
        ins.add("chunks.received", 1);
    }
    let pos = gpu.config.position_of_chunk(arrival.tag as usize);
    gpu.feed.announce(ctx.grid, &mut gpu.chunks, pos);
    gpu.mc.enqueue(
        StreamId::Comm,
        TrafficClass::RsUpdate,
        arrival.bytes,
        ctx.update_cost,
    );
}

/// One device's full per-cycle step: memory controller, incoming
/// update attribution, GEMM progress, DMA engine, trigger fires and
/// completion bookkeeping. Outgoing traffic goes through `sink` so
/// the sharded engine can defer it to its window barrier. `ins` must
/// be `Some` only for the instrumented device.
fn step_device(
    gpu: &mut Gpu,
    d: usize,
    now: Cycle,
    ctx: &StepCtx,
    sink: &mut SendSink,
    mut ins: Option<&mut Instruments>,
) {
    gpu.mc.step_traced(now, None, reborrow(&mut ins));

    // Attribute serviced incoming updates.
    let chunks = &mut gpu.chunks;
    gpu.feed.attribute(
        gpu.mc.stats().bytes(TrafficClass::RsUpdate),
        &mut gpu.tracker,
        |e| chunks[e.position].triggered_wfs += 1,
    );

    // GEMM progress.
    match gpu.gemm.step(now, &mut gpu.mc, &mut gpu.llc) {
        GemmEvent::Idle => {}
        GemmEvent::Finished => gpu.gemm_done = true,
        GemmEvent::StageStoresIssued {
            stage,
            wg_start,
            wg_end,
            bytes,
            started,
            compute_cycles,
        } => {
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
            }
            if !gpu.first_stage_done {
                let frac = gpu.mc.avg_occupancy_fraction();
                gpu.mc.observe_compute_intensity(frac);
                gpu.first_stage_done = true;
            }
            for (pos, w0, w1) in split_at_chunks(&gpu.local_bounds, wg_start, wg_end) {
                // Local WG offsets map 1:1 onto the chunk's rotated
                // global range, whose tiles size the stores.
                let c = &mut gpu.chunks[pos];
                let (g0, local0) = (c.wg_bounds.0, gpu.local_bounds[pos].0);
                let global = (g0 + (w0 - local0), g0 + (w1 - local0));
                let bytes = ctx.grid.wg_range_output_bytes(global.0, global.1);
                match c.route {
                    ChunkRoute::RemoteUpdate { device } => {
                        let tag = c.global_chunk as u64;
                        sink.send_update(now, d, device, tag, bytes, reborrow(&mut ins));
                    }
                    ChunkRoute::LocalOnly {
                        updates_per_element,
                    }
                    | ChunkRoute::LocalThenDmaUpdate {
                        updates_per_element,
                        ..
                    } => {
                        gpu.mc.enqueue(
                            StreamId::Compute,
                            TrafficClass::GemmWrite,
                            bytes,
                            ctx.update_cost,
                        );
                        c.triggered_wfs += record_local_stores(
                            &mut gpu.tracker,
                            ctx.grid,
                            global,
                            updates_per_element,
                        );
                    }
                    _ => unreachable!("fused RS uses no other routes"),
                }
            }
        }
    }

    // DMA engine: one source read in flight, then the fabric.
    if let Some((pos, dest, target)) = gpu.dma_reading {
        if gpu.mc.stats().bytes(TrafficClass::RsRead) >= target {
            let c = &gpu.chunks[pos];
            let tag = c.global_chunk as u64;
            sink.send_dma(now, d, dest, tag, c.bytes, reborrow(&mut ins));
            gpu.dma_transfers += 1;
            gpu.dma_reading = None;
        }
    }
    if gpu.dma_reading.is_none() {
        if let Some((pos, dest)) = gpu.dma_queue.pop_front() {
            let bytes = gpu.chunks[pos].bytes;
            let target = gpu.mc.stats().bytes(TrafficClass::RsRead) + bytes;
            gpu.mc
                .enqueue(StreamId::Comm, TrafficClass::RsRead, bytes, 1.0);
            gpu.dma_reading = Some((pos, dest, target));
        }
    }
    // Fire DMAs for completed steady-state chunks.
    for (pos, c) in gpu.chunks.iter_mut().enumerate() {
        if let Some(dest) = c.fire_dma() {
            if let Some(ins) = reborrow(&mut ins) {
                ins.record(
                    now,
                    Event::DmaTriggerFire {
                        chunk: c.global_chunk as u64,
                        bytes: c.bytes,
                    },
                );
                ins.add("dma.triggers_fired", 1);
            }
            gpu.dma_queue.push_back((pos, dest));
        }
    }

    // Completion bookkeeping (fabric payloads may still be in
    // flight toward a peer; that time belongs to the receiver,
    // which cannot finish before consuming them).
    if gpu.finished_at.is_none() && gpu.finished() {
        gpu.finished_at = Some(now);
    }
}

/// The next cycle strictly after `now` at which stepping this device
/// can change its observable state, assuming nothing new arrives from
/// the fabric. `None` when the device is inert until external input.
///
/// A pending DMA (queued or reading) pins the very next cycle: the
/// engine polls it every cycle and an un-serviced source read keeps
/// the memory controller busy anyway.
fn device_next_event(gpu: &Gpu, now: Cycle) -> Option<Cycle> {
    if gpu.dma_reading.is_some() || !gpu.dma_queue.is_empty() {
        return Some(now + 1);
    }
    let events = [gpu.mc.next_event(now), gpu.gemm.next_event(now, &gpu.mc)];
    events.into_iter().flatten().min()
}

/// Simulates one shard, whose devices start at global index `first`,
/// through the window `clock` bounds: cycle by cycle, and within a
/// cycle device by device, stepping only the devices that are due (see
/// the module docs). `pending` holds each device's pre-popped arrivals
/// for the window. `ins` must be `Some` only for the shard holding
/// device 0, which it instruments.
fn simulate_window(
    shard: &mut [Gpu],
    first: usize,
    mut clock: Clock,
    pending: &mut [VecDeque<Arrival>],
    sink: &mut SendSink,
    ctx: &StepCtx,
    mut ins: Option<&mut Instruments>,
) {
    while clock.running() {
        let now = clock.now();
        for (i, (gpu, pend)) in shard.iter_mut().zip(pending.iter_mut()).enumerate() {
            let arrived = pend.front().is_some_and(|a| a.arrival <= now);
            let due = clock.due(gpu.next) || !gpu.mc.is_idle();
            if !(arrived || due && !gpu.finished()) {
                continue;
            }
            let d = first + i;
            let mut dev_ins = if d == 0 { reborrow(&mut ins) } else { None };
            gpu.mc.skip_idle(gpu.synced, now, reborrow(&mut dev_ins));
            while let Some(&arrival) = pend.front().filter(|a| a.arrival <= now) {
                pend.pop_front();
                deliver_incoming(gpu, now, arrival, ctx, reborrow(&mut dev_ins));
            }
            step_device(gpu, d, now, ctx, sink, dev_ins);
            gpu.next = device_next_event(gpu, now);
            gpu.synced = now + 1;
        }
        // A finished device has no next event, so the leap waits only
        // on unfinished devices and arrivals. Skipped devices replay
        // the leaped gap themselves.
        let quiescent = shard.iter().all(|g| g.mc.is_idle());
        clock.advance(quiescent, || {
            let devices = shard.iter().filter_map(|g| g.next);
            let arrivals = pending.iter().filter_map(|p| p.front());
            let arrivals = arrivals.map(|a| a.arrival.max(now + 1));
            devices.chain(arrivals).min()
        });
    }
}

/// Runs the fused GEMM + reduce-scatter with every GPU simulated
/// explicitly over an arbitrary fabric. A ring topology reproduces
/// [`run_multi_gpu_fused_rs`] exactly; any other fabric runs the
/// direct schedule with multi-hop, per-link-contended traffic (see
/// the module docs).
///
/// `opts.mode` selects stepped or fast-forward time advancement; the
/// two are byte-identical (the stepped path is the reference kept for
/// the equivalence tests). `ins` instruments **device 0** (all devices
/// are homogeneous, so one observed GPU is representative, the same
/// argument as the mirrored methodology); passing `None` leaves the
/// result bit-identical.
///
/// # Panics
///
/// Panics if the topology's GPU count differs from `sys.num_gpus`, or
/// on non-convergence (internal error).
pub fn run_multi_gpu_fused_rs_on(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
    ins: Option<&mut Instruments>,
) -> MultiGpuResult {
    run_windows(sys, grid, opts, topo, 1, ins)
}

/// [`run_multi_gpu_fused_rs_on`] on `threads` worker threads, one
/// contiguous shard of devices each, byte-identical to it at every
/// width (see the module docs). Worker panics are re-raised on the
/// caller in shard order (lowest devices first), the same ordered-merge
/// discipline as `t3-runtime`'s scheduler pool.
///
/// # Panics
///
/// As [`run_multi_gpu_fused_rs_on`], plus any panic raised inside a
/// worker.
pub fn run_multi_gpu_fused_rs_sharded(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
    threads: usize,
) -> MultiGpuResult {
    run_windows(sys, grid, opts, topo, threads, None)
}

/// The window driver behind both entry points: `shards` contiguous
/// shards advance through windows of `1 + min link latency` cycles,
/// inline for one shard and on scoped worker threads otherwise.
fn run_windows(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
    shards: usize,
    mut ins: Option<&mut Instruments>,
) -> MultiGpuResult {
    let (mut gpus, mut fabric) = build_run(sys, &grid, opts, topo);
    let ctx = StepCtx {
        grid: &grid,
        update_cost: opts.substrate.update_cost_multiplier(&sys.mem),
    };
    // Every hop costs at least one serialisation cycle plus the link
    // latency, so nothing sent inside a window lands within it.
    let window: Cycle = 1 + topo
        .links()
        .iter()
        .map(|l| l.cfg.latency_cycles())
        .min()
        .unwrap_or(0);
    let n = gpus.len();
    let per = n.div_ceil(shards.clamp(1, n));

    let mut t0: Cycle = 0;
    loop {
        let t_end = t0 + window;
        let mut pending: Vec<VecDeque<Arrival>> = (0..n)
            .map(|d| fabric.deliveries_until(d, t_end - 1).into())
            .collect();
        let clock = Clock::bounded(opts.mode, t0, t_end);
        if per == n {
            let (sink, ins) = (&mut SendSink::Fabric(&mut fabric), reborrow(&mut ins));
            simulate_window(&mut gpus, 0, clock, &mut pending, sink, &ctx, ins);
        } else {
            let mut merged: Vec<SendIntent> = thread::scope(|scope| {
                let handles: Vec<_> = gpus
                    .chunks_mut(per)
                    .zip(pending.chunks_mut(per))
                    .enumerate()
                    .map(|(w, (shard, pend))| {
                        let (ctx, clock) = (&ctx, clock.clone());
                        scope.spawn(move || {
                            let mut intents = Vec::new();
                            let sink = &mut SendSink::Buffer(&mut intents);
                            simulate_window(shard, w * per, clock, pend, sink, ctx, None);
                            intents
                        })
                    })
                    .collect();
                // Ordered merge: the first panic re-raises in shard order.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                    .collect()
            });
            // Replay in (cycle, device, program order).
            merged.sort_by_key(|i| (i.cycle, i.src));
            for it in &merged {
                fabric.send(it.cycle, it.src, it.dst, it.tag, it.bytes);
            }
        }
        debug_assert!(
            pending.iter().all(VecDeque::is_empty),
            "window left arrivals unconsumed"
        );

        if gpus.iter().all(|g| g.finished_at.is_some()) && fabric.is_idle(t_end - 1) {
            break;
        }
        // Barrier leap: with every controller drained, nothing happens
        // before the next device event or fabric arrival.
        t0 = t_end;
        if opts.mode == SimMode::FastForward && gpus.iter().all(|g| g.mc.is_idle()) {
            let devices = gpus.iter().filter_map(|g| g.next);
            let next = devices.chain(fabric.next_event(t_end - 1)).min();
            t0 = next.map_or(t_end, |t| t.max(t_end));
        }
    }

    // Replay every device through the final cycle, as a stepped run
    // leaves it (device 0's queue-depth samples included).
    let per_gpu_cycles: Vec<Cycle> = gpus.iter().filter_map(|g| g.finished_at).collect();
    let cycles = per_gpu_cycles.iter().copied().fold(0, Cycle::max);
    let end = cycles.max(fabric.busy_until()) + 1;
    for (d, gpu) in gpus.iter_mut().enumerate() {
        let dev_ins = if d == 0 { reborrow(&mut ins) } else { None };
        gpu.mc.skip_idle(gpu.synced, end, dev_ins);
    }

    let result = MultiGpuResult {
        cycles,
        skew: cycles - per_gpu_cycles.iter().copied().fold(cycles, Cycle::min),
        per_gpu_stats: gpus.iter().map(|g| g.mc.stats().clone()).collect(),
        dma_transfers: gpus.iter().map(|g| g.dma_transfers).sum(),
        link_bytes: fabric.link_bytes(),
        per_gpu_cycles,
    };
    if let Some(ins) = ins {
        let gpu0 = &gpus[0];
        ins.record(
            result.cycles,
            Event::LlcSample {
                hits: gpu0.llc.hits(),
                misses: gpu0.llc.misses(),
            },
        );
        if let Some(m) = ins.metrics.as_mut() {
            m.set("run.cycles", result.cycles);
            m.set("run.skew", result.skew);
            m.set("dma.transfers", result.dma_transfers);
            m.set("tracker.peak_entries", gpu0.tracker.peak_entries() as u64);
            m.set("llc.hits", gpu0.llc.hits());
            m.set("llc.misses", gpu0.llc.misses());
            m.record_traffic(gpu0.mc.stats());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fused_gemm_rs;
    use t3_gpu::gemm::GemmShape;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    fn grid_of(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(4096, 4096, 512))
    }

    fn small_grid(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(2048, 2048, 512))
    }

    fn opts_in(mode: SimMode) -> FusedOptions {
        FusedOptions {
            mode,
            ..FusedOptions::default()
        }
    }

    #[test]
    fn all_gpus_complete_with_zero_skew() {
        // Fully homogeneous inputs: every GPU must finish at the same
        // cycle (this is the paper's homogeneity argument made exact).
        let s = sys();
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        assert_eq!(r.skew, 0, "homogeneous GPUs must not skew");
        assert_eq!(r.per_gpu_cycles.len(), s.num_gpus);
        assert_eq!(r.dma_transfers, (s.num_gpus * (s.num_gpus - 2)) as u64);
    }

    #[test]
    fn ring_topology_reproduces_seed_timing() {
        // Pinned regression: the fabric-based ring path must produce
        // the exact cycle counts the dedicated per-GPU-link
        // implementation produced before the topology refactor.
        let s = sys();
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        assert_eq!(r.cycles, 438_774);
        assert_eq!(r.skew, 0);
        assert_eq!(r.dma_transfers, 48);
        let mut s4 = sys();
        s4.num_gpus = 4;
        let g4 = GemmGrid::new(&s4.gpu, GemmShape::new(2048, 2048, 512));
        let r4 = run_multi_gpu_fused_rs(&s4, g4, &FusedOptions::default());
        assert_eq!(r4.cycles, 120_365);
        assert_eq!(r4.dma_transfers, 8);
    }

    #[test]
    fn ring_chunks_send_to_the_previous_device() {
        // The ascending mirror-image ring: device d computes global
        // chunk (d + p) mod N at position p and sends every non-owned
        // chunk to prev(d); the owned chunk goes nowhere.
        for n in [2, 4, 8] {
            let mut s = sys();
            s.num_gpus = n;
            let grid = small_grid(&s);
            let topo = Topology::ring(n, &s.link);
            let (gpus, _) = build_run(&s, &grid, &FusedOptions::default(), &topo);
            let ring = Ring::new(n);
            for (d, gpu) in gpus.iter().enumerate() {
                for (p, c) in gpu.chunks.iter().enumerate() {
                    assert_eq!(c.global_chunk, (d + p) % n, "n={n} d={d} p={p}");
                    let expected = (p < n - 1).then(|| ring.prev(d));
                    assert_eq!(c.route.destination(), expected, "n={n} d={d} p={p}");
                }
            }
        }
    }

    #[test]
    fn fast_forward_run_is_byte_identical_to_stepped() {
        // The default engine leaps idle gaps; the stepped reference
        // walks every cycle. Their results must agree bit for bit.
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let stepped = run_multi_gpu_fused_rs(&s, grid.clone(), &opts_in(SimMode::Stepped));
        let fast = run_multi_gpu_fused_rs(&s, grid, &opts_in(SimMode::FastForward));
        assert_eq!(format!("{stepped:?}"), format!("{fast:?}"));
    }

    #[test]
    fn instrumented_fast_forward_traces_match_stepped() {
        // Skipped idle cycles must replay their side effects exactly:
        // the tracer's sampled MC depth stream, event sequence numbers
        // and every metrics counter have to match the stepped run.
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let mut a = Instruments::full();
        let mut b = Instruments::full();
        let topo = Topology::ring(s.num_gpus, &s.link);
        let stepped = run_multi_gpu_fused_rs_on(
            &s,
            grid.clone(),
            &opts_in(SimMode::Stepped),
            &topo,
            Some(&mut a),
        );
        let fast = run_multi_gpu_fused_rs_on(
            &s,
            grid,
            &opts_in(SimMode::FastForward),
            &topo,
            Some(&mut b),
        );
        assert_eq!(stepped.cycles, fast.cycles);
        let ta = a.tracer.as_ref().expect("tracer on").records();
        let tb = b.tracer.as_ref().expect("tracer on").records();
        assert_eq!(format!("{ta:?}"), format!("{tb:?}"));
        let ma = a.metrics.as_ref().expect("metrics on").to_json();
        let mb = b.metrics.as_ref().expect("metrics on").to_json();
        assert_eq!(ma, mb);
    }

    #[test]
    fn sharded_run_matches_sequential_at_every_width() {
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let topo = Topology::ring(s.num_gpus, &s.link);
        let seq =
            run_multi_gpu_fused_rs_on(&s, grid.clone(), &FusedOptions::default(), &topo, None);
        for threads in [1, 2, 3, 8] {
            let sh = run_multi_gpu_fused_rs_sharded(
                &s,
                grid.clone(),
                &FusedOptions::default(),
                &topo,
                threads,
            );
            assert_eq!(
                format!("{seq:?}"),
                format!("{sh:?}"),
                "threads={threads} diverged from the sequential engine"
            );
        }
    }

    #[test]
    fn sharded_run_matches_sequential_on_a_switch_fabric() {
        // Multi-hop routes share switch ports across devices; the
        // barrier replay must reproduce that contention exactly, in
        // both time-advancement modes.
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let topo = Topology::switch(s.num_gpus, &s.link);
        for mode in [SimMode::Stepped, SimMode::FastForward] {
            let seq = run_multi_gpu_fused_rs_on(&s, grid.clone(), &opts_in(mode), &topo, None);
            let sh = run_multi_gpu_fused_rs_sharded(&s, grid.clone(), &opts_in(mode), &topo, 2);
            assert_eq!(
                format!("{seq:?}"),
                format!("{sh:?}"),
                "{} diverged",
                mode.label()
            );
        }
    }

    #[test]
    fn hierarchical_fast_forward_is_byte_identical_to_stepped() {
        // Slow inter-node links leave most devices idle while a few
        // drain, so this is where skipping idle devices does the most:
        // the result, device 0's trace and the metrics must all match
        // the stepped reference, and the sharded engine must agree.
        let s = sys();
        let grid = small_grid(&s);
        let mut slow = s.link.clone();
        slow.link_gb_s /= 4.0;
        slow.latency_ns *= 4.0;
        let topo = Topology::hierarchical(2, 4, &s.link, &slow);
        let run = |mode: SimMode| {
            let mut ins = Instruments::full();
            let r =
                run_multi_gpu_fused_rs_on(&s, grid.clone(), &opts_in(mode), &topo, Some(&mut ins));
            let records = ins.tracer.as_ref().expect("tracer on").records();
            let metrics = ins.metrics.as_ref().expect("metrics on").to_json();
            (format!("{r:?}"), format!("{records:?}"), metrics)
        };
        let stepped = run(SimMode::Stepped);
        let fast = run(SimMode::FastForward);
        assert_eq!(stepped.0, fast.0, "result");
        assert_eq!(stepped.1, fast.1, "trace records");
        assert_eq!(stepped.2, fast.2, "metrics");
        let seq =
            run_multi_gpu_fused_rs_on(&s, grid.clone(), &FusedOptions::default(), &topo, None);
        let sharded = run_multi_gpu_fused_rs_sharded(&s, grid, &FusedOptions::default(), &topo, 2);
        assert_eq!(format!("{seq:?}"), format!("{sharded:?}"), "sharded");
        assert_eq!(
            format!("{seq:?}"),
            fast.0,
            "instrumentation changed the result"
        );
    }

    #[test]
    fn sharded_run_reproduces_the_pinned_ring_timing() {
        let s = sys();
        let topo = Topology::ring(s.num_gpus, &s.link);
        let r = run_multi_gpu_fused_rs_sharded(&s, grid_of(&s), &FusedOptions::default(), &topo, 4);
        assert_eq!(r.cycles, 438_774);
        assert_eq!(r.skew, 0);
        assert_eq!(r.dma_transfers, 48);
    }

    #[test]
    fn explicit_topology_ring_matches_wrapper_exactly() {
        let s = sys();
        let topo = Topology::ring(s.num_gpus, &s.link);
        let via_topo =
            run_multi_gpu_fused_rs_on(&s, small_grid(&s), &FusedOptions::default(), &topo, None);
        let wrapper = run_multi_gpu_fused_rs(&s, small_grid(&s), &FusedOptions::default());
        assert_eq!(via_topo.cycles, wrapper.cycles);
        assert_eq!(via_topo.per_gpu_cycles, wrapper.per_gpu_cycles);
        assert_eq!(via_topo.link_bytes, wrapper.link_bytes);
    }

    #[test]
    fn mirrored_methodology_validation() {
        // The explicit N-GPU run and the mirrored single-GPU run must
        // agree closely (paper Section 5.1.1's justification). Both are
        // deterministic and measured 438,774 vs 438,803 cycles apart
        // (0.0066%), so the bound is 0.01%.
        let s = sys();
        let explicit = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        let mirrored = run_fused_gemm_rs(&s, grid_of(&s), &FusedOptions::default());
        let err = explicit.mirror_error(&mirrored);
        assert!(
            err < 1e-4,
            "mirrored methodology off by {:.4}% ({} vs {})",
            err * 100.0,
            explicit.cycles,
            mirrored.cycles
        );
    }

    #[test]
    fn per_gpu_traffic_is_homogeneous() {
        let s = sys();
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        let first = r.per_gpu_stats[0].total();
        for (d, stats) in r.per_gpu_stats.iter().enumerate() {
            let diff = (stats.total() as i64 - first as i64).unsigned_abs();
            assert!(
                diff < 1 << 20,
                "GPU {d} traffic {} deviates from GPU 0 {}",
                stats.total(),
                first
            );
        }
    }

    #[test]
    fn two_gpu_explicit_ring() {
        let mut s = sys();
        s.num_gpus = 2;
        let r = run_multi_gpu_fused_rs(&s, grid_of(&s), &FusedOptions::default());
        assert_eq!(r.dma_transfers, 0);
        assert_eq!(r.skew, 0);
    }

    /// Per-link wire bytes predicted from the schedule and the grid's
    /// actual chunk geometry: every send contributes its full chunk to
    /// each hop of its route.
    fn predicted_bytes(topo: &Topology, grid: &GemmGrid) -> Vec<Bytes> {
        let n = topo.num_gpus() as u64;
        let sched = Schedule::reduce_scatter(topo);
        let mut per_link = vec![0u64; topo.num_links()];
        for send in sched.sends() {
            let (g0, g1) = grid.chunk_wg_bounds(n, send.chunk as u64);
            let bytes = grid.wg_range_output_bytes(g0, g1);
            for id in &send.route {
                per_link[id.0] += bytes;
            }
        }
        per_link
    }

    #[test]
    fn non_ring_fabrics_complete_with_exact_byte_accounting() {
        let s = sys();
        let grid = small_grid(&s);
        for topo in [
            Topology::switch(s.num_gpus, &s.link),
            Topology::torus2d(2, 4, &s.link),
            Topology::hierarchical(2, 4, &s.link, &s.link),
        ] {
            let r =
                run_multi_gpu_fused_rs_on(&s, grid.clone(), &FusedOptions::default(), &topo, None);
            let label = topo.kind().label();
            assert!(r.cycles > 0, "{label}: no progress");
            assert!(
                r.per_gpu_cycles.iter().all(|&c| c > 0 && c <= r.cycles),
                "{label}: inconsistent per-GPU times"
            );
            // Direct schedule: all traffic is fine-grained remote
            // updates, no DMAs.
            assert_eq!(r.dma_transfers, 0, "{label}: direct RS uses no DMA");
            assert_eq!(
                r.link_bytes,
                predicted_bytes(&topo, &grid),
                "{label}: observed wire bytes diverge from the schedule"
            );
        }
    }

    #[test]
    fn slow_inter_node_links_slow_the_hierarchical_run() {
        let s = sys();
        let grid = small_grid(&s);
        let mut slow = s.link.clone();
        slow.link_gb_s /= 8.0;
        slow.latency_ns *= 4.0;
        let uniform = Topology::hierarchical(2, 4, &s.link, &s.link);
        let bottleneck = Topology::hierarchical(2, 4, &s.link, &slow);
        let fast =
            run_multi_gpu_fused_rs_on(&s, grid.clone(), &FusedOptions::default(), &uniform, None);
        let slowed =
            run_multi_gpu_fused_rs_on(&s, grid, &FusedOptions::default(), &bottleneck, None);
        assert!(
            slowed.cycles > fast.cycles,
            "slow inter-node links must cost cycles ({} <= {})",
            slowed.cycles,
            fast.cycles
        );
    }

    #[test]
    fn switch_fabric_run_is_traced() {
        let s = sys();
        let mut ins = Instruments::full();
        let topo = Topology::switch(s.num_gpus, &s.link);
        let r = run_multi_gpu_fused_rs_on(
            &s,
            small_grid(&s),
            &FusedOptions::default(),
            &topo,
            Some(&mut ins),
        );
        let m = ins.metrics.as_ref().expect("metrics on");
        assert_eq!(m.counter("run.cycles"), r.cycles);
        // Device 0's outgoing remote updates all cross its switch
        // port, which the tracer observed.
        assert!(m.counter("link.bytes_sent") > 0);
        assert!(m.counter("chunks.received") > 0);
        let tracer = ins.tracer.as_ref().expect("tracer on");
        assert!(tracer.count(|e| matches!(e, Event::LinkBusy { .. })) > 0);
    }
}
