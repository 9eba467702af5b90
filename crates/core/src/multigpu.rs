//! Explicit multi-GPU simulation of the fused GEMM + reduce-scatter —
//! every GPU simulated, real cross-GPU traffic on a real fabric.
//!
//! The paper (and [`crate::engine`]) exploit the homogeneity of
//! tensor-parallel execution to simulate one GPU and mirror its
//! outgoing traffic as the incoming stream (Section 5.1.1). This
//! module drops that assumption: each of the `N` GPUs is its own
//! `kernel::Device`, the same fused device (GEMM engine, memory
//! controller, Tracker and DMA engine) the mirrored engine steps once,
//! and every chunk travels over a [`t3_topo::Fabric`] from its producer
//! to its consumer, contending per hop with everything else on the
//! wire. The engine owns only the fabric, each device's inbox and the
//! clock.
//! What the LLC does to the GEMM does not depend on time, so the
//! devices share one [`LlcPlan`] instead of each walking a cache.
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
//! One loop, [`run_multi_gpu_fused_rs_on`], advances time in windows
//! of `1 + min link latency` cycles, short enough that no message sent
//! inside a window can arrive within it. At each window's start it
//! pre-pops the window's fabric arrivals into per-device queues, then
//! walks the window on a [`Clock`] bounded by its end, stepped or
//! fast-forward per [`t3_sim::SimMode`]:
//!
//! * It walks cycles in order and, within a cycle, devices in order,
//!   and sends straight into the fabric, so sends keep their
//!   `(cycle, device)` order.
//!   It steps a device only when a fabric arrival is due, or when the
//!   device is unfinished and its memory controller is busy or its
//!   own `next_event` (GEMM stage boundaries, DMA polling) has come
//!   ([`Clock::due`]; stepped mode steps every unfinished device every
//!   cycle). A finished device is never stepped again.
//! * A stepped device scans its chunks for DMA fires only when the step
//!   counted a wavefront (and on its first step, where chunks with no
//!   wavefronts fire). A fired empty chunk has nothing to read or
//!   send: it counts as a transfer and queues nothing.
//! * A skipped device replays its idle gap's side effects (tracer
//!   samples, arbiter wait counters, credit regeneration) in one
//!   `MemoryController::skip_idle` call just before it next steps, and
//!   through the final cycle when the run ends.
//! * In fast-forward mode a device that has just stepped with a busy
//!   controller (and no DMA source read to start next cycle) leaps that
//!   controller alone with `MemoryController::advance_busy`, up to its
//!   GEMM's next event, its next arrival or the window end, stopping
//!   early at one of its `Device::watches` (its GEMM read, DMA source
//!   read or incoming feed front). It is skipped until that landing
//!   cycle, where its other components step without a second
//!   controller step. The loop stays cycle-major.
//! * When every memory controller is idle or leaped ahead, the clock
//!   leaps to the earliest device event, landing or pending arrival.
//!
//! In fast-forward mode a window end with every memory controller idle
//! opens the next window at the earliest device event or fabric
//! arrival ([`Clock::open_window`]), so long link waits cost no empty
//! windows. The windows are kept for speed, not correctness: a
//! windowless loop polling every device's fabric inbox on every visited
//! cycle was byte-identical but slower (ARCHITECTURE §10).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::addrmap::OutputConfig;
use crate::engine::{FusedOptions, FusedRunResult};
use crate::kernel::{ChunkState, Device};
use t3_gpu::gemm::GemmGrid;
use t3_gpu::llc_plan::LlcPlan;
use t3_net::dma::DmaCommand;
use t3_net::ring::Ring;
use t3_sim::clock::Clock;
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficStats;
use t3_sim::{Bytes, Cycle};
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

/// One simulated GPU: its fused device, plus what the explicit loop
/// keeps per device.
struct Gpu {
    dev: Device,
    /// The device's routes; maps a chunk position to its id and back.
    config: OutputConfig,
    finished_at: Option<Cycle>,
    /// The next event as predicted after the device's last step.
    next: Option<Cycle>,
    /// The first cycle the device has neither stepped nor replayed.
    synced: Cycle,
}

/// Sends a Tracker-fired DMA chunk; when instrumented, also records the
/// chunk's wire span on its first hop as an [`Event::ChunkSend`].
fn send_dma(
    fabric: &mut Fabric,
    now: Cycle,
    src: usize,
    cmd: DmaCommand,
    ins: Option<&mut Instruments>,
) {
    let (dst, tag, bytes) = (cmd.dst, cmd.id, cmd.bytes);
    let Some(ins) = ins else {
        fabric.send_traced(now, src, dst, tag, bytes, None);
        return;
    };
    let route = fabric.topo().route(src, dst);
    let (out_port, hops) = (route[0], route.len() as u64);
    let start = fabric.link(out_port).busy_until().max(now);
    fabric.send_traced(now, src, dst, tag, bytes, Some(&mut *ins));
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
    ins.add("dma.bytes_sent", bytes);
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
    // Every fused store bypasses the LLC, so all devices share one plan.
    let plan = LlcPlan::shared(&sys.mem, grid, false);

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
            let chunks = (0..n)
                .map(|p| {
                    let global_chunk = config.chunk_id(p);
                    let incoming_passes = if is_ring {
                        usize::from(p >= 1)
                    } else {
                        sched
                            .sends()
                            .filter(|s| s.dst == d && s.chunk == global_chunk)
                            .count()
                    };
                    let bounds = grid.chunk_wg_bounds(n as u64, global_chunk as u64);
                    ChunkState::new(grid, global_chunk, bounds, config.route(p), incoming_passes)
                })
                .collect();
            Gpu {
                dev: Device::new(sys, opts, Arc::clone(&plan), chunks),
                config,
                finished_at: None,
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
fn deliver_incoming(gpu: &mut Gpu, now: Cycle, arrival: Arrival, ins: Option<&mut Instruments>) {
    let (chunk, bytes) = (arrival.tag, arrival.bytes);
    if let Some(ins) = ins {
        ins.record(now, Event::ChunkRecv { chunk, bytes });
        ins.add("chunks.received", 1);
    }
    let pos = gpu.config.position_of_chunk(chunk as usize);
    gpu.dev.receive(pos, bytes);
}

/// One device's full per-cycle step through the device phases; remote
/// stores and DMA'd chunks go straight into `fabric`, tagged with their
/// chunk id. `ins` must be `Some` only for the instrumented device.
fn step_device(
    gpu: &mut Gpu,
    d: usize,
    now: Cycle,
    fabric: &mut Fabric,
    mut ins: Option<&mut Instruments>,
) {
    let (dev, config) = (&mut gpu.dev, &gpu.config);
    dev.step_memory(now, None, reborrow(&mut ins));
    dev.step_gemm(
        now,
        |pos, dst, bytes, ins| {
            let tag = config.chunk_id(pos) as u64;
            fabric.send_traced(now, d, dst, tag, bytes, ins);
        },
        reborrow(&mut ins),
    );
    if let Some(cmd) = dev.dma.step(&mut dev.mc) {
        send_dma(fabric, now, d, cmd, reborrow(&mut ins));
    }
    dev.fire_triggers(now, reborrow(&mut ins));

    // Completion bookkeeping (fabric payloads may still be in
    // flight toward a peer; that time belongs to the receiver,
    // which cannot finish before consuming them).
    if gpu.finished_at.is_none() && dev.finished() {
        gpu.finished_at = Some(now);
    }
}

/// The next cycle strictly after `now` at which stepping this device
/// can change its observable state, assuming nothing new arrives from
/// the fabric. `None` when the device is inert until external input.
///
/// A busy memory controller or a pending DMA (queued or reading) pins
/// the very next cycle: the controller services every cycle, and the
/// engine polls the DMA every cycle.
fn device_next_event(dev: &Device, now: Cycle) -> Option<Cycle> {
    if !dev.mc.is_idle() || !dev.dma.is_idle() {
        return Some(now + 1);
    }
    dev.next_event(now)
}

/// In fast-forward mode, leaps the busy controller of a device that
/// has just stepped at `now` to the cycle before its next event, where
/// its other components must step again: the earliest of its own
/// `next_event`, its next pre-popped arrival (`arrival`) and the
/// window end, or earlier, the first cycle one of its watches is
/// reached. Until then nothing but the controller can act, exactly as
/// in the mirrored loop. A DMA read due to start next cycle pins the
/// device to one-cycle steps. Returns the cycle the controller stopped
/// at, `None` for no leap.
fn leap_busy(
    dev: &mut Device,
    now: Cycle,
    clock: &Clock,
    arrival: Option<Cycle>,
    ins: Option<&mut Instruments>,
) -> Option<Cycle> {
    if dev.mc.is_idle() {
        return None;
    }
    let horizon = clock.busy_horizon(|| dev.next_event(now).into_iter().chain(arrival).min())?;
    Some(dev.leap_busy(now, horizon, ins))
}

/// Runs the fused GEMM + reduce-scatter with every GPU simulated
/// explicitly over an arbitrary fabric. A ring topology reproduces
/// [`run_multi_gpu_fused_rs`] exactly; any other fabric runs the
/// direct schedule with multi-hop, per-link-contended traffic.
///
/// This is the engine's one loop (see the module docs): window by
/// window, cycle by cycle, and within a cycle device by device, it
/// steps only the devices that are due. `opts.mode` selects stepped or
/// fast-forward time advancement; the two are byte-identical (the
/// stepped path is the reference kept for the equivalence tests).
/// `ins` instruments **device 0** (all devices are homogeneous, so one
/// observed GPU is representative, the same argument as the mirrored
/// methodology); passing `None` leaves the result bit-identical.
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
    mut ins: Option<&mut Instruments>,
) -> MultiGpuResult {
    let (mut gpus, mut fabric) = build_run(sys, &grid, opts, topo);
    // Every hop costs at least one serialisation cycle plus the link
    // latency, so nothing sent inside a window lands within it.
    let window: Cycle = 1 + topo
        .links()
        .iter()
        .map(|l| l.cfg.latency_cycles())
        .min()
        .unwrap_or(0);

    let mut clock = Clock::bounded(opts.mode, 0, window);
    loop {
        let t_end = clock.now() + window;
        let mut pending: Vec<VecDeque<Arrival>> = (0..gpus.len())
            .map(|d| fabric.deliveries_until(d, t_end - 1).into())
            .collect();
        while clock.running() {
            let now = clock.now();
            for (d, (gpu, pend)) in gpus.iter_mut().zip(&mut pending).enumerate() {
                let arrived = pend.front().is_some_and(|a| a.arrival <= now);
                // A device whose controller leaped ahead is due on
                // landing, even when the leap drained it: only its
                // components' step there can book its completion.
                let ahead = gpu.dev.mc_ahead;
                let busy = !gpu.dev.mc.is_idle() && !ahead;
                let due = clock.due(gpu.next) || busy;
                if !(arrived || due && (ahead || !gpu.dev.finished())) {
                    continue;
                }
                let mut dev_ins = if d == 0 { reborrow(&mut ins) } else { None };
                gpu.dev
                    .mc
                    .skip_idle(gpu.synced, now, reborrow(&mut dev_ins));
                while let Some(&arrival) = pend.front().filter(|a| a.arrival <= now) {
                    pend.pop_front();
                    deliver_incoming(gpu, now, arrival, reborrow(&mut dev_ins));
                }
                step_device(gpu, d, now, &mut fabric, reborrow(&mut dev_ins));
                gpu.next = device_next_event(&gpu.dev, now);
                gpu.synced = now + 1;
                let arrival = pend.front().map(|a| a.arrival);
                if let Some(at) = leap_busy(&mut gpu.dev, now, &clock, arrival, dev_ins) {
                    (gpu.next, gpu.synced) = (Some(at), at + 1);
                }
            }
            // A finished device has no next event, so the leap waits
            // only on unfinished devices and arrivals; a device whose
            // controller leaped ahead waits on its landing cycle.
            // Skipped devices replay the leaped gap themselves.
            let quiescent = gpus.iter().all(|g| g.dev.mc.is_idle() || g.dev.mc_ahead);
            clock.advance(quiescent, || {
                let devices = gpus.iter().filter_map(|g| g.next);
                let arrivals = pending.iter().filter_map(|p| p.front());
                let arrivals = arrivals.map(|a| a.arrival.max(now + 1));
                devices.chain(arrivals).min()
            });
        }
        debug_assert!(
            pending.iter().all(VecDeque::is_empty),
            "window left arrivals unconsumed"
        );
        debug_assert!(
            gpus.iter().all(|g| !g.dev.mc_ahead),
            "a busy leap crossed the window end"
        );

        if gpus.iter().all(|g| g.finished_at.is_some()) && fabric.is_idle(t_end - 1) {
            break;
        }
        // With every controller drained, nothing happens before the
        // next device event or fabric arrival.
        let drained = gpus.iter().all(|g| g.dev.mc.is_idle());
        clock.open_window(window, drained, || {
            let devices = gpus.iter().filter_map(|g| g.next);
            devices.chain(fabric.next_event(t_end - 1)).min()
        });
    }

    // Replay every device through the final cycle, as a stepped run
    // leaves it (device 0's queue-depth samples included).
    let per_gpu_cycles: Vec<Cycle> = gpus.iter().filter_map(|g| g.finished_at).collect();
    let cycles = per_gpu_cycles.iter().copied().fold(0, Cycle::max);
    let end = cycles.max(fabric.busy_until()) + 1;
    for (d, gpu) in gpus.iter_mut().enumerate() {
        let dev_ins = if d == 0 { reborrow(&mut ins) } else { None };
        gpu.dev.mc.skip_idle(gpu.synced, end, dev_ins);
    }

    let result = MultiGpuResult {
        cycles,
        skew: cycles - per_gpu_cycles.iter().copied().fold(cycles, Cycle::min),
        per_gpu_stats: gpus.iter().map(|g| g.dev.mc.stats().clone()).collect(),
        dma_transfers: gpus.iter().map(|g| g.dev.dma.sent_commands()).sum(),
        link_bytes: fabric.link_bytes(),
        per_gpu_cycles,
    };
    if let Some(ins) = ins {
        gpus[0].dev.record_end(result.cycles, ins);
        if let Some(m) = ins.metrics.as_mut() {
            m.set("run.skew", result.skew);
        }
    }
    result
}

/// [`run_multi_gpu_fused_rs_on`] without instruments; the thread count
/// is ignored.
///
/// This entry point used to run one contiguous shard of devices per
/// worker thread, buffering sends and replaying them at each window
/// end. A window holds too little work to pay for that
/// synchronisation, so every width ran slower than the one loop
/// (ARCHITECTURE §10) and the sharding went. The alias goes together
/// with the benchmark's `sharded2` case, its only remaining caller.
pub fn run_multi_gpu_fused_rs_sharded(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    topo: &Topology,
    _threads: usize,
) -> MultiGpuResult {
    run_multi_gpu_fused_rs_on(sys, grid, opts, topo, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fused_gemm_rs;
    use t3_gpu::gemm::GemmShape;
    use t3_sim::config::LinkConfig;
    use t3_sim::SimMode;
    use t3_trace::{Detail, Tracer};

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
                for (p, c) in gpu.dev.chunks.iter().enumerate() {
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

    /// A run instrumenting device 0 at fine detail: the result, device
    /// 0's trace records (per-wavefront Tracker updates included) and
    /// metrics JSON, and its work counters (`run.loop_steps`,
    /// `run.busy_leap_cycles`).
    fn instrumented(
        s: &SystemConfig,
        grid: &GemmGrid,
        topo: &Topology,
        mode: SimMode,
    ) -> (String, String, String, (u64, u64)) {
        let mut ins = Instruments {
            tracer: Some(Tracer::with_detail(Detail::Fine)),
            ..Instruments::full()
        };
        let r = run_multi_gpu_fused_rs_on(s, grid.clone(), &opts_in(mode), topo, Some(&mut ins));
        let records = ins.tracer.as_ref().expect("tracer on").records();
        let m = ins.metrics.as_ref().expect("metrics on");
        let work = (m.work("run.loop_steps"), m.work("run.busy_leap_cycles"));
        (format!("{r:?}"), format!("{records:?}"), m.to_json(), work)
    }

    /// Stepped and fast-forward runs instrumenting device 0 agree on
    /// the result, the trace records and the metrics; returns the
    /// fast-forward run's result.
    fn assert_modes_agree(s: &SystemConfig, grid: &GemmGrid, topo: &Topology) -> String {
        let stepped = instrumented(s, grid, topo, SimMode::Stepped);
        let fast = instrumented(s, grid, topo, SimMode::FastForward);
        let label = topo.kind().label();
        assert_eq!(stepped.0, fast.0, "{label}: result");
        assert_eq!(stepped.1, fast.1, "{label}: trace records");
        assert_eq!(stepped.2, fast.2, "{label}: metrics");
        fast.0
    }

    #[test]
    fn instrumented_fast_forward_traces_match_stepped() {
        // Skipped idle cycles and busy leaps must replay their side
        // effects exactly: the tracer's sampled MC depth stream, event
        // sequence numbers and every metrics counter have to match the
        // stepped run.
        let mut s = sys();
        s.num_gpus = 4;
        let topo = Topology::ring(s.num_gpus, &s.link);
        assert_modes_agree(&s, &small_grid(&s), &topo);
    }

    #[test]
    fn every_fabric_fast_forward_traces_match_stepped() {
        // Device 0 leaps its busy controller with instruments attached
        // on a switch (shared ports), a torus and a fully-connected
        // fabric (direct schedule, multi-hop or not) and on a
        // latency-bound inter-node ring (long windows, DMA-driven); the
        // default ring and the hierarchical fabric have their own tests.
        let s = sys();
        let grid = small_grid(&s);
        let internode = LinkConfig {
            link_gb_s: 25.0,
            clock_ghz: s.link.clock_ghz,
            latency_ns: 5000.0,
        };
        for topo in [
            Topology::switch(s.num_gpus, &s.link),
            Topology::torus2d(2, 4, &s.link),
            Topology::fully_connected(s.num_gpus, &s.link),
            Topology::ring(s.num_gpus, &internode),
        ] {
            assert_modes_agree(&s, &grid, &topo);
        }
    }

    #[test]
    fn busy_leaps_are_counted_for_device_zero() {
        // Pinned: device 0 of the 4-GPU ring takes 1,672 steps for its
        // 120,365 cycles in fast-forward mode, and its controller steps
        // 42,426 cycles inside busy leaps (each at most a window long);
        // the stepped reference steps it every cycle and never leaps. A
        // lost leap moves these counts.
        let mut s = sys();
        s.num_gpus = 4;
        let grid = small_grid(&s);
        let topo = Topology::ring(s.num_gpus, &s.link);
        let (_, _, _, fast) = instrumented(&s, &grid, &topo, SimMode::FastForward);
        let (_, _, _, stepped) = instrumented(&s, &grid, &topo, SimMode::Stepped);
        assert_eq!(fast, (1_672, 42_426));
        assert_eq!(stepped, (120_366, 0));
    }

    #[test]
    fn hierarchical_fast_forward_is_byte_identical_to_stepped() {
        // Slow inter-node links leave most devices idle while a few
        // drain, so this is where skipping idle devices does the most:
        // the result, device 0's trace and the metrics must all match
        // the stepped reference.
        let s = sys();
        let grid = small_grid(&s);
        let mut slow = s.link.clone();
        slow.link_gb_s /= 4.0;
        slow.latency_ns *= 4.0;
        let topo = Topology::hierarchical(2, 4, &s.link, &slow);
        let fast = assert_modes_agree(&s, &grid, &topo);
        let seq = run_multi_gpu_fused_rs_on(&s, grid, &FusedOptions::default(), &topo, None);
        assert_eq!(
            format!("{seq:?}"),
            fast,
            "instrumentation changed the result"
        );
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
