//! Timing simulation of T3's fused GEMM + ring reduce-scatter.
//!
//! Follows the paper's multi-GPU methodology (Section 5.1.1, Figure
//! 13): in a tensor-parallel node all GPUs execute homogeneously, so
//! one GPU is simulated in full and remote traffic is *mirrored* — the
//! incoming update stream for a chunk arrives with the timing of this
//! GPU's own outgoing transfers for the previous chunk (which
//! implicitly carries the neighbour's compute/communication
//! interference, exactly as the paper argues).
//!
//! Per the fused schedule (Figure 7) for an `N`-GPU ring:
//!
//! * the first chunk's stores leave as fine-grained remote updates on
//!   the link and never touch local DRAM;
//! * steady-state chunks are written locally as uncached near-memory
//!   updates; the [`Tracker`] counts the local stores (at
//!   memory-controller enqueue, Section 4.2.1) and the incoming
//!   mirrored updates (as DRAM services them), and fires the
//!   pre-programmed DMA when every wavefront region of a chunk is
//!   complete;
//! * the DMA reads the partially-reduced chunk once and sends it; its
//!   delivery mirrors the arrival of the *next* chunk's incoming copy;
//! * the last chunk is the one this GPU owns: local + incoming updates
//!   complete it in memory, with no further transfer.
//!
//! All DRAM traffic flows through one [`MemoryController`] under the
//! configured arbitration policy — this is where T3 and T3-MCA differ
//! (Sections 4.5, 6.1.2, 6.1.3).

use crate::addrmap::{ChunkRoute, OutputConfig};
use crate::kernel::{count_nonempty_wfs, record_local_stores, split_at_chunks, ChunkState, Feed};
use crate::tracker::{Tracker, TrackerConfig};
use t3_gpu::engine::{GemmEngine, GemmEvent};
use t3_gpu::gemm::GemmGrid;
use t3_gpu::llc_plan::LlcPlan;
use t3_mem::arbiter::{ArbitrationPolicy, ComputeFirstPolicy, McaPolicy, RoundRobinPolicy};
use t3_mem::controller::{MemoryController, StreamId};
use t3_mem::nmc::ReductionSubstrate;
use t3_net::dma::{DmaCommand, DmaEngine};
use t3_net::link::Link;
use t3_net::ring::Ring;
use t3_sim::clock::Clock;
use t3_sim::config::SystemConfig;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_sim::timeseries::TimeSeries;
use t3_sim::{Bytes, Cycle, SimMode};
use t3_trace::{reborrow, Event, Instruments};

/// Arbitration policy selection for a fused run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Naive round-robin (plain T3).
    RoundRobin,
    /// Static compute priority (intermediate point, for ablations).
    ComputeFirst,
    /// T3-MCA with the dynamic first-stage intensity probe.
    McaDynamic,
    /// T3-MCA with a fixed occupancy threshold (threshold ablation).
    McaFixed(usize),
}

impl PolicyChoice {
    /// The arbitration policy this choice selects.
    pub(crate) fn build(self, sys: &SystemConfig) -> Box<dyn ArbitrationPolicy> {
        match self {
            PolicyChoice::RoundRobin => Box::new(RoundRobinPolicy::new()),
            PolicyChoice::ComputeFirst => Box::new(ComputeFirstPolicy::new()),
            PolicyChoice::McaDynamic => Box::new(McaPolicy::new(&sys.mem)),
            PolicyChoice::McaFixed(t) => Box::new(McaPolicy::with_fixed_threshold(t)),
        }
    }
}

/// Options for a fused GEMM-RS timing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedOptions {
    /// Memory-controller arbitration policy.
    pub policy: PolicyChoice,
    /// Where communication reductions execute.
    pub substrate: ReductionSubstrate,
    /// Staggered WG scheduling across GPUs (Section 4.4). Disabling it
    /// delays each chunk's incoming copy by the un-overlapped ring
    /// depth (ablation; see DESIGN.md).
    pub stagger: bool,
    /// Record a DRAM-traffic time series with this bucket width.
    pub timeseries_bucket: Option<Cycle>,
    /// How the engine loop's [`Clock`] advances time. Both modes are
    /// byte-identical; [`SimMode::Stepped`] is the reference path kept
    /// for the equivalence tests.
    pub mode: SimMode,
}

impl Default for FusedOptions {
    fn default() -> Self {
        FusedOptions {
            policy: PolicyChoice::RoundRobin,
            substrate: ReductionSubstrate::NearMemory,
            stagger: true,
            timeseries_bucket: None,
            mode: SimMode::default(),
        }
    }
}

/// Outcome of a fused GEMM-RS timing run.
#[derive(Debug, Clone)]
pub struct FusedRunResult {
    /// End-to-end cycles for the fused GEMM + reduce-scatter.
    pub cycles: Cycle,
    /// Per-GPU DRAM traffic.
    pub stats: TrafficStats,
    /// Optional traffic timeline (Figure 17).
    pub timeseries: Option<TimeSeries>,
    /// DMA chunk transfers performed (`N-2` per GPU for ring-RS).
    pub dma_transfers: u64,
    /// Tracker high-water mark (hardware sizing check).
    pub peak_tracker_entries: usize,
    /// Bytes sent on the outbound link (remote stores + DMA payloads).
    pub link_bytes_sent: Bytes,
}

/// Tag space: link messages tagged `>= TAG_REMOTE` are warm-up remote
/// stores; below that, the tag is the DMA'd chunk's position.
const TAG_REMOTE: u64 = 1 << 32;

/// Mirror traffic scheduled to enter the comm stream at `at`.
#[derive(Debug, Clone, Copy)]
struct PendingIncoming {
    at: Cycle,
    position: usize,
    bytes: Bytes,
}

/// Schedules the mirrored incoming bytes that raise `position`'s
/// cumulative announcement (`announced`) to `target`, arriving at `at`.
fn mirror_incoming(
    pending: &mut Vec<PendingIncoming>,
    announced: &mut Bytes,
    at: Cycle,
    position: usize,
    target: Bytes,
) {
    let bytes = target.saturating_sub(*announced);
    if bytes > 0 {
        *announced = target;
        pending.push(PendingIncoming {
            at,
            position,
            bytes,
        });
    }
}

/// Hands every announcement due by `now` to `release`.
fn release_due(
    pending: &mut Vec<PendingIncoming>,
    now: Cycle,
    mut release: impl FnMut(PendingIncoming),
) {
    let mut i = 0;
    while i < pending.len() {
        if pending[i].at <= now {
            release(pending.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

/// The earliest cycle an announcement enters the comm stream (never
/// before the next step).
fn next_release(pending: &[PendingIncoming], now: Cycle) -> Option<Cycle> {
    pending.iter().map(|p| p.at.max(now + 1)).min()
}

/// Runs the fused GEMM + ring reduce-scatter on one (mirrored) GPU.
///
/// The all-gather completing the all-reduce is sequential in T3
/// (Section 5.3) and is accounted by the configuration layer.
///
/// # Examples
///
/// ```
/// use t3_core::engine::{run_fused_gemm_rs, FusedOptions};
/// use t3_gpu::gemm::{GemmGrid, GemmShape};
/// use t3_sim::config::SystemConfig;
///
/// let sys = SystemConfig::paper_default(); // 8-GPU ring
/// let grid = GemmGrid::new(&sys.gpu, GemmShape::new(1024, 1024, 256));
/// let run = run_fused_gemm_rs(&sys, grid, &FusedOptions::default());
/// // N-2 steady-state chunks leave via Tracker-triggered DMAs.
/// assert_eq!(run.dma_transfers, 6);
/// ```
///
/// # Panics
///
/// Panics if the simulation fails to converge (an internal error).
pub fn run_fused_gemm_rs(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    run_fused_gemm_rs_instrumented(sys, grid, opts, None)
}

/// [`run_fused_gemm_rs`] with optional structured instrumentation:
/// GEMM stages, chunk sends/receives, DMA trigger fires, link busy
/// intervals and memory-controller queue samples are recorded into
/// `ins` (Tracker table updates too, at [`t3_trace::Detail::Fine`]),
/// and end-of-run metrics (per-class traffic, cycles, DMA/tracker/LLC
/// counters) are snapshotted into its registry. Passing `None` is
/// bit-identical to `run_fused_gemm_rs`.
///
/// # Panics
///
/// As [`run_fused_gemm_rs`].
pub fn run_fused_gemm_rs_instrumented(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    mut ins: Option<&mut Instruments>,
) -> FusedRunResult {
    let n = sys.num_gpus;
    let config = OutputConfig::ring_reduce_scatter(Ring::new(n), 0);
    let update_cost = opts.substrate.update_cost_multiplier(&sys.mem);

    // Position p is the p-th chunk this GPU computes. Ring-RS has two
    // mirror-image schedules (send-to-next with descending chunk order,
    // or send-to-prev with ascending); we simulate the ascending one so
    // that the staggered schedule of the simulated GPU coincides with
    // the GEMM's natural WG order — the routes per position (warm-up
    // remote, N-2 DMA steps, owned last) are identical either way.
    let bounds: Vec<(u64, u64)> = (0..n)
        .map(|p| grid.chunk_wg_bounds(n as u64, p as u64))
        .collect();
    let mut chunks: Vec<ChunkState> = (0..n)
        .map(|p| {
            let route = config.route(p);
            let passes = usize::from(p >= 1);
            ChunkState::new(&grid, p, bounds[p], route, passes)
        })
        .collect();
    let mut incoming_announced: Vec<Bytes> = vec![0; n];

    let mut mc = MemoryController::new(&sys.mem, opts.policy.build(sys));
    // Every fused store bypasses the LLC (uncached NMC updates or
    // remote stores).
    let mut gemm = GemmEngine::new(&sys.gpu, LlcPlan::shared(&sys.mem, &grid, false));
    let mut dma = DmaEngine::new(&sys.link);
    let mut tracker = Tracker::new(TrackerConfig::paper(grid.wf_tile_elems()));
    let mut ts = opts.timeseries_bucket.map(TimeSeries::new);

    let mut pending_incoming: Vec<PendingIncoming> = Vec::new();
    let mut feed = Feed::new(&grid);
    let mut remote_delivered: Bytes = 0;

    // Extra delay applied to incoming announcements when stagger is
    // disabled: the ring pipeline depth that fine-grained overlap can
    // no longer hide (see DESIGN.md).
    let no_stagger_delay: Cycle = if opts.stagger {
        0
    } else {
        let avg_chunk = chunks.iter().map(|c| c.bytes).sum::<Bytes>() / n as u64;
        (n as u64).saturating_sub(2)
            // t3-lint: allow(float-cycles) -- pipeline-depth penalty uses the Link's own ceil rounding; pinned by no-stagger ablation tests
            * ((avg_chunk as f64 / sys.link.bytes_per_cycle()).ceil() as Cycle
                + sys.link.latency_cycles())
    };

    let mut remote_seq: u64 = 0;
    let mut first_stage_done = false;
    let mut gemm_done = false;
    let mut dma_transfers = 0u64;
    // Set whenever a chunk counts a wavefront: only then can a DMA
    // trigger become due. Starts set, so a chunk with no wavefronts
    // fires on the first scan.
    let mut scan_triggers = true;
    let mut clock = Clock::new(opts.mode);

    mc.reset_occupancy_window();

    loop {
        let now = clock.now();
        mc.step_traced(now, ts.as_mut(), reborrow(&mut ins));

        // 1. Attribute newly serviced incoming updates to the tracker.
        feed.attribute(
            mc.stats().bytes(TrafficClass::RsUpdate),
            &mut tracker,
            |e| {
                chunks[e.position].triggered_wfs += 1;
                scan_triggers = true;
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

        // 2. Release due incoming announcements into the comm stream.
        release_due(&mut pending_incoming, now, |p| {
            feed.announce(&grid, &mut chunks, p.position);
            mc.enqueue(StreamId::Comm, TrafficClass::RsUpdate, p.bytes, update_cost);
        });

        // 3. Advance the producer GEMM.
        match gemm.step(now, &mut mc) {
            GemmEvent::Idle => {}
            GemmEvent::Finished => gemm_done = true,
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
                    ins.observe("gemm.stage_cycles", now - started);
                }
                if !first_stage_done {
                    // T3-MCA's first-stage memory-intensity probe
                    // (Section 4.5): the first stage ran before any
                    // communication traffic existed.
                    mc.observe_compute_intensity(mc.avg_occupancy_fraction());
                    first_stage_done = true;
                }
                for (pos, w0, w1) in split_at_chunks(&bounds, wg_start, wg_end) {
                    let bytes = grid.wg_range_output_bytes(w0, w1);
                    match chunks[pos].route {
                        ChunkRoute::RemoteUpdate { .. } => {
                            // Warm-up chunk: stores go straight onto the
                            // link; the mirrored incoming copy for the
                            // next chunk arrives at delivery time.
                            dma.send_direct_traced(
                                now,
                                TAG_REMOTE + remote_seq,
                                bytes,
                                reborrow(&mut ins),
                            );
                            remote_seq += 1;
                        }
                        ChunkRoute::LocalOnly {
                            updates_per_element,
                        }
                        | ChunkRoute::LocalThenDmaUpdate {
                            updates_per_element,
                            ..
                        } => {
                            // Uncached NMC update stores on the compute
                            // stream; tracked at MCQ enqueue.
                            mc.enqueue(
                                StreamId::Compute,
                                TrafficClass::GemmWrite,
                                bytes,
                                update_cost,
                            );
                            chunks[pos].triggered_wfs += record_local_stores(
                                &mut tracker,
                                &grid,
                                (w0, w1),
                                updates_per_element,
                            );
                            scan_triggers = true;
                        }
                        _ => unreachable!("ring-RS uses no other routes"),
                    }
                }
            }
        }

        // 4. DMA engine: our deliveries mirror incoming traffic.
        for delivery in dma.step_traced(now, &mut mc, reborrow(&mut ins)) {
            let at = now + no_stagger_delay;
            if delivery.tag >= TAG_REMOTE {
                // A warm-up portion reached the neighbour; announce the
                // proportional mirrored portion of our position-1 chunk.
                remote_delivered += delivery.bytes;
                let (src_total, dst_total) = (chunks[0].bytes, chunks[1].bytes);
                let target =
                    (remote_delivered.saturating_mul(dst_total) / src_total).min(dst_total);
                let announced = &mut incoming_announced[1];
                mirror_incoming(&mut pending_incoming, announced, at, 1, target);
            } else {
                // Mirrored: our chunk at position `tag` reaching the
                // neighbour IS the next chunk's incoming copy arriving
                // here.
                if let Some(ins) = reborrow(&mut ins) {
                    ins.record(
                        now,
                        Event::ChunkRecv {
                            chunk: delivery.tag + 1,
                            bytes: delivery.bytes,
                        },
                    );
                    ins.add("chunks.received", 1);
                }
                let next = delivery.tag as usize + 1;
                assert!(next < chunks.len(), "owned chunk is never DMA'd");
                let announced = &mut incoming_announced[next];
                mirror_incoming(
                    &mut pending_incoming,
                    announced,
                    at,
                    next,
                    chunks[next].bytes,
                );
            }
        }

        // 5. Fire DMAs for completed steady-state chunks, in position
        // order, on a step that counted a wavefront.
        if std::mem::take(&mut scan_triggers) {
            for (pos, chunk) in chunks.iter_mut().enumerate() {
                if chunk.fire_dma().is_some() {
                    dma_transfers += 1;
                    if let Some(ins) = reborrow(&mut ins) {
                        ins.record(
                            now,
                            Event::DmaTriggerFire {
                                chunk: pos as u64,
                                bytes: chunk.bytes,
                            },
                        );
                        ins.add("dma.triggers_fired", 1);
                    }
                    dma.trigger(DmaCommand {
                        id: pos as u64,
                        bytes: chunk.bytes,
                        read_class: TrafficClass::RsRead,
                    });
                }
            }
        }

        // Completion: producer done, every tracked chunk complete, all
        // queues and wires drained.
        if gemm_done
            && chunks.iter().all(ChunkState::complete)
            && pending_incoming.is_empty()
            && feed.is_empty()
            && dma.is_idle(now)
            && mc.is_idle()
        {
            break;
        }

        // With the controller quiescent, nothing can happen before the
        // earliest component event. A tracker fire can only follow a
        // controller service or a GEMM store, both of which require an
        // event first, so a leap skips no fire.
        let gap = clock.advance(mc.is_idle(), || {
            let events = [
                gemm.next_event(now, &mc),
                dma.next_event(now, &mc),
                next_release(&pending_incoming, now),
            ];
            events.into_iter().flatten().min()
        });
        if let Some(gap) = gap {
            mc.skip_idle(gap.start, gap.end, reborrow(&mut ins));
        }
    }

    let now = clock.now();
    if let Some(ins) = reborrow(&mut ins) {
        ins.record(
            now,
            Event::LlcSample {
                hits: gemm.plan().hits(),
                misses: gemm.plan().misses(),
            },
        );
        if let Some(m) = ins.metrics.as_mut() {
            m.set("run.cycles", now);
            m.set("dma.transfers", dma_transfers);
            m.set("tracker.peak_entries", tracker.peak_entries() as u64);
            m.set("mc.stream_switches", mc.stream_switches());
            m.set("llc.hits", gemm.plan().hits());
            m.set("llc.misses", gemm.plan().misses());
            m.record_traffic(mc.stats());
        }
    }

    FusedRunResult {
        cycles: now,
        stats: mc.stats().clone(),
        timeseries: ts,
        dma_transfers,
        peak_tracker_entries: tracker.peak_entries(),
        link_bytes_sent: dma.bytes_sent(),
    }
}

/// Runs the fused GEMM + *direct* reduce-scatter of Section 7.1 on a
/// fully-connected topology: every non-owned chunk leaves as
/// fine-grained remote updates on a dedicated link while the GEMM
/// stores it, and the owned chunk is completed in memory by the
/// mirrored incoming updates of the `N-1` peers. The collective has
/// **zero** dedicated DRAM accesses — no DMA reads, no staging writes.
///
/// # Panics
///
/// Panics if the simulation fails to converge.
pub fn run_fused_gemm_direct_rs(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    let config = OutputConfig::direct_reduce_scatter(sys.num_gpus, 0);
    run_fused_direct(sys, grid, opts, &config)
}

/// Runs a fused GEMM + all-to-all (Sections 7.1/7.2, expert
/// parallelism): chunk `j` of the output is remote-*stored* to device
/// `j` as the GEMM produces it (no local copy, no reduction), and the
/// mirrored incoming chunks land in this device's slots as plain
/// writes. Like direct-RS, the collective itself performs no dedicated
/// DRAM reads.
///
/// # Panics
///
/// Panics if the simulation fails to converge.
pub fn run_fused_gemm_all_to_all(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    let config = OutputConfig::all_to_all(sys.num_gpus, 0);
    run_fused_direct(sys, grid, opts, &config)
}

/// The loop shared by the direct-link schedules, for simulated device 0
/// (which owns chunk 0): every other chunk leaves on a dedicated link
/// to its owner as the GEMM stores it.
///
/// The route of the non-owned chunks decides the rest. `RemoteUpdate`
/// (direct-RS) reduces: local stores are NMC updates, the incoming
/// copies are updates, and the Tracker counts the owned chunk to
/// completion. `RemoteStore` (all-to-all) moves data only: plain local
/// stores, plain incoming writes, nothing tracked.
fn run_fused_direct(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    config: &OutputConfig,
) -> FusedRunResult {
    let n = sys.num_gpus;
    let reduce = matches!(config.route(1), ChunkRoute::RemoteUpdate { .. });
    let (incoming_class, update_cost) = if reduce {
        let cost = opts.substrate.update_cost_multiplier(&sys.mem);
        (TrafficClass::RsUpdate, cost)
    } else {
        (TrafficClass::AgWrite, 1.0)
    };
    let owned_updates = config.route(0).updates_per_element();
    let bounds: Vec<(u64, u64)> = (0..n)
        .map(|c| grid.chunk_wg_bounds(n as u64, c as u64))
        .collect();
    let chunk_bytes: Vec<Bytes> = bounds
        .iter()
        .map(|&(w0, w1)| grid.wg_range_output_bytes(w0, w1))
        .collect();
    let owned_bytes = chunk_bytes[0];

    let mut mc = MemoryController::new(&sys.mem, opts.policy.build(sys));
    // Every fused store bypasses the LLC (uncached NMC updates or
    // remote stores).
    let mut gemm = GemmEngine::new(&sys.gpu, LlcPlan::shared(&sys.mem, &grid, false));
    // One outbound link per peer on the fully-connected topology.
    let mut links: Vec<Link> = (0..n - 1).map(|_| Link::new(&sys.link)).collect();
    let mut tracker = Tracker::new(TrackerConfig::paper(grid.wf_tile_elems()));
    let mut ts = opts.timeseries_bucket.map(TimeSeries::new);

    // Incoming mirror: each peer streams its copy of our owned chunk as
    // it computes the corresponding region; by homogeneity, peer p
    // produces it at the same time we produce chunk p's stores.
    // Deliveries (after link latency) enter the comm stream; when
    // reducing, the tracker's feed consumes them in WF order, N-1 full
    // passes over the owned chunk.
    let mut feed = Feed::new(&grid);
    let mut triggered_wfs = 0usize;
    let expected_wfs = if reduce {
        feed.push(&grid, bounds[0], 0, owned_updates, n - 1);
        count_nonempty_wfs(&grid, bounds[0])
    } else {
        0
    };
    let mut pending_incoming: Vec<PendingIncoming> = Vec::new();
    // Exact proportional mirroring per peer chunk: bytes sent so far
    // and incoming bytes announced so far (avoids rounding loss).
    let mut sent_per_chunk: Vec<Bytes> = vec![0; n];
    let mut announced_per_chunk: Vec<Bytes> = vec![0; n];
    let mut first_stage_done = false;
    let mut gemm_done = false;
    let mut clock = Clock::new(opts.mode);
    mc.reset_occupancy_window();

    loop {
        let now = clock.now();
        mc.step(now, ts.as_mut());
        feed.attribute(
            mc.stats().bytes(TrafficClass::RsUpdate),
            &mut tracker,
            |_| triggered_wfs += 1,
        );
        release_due(&mut pending_incoming, now, |p| {
            mc.enqueue(StreamId::Comm, incoming_class, p.bytes, update_cost);
        });

        match gemm.step(now, &mut mc) {
            GemmEvent::Idle => {}
            GemmEvent::Finished => gemm_done = true,
            GemmEvent::StageStoresIssued {
                wg_start, wg_end, ..
            } => {
                if !first_stage_done {
                    mc.observe_compute_intensity(mc.avg_occupancy_fraction());
                    first_stage_done = true;
                }
                for (chunk, w0, w1) in split_at_chunks(&bounds, wg_start, wg_end) {
                    let bytes = grid.wg_range_output_bytes(w0, w1);
                    if chunk == 0 {
                        // Our own chunk stays local, tracked at MCQ
                        // enqueue when reducing.
                        mc.enqueue(
                            StreamId::Compute,
                            TrafficClass::GemmWrite,
                            bytes,
                            update_cost,
                        );
                        if reduce {
                            triggered_wfs +=
                                record_local_stores(&mut tracker, &grid, (w0, w1), owned_updates);
                        }
                        continue;
                    }
                    // Remote stores on the dedicated link to the chunk's
                    // owner (each peer has its own wire).
                    let link = (chunk - 1) % links.len();
                    let arrival = links[link].send(now, chunk as u64, bytes);
                    // Mirror: a peer's remote stores for our owned chunk
                    // arrive with the same timing, proportionally sized
                    // (an exact cursor, so the full owned chunk is
                    // announced once the peer chunk completes).
                    sent_per_chunk[chunk] += bytes;
                    let target = if sent_per_chunk[chunk] >= chunk_bytes[chunk] {
                        owned_bytes
                    } else {
                        sent_per_chunk[chunk] * owned_bytes / chunk_bytes[chunk]
                    };
                    let announced = &mut announced_per_chunk[chunk];
                    mirror_incoming(&mut pending_incoming, announced, arrival, 0, target);
                }
            }
        }

        // Drain link deliveries (arrival times were captured at send).
        for l in &mut links {
            let _ = l.deliveries_until(now);
        }
        if gemm_done
            && triggered_wfs == expected_wfs
            && pending_incoming.is_empty()
            && links.iter().all(|l| l.is_idle(now))
            && mc.is_idle()
        {
            break;
        }
        let gap = clock.advance(mc.is_idle(), || {
            let link_at = links.iter().filter_map(|l| l.next_event(now)).min();
            let events = [
                gemm.next_event(now, &mc),
                link_at,
                next_release(&pending_incoming, now),
            ];
            events.into_iter().flatten().min()
        });
        if let Some(gap) = gap {
            mc.skip_idle(gap.start, gap.end, None);
        }
    }

    FusedRunResult {
        cycles: clock.now(),
        stats: mc.stats().clone(),
        timeseries: ts,
        dma_transfers: 0,
        peak_tracker_entries: tracker.peak_entries(),
        link_bytes_sent: links.iter().map(|l| l.total_sent()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_gpu::collective::{CollectiveKind, RingCollective};
    use t3_gpu::engine::{run_gemm_isolated, WritePolicy};
    use t3_gpu::gemm::GemmShape;

    fn sys() -> SystemConfig {
        SystemConfig::paper_default()
    }

    /// A mid-size sliced GEMM: more stages than chunks, several WGs per
    /// chunk, still fast enough for debug-mode tests.
    fn test_grid(sys: &SystemConfig) -> GemmGrid {
        GemmGrid::new(&sys.gpu, GemmShape::new(4096, 4096, 512))
    }

    fn fused(sys: &SystemConfig, opts: &FusedOptions) -> FusedRunResult {
        run_fused_gemm_rs(sys, test_grid(sys), opts)
    }

    #[test]
    fn fused_run_completes_and_counts_dmas() {
        let s = sys();
        let r = fused(&s, &FusedOptions::default());
        assert_eq!(r.dma_transfers, (s.num_gpus - 2) as u64);
        assert!(r.cycles > 0);
        assert!(r.peak_tracker_entries > 0);
    }

    #[test]
    fn fused_traffic_accounting_matches_schedule() {
        let s = sys();
        let grid = test_grid(&s);
        let out = grid.shape().output_bytes();
        let n = s.num_gpus as u64;
        let r = fused(&s, &FusedOptions::default());
        let chunk = out / n;
        let near = |got: Bytes, want: Bytes, what: &str| {
            let tol = 64 * 1024;
            assert!(
                got + tol > want && got < want + tol,
                "{what}: got {got}, want ~{want}"
            );
        };
        // Local GEMM writes: all chunks except the warm-up one.
        near(
            r.stats.bytes(TrafficClass::GemmWrite),
            out - chunk,
            "GEMM writes",
        );
        // Incoming updates: chunks at positions 1..N.
        near(
            r.stats.bytes(TrafficClass::RsUpdate),
            out - chunk,
            "updates",
        );
        // DMA source reads: the N-2 steady-state chunks.
        near(
            r.stats.bytes(TrafficClass::RsRead),
            out - 2 * chunk,
            "DMA reads",
        );
        // Link carried the warm-up chunk + N-2 DMA chunks.
        near(r.link_bytes_sent, out - chunk, "link bytes");
    }

    #[test]
    fn fused_beats_sequential() {
        let s = sys();
        let grid = test_grid(&s);
        let gemm = run_gemm_isolated(&s, grid.clone(), WritePolicy::CachedLocal);
        let rs = RingCollective::baseline(
            CollectiveKind::ReduceScatter,
            grid.shape().output_bytes(),
            &s,
        )
        .simulate(&s);
        let sequential = gemm.cycles + rs.cycles;
        let r = fused(&s, &FusedOptions::default());
        assert!(
            r.cycles < sequential,
            "fused {} must beat sequential {}",
            r.cycles,
            sequential
        );
    }

    #[test]
    fn fused_cannot_beat_the_gemm_itself() {
        let s = sys();
        let grid = test_grid(&s);
        let gemm = run_gemm_isolated(&s, grid.clone(), WritePolicy::BypassLocal);
        let r = fused(&s, &FusedOptions::default());
        assert!(
            r.cycles as f64 > gemm.cycles as f64 * 0.95,
            "fused {} impossibly fast vs GEMM-only {}",
            r.cycles,
            gemm.cycles
        );
    }

    #[test]
    fn mca_is_at_least_as_good_as_round_robin() {
        let s = sys();
        let rr = fused(
            &s,
            &FusedOptions {
                policy: PolicyChoice::RoundRobin,
                ..FusedOptions::default()
            },
        );
        let mca = fused(
            &s,
            &FusedOptions {
                policy: PolicyChoice::McaDynamic,
                ..FusedOptions::default()
            },
        );
        assert!(
            mca.cycles as f64 <= rr.cycles as f64 * 1.02,
            "MCA {} should not lose to round-robin {}",
            mca.cycles,
            rr.cycles
        );
    }

    #[test]
    fn no_stagger_is_slower() {
        let s = sys();
        let st = fused(&s, &FusedOptions::default());
        let no = fused(
            &s,
            &FusedOptions {
                stagger: false,
                ..FusedOptions::default()
            },
        );
        assert!(
            no.cycles > st.cycles,
            "no-stagger {} must exceed staggered {}",
            no.cycles,
            st.cycles
        );
    }

    #[test]
    fn timeseries_records_overlapped_traffic() {
        let s = sys();
        let r = fused(
            &s,
            &FusedOptions {
                timeseries_bucket: Some(4096),
                ..FusedOptions::default()
            },
        );
        let ts = r.timeseries.expect("requested");
        assert_eq!(
            ts.total(TrafficClass::RsUpdate),
            r.stats.bytes(TrafficClass::RsUpdate)
        );
        // Somewhere, GEMM and RS traffic must share a bucket — that is
        // the whole point of fine-grained overlap.
        let overlapped = ts.rows().any(|(_, b)| {
            b[TrafficClass::GemmRead.index()] > 0 && b[TrafficClass::RsUpdate.index()] > 0
        });
        assert!(overlapped, "no bucket shows overlapped traffic");
    }

    #[test]
    fn atomics_substrate_is_no_faster_than_nmc() {
        let s = sys();
        let nmc = fused(&s, &FusedOptions::default());
        let atomics = fused(
            &s,
            &FusedOptions {
                substrate: ReductionSubstrate::SystemAtomics,
                ..FusedOptions::default()
            },
        );
        assert!(atomics.cycles >= nmc.cycles);
    }

    #[test]
    fn two_gpu_ring_works_without_dma() {
        let mut s = sys();
        s.num_gpus = 2;
        let r = fused(&s, &FusedOptions::default());
        assert_eq!(r.dma_transfers, 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn direct_rs_fusion_eliminates_collective_memory_traffic() {
        let s = sys();
        let grid = test_grid(&s);
        let r = run_fused_gemm_direct_rs(&s, grid.clone(), &FusedOptions::default());
        // Section 7.1: no DMA source reads, no staging writes — the
        // only RS traffic is the incoming updates for the owned chunk.
        assert_eq!(r.stats.bytes(TrafficClass::RsRead), 0);
        assert_eq!(r.dma_transfers, 0);
        let n = s.num_gpus as u64;
        let chunk = grid.shape().output_bytes() / n;
        let upd = r.stats.bytes(TrafficClass::RsUpdate);
        let want = chunk * (n - 1);
        assert!(
            upd + 65536 > want && upd < want + 65536,
            "incoming updates {upd} vs expected {want}"
        );
        // Local writes: only the owned chunk.
        let w = r.stats.bytes(TrafficClass::GemmWrite);
        assert!(w + 65536 > chunk && w < chunk + 65536, "local writes {w}");
    }

    #[test]
    fn direct_rs_beats_ring_rs_fusion() {
        // With dedicated links and no DMA chain, direct-RS should not
        // lose to the ring schedule.
        let s = sys();
        let grid = test_grid(&s);
        let ring = run_fused_gemm_rs(&s, grid.clone(), &FusedOptions::default());
        let direct = run_fused_gemm_direct_rs(&s, grid, &FusedOptions::default());
        assert!(
            direct.cycles <= ring.cycles,
            "direct {} vs ring {}",
            direct.cycles,
            ring.cycles
        );
    }

    #[test]
    fn all_to_all_fusion_overlaps_exchange() {
        let s = sys();
        let grid = test_grid(&s);
        let fused = run_fused_gemm_all_to_all(&s, grid.clone(), &FusedOptions::default());
        // Sequential: GEMM + an all-to-all exchanging (N-1)/N of the
        // output each way (the exchange is link-bound and pipelined
        // across dedicated links, so one chunk serialisation + writes).
        let gemm = t3_gpu::engine::run_gemm_isolated(
            &s,
            grid.clone(),
            t3_gpu::engine::WritePolicy::BypassLocal,
        );
        let chunk = grid.shape().output_bytes() / s.num_gpus as u64;
        let exchange =
            (chunk as f64 / s.link.bytes_per_cycle()).ceil() as u64 + s.link.latency_cycles();
        assert!(
            fused.cycles < gemm.cycles + exchange * 2,
            "fused {} should hide most of the exchange ({} + {})",
            fused.cycles,
            gemm.cycles,
            exchange
        );
        // Incoming slots: N-1 chunks of plain writes.
        let incoming = fused.stats.bytes(TrafficClass::AgWrite);
        let want = chunk * (s.num_gpus as u64 - 1);
        assert!(incoming + 65536 > want && incoming < want + 65536);
        assert_eq!(fused.stats.bytes(TrafficClass::RsRead), 0);
    }

    #[test]
    fn direct_and_all_to_all_runs_are_pinned_in_both_modes() {
        // Pinned regression: the full result of both direct-link
        // schedules, identical whether time is stepped or leaped.
        let s = sys();
        type Run = fn(&SystemConfig, GemmGrid, &FusedOptions) -> FusedRunResult;
        let cases: [(Run, &str); 2] = [
            (run_fused_gemm_direct_rs, "FusedRunResult { cycles: 294756, stats: TrafficStats { bytes: [8388608, 4194304, 0, 0, 29360128, 0, 0] }, timeseries: None, dma_transfers: 0, peak_tracker_entries: 1024, link_bytes_sent: 29360128 }"),
            (run_fused_gemm_all_to_all, "FusedRunResult { cycles: 293436, stats: TrafficStats { bytes: [8388608, 4194304, 0, 0, 0, 0, 29360128] }, timeseries: None, dma_transfers: 0, peak_tracker_entries: 0, link_bytes_sent: 29360128 }"),
        ];
        for (run, want) in cases {
            for mode in [SimMode::Stepped, SimMode::FastForward] {
                let opts = FusedOptions {
                    mode,
                    ..FusedOptions::default()
                };
                let r = run(&s, test_grid(&s), &opts);
                assert_eq!(format!("{r:?}"), want, "{}", mode.label());
            }
        }
    }
}
