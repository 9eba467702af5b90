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
//!   updates; the [`Tracker`](crate::tracker::Tracker) counts the
//!   local stores (at memory-controller enqueue, Section 4.2.1) and the
//!   incoming mirrored updates (as DRAM services them), and fires the
//!   pre-programmed DMA when every wavefront region of a chunk is
//!   complete;
//! * the DMA reads the partially-reduced chunk once and sends it; its
//!   delivery mirrors the arrival of the *next* chunk's incoming copy;
//! * the last chunk is the one this GPU owns: local + incoming updates
//!   complete it in memory, with no further transfer.
//!
//! All DRAM traffic flows through one memory controller under the
//! configured arbitration policy — this is where T3 and T3-MCA differ
//! (Sections 4.5, 6.1.2, 6.1.3).
//!
//! The ring and the direct-link schedules of Section 7.1 (direct
//! reduce-scatter, all-to-all) run through one loop, which steps one
//! `kernel::Device` (the fused device the explicit engine,
//! [`crate::multigpu`], steps once per GPU) and owns only the links,
//! the mirror and the clock. Each entry point hands it device 0's
//! [`OutputConfig`], a mirror map (which position's copy a send from
//! position `p` stands for: `p + 1` on the ring, the owned position 0
//! on the direct links) and an announce lag (the cycles between a
//! copy's arrival and its entry into the comm stream: 1 on the ring, or
//! the un-overlapped pipeline depth without stagger; 0 on the direct
//! links, which always stagger).

use crate::addrmap::{ChunkRoute, OutputConfig};
use crate::kernel::{ChunkState, Device};
use t3_gpu::gemm::GemmGrid;
use t3_gpu::llc_plan::LlcPlan;
use t3_mem::arbiter::{ArbitrationPolicy, ComputeFirstPolicy, McaPolicy, RoundRobinPolicy};
use t3_mem::nmc::ReductionSubstrate;
use t3_net::dma::DmaCommand;
use t3_net::link::Link;
use t3_net::ring::Ring;
use t3_sim::clock::Clock;
use t3_sim::config::SystemConfig;
use t3_sim::stats::TrafficStats;
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
    pub(crate) fn build(self, sys: &SystemConfig) -> ArbitrationPolicy {
        match self {
            PolicyChoice::RoundRobin => RoundRobinPolicy::new().into(),
            PolicyChoice::ComputeFirst => ComputeFirstPolicy::new().into(),
            PolicyChoice::McaDynamic => McaPolicy::new(&sys.mem).into(),
            PolicyChoice::McaFixed(t) => McaPolicy::with_fixed_threshold(t).into(),
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
    /// depth (ablation; see DESIGN.md). Only the mirrored ring models
    /// it: the direct-link schedules ([`run_fused_gemm_direct_rs`],
    /// [`run_fused_gemm_all_to_all`]) and the explicit multi-GPU engine
    /// always stagger and panic when it is off.
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

/// Tag space: link messages tagged `>= TAG_REMOTE` are remote stores;
/// below that, the tag is the DMA'd chunk's position.
const TAG_REMOTE: u64 = 1 << 32;

/// Mirror traffic scheduled to enter the comm stream at `at`.
#[derive(Debug, Clone, Copy)]
struct PendingIncoming {
    at: Cycle,
    position: usize,
    bytes: Bytes,
}

/// The mirrored incoming traffic (Section 5.1.1): by homogeneity, a
/// peer sends this device the copy of position `map(p)` exactly as this
/// device sends position `p`, so each send schedules the proportional
/// copy to enter the comm stream `lag` cycles after the send arrives.
struct Mirror {
    map: fn(usize) -> usize,
    lag: Cycle,
    /// Each position's chunk bytes.
    sizes: Vec<Bytes>,
    /// Bytes sent so far and copy bytes announced so far, per sending
    /// position (exact cursors, so the full copy is announced once the
    /// position has sent in full).
    sent: Vec<Bytes>,
    announced: Vec<Bytes>,
    pending: Vec<PendingIncoming>,
}

impl Mirror {
    fn new(sizes: Vec<Bytes>, map: fn(usize) -> usize, lag: Cycle) -> Self {
        let n = sizes.len();
        Mirror {
            map,
            lag,
            sizes,
            sent: vec![0; n],
            announced: vec![0; n],
            pending: Vec::new(),
        }
    }

    /// Records `bytes` sent from position `p` that arrive at `arrival`,
    /// and schedules the matching part of the copy of `map(p)`.
    fn send(&mut self, p: usize, bytes: Bytes, arrival: Cycle) {
        let m = (self.map)(p);
        let (src, dst) = (self.sizes[p], self.sizes[m]);
        self.sent[p] += bytes;
        let target = if self.sent[p] >= src {
            dst
        } else {
            self.sent[p] * dst / src
        };
        let fresh = target.saturating_sub(self.announced[p]);
        if fresh > 0 {
            self.announced[p] = target;
            self.pending.push(PendingIncoming {
                at: arrival + self.lag,
                position: m,
                bytes: fresh,
            });
        }
    }

    /// Hands every announcement due by `now` to `release`.
    fn release_due(&mut self, now: Cycle, mut release: impl FnMut(PendingIncoming)) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].at <= now {
                release(self.pending.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// The earliest cycle an announcement enters the comm stream (never
    /// before the next step).
    fn next_release(&self, now: Cycle) -> Option<Cycle> {
        self.pending.iter().map(|p| p.at.max(now + 1)).min()
    }
}

/// Puts a DMA'd chunk on `link`; when instrumented, also records its
/// serialisation as an [`Event::ChunkSend`] span. Returns the arrival.
fn send_dma(
    link: &mut Link,
    now: Cycle,
    cmd: DmaCommand,
    mut ins: Option<&mut Instruments>,
) -> Cycle {
    let start = link.busy_until().max(now);
    let arrival = link.send_traced(now, cmd.id, cmd.bytes, reborrow(&mut ins));
    if let Some(ins) = ins {
        let end = link.busy_until();
        let (chunk, bytes) = (cmd.id, cmd.bytes);
        let hops = 1;
        ins.record(
            end,
            Event::ChunkSend {
                chunk,
                bytes,
                hops,
                start,
                end,
            },
        );
        ins.add("dma.chunks_sent", 1);
        ins.add("dma.bytes_sent", bytes);
    }
    arrival
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
    ins: Option<&mut Instruments>,
) -> FusedRunResult {
    let n = sys.num_gpus;
    // Position p is the p-th chunk this GPU computes. Ring-RS has two
    // mirror-image schedules (send-to-next with descending chunk order,
    // or send-to-prev with ascending); we simulate the ascending one so
    // that the staggered schedule of the simulated GPU coincides with
    // the GEMM's natural WG order — the routes per position (warm-up
    // remote, N-2 DMA steps, owned last) are identical either way.
    let config = OutputConfig::ring_reduce_scatter(Ring::new(n), 0);
    // A copy enters the comm stream one cycle after it arrives. Without
    // stagger it waits out the ring pipeline depth that fine-grained
    // overlap can no longer hide (see DESIGN.md).
    let lag = if opts.stagger {
        1
    } else {
        let avg_chunk = grid.wg_range_output_bytes(0, grid.num_wgs()) / n as u64;
        let depth = (n as u64).saturating_sub(2)
            // t3-lint: allow(float-cycles) -- pipeline-depth penalty uses the Link's own ceil rounding; pinned by no-stagger ablation tests
            * ((avg_chunk as f64 / sys.link.bytes_per_cycle()).ceil() as Cycle
                + sys.link.latency_cycles());
        depth.max(1)
    };
    run_mirrored(sys, grid, opts, &config, |p| p + 1, lag, ins)
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
/// Panics if `opts.stagger` is off (the direct-link model always
/// staggers), or if the simulation fails to converge.
pub fn run_fused_gemm_direct_rs(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    assert!(opts.stagger, "the direct-link model always staggers");
    let config = OutputConfig::direct_reduce_scatter(sys.num_gpus, 0);
    run_mirrored(sys, grid, opts, &config, |_| 0, 0, None)
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
/// As [`run_fused_gemm_direct_rs`].
pub fn run_fused_gemm_all_to_all(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
) -> FusedRunResult {
    assert!(opts.stagger, "the direct-link model always staggers");
    let config = OutputConfig::all_to_all(sys.num_gpus, 0);
    run_mirrored(sys, grid, opts, &config, |_| 0, 0, None)
}

/// The one mirrored loop: steps one [`Device`], simulated device 0
/// under `config`, through the device phases.
///
/// There is one link per destination the configuration routes to. Every
/// send from position `p` (a remote store, or a DMA'd chunk once its
/// source read completes) schedules the proportional copy of position
/// `mirror(p)` to enter the comm stream at its arrival plus `lag`; those
/// copies are what complete the tracked chunks. A sending position with
/// no workgroups (a grid with fewer workgroups than devices) sends
/// nothing, so its copy is announced in full once the GEMM's stores
/// pass it, arriving one link latency plus the copy's serialisation
/// later.
///
/// Within a cycle the loop steps memory, releases due copies, steps the
/// GEMM, puts a completed DMA read on its link, drains the links and
/// fires triggers. Releasing after the controller step is what makes
/// the ring's lag-1 announce.
fn run_mirrored(
    sys: &SystemConfig,
    grid: GemmGrid,
    opts: &FusedOptions,
    config: &OutputConfig,
    mirror: fn(usize) -> usize,
    lag: Cycle,
    mut ins: Option<&mut Instruments>,
) -> FusedRunResult {
    let n = config.num_chunks();
    let routes: Vec<ChunkRoute> = (0..n).map(|p| config.route(p)).collect();
    let bounds: Vec<(u64, u64)> = (0..n)
        .map(|p| grid.chunk_wg_bounds(n as u64, p as u64))
        .collect();
    // One link per destination, indexed by device; each sending
    // position hands its copy's full pass to `mirror(p)`.
    let mut wire = vec![0; n];
    let mut links: Vec<Link> = Vec::new();
    let mut passes = vec![0; n];
    for (p, dst) in routes.iter().enumerate() {
        let Some(dst) = dst.destination() else {
            continue;
        };
        if !routes[..p].iter().any(|r| r.destination() == Some(dst)) {
            wire[dst] = links.len();
            links.push(Link::new(&sys.link));
        }
        passes[mirror(p)] += 1;
    }
    let chunks: Vec<ChunkState> = (0..n)
        .map(|p| ChunkState::new(&grid, p, bounds[p], routes[p], passes[p]))
        .collect();
    let mut mirrored = Mirror::new(chunks.iter().map(|c| c.bytes).collect(), mirror, lag);
    // Sending positions with no workgroups and their destinations, in
    // WG order.
    let empty: Vec<(usize, usize)> = (0..n)
        .filter(|&p| bounds[p].0 == bounds[p].1)
        .filter_map(|p| Some((p, routes[p].destination()?)))
        .collect();
    let mut empty = empty.into_iter().peekable();

    // Every fused store bypasses the LLC (uncached NMC updates or
    // remote stores).
    let plan = LlcPlan::shared(&sys.mem, &grid, false);
    let mut dev = Device::new(sys, opts, plan, chunks);
    let mut ts = opts.timeseries_bucket.map(TimeSeries::new);
    let mut clock = Clock::new(opts.mode);

    loop {
        let now = clock.now();
        dev.step_memory(now, ts.as_mut(), reborrow(&mut ins));
        mirrored.release_due(now, |p| dev.receive(p.position, p.bytes));
        let stored = dev.step_gemm(
            now,
            |pos, dst, bytes, ins| {
                let link = &mut links[wire[dst]];
                let arrival = link.send_traced(now, TAG_REMOTE + pos as u64, bytes, ins);
                mirrored.send(pos, bytes, arrival);
            },
            reborrow(&mut ins),
        );
        if let Some(wg_end) = stored {
            // An empty sending position sends nothing; its peers' copy
            // still comes, in full, once the stores pass it.
            while let Some((p, dst)) = empty.next_if(|&(p, _)| bounds[p].0 <= wg_end) {
                let link = &links[wire[dst]];
                let copy = mirrored.sizes[mirror(p)];
                let arrival = now + link.serialization_cycles(copy) + link.latency();
                mirrored.send(p, 0, arrival);
            }
        }
        if let Some(cmd) = dev.dma.step(&mut dev.mc) {
            let arrival = send_dma(&mut links[wire[cmd.dst]], now, cmd, reborrow(&mut ins));
            mirrored.send(cmd.id as usize, cmd.bytes, arrival);
        }
        for link in &mut links {
            for delivery in link.deliveries_until(now) {
                if delivery.tag >= TAG_REMOTE {
                    continue;
                }
                if let Some(ins) = reborrow(&mut ins) {
                    // Mirrored: our DMA'd chunk reaching its destination
                    // IS the next chunk's incoming copy arriving here.
                    let chunk = mirror(delivery.tag as usize) as u64;
                    let bytes = delivery.bytes;
                    ins.record(now, Event::ChunkRecv { chunk, bytes });
                    ins.add("chunks.received", 1);
                }
            }
        }
        dev.fire_triggers(now, reborrow(&mut ins));

        if dev.finished() && mirrored.pending.is_empty() && links.iter().all(|l| l.is_idle(now)) {
            break;
        }
        // Nothing but the controller can act before the earliest
        // component event or the first watched service: with the
        // controller quiescent the clock leaps there, with it busy the
        // controller steps itself there.
        dev.advance_clock(
            &mut clock,
            || {
                let link_at = links.iter().filter_map(|l| l.next_event(now)).min();
                link_at.into_iter().chain(mirrored.next_release(now)).min()
            },
            ts.as_mut(),
            reborrow(&mut ins),
        );
    }

    let now = clock.now();
    if let Some(ins) = ins {
        dev.record_end(now, ins);
    }
    FusedRunResult {
        cycles: now,
        stats: dev.mc.stats().clone(),
        timeseries: ts,
        dma_transfers: dev.dma.sent_commands(),
        peak_tracker_entries: dev.peak_tracker_entries(),
        link_bytes_sent: links.iter().map(Link::total_sent).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_gpu::collective::{CollectiveKind, RingCollective};
    use t3_gpu::engine::{run_gemm_isolated, WritePolicy};
    use t3_gpu::gemm::GemmShape;
    use t3_sim::stats::TrafficClass;

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
    fn instrumented_ring_puts_each_dma_read_on_the_wire() {
        // The wire side of the DMA engine: each fired chunk's source
        // read, once complete, serialises on the link as one ChunkSend
        // span, is counted in the dma/link metrics, and its mirrored
        // copy arrives no earlier than the read plus the wire time.
        let s = sys();
        let mut ins = Instruments::full();
        let opts = FusedOptions::default();
        let r = run_fused_gemm_rs_instrumented(&s, test_grid(&s), &opts, Some(&mut ins));
        let link = Link::new(&s.link);
        let records = ins.tracer.as_ref().expect("tracer on").records();
        let (mut fires, mut sends, mut recvs) = (Vec::new(), Vec::new(), Vec::new());
        for rec in records {
            match rec.event {
                Event::DmaTriggerFire { chunk, bytes } => fires.push((rec.cycle, chunk, bytes)),
                Event::ChunkSend { .. } => sends.push(rec.event),
                Event::ChunkRecv { chunk, bytes } => recvs.push((rec.cycle, chunk, bytes)),
                _ => {}
            }
        }
        assert_eq!(fires.len() as u64, r.dma_transfers);
        assert_eq!((sends.len(), recvs.len()), (fires.len(), fires.len()));
        for ((fire, send), recv) in fires.into_iter().zip(sends).zip(&recvs) {
            let (fired_at, chunk, bytes) = fire;
            let serialise = link.serialization_cycles(bytes);
            let want = Event::ChunkSend {
                chunk,
                bytes,
                hops: 1,
                start: recv.0 - link.latency() - serialise,
                end: recv.0 - link.latency(),
            };
            assert_eq!(
                send, want,
                "chunk {chunk}: one span, delivered a latency later"
            );
            assert_eq!(
                (recv.1, recv.2),
                (chunk + 1, bytes),
                "the next chunk's copy"
            );
            let read = bytes as f64 / s.mem.bytes_per_cycle();
            let earliest = fired_at as f64 + read + (serialise + link.latency()) as f64;
            assert!(recv.0 as f64 >= earliest, "chunk {chunk} beat read + wire");
        }
        let m = ins.metrics.as_ref().expect("metrics on");
        let read = r.stats.bytes(TrafficClass::RsRead);
        assert_eq!(m.counter("dma.chunks_sent"), r.dma_transfers);
        assert_eq!(m.counter("dma.bytes_sent"), read, "each chunk read once");
        assert_eq!(m.counter("link.bytes_sent"), r.link_bytes_sent);
        assert!(
            r.link_bytes_sent > read,
            "the warm-up chunk shares the link"
        );
    }

    #[test]
    fn mirrored_schedules_finish_on_grids_with_fewer_workgroups_than_gpus() {
        // 128k x 128 is k WGs on 8 GPUs, so the trailing 8 - k chunks
        // are empty and send nothing. Their peers' copies of the owned
        // chunk still arrive in full: direct-RS counts N-1 incoming
        // passes, all-to-all receives N-1 owned-chunk slots.
        let s = sys();
        let n = s.num_gpus as u64;
        type Run = fn(&SystemConfig, GemmGrid, &FusedOptions) -> FusedRunResult;
        let runs: [(Run, TrafficClass); 3] = [
            (run_fused_gemm_rs, TrafficClass::RsUpdate),
            (run_fused_gemm_direct_rs, TrafficClass::RsUpdate),
            (run_fused_gemm_all_to_all, TrafficClass::AgWrite),
        ];
        for k in [1, 2, 3, 5, 7, 9, 15] {
            let grid = GemmGrid::new(&s.gpu, GemmShape::new(128 * k, 128, 64));
            let (w0, w1) = grid.chunk_wg_bounds(n, 0);
            let owned = grid.wg_range_output_bytes(w0, w1);
            for (i, (run, incoming)) in runs.into_iter().enumerate() {
                let [stepped, fast] = [SimMode::Stepped, SimMode::FastForward].map(|mode| {
                    let opts = FusedOptions {
                        mode,
                        ..FusedOptions::default()
                    };
                    run(&s, grid.clone(), &opts)
                });
                assert_eq!(format!("{stepped:?}"), format!("{fast:?}"), "k={k} run {i}");
                if i > 0 {
                    let got = fast.stats.bytes(incoming);
                    assert_eq!(got, (n - 1) * owned, "k={k} run {i}: incoming copies");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "the direct-link model always staggers")]
    fn direct_rs_rejects_no_stagger() {
        let s = sys();
        let opts = FusedOptions {
            stagger: false,
            ..FusedOptions::default()
        };
        run_fused_gemm_direct_rs(&s, test_grid(&s), &opts);
    }

    #[test]
    #[should_panic(expected = "the direct-link model always staggers")]
    fn all_to_all_rejects_no_stagger() {
        let s = sys();
        let opts = FusedOptions {
            stagger: false,
            ..FusedOptions::default()
        };
        run_fused_gemm_all_to_all(&s, test_grid(&s), &opts);
    }

    #[test]
    fn direct_and_all_to_all_runs_are_pinned_in_both_modes() {
        // Pinned regression: the full result of every mirrored schedule
        // (the ring with and without stagger, and both direct-link
        // schedules), identical whether time is stepped or leaped.
        let s = sys();
        type Run = fn(&SystemConfig, GemmGrid, &FusedOptions) -> FusedRunResult;
        fn ring_without_stagger(
            s: &SystemConfig,
            grid: GemmGrid,
            opts: &FusedOptions,
        ) -> FusedRunResult {
            let opts = FusedOptions {
                stagger: false,
                ..*opts
            };
            run_fused_gemm_rs(s, grid, &opts)
        }
        let cases: [(Run, &str); 4] = [
            (run_fused_gemm_rs, "FusedRunResult { cycles: 438803, stats: TrafficStats { bytes: [8388608, 29360128, 25165824, 0, 29360128, 0, 0] }, timeseries: None, dma_transfers: 6, peak_tracker_entries: 2560, link_bytes_sent: 29360128 }"),
            (ring_without_stagger, "FusedRunResult { cycles: 2066243, stats: TrafficStats { bytes: [8388608, 29360128, 25165824, 0, 29360128, 0, 0] }, timeseries: None, dma_transfers: 6, peak_tracker_entries: 6656, link_bytes_sent: 29360128 }"),
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
