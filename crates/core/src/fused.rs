//! Functional fused GEMM-collective execution.
//!
//! This module proves T3's central claim at the data level: routing a
//! tiled GEMM's stores through the address-space configuration
//! (Section 4.4), reducing them with near-memory op-and-store updates
//! (Section 4.3), and firing pre-programmed DMAs from the Tracker
//! (Section 4.2) yields exactly the same result as running the GEMM to
//! completion and then executing the collective — with no GEMM-kernel
//! changes and no collective kernel at all.
//!
//! Every device's output buffer uses the *tile-ordered* layout of
//! [`GemmGrid::wg_output_region`]: one contiguous region per
//! workgroup. Collective chunks are therefore contiguous WG ranges
//! (Section 4.2.1's WF-granularity tracking exists precisely because
//! the *row-major* view of those regions is not contiguous).
//!
//! Provided fusions (Sections 4 and 7.1):
//!
//! * [`fused_gemm_ring_rs`] — ring reduce-scatter (the paper's focus);
//! * [`fused_gemm_direct_rs`] — direct reduce-scatter on a
//!   fully-connected topology;
//! * [`fused_gemm_all_to_all`] — the expert-parallel exchange.

use crate::addrmap::{ChunkRoute, OutputConfig};
use crate::tracker::{Tracker, TrackerConfig, WfId};
use t3_collectives::gemm::{matmul_tile, matmul_tile_krange};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_mem::nmc::NmcBuffer;
use t3_net::ring::Ring;
use t3_sim::config::GpuConfig;

/// One device's sliced GEMM inputs: row-major `A[m, k]` and `B[k, n]`
/// where `k` is this device's slice of the dot-product dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProducer {
    /// Row-major `m x k` input activations.
    pub a: Vec<f32>,
    /// Row-major `k x n` weight slice.
    pub b: Vec<f32>,
}

/// Result of a functional fused execution.
#[derive(Debug, Clone)]
pub struct FusedOutcome {
    /// Per-device output buffers in tile-ordered layout. After a
    /// reduce-scatter fusion, only each device's owned chunk is fully
    /// reduced (like NCCL, other regions are unspecified partials).
    pub outputs: Vec<NmcBuffer>,
    /// Element range `[start, end)` of each collective chunk in the
    /// tile-ordered layout, indexed by chunk id.
    pub chunk_ranges: Vec<(usize, usize)>,
    /// High-water mark of simultaneous Tracker entries across devices
    /// (hardware-sizing check; the paper's Tracker is sized for the
    /// WGs of one producer stage).
    pub peak_tracker_entries: usize,
    /// Total Tracker triggers fired across devices.
    pub triggers_fired: u64,
    /// Total DMA transfers performed (ring-RS: `N x (N-2)`).
    pub dma_transfers: u64,
}

impl FusedOutcome {
    /// Convenience: the fully-reduced owned chunk of `device` after a
    /// ring reduce-scatter fusion.
    pub fn owned_chunk(&self, ring: Ring, device: usize) -> &[f32] {
        let chunk = ring.rs_owned_chunk(device);
        let (s, e) = self.chunk_ranges[chunk];
        &self.outputs[device].as_slice()[s..e]
    }
}

/// Converts a row-major `m x n` matrix into the tile-ordered layout of
/// `grid` (one contiguous region per WG tile, row-major within each
/// tile). Useful for comparing fused outputs against row-major
/// references.
pub fn to_tile_order(grid: &GemmGrid, row_major: &[f32]) -> Vec<f32> {
    let shape = grid.shape();
    let (m, n) = (shape.m as usize, shape.n as usize);
    assert_eq!(row_major.len(), m * n, "matrix shape mismatch");
    let mut out = vec![0.0f32; m * n];
    let elem_bytes = shape.elem_bytes as usize;
    for wg in 0..grid.num_wgs() {
        let t = grid.wg_tile(wg);
        let (addr, _) = grid.wg_output_region(wg);
        let base = (addr - grid.c_base()) as usize / elem_bytes;
        for r in 0..t.height as usize {
            for c in 0..t.width as usize {
                let src = (t.row as usize * grid.tile_dim() as usize + r) * n
                    + t.col as usize * grid.tile_dim() as usize
                    + c;
                out[base + r * t.width as usize + c] = row_major[src];
            }
        }
    }
    out
}

/// Fused ring reduce-scatter (Figure 7). Devices execute their
/// chunk-staggered GEMMs step-synchronously; position-0 chunks leave
/// as fine-grained remote updates, steady-state chunks as
/// Tracker-triggered DMA updates.
///
/// # Panics
///
/// Panics if the producer count is below two or input shapes mismatch.
pub fn fused_gemm_ring_rs(
    gpu: &GpuConfig,
    shape: GemmShape,
    producers: &[FusedProducer],
) -> FusedOutcome {
    fused_gemm_ring_rs_split_k(gpu, shape, producers, 1)
}

/// Fused ring reduce-scatter with a split-K producer (Section 7.7):
/// `split_k` workgroups cooperate on each output tile, each updating
/// the tile with a partial product over its K slice; the Tracker's
/// thresholds come from
/// [`OutputConfig::ring_reduce_scatter_split_k`], so DMAs fire only
/// once every partial (and the incoming copy) has landed.
///
/// # Panics
///
/// Panics if `split_k` is zero or exceeds the K dimension.
pub fn fused_gemm_ring_rs_split_k(
    gpu: &GpuConfig,
    shape: GemmShape,
    producers: &[FusedProducer],
    split_k: u32,
) -> FusedOutcome {
    assert!(
        split_k >= 1 && split_k as u64 <= shape.k,
        "split_k must be in 1..=K"
    );
    let n_dev = producers.len();
    let ring = Ring::new(n_dev);
    let configs: Vec<OutputConfig> = (0..n_dev)
        .map(|d| OutputConfig::ring_reduce_scatter_split_k(ring, d, split_k))
        .collect();
    run_fused(gpu, shape, producers, &configs, false, split_k)
}

/// Fused direct reduce-scatter on a fully-connected topology
/// (Section 7.1): the collective disappears into the GEMM's remote
/// stores; device `d` owns chunk `d`.
pub fn fused_gemm_direct_rs(
    gpu: &GpuConfig,
    shape: GemmShape,
    producers: &[FusedProducer],
) -> FusedOutcome {
    let n_dev = producers.len();
    assert!(n_dev >= 2, "need at least two devices");
    let configs: Vec<OutputConfig> = (0..n_dev)
        .map(|d| OutputConfig::direct_reduce_scatter(n_dev, d))
        .collect();
    run_fused(gpu, shape, producers, &configs, false, 1)
}

/// Fused all-to-all (Section 7.1): chunk `j` of device `d`'s output is
/// remote-stored into slot `d` of device `j`'s buffer; nothing is
/// reduced.
///
/// # Panics
///
/// Panics unless the WG count divides evenly by the device count
/// (all-to-all needs equal chunks).
pub fn fused_gemm_all_to_all(
    gpu: &GpuConfig,
    shape: GemmShape,
    producers: &[FusedProducer],
) -> FusedOutcome {
    let n_dev = producers.len();
    assert!(n_dev >= 2, "need at least two devices");
    let grid = GemmGrid::new(gpu, shape);
    assert!(
        grid.num_wgs().is_multiple_of(n_dev as u64),
        "all-to-all fusion needs WGs divisible by devices"
    );
    let configs: Vec<OutputConfig> = (0..n_dev)
        .map(|d| OutputConfig::all_to_all(n_dev, d))
        .collect();
    run_fused(gpu, shape, producers, &configs, true, 1)
}

/// Fused ring all-gather (Section 7.1): each device computes only its
/// own shard (chunk `d`), stores it locally, and the Tracker-triggered
/// DMA *stores* (no reduction) propagate every shard around the ring.
/// Forwarding is also Tracker-driven: an arriving shard completes its
/// (1 update/element) tracking and re-triggers the DMA for the next
/// hop until the shard has visited every device.
///
/// Afterwards, chunk `c` of every device's buffer equals device `c`'s
/// locally-computed shard.
///
/// # Panics
///
/// Panics if fewer than two producers are given or shapes mismatch.
pub fn fused_gemm_ring_ag(
    gpu: &GpuConfig,
    shape: GemmShape,
    producers: &[FusedProducer],
) -> FusedOutcome {
    let n_dev = producers.len();
    assert!(n_dev >= 2, "need at least two devices");
    let ring = Ring::new(n_dev);
    let (m, n, k) = (shape.m as usize, shape.n as usize, shape.k as usize);
    for (d, p) in producers.iter().enumerate() {
        assert_eq!(p.a.len(), m * k, "device {d}: A shape mismatch");
        assert_eq!(p.b.len(), k * n, "device {d}: B shape mismatch");
    }
    let grid = GemmGrid::new(gpu, shape);
    let elem_bytes = shape.elem_bytes;
    let wfs = grid.wfs_per_wg();

    // Tile-ordered element offsets and chunk ranges, as in `run_fused`.
    let mut wg_elem_start = Vec::with_capacity(grid.num_wgs() as usize + 1);
    let mut acc = 0usize;
    for wg in 0..grid.num_wgs() {
        wg_elem_start.push(acc);
        acc += (grid.wg_output_bytes(wg) / elem_bytes) as usize;
    }
    wg_elem_start.push(acc);
    let chunk_wg_bounds: Vec<(u64, u64)> = (0..n_dev)
        .map(|c| grid.chunk_wg_bounds(n_dev as u64, c as u64))
        .collect();
    let chunk_ranges: Vec<(usize, usize)> = chunk_wg_bounds
        .iter()
        .map(|&(w0, w1)| (wg_elem_start[w0 as usize], wg_elem_start[w1 as usize]))
        .collect();

    let mut outputs: Vec<NmcBuffer> = (0..n_dev).map(|_| NmcBuffer::new(acc)).collect();
    let mut trackers: Vec<Tracker> = (0..n_dev)
        .map(|_| Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())))
        .collect();
    let mut triggers = 0u64;
    let mut dma_transfers = 0u64;
    let mut peak = 0usize;

    // Records 1-update/element tracking for a chunk at `device`; store
    // semantics complete each WF region in one pass.
    let track_chunk =
        |trackers: &mut Vec<Tracker>, triggers: &mut u64, device: usize, chunk: usize| {
            let (w0, w1) = chunk_wg_bounds[chunk];
            for wg in w0..w1 {
                let t = grid.wg_tile(wg);
                let region = wg_elem_start[wg as usize] as u64 * elem_bytes;
                for wf in 0..wfs {
                    let (r0, r1) = wf_rows(t.height as usize, wfs, wf);
                    let elems = ((r1 - r0) as u64) * t.width;
                    if elems == 0 {
                        continue;
                    }
                    let addr = region + (r0 as u64) * t.width * elem_bytes;
                    if trackers[device]
                        .record_update(WfId { wg, wf }, addr, elems, elems, 1)
                        .is_some()
                    {
                        *triggers += 1;
                    }
                }
            }
        };

    // Step 0: every device computes its own shard and stores it.
    for (d, producer) in producers.iter().enumerate() {
        let (w0, w1) = chunk_wg_bounds[d];
        for wg in w0..w1 {
            let t = grid.wg_tile(wg);
            let tile = matmul_tile(
                &producer.a,
                &producer.b,
                m,
                n,
                k,
                (t.row * grid.tile_dim()) as usize,
                (t.col * grid.tile_dim()) as usize,
                t.height as usize,
                t.width as usize,
            );
            outputs[d].store_slice(wg_elem_start[wg as usize], &tile);
        }
        track_chunk(&mut trackers, &mut triggers, d, d);
    }
    // Steps 1..N-1: Tracker-triggered DMA stores forward each shard one
    // hop per step; arrivals are tracked and re-trigger forwarding.
    for step in 0..ring.steps() {
        for d in 0..n_dev {
            // The shard device d forwards at this step.
            let chunk = (d + n_dev - step) % n_dev;
            let dst = ring.next(d);
            let (s, e) = chunk_ranges[chunk];
            if s == e {
                continue;
            }
            let data = outputs[d].as_slice()[s..e].to_vec();
            outputs[dst].store_slice(s, &data);
            dma_transfers += 1;
            track_chunk(&mut trackers, &mut triggers, dst, chunk);
        }
        peak = peak.max(
            trackers
                .iter()
                .map(Tracker::peak_entries)
                .max()
                .unwrap_or(0),
        );
    }

    FusedOutcome {
        outputs,
        chunk_ranges,
        peak_tracker_entries: peak,
        triggers_fired: triggers,
        dma_transfers,
    }
}

/// Rows `[r0, r1)` of a `height`-row tile covered by wavefront `wf` of
/// `wfs` (the WF-tile split of Section 4.2.1).
pub fn wf_rows(height: usize, wfs: u32, wf: u32) -> (usize, usize) {
    let wfs = wfs as usize;
    let wf = wf as usize;
    assert!(wf < wfs, "wavefront index out of range");
    (height * wf / wfs, height * (wf + 1) / wfs)
}

struct DeviceState {
    tracker: Tracker,
    /// Triggered WFs per chunk position.
    triggered_wfs: Vec<usize>,
    /// Non-empty WFs per chunk position (trigger target).
    expected_wfs: Vec<usize>,
}

fn run_fused(
    gpu: &GpuConfig,
    shape: GemmShape,
    producers: &[FusedProducer],
    configs: &[OutputConfig],
    all_to_all_slots: bool,
    split_k: u32,
) -> FusedOutcome {
    let n_dev = producers.len();
    assert!(n_dev >= 2, "need at least two devices");
    assert_eq!(configs.len(), n_dev, "one config per device");
    let (m, n, k) = (shape.m as usize, shape.n as usize, shape.k as usize);
    for (d, p) in producers.iter().enumerate() {
        assert_eq!(p.a.len(), m * k, "device {d}: A shape mismatch");
        assert_eq!(p.b.len(), k * n, "device {d}: B shape mismatch");
    }
    let grid = GemmGrid::new(gpu, shape);
    let elem_bytes = shape.elem_bytes;
    let num_wgs = grid.num_wgs();

    // Prefix offsets of WG regions in elements (tile-ordered layout).
    let mut wg_elem_start = Vec::with_capacity(num_wgs as usize + 1);
    let mut acc = 0usize;
    for wg in 0..num_wgs {
        wg_elem_start.push(acc);
        acc += (grid.wg_output_bytes(wg) / elem_bytes) as usize;
    }
    wg_elem_start.push(acc);
    let total_elems = acc;

    // Chunk geometry (shared by all devices).
    let num_chunks = configs[0].num_chunks();
    let chunk_wg_bounds: Vec<(u64, u64)> = (0..num_chunks)
        .map(|c| grid.chunk_wg_bounds(num_chunks as u64, c as u64))
        .collect();
    let chunk_ranges: Vec<(usize, usize)> = chunk_wg_bounds
        .iter()
        .map(|&(w0, w1)| (wg_elem_start[w0 as usize], wg_elem_start[w1 as usize]))
        .collect();

    // Expected non-empty WFs per chunk (same for all devices).
    let wfs = grid.wfs_per_wg();
    let expected_wfs_per_chunk: Vec<usize> = chunk_wg_bounds
        .iter()
        .map(|&(w0, w1)| {
            (w0..w1)
                .map(|wg| {
                    let h = grid.wg_tile(wg).height as usize;
                    (0..wfs)
                        .filter(|&wf| {
                            let (r0, r1) = wf_rows(h, wfs, wf);
                            r1 > r0
                        })
                        .count()
                })
                .sum()
        })
        .collect();

    let mut outputs: Vec<NmcBuffer> = (0..n_dev).map(|_| NmcBuffer::new(total_elems)).collect();
    let mut devices: Vec<DeviceState> = configs
        .iter()
        .map(|cfg| DeviceState {
            tracker: Tracker::new(TrackerConfig::paper(grid.wf_tile_elems())),
            triggered_wfs: vec![0; cfg.num_chunks()],
            expected_wfs: (0..cfg.num_chunks())
                .map(|p| expected_wfs_per_chunk[cfg.chunk_id(p)])
                .collect(),
        })
        .collect();

    let mut dma_transfers = 0u64;

    // Records updates for the WFs of `wg` (in `chunk`) at `device`,
    // with the tile already laid out at `region_start`.
    let record_wg = |devices: &mut Vec<DeviceState>,
                     configs: &[OutputConfig],
                     device: usize,
                     chunk: usize,
                     wg: u64,
                     height: usize,
                     width: usize,
                     region_start: usize| {
        let pos = configs[device].position_of_chunk(chunk);
        if !configs[device].route(pos).tracked() {
            return;
        }
        let updates = configs[device].route(pos).updates_per_element();
        let state = &mut devices[device];
        for wf in 0..wfs {
            let (r0, r1) = wf_rows(height, wfs, wf);
            let elems = ((r1 - r0) * width) as u64;
            let addr = (region_start + r0 * width) as u64 * elem_bytes;
            if let Some(_trigger) =
                state
                    .tracker
                    .record_update(WfId { wg, wf }, addr, elems, elems, updates)
            {
                state.triggered_wfs[pos] += 1;
            }
        }
    };

    for p in 0..num_chunks {
        // Phase 1: every device computes its position-p chunk and
        // routes the stores per its address-space configuration.
        for d in 0..n_dev {
            let cfg = &configs[d];
            let chunk = cfg.chunk_id(p);
            let route = cfg.route(p);
            let (w0, w1) = chunk_wg_bounds[chunk];
            for wg in w0..w1 {
                let t = grid.wg_tile(wg);
                let (h, w) = (t.height as usize, t.width as usize);
                let region_start = wg_elem_start[wg as usize];
                // A split-K producer runs `split_k` cooperating WGs per
                // tile, each contributing a partial product over its K
                // slice as a separate near-memory update (Section 7.7).
                for slice in 0..split_k as usize {
                    let k0 = k * slice / split_k as usize;
                    let k1 = k * (slice + 1) / split_k as usize;
                    let tile = if split_k == 1 {
                        matmul_tile(
                            &producers[d].a,
                            &producers[d].b,
                            m,
                            n,
                            k,
                            (t.row * grid.tile_dim()) as usize,
                            (t.col * grid.tile_dim()) as usize,
                            h,
                            w,
                        )
                    } else {
                        matmul_tile_krange(
                            &producers[d].a,
                            &producers[d].b,
                            m,
                            n,
                            k,
                            (t.row * grid.tile_dim()) as usize,
                            (t.col * grid.tile_dim()) as usize,
                            h,
                            w,
                            k0,
                            k1,
                        )
                    };
                    match route {
                        ChunkRoute::LocalOnly { .. } | ChunkRoute::LocalThenDmaUpdate { .. } => {
                            outputs[d].update_slice(region_start, &tile);
                            record_wg(&mut devices, configs, d, chunk, wg, h, w, region_start);
                        }
                        ChunkRoute::LocalThenDmaStore { .. } => {
                            assert_eq!(split_k, 1, "store routes cannot be split-K");
                            outputs[d].store_slice(region_start, &tile);
                            record_wg(&mut devices, configs, d, chunk, wg, h, w, region_start);
                        }
                        ChunkRoute::RemoteUpdate { device } => {
                            // Fine-grained peer-to-peer updates; tracked
                            // at the destination.
                            outputs[device].update_slice(region_start, &tile);
                            record_wg(&mut devices, configs, device, chunk, wg, h, w, region_start);
                        }
                        ChunkRoute::RemoteStore { device } => {
                            assert_eq!(split_k, 1, "store routes cannot be split-K");
                            let dst_start = if all_to_all_slots {
                                // Slot `d` of the destination: same-size
                                // chunks guaranteed by the caller.
                                let (slot_s, _) = chunk_ranges[d];
                                let (chunk_s, _) = chunk_ranges[chunk];
                                slot_s + (region_start - chunk_s)
                            } else {
                                region_start
                            };
                            // Plain remote stores (all-to-all) need no
                            // reduction and trigger nothing downstream,
                            // so the destination does not track them.
                            outputs[device].store_slice(dst_start, &tile);
                        }
                    }
                }
            }
        }
        // Phase 2: Tracker-triggered DMAs for position-p chunks.
        for d in 0..n_dev {
            let cfg = &configs[d];
            let (dest, reduce) = match cfg.route(p) {
                ChunkRoute::LocalThenDmaUpdate { device, .. } => (device, true),
                ChunkRoute::LocalThenDmaStore { device } => (device, false),
                _ => continue,
            };
            assert_eq!(
                devices[d].triggered_wfs[p], devices[d].expected_wfs[p],
                "device {d}: DMA for position {p} fired before tracking completed"
            );
            let chunk = cfg.chunk_id(p);
            let (s, e) = chunk_ranges[chunk];
            let data = outputs[d].as_slice()[s..e].to_vec();
            if reduce {
                outputs[dest].update_slice(s, &data);
            } else {
                outputs[dest].store_slice(s, &data);
            }
            dma_transfers += 1;
            // The DMA carries (wg, wf) metadata so the destination
            // tracker counts the incoming updates (Section 4.2.2).
            let (w0, w1) = chunk_wg_bounds[chunk];
            for wg in w0..w1 {
                let t = grid.wg_tile(wg);
                record_wg(
                    &mut devices,
                    configs,
                    dest,
                    chunk,
                    wg,
                    t.height as usize,
                    t.width as usize,
                    wg_elem_start[wg as usize],
                );
            }
        }
    }

    // Every tracked chunk must have completed.
    for (d, state) in devices.iter().enumerate() {
        for p in 0..num_chunks {
            if configs[d].route(p).tracked() {
                assert_eq!(
                    state.triggered_wfs[p], state.expected_wfs[p],
                    "device {d} position {p} incomplete"
                );
            }
        }
        assert_eq!(state.tracker.live_entries(), 0, "device {d} leaked entries");
    }

    FusedOutcome {
        peak_tracker_entries: devices
            .iter()
            .map(|s| s.tracker.peak_entries())
            .max()
            .unwrap_or(0),
        triggers_fired: devices.iter().map(|s| s.tracker.triggers_fired()).sum(),
        outputs,
        chunk_ranges,
        dma_transfers,
    }
}

#[allow(clippy::needless_range_loop)] // -- index loops mirror the per-element reference math being checked
#[cfg(test)]
mod tests {
    use super::*;
    use t3_collectives::gemm::matmul;
    use t3_collectives::reference::assert_close;
    use t3_sim::config::SystemConfig;

    fn small_gpu(tile: u32) -> GpuConfig {
        let mut gpu = SystemConfig::paper_default().gpu;
        gpu.tile_dim = tile;
        gpu
    }

    fn deterministic(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 37 + seed * 101 + 13) % 29) as f32 - 14.0) / 9.0)
            .collect()
    }

    fn producers(n_dev: usize, m: usize, n: usize, k: usize) -> Vec<FusedProducer> {
        (0..n_dev)
            .map(|d| FusedProducer {
                a: deterministic(m * k, d * 2 + 1),
                b: deterministic(k * n, d * 2 + 2),
            })
            .collect()
    }

    /// Reference: sum over devices of their full GEMM outputs, in tile
    /// order.
    fn reference_sum(gpu: &GpuConfig, shape: GemmShape, prods: &[FusedProducer]) -> Vec<f32> {
        let grid = GemmGrid::new(gpu, shape);
        let (m, n, k) = (shape.m as usize, shape.n as usize, shape.k as usize);
        let mut sum = vec![0.0f32; m * n];
        for p in prods {
            let c = matmul(&p.a, &p.b, m, n, k);
            for (s, v) in sum.iter_mut().zip(&c) {
                *s += v;
            }
        }
        to_tile_order(&grid, &sum)
    }

    #[test]
    fn ring_rs_fusion_matches_gemm_then_reduce() {
        for n_dev in [2usize, 3, 4, 8] {
            let (m, n, k) = (48, 40, 8);
            let shape = GemmShape::new(m as u64, n as u64, k as u64);
            let gpu = small_gpu(16);
            let prods = producers(n_dev, m, n, k);
            let expected = reference_sum(&gpu, shape, &prods);
            let outcome = fused_gemm_ring_rs(&gpu, shape, &prods);
            let ring = Ring::new(n_dev);
            for d in 0..n_dev {
                let chunk = ring.rs_owned_chunk(d);
                let (s, e) = outcome.chunk_ranges[chunk];
                assert_close(outcome.owned_chunk(ring, d), &expected[s..e], 1e-4);
            }
        }
    }

    #[test]
    fn ring_rs_dma_count_is_n_times_n_minus_2() {
        let (m, n, k) = (64, 64, 8);
        let gpu = small_gpu(16);
        for n_dev in [2usize, 4, 6] {
            let outcome = fused_gemm_ring_rs(
                &gpu,
                GemmShape::new(m, n, k),
                &producers(n_dev, m as usize, n as usize, k as usize),
            );
            assert_eq!(outcome.dma_transfers, (n_dev * (n_dev - 2)) as u64);
        }
    }

    #[test]
    fn ring_rs_triggers_cover_tracked_chunks() {
        let (m, n, k) = (64, 64, 8);
        let n_dev = 4;
        let gpu = small_gpu(16);
        let shape = GemmShape::new(m, n, k);
        let outcome = fused_gemm_ring_rs(
            &gpu,
            shape,
            &producers(n_dev, m as usize, n as usize, k as usize),
        );
        let grid = GemmGrid::new(&gpu, shape);
        // Per device: N-1 tracked chunks x WFs per chunk (all tiles are
        // full here, every WF non-empty).
        let wfs_per_chunk = grid.num_wfs() as usize / n_dev;
        let expected = n_dev * (n_dev - 1) * wfs_per_chunk;
        assert_eq!(outcome.triggers_fired, expected as u64);
        assert!(outcome.peak_tracker_entries > 0);
    }

    #[test]
    fn direct_rs_fusion_matches_reference() {
        let (m, n, k) = (48, 32, 8);
        let n_dev = 4;
        let gpu = small_gpu(16);
        let shape = GemmShape::new(m as u64, n as u64, k as u64);
        let prods = producers(n_dev, m, n, k);
        let expected = reference_sum(&gpu, shape, &prods);
        let outcome = fused_gemm_direct_rs(&gpu, shape, &prods);
        for d in 0..n_dev {
            // Direct RS: device d owns chunk d.
            let (s, e) = outcome.chunk_ranges[d];
            assert_close(&outcome.outputs[d].as_slice()[s..e], &expected[s..e], 1e-4);
        }
        // No DMA at all: the GEMM's stores were the collective.
        assert_eq!(outcome.dma_transfers, 0);
    }

    #[test]
    fn all_to_all_fusion_exchanges_chunks() {
        let (m, n, k) = (64, 64, 4);
        let n_dev = 4;
        let gpu = small_gpu(16);
        let shape = GemmShape::new(m as u64, n as u64, k as u64);
        let prods = producers(n_dev, m, n, k);
        let grid = GemmGrid::new(&gpu, shape);
        // Per-device full outputs, tile-ordered.
        let locals: Vec<Vec<f32>> = prods
            .iter()
            .map(|p| to_tile_order(&grid, &matmul(&p.a, &p.b, m, n, k)))
            .collect();
        let outcome = fused_gemm_all_to_all(&gpu, shape, &prods);
        let c = outcome.chunk_ranges[0].1 - outcome.chunk_ranges[0].0;
        for dst in 0..n_dev {
            for src in 0..n_dev {
                // Slot src of dst holds src's chunk dst.
                let got = &outcome.outputs[dst].as_slice()[src * c..(src + 1) * c];
                let (cs, ce) = outcome.chunk_ranges[dst];
                assert_close(got, &locals[src][cs..ce], 1e-4);
            }
        }
    }

    #[test]
    fn split_k_fusion_matches_reference() {
        // Section 7.7: split-K producers make multiple partial updates
        // per element; the Tracker must wait for all of them.
        let (m, n, k) = (48, 40, 12);
        let gpu = small_gpu(16);
        let shape = GemmShape::new(m as u64, n as u64, k as u64);
        for n_dev in [2usize, 4] {
            for split_k in [1u32, 2, 3, 4] {
                let prods = producers(n_dev, m, n, k);
                let expected = reference_sum(&gpu, shape, &prods);
                let outcome = fused_gemm_ring_rs_split_k(&gpu, shape, &prods, split_k);
                let ring = Ring::new(n_dev);
                for d in 0..n_dev {
                    let chunk = ring.rs_owned_chunk(d);
                    let (s, e) = outcome.chunk_ranges[chunk];
                    assert_close(outcome.owned_chunk(ring, d), &expected[s..e], 1e-4);
                }
                assert_eq!(
                    outcome.dma_transfers,
                    (n_dev * n_dev.saturating_sub(2)) as u64,
                    "split_k must not change the DMA schedule"
                );
            }
        }
    }

    #[test]
    fn split_k_trigger_counts_scale_with_updates() {
        // Triggers fire once per WF regardless of split_k; what grows
        // is the number of updates each entry absorbs first.
        let (m, n, k) = (64, 64, 8);
        let gpu = small_gpu(16);
        let shape = GemmShape::new(m, n, k);
        let prods = producers(4, m as usize, n as usize, k as usize);
        let plain = fused_gemm_ring_rs_split_k(&gpu, shape, &prods, 1);
        let split = fused_gemm_ring_rs_split_k(&gpu, shape, &prods, 4);
        assert_eq!(plain.triggers_fired, split.triggers_fired);
    }

    #[test]
    #[should_panic(expected = "split_k must be in 1..=K")]
    fn split_k_larger_than_k_rejected() {
        let gpu = small_gpu(16);
        let shape = GemmShape::new(32, 32, 4);
        let prods = producers(2, 32, 32, 4);
        let _ = fused_gemm_ring_rs_split_k(&gpu, shape, &prods, 5);
    }

    #[test]
    fn ag_fusion_broadcasts_every_shard() {
        // Each device computes only its shard; after the fused AG,
        // chunk c everywhere equals device c's locally-computed shard.
        let (m, n, k) = (48, 40, 8);
        let gpu = small_gpu(16);
        let shape = GemmShape::new(m as u64, n as u64, k as u64);
        for n_dev in [2usize, 3, 4] {
            let prods = producers(n_dev, m, n, k);
            let grid = GemmGrid::new(&gpu, shape);
            let outcome = fused_gemm_ring_ag(&gpu, shape, &prods);
            for c in 0..n_dev {
                let local = to_tile_order(&grid, &matmul(&prods[c].a, &prods[c].b, m, n, k));
                let (s, e) = outcome.chunk_ranges[c];
                for d in 0..n_dev {
                    assert_close(&outcome.outputs[d].as_slice()[s..e], &local[s..e], 1e-4);
                }
            }
            // Each shard makes N-1 hops: N shards x (N-1) DMAs.
            assert_eq!(outcome.dma_transfers, (n_dev * (n_dev - 1)) as u64);
        }
    }

    #[test]
    fn edge_tiles_and_empty_wfs_are_handled() {
        // m not divisible by tile, tile height smaller than 8 WFs on
        // the edge row.
        let (m, n, k) = (37, 21, 5);
        let n_dev = 3;
        let gpu = small_gpu(16);
        let shape = GemmShape::new(m as u64, n as u64, k as u64);
        let prods = producers(n_dev, m, n, k);
        let expected = reference_sum(&gpu, shape, &prods);
        let outcome = fused_gemm_ring_rs(&gpu, shape, &prods);
        let ring = Ring::new(n_dev);
        for d in 0..n_dev {
            let chunk = ring.rs_owned_chunk(d);
            let (s, e) = outcome.chunk_ranges[chunk];
            assert_close(outcome.owned_chunk(ring, d), &expected[s..e], 1e-4);
        }
    }

    #[test]
    fn wf_rows_partition_tile() {
        for h in [1usize, 5, 8, 72, 128] {
            let mut covered = 0;
            for wf in 0..8 {
                let (r0, r1) = wf_rows(h, 8, wf);
                assert_eq!(r0, covered);
                covered = r1;
            }
            assert_eq!(covered, h);
        }
    }

    #[test]
    fn to_tile_order_round_trips_totals() {
        let gpu = small_gpu(16);
        let shape = GemmShape::new(20, 36, 4);
        let grid = GemmGrid::new(&gpu, shape);
        let rm: Vec<f32> = (0..20 * 36).map(|i| i as f32).collect();
        let to = to_tile_order(&grid, &rm);
        let sum_rm: f32 = rm.iter().sum();
        let sum_to: f32 = to.iter().sum();
        assert_eq!(sum_rm, sum_to);
        assert_ne!(rm, to, "layouts must differ for multi-tile grids");
    }
}
