//! Producer output address-space configuration (Section 4.4).
//!
//! T3 never modifies GEMM kernels. Instead, the collective library
//! configures how the producer's *output address space* maps onto the
//! node — exactly the `remote_map` / `dma_map` pseudo-code of
//! Figure 12 — and that configuration programs both the Tracker's
//! trigger thresholds and the pre-queued DMA commands.
//!
//! An [`OutputConfig`] lists, in the device's (staggered) computation
//! order, where each chunk of the producer's output goes. Canned
//! configurations are provided for the collectives the paper covers:
//! ring reduce-scatter (Section 4), direct reduce-scatter on a
//! fully-connected topology, and all-to-all (Section 7.1). The
//! [`ConfigBuilder`] mirrors the paper's API for custom collectives.

use t3_net::ring::Ring;
use t3_topo::schedule::{CollectiveKind, Schedule};

/// Where one chunk of the producer's output is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRoute {
    /// Written locally only; this device will own the chunk. Tracked
    /// so completion (local + incoming updates) is observable.
    LocalOnly {
        /// Expected updates per element (2 for ring-RS).
        updates_per_element: u32,
    },
    /// Producer stores go straight to `device`'s memory as fine-grained
    /// peer-to-peer updates (`remote_map` with reduce semantics); no
    /// local copy, not tracked locally.
    RemoteUpdate {
        /// Destination device.
        device: usize,
    },
    /// Producer stores go straight to `device`'s memory as plain
    /// stores, no local copy (all-to-all chunks).
    RemoteStore {
        /// Destination device.
        device: usize,
    },
    /// Written locally (as NMC updates); once the Tracker counts
    /// `updates_per_element` updates per element, the pre-programmed
    /// DMA *updates* the chunk into `device`'s memory (`dma_map` with
    /// reduce semantics — the ring-RS steady state).
    LocalThenDmaUpdate {
        /// Destination device.
        device: usize,
        /// Expected updates per element before the DMA fires.
        updates_per_element: u32,
    },
    /// As above, but the DMA performs plain stores (all-gather).
    LocalThenDmaStore {
        /// Destination device.
        device: usize,
    },
}

impl ChunkRoute {
    /// Whether this chunk's local memory region is tracked.
    pub fn tracked(self) -> bool {
        !matches!(
            self,
            ChunkRoute::RemoteUpdate { .. } | ChunkRoute::RemoteStore { .. }
        )
    }

    /// Expected updates per element for tracked chunks (1 where only
    /// the producer writes).
    pub fn updates_per_element(self) -> u32 {
        match self {
            ChunkRoute::LocalOnly {
                updates_per_element,
            }
            | ChunkRoute::LocalThenDmaUpdate {
                updates_per_element,
                ..
            } => updates_per_element,
            ChunkRoute::LocalThenDmaStore { .. } => 1,
            ChunkRoute::RemoteUpdate { .. } | ChunkRoute::RemoteStore { .. } => 0,
        }
    }

    /// Destination device for outgoing data, if any.
    pub fn destination(self) -> Option<usize> {
        match self {
            ChunkRoute::LocalOnly { .. } => None,
            ChunkRoute::RemoteUpdate { device }
            | ChunkRoute::RemoteStore { device }
            | ChunkRoute::LocalThenDmaUpdate { device, .. }
            | ChunkRoute::LocalThenDmaStore { device } => Some(device),
        }
    }

    /// Whether outgoing data leaves via a Tracker-triggered DMA.
    pub fn uses_dma(self) -> bool {
        matches!(
            self,
            ChunkRoute::LocalThenDmaUpdate { .. } | ChunkRoute::LocalThenDmaStore { .. }
        )
    }
}

/// One device's producer-output configuration: chunk routes in local
/// computation order (position 0 is computed first — the stagger of
/// Section 4.4 is encoded in which collective chunk sits at which
/// position).
///
/// # Examples
///
/// Figure 12's configuration, built with the paper's API:
///
/// ```
/// use t3_core::addrmap::{ChunkRoute, ConfigBuilder};
///
/// let cfg = ConfigBuilder::new(4)
///     .remote_map_update(0, 3) // warm-up chunk straight to GPU 3
///     .dma_map_update(1, 3, 2) // steady state: DMA after 2 updates
///     .dma_map_update(2, 3, 2)
///     .local(3, 2)             // the owned chunk
///     .build();
/// assert!(cfg.route(1).uses_dma());
/// assert_eq!(cfg.route(0).destination(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputConfig {
    routes: Vec<ChunkRoute>,
    chunk_ids: Vec<usize>,
    /// Inverse of `chunk_ids`: the local position of each chunk id.
    positions: Vec<usize>,
}

impl OutputConfig {
    /// Number of chunks the producer's output is divided into.
    pub fn num_chunks(&self) -> usize {
        self.routes.len()
    }

    /// Route of the chunk computed at local position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn route(&self, p: usize) -> ChunkRoute {
        self.routes[p]
    }

    /// Collective chunk id computed at local position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn chunk_id(&self, p: usize) -> usize {
        self.chunk_ids[p]
    }

    /// Local position at which collective chunk `chunk` is computed.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is out of range.
    pub fn position_of_chunk(&self, chunk: usize) -> usize {
        self.positions[chunk]
    }

    /// The fused ring reduce-scatter configuration of Figures 7/11/12
    /// for `device` in `ring`:
    ///
    /// * position 0 (chunk `device`): fine-grained remote updates into
    ///   the next device (the warm-up `remote_map` step);
    /// * positions `1..=N-2`: local NMC stores, then a Tracker-fired
    ///   DMA update to the next device after 2 updates/element — the
    ///   N−2 steady-state steps;
    /// * position `N-1`: the chunk this device owns; local only.
    pub fn ring_reduce_scatter(ring: Ring, device: usize) -> Self {
        Self::ring_reduce_scatter_split_k(ring, device, 1)
    }

    /// As [`OutputConfig::ring_reduce_scatter`], for a split-K producer
    /// (Section 7.7): each element receives `split_k` local partial
    /// updates, so the Tracker thresholds become
    ///
    /// * position 1 (fed by the neighbour's warm-up remote stores,
    ///   themselves `split_k` partials): `2 x split_k`;
    /// * later positions (fed by one reduced DMA update):
    ///   `split_k + 1`.
    ///
    /// With `split_k = 1` this is exactly the plain configuration.
    ///
    /// # Panics
    ///
    /// Panics if `split_k` is zero or `device` is out of range.
    pub fn ring_reduce_scatter_split_k(ring: Ring, device: usize, split_k: u32) -> Self {
        let n = ring.len();
        assert!(device < n, "device out of range");
        assert!(split_k >= 1, "split_k must be at least 1");
        Self::ring_schedule(n, |p| (device + n - p) % n, ring.next(device), split_k)
    }

    /// The mirror image of [`OutputConfig::ring_reduce_scatter`]:
    /// position `p` computes chunk `(device + p) mod N` and every
    /// non-owned chunk goes to `prev(device)`. Routes and thresholds
    /// per position are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub(crate) fn ring_reduce_scatter_ascending(ring: Ring, device: usize) -> Self {
        let n = ring.len();
        assert!(device < n, "device out of range");
        Self::ring_schedule(n, |p| (device + p) % n, ring.prev(device), 1)
    }

    /// A ring reduce-scatter computing `chunk_at(p)` at position `p`
    /// and sending toward the neighbour `dest`.
    fn ring_schedule(
        n: usize,
        chunk_at: impl Fn(usize) -> usize,
        dest: usize,
        split_k: u32,
    ) -> Self {
        let mut b = ConfigBuilder::new(n);
        for p in 0..n {
            let chunk = chunk_at(p);
            let updates = if p == 1 { 2 * split_k } else { split_k + 1 };
            if p == 0 {
                b = b.remote_map_update(chunk, dest);
            } else if p < n - 1 {
                b = b.dma_map_update(chunk, dest, updates);
            } else {
                b = b.local(chunk, updates);
            }
        }
        b.build()
    }

    /// Derives `device`'s producer-output configuration from a
    /// topology-derived reduce-scatter [`Schedule`] — the single
    /// schedule source shared with the functional collectives and the
    /// timing fabric, so configurations cannot drift from the wire
    /// plan. The rule generalises Figure 12 uniformly:
    ///
    /// * a chunk this device sends **without having received it**
    ///   leaves as fine-grained remote updates (`remote_map`) — the
    ///   ring's warm-up step, and *every* send of the direct schedule;
    /// * a chunk received `r` times before being sent is written
    ///   locally and DMA-updated onward once the Tracker counts
    ///   `r + 1` updates per element (`dma_map`) — the ring's steady
    ///   state, with its threshold of 2;
    /// * the owned chunk stays local with a threshold of one local
    ///   plus every scheduled receive — 2 on a ring, `N` on a direct
    ///   fabric.
    ///
    /// On a ring schedule this reproduces
    /// [`OutputConfig::ring_reduce_scatter`] bit-for-bit (see the
    /// `schedule_derivation_matches_ring_config` test).
    ///
    /// # Panics
    ///
    /// Panics if the schedule is not a reduce-scatter or `device` is
    /// out of range.
    pub fn from_reduce_scatter_schedule(sched: &Schedule, device: usize) -> Self {
        assert_eq!(
            sched.kind(),
            CollectiveKind::ReduceScatter,
            "configuration derivation needs a reduce-scatter schedule"
        );
        let n = sched.devices();
        assert!(device < n, "device out of range");
        let mut receives: Vec<u32> = vec![0; n];
        let mut b = ConfigBuilder::new(n);
        for step in sched.steps() {
            // A schedule that skips this device in some step leaves a
            // chunk unrouted, which `build` rejects.
            if let Some(send) = step.iter().find(|s| s.src == device) {
                let prior = receives[send.chunk];
                b = if prior == 0 {
                    b.remote_map_update(send.chunk, send.dst)
                } else {
                    b.dma_map_update(send.chunk, send.dst, prior + 1)
                };
            }
            for s in step {
                if s.dst == device {
                    receives[s.chunk] += 1;
                }
            }
        }
        let owned = sched.owned_chunk(device);
        b.local(owned, receives[owned] + 1).build()
    }

    /// Direct reduce-scatter on a fully-connected topology
    /// (Section 7.1): every non-owned chunk is remote-updated straight
    /// to its owner as the GEMM stores it; the owned chunk expects one
    /// local plus N−1 remote updates. The collective itself performs
    /// zero dedicated memory accesses.
    pub fn direct_reduce_scatter(num_devices: usize, device: usize) -> Self {
        assert!(device < num_devices, "device out of range");
        let mut b = ConfigBuilder::new(num_devices);
        for chunk in 0..num_devices {
            if chunk == device {
                b = b.local(chunk, num_devices as u32);
            } else {
                b = b.remote_map_update(chunk, chunk);
            }
        }
        b.build()
    }

    /// All-to-all (Section 7.1): chunk `j` of this device's output is
    /// remote-stored to device `j`; only the own chunk stays local.
    pub fn all_to_all(num_devices: usize, device: usize) -> Self {
        assert!(device < num_devices, "device out of range");
        let mut b = ConfigBuilder::new(num_devices);
        for chunk in 0..num_devices {
            if chunk == device {
                b = b.local(chunk, 1);
            } else {
                b = b.remote_map_store(chunk, chunk);
            }
        }
        b.build()
    }
}

/// Builder mirroring the paper's `remote_map` / `dma_map` API
/// (Figure 12). Chunks are declared in the device's computation order.
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    num_chunks: usize,
    routes: Vec<ChunkRoute>,
    chunk_ids: Vec<usize>,
}

impl ConfigBuilder {
    /// Starts a configuration over `num_chunks` chunks.
    pub fn new(num_chunks: usize) -> Self {
        assert!(num_chunks >= 2, "need at least two chunks");
        ConfigBuilder {
            num_chunks,
            routes: Vec::new(),
            chunk_ids: Vec::new(),
        }
    }

    /// `remote_map` with reduce semantics: producer stores update
    /// `device`'s memory directly.
    pub fn remote_map_update(self, chunk: usize, device: usize) -> Self {
        self.push(chunk, ChunkRoute::RemoteUpdate { device })
    }

    /// `remote_map` with store semantics.
    pub fn remote_map_store(self, chunk: usize, device: usize) -> Self {
        self.push(chunk, ChunkRoute::RemoteStore { device })
    }

    /// `dma_map` with update semantics and a trigger threshold.
    pub fn dma_map_update(self, chunk: usize, device: usize, updates_per_element: u32) -> Self {
        assert!(updates_per_element >= 1, "threshold must be positive");
        self.push(
            chunk,
            ChunkRoute::LocalThenDmaUpdate {
                device,
                updates_per_element,
            },
        )
    }

    /// `dma_map` with store semantics (all-gather style).
    pub fn dma_map_store(self, chunk: usize, device: usize) -> Self {
        self.push(chunk, ChunkRoute::LocalThenDmaStore { device })
    }

    /// A chunk kept local (typically the one this device owns).
    pub fn local(self, chunk: usize, updates_per_element: u32) -> Self {
        assert!(updates_per_element >= 1, "threshold must be positive");
        self.push(
            chunk,
            ChunkRoute::LocalOnly {
                updates_per_element,
            },
        )
    }

    fn push(mut self, chunk: usize, route: ChunkRoute) -> Self {
        assert!(chunk < self.num_chunks, "chunk id out of range");
        assert!(
            !self.chunk_ids.contains(&chunk),
            "chunk {chunk} configured twice"
        );
        self.chunk_ids.push(chunk);
        self.routes.push(route);
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics unless every chunk has exactly one route.
    pub fn build(self) -> OutputConfig {
        assert_eq!(
            self.chunk_ids.len(),
            self.num_chunks,
            "every chunk needs a route"
        );
        // `push` rejects duplicate and out-of-range ids, so the ids are
        // a permutation of `0..num_chunks` and every chunk gets its
        // position here.
        let mut positions = vec![0; self.num_chunks];
        for (p, &chunk) in self.chunk_ids.iter().enumerate() {
            positions[chunk] = p;
        }
        OutputConfig {
            routes: self.routes,
            chunk_ids: self.chunk_ids,
            positions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_rs_structure_matches_figure_7() {
        let ring = Ring::new(4);
        let cfg = OutputConfig::ring_reduce_scatter(ring, 0);
        assert_eq!(cfg.num_chunks(), 4);
        // Position 0: remote update of chunk 0 to device 1.
        assert_eq!(cfg.chunk_id(0), 0);
        assert_eq!(cfg.route(0), ChunkRoute::RemoteUpdate { device: 1 });
        // Steady state: N-2 = 2 DMA-update chunks.
        let dma_chunks = (0..4).filter(|&p| cfg.route(p).uses_dma()).count();
        assert_eq!(dma_chunks, 2);
        // Final position: the owned chunk, local only, 2 updates.
        assert_eq!(cfg.chunk_id(3), ring.rs_owned_chunk(0));
        assert_eq!(
            cfg.route(3),
            ChunkRoute::LocalOnly {
                updates_per_element: 2
            }
        );
    }

    #[test]
    fn ring_rs_chunks_follow_send_schedule() {
        let ring = Ring::new(8);
        for d in 0..8 {
            let cfg = OutputConfig::ring_reduce_scatter(ring, d);
            for p in 0..7 {
                // The chunk computed at position p is the chunk the
                // device sends at ring step p.
                assert_eq!(cfg.chunk_id(p), ring.rs_send_chunk(d, p));
            }
        }
    }

    #[test]
    fn two_device_ring_has_no_dma_steps() {
        let cfg = OutputConfig::ring_reduce_scatter(Ring::new(2), 1);
        assert_eq!(cfg.route(0), ChunkRoute::RemoteUpdate { device: 0 });
        assert!(cfg.route(1).tracked());
        assert!(!cfg.route(1).uses_dma());
    }

    #[test]
    fn direct_rs_targets_owners() {
        let cfg = OutputConfig::direct_reduce_scatter(4, 2);
        for p in 0..4 {
            let chunk = cfg.chunk_id(p);
            if chunk == 2 {
                assert_eq!(cfg.route(p).updates_per_element(), 4);
            } else {
                assert_eq!(cfg.route(p).destination(), Some(chunk));
                assert!(!cfg.route(p).tracked());
            }
        }
    }

    #[test]
    fn all_to_all_keeps_only_own_chunk() {
        let cfg = OutputConfig::all_to_all(4, 1);
        let local = (0..4).filter(|&p| cfg.route(p).tracked()).count();
        assert_eq!(local, 1);
        assert_eq!(cfg.route(cfg.position_of_chunk(3)).destination(), Some(3));
    }

    #[test]
    fn schedule_derivation_matches_ring_config() {
        // The one-schedule-source guarantee: deriving a device's
        // configuration from the topology schedule reproduces the
        // hand-built ring configuration bit-for-bit.
        for n in [2, 3, 4, 8] {
            let topo =
                t3_topo::Topology::ring(n, &t3_sim::config::SystemConfig::paper_default().link);
            let sched = Schedule::reduce_scatter(&topo);
            let ring = Ring::new(n);
            for d in 0..n {
                assert_eq!(
                    OutputConfig::from_reduce_scatter_schedule(&sched, d),
                    OutputConfig::ring_reduce_scatter(ring, d),
                    "ring n={n} device {d}"
                );
            }
        }
    }

    #[test]
    fn schedule_derivation_on_direct_fabric_remote_maps_everything() {
        let topo = t3_topo::Topology::fully_connected(
            4,
            &t3_sim::config::SystemConfig::paper_default().link,
        );
        let sched = Schedule::reduce_scatter(&topo);
        for d in 0..4 {
            let cfg = OutputConfig::from_reduce_scatter_schedule(&sched, d);
            for p in 0..3 {
                let chunk = cfg.chunk_id(p);
                // Every non-owned chunk streams straight to its owner.
                assert_eq!(
                    cfg.route(p),
                    ChunkRoute::RemoteUpdate {
                        device: sched.owner_of(chunk)
                    }
                );
            }
            // The owned chunk expects one local + N-1 remote updates.
            assert_eq!(cfg.chunk_id(3), (d + 1) % 4);
            assert_eq!(
                cfg.route(3),
                ChunkRoute::LocalOnly {
                    updates_per_element: 4
                }
            );
        }
    }

    #[test]
    fn position_of_chunk_round_trips() {
        let cfg = OutputConfig::ring_reduce_scatter(Ring::new(8), 3);
        for p in 0..8 {
            assert_eq!(cfg.position_of_chunk(cfg.chunk_id(p)), p);
        }
    }

    #[test]
    #[should_panic(expected = "configured twice")]
    fn duplicate_chunk_rejected() {
        let _ = ConfigBuilder::new(2).local(0, 1).local(0, 1);
    }

    #[test]
    #[should_panic(expected = "every chunk needs a route")]
    fn incomplete_config_rejected() {
        let _ = ConfigBuilder::new(3).local(0, 1).build();
    }

    #[test]
    fn route_predicates() {
        let r = ChunkRoute::LocalThenDmaUpdate {
            device: 2,
            updates_per_element: 2,
        };
        assert!(r.tracked());
        assert!(r.uses_dma());
        assert_eq!(r.destination(), Some(2));
        assert_eq!(r.updates_per_element(), 2);
        let s = ChunkRoute::RemoteStore { device: 1 };
        assert!(!s.tracked());
        assert_eq!(s.updates_per_element(), 0);
    }
}
