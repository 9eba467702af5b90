//! T3's track-and-trigger mechanism and fused execution engines.
//!
//! This is the paper's primary contribution (Section 4):
//!
//! * [`tracker`] — the lightweight, programmable hardware Tracker at
//!   the memory controller (Section 4.2.1): 256 entries indexed by the
//!   workgroup id's low bits, set-associative on `(wg_msb, wf_id)`,
//!   counting local *and* remote/DMA updates per wavefront output
//!   region and firing a pre-programmed DMA when the expected update
//!   count is reached.
//! * [`addrmap`] — the producer output address-space configuration
//!   (Section 4.4, Figures 11–12): `remote_map` / `dma_map` calls that
//!   route chunks of the GEMM's output to local memory, a peer's
//!   memory, or a triggered DMA, per collective type and topology.
//! * [`fused`] — the *functional* fused GEMM-collective execution: N
//!   devices compute real tile data, stores flow through the address
//!   map, near-memory updates reduce in place, Trackers count and
//!   trigger — and the result provably equals running the GEMM and the
//!   collective back-to-back.
//! * [`engine`] — the *timing* fused execution on the cycle-stepped
//!   substrate (GEMM engine + memory controller + LLC + DMA + link),
//!   following the paper's single-GPU mirrored-traffic methodology
//!   (Section 5.1.1, Figure 13).
//! * [`agfuse`] — the Section 7.2 extension: overlapping an
//!   all-gather with its *consumer* GEMM via Tracker-fired WG
//!   scheduling events.
//! * [`multigpu`] — an explicit N-GPU simulation (no mirroring) that
//!   validates the single-GPU methodology.
//! * [`configs`] — the evaluated configurations of Section 5.3
//!   (Sequential, T3, T3-MCA, Ideal-GEMM-RS-Overlap, Ideal-RS+NMC) with
//!   a single `run` entry point per sublayer GEMM.
//! * [`study`] — the paper's side studies: CU-split overlap potential
//!   (Figure 6), reduce-scatter validation (Figure 14), and
//!   future-hardware scaling (Figure 20).

pub mod addrmap;
pub mod agfuse;
pub mod configs;
pub mod engine;
pub mod fused;
mod kernel;
pub mod multigpu;
pub mod study;
pub mod tracker;
