//! Interconnect model for the T3 reproduction.
//!
//! The paper's system is an intra-node ring (Table 1: 150 GB/s
//! bi-directional, 500 ns link latency), plus per-GPU DMA engines that
//! T3's Tracker pre-programs and triggers (Section 4.2.2).
//!
//! * [`link`] — a bandwidth/latency pipe: messages serialise at the
//!   link rate and arrive one latency later.
//! * [`ring`] — ring-topology helpers (neighbours, chunk ownership per
//!   step) shared by the functional collectives and the timing engine.
//! * [`dma`] — a DMA engine that, per command, reads its source data
//!   through the memory controller's communication stream and hands the
//!   command back for the caller to put on its wire; commands are
//!   pre-programmed and marked ready by the Tracker, matching
//!   Figure 9(c).

pub mod dma;
pub mod link;
pub mod ring;
