//! GPU compute model for the T3 reproduction.
//!
//! Stands in for the paper's Accel-Sim GPU model (Table 1):
//!
//! * [`gemm`] — shapes and the tiled-GEMM grid decomposition the whole
//!   paper rests on (Section 2.5 / Figure 5): a workgroup per output
//!   tile, wavefronts per workgroup, and execution in *stages* of
//!   however many workgroups the CUs can hold. Tensor-parallel slicing
//!   cuts the K dimension and leaves the output/stage structure intact.
//! * [`engine`] — a cycle-stepped GEMM execution engine: per stage, a
//!   read phase whose LLC misses go to DRAM, a compute latency, then a
//!   bursty write phase emitted to the caller (who routes the stores —
//!   locally, remotely, or as near-memory updates). Reproduces the
//!   phase pattern of Figure 17(a).
//! * [`llc_plan`] — the LLC's per-stage effect on one GEMM (read
//!   misses, write-backs, the final flush), walked once per process
//!   and shared by every engine that runs the grid.
//! * [`collective`] — the timing model of baseline, CU-executed ring
//!   collectives (reduce-scatter / all-gather / all-reduce), bounded by
//!   link, CU-processing, or DRAM rate per step; this is the model the
//!   CU-sharing study (Figure 6) exercises.

pub mod collective;
pub mod engine;
pub mod gemm;
pub mod llc_plan;
