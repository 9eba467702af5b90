//! Memory-system model for the T3 reproduction.
//!
//! This crate is the substrate standing in for the paper's
//! Accel-Sim memory hierarchy (Table 1):
//!
//! * [`llc`] — a set-associative, LRU last-level cache simulated at
//!   line granularity, with the write-bypass ("uncached") behaviour T3
//!   uses to send GEMM output stores straight to DRAM (Section 4.3).
//! * [`arbiter`] — memory-controller arbitration policies: naive
//!   round-robin, static compute-first, and the paper's dynamic
//!   occupancy-threshold policy, T3-MCA (Section 4.5).
//! * [`controller`] — a cycle-stepped memory controller with separate
//!   compute and communication streams, a bounded DRAM queue, and
//!   per-class traffic accounting; this is where compute/communication
//!   contention materialises (Sections 3.2.2 and 6.1.2).
//! * [`nmc`] — near-memory compute: the functional op-and-store
//!   buffer (atomic reduce-at-DRAM) and its timing cost model
//!   (Section 4.3).
//!
//! # Examples
//!
//! ```
//! use t3_mem::controller::{MemoryController, StreamId};
//! use t3_mem::arbiter::McaPolicy;
//! use t3_sim::config::SystemConfig;
//! use t3_sim::stats::TrafficClass;
//!
//! let cfg = SystemConfig::paper_default().mem;
//! let mut mc = MemoryController::new(&cfg, McaPolicy::new(&cfg));
//! mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 4096, 1.0);
//! let mut now = 0;
//! while !mc.is_idle() {
//!     mc.step(now, None);
//!     now += 1;
//! }
//! assert_eq!(mc.serviced_bytes(StreamId::Compute), 4096);
//! ```

pub mod arbiter;
pub mod controller;
pub mod llc;
pub mod nmc;
