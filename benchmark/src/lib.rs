//! Host-time and simulated-result benchmark of the T3 reproduction.
//!
//! Four workloads (see [`workloads`]) each run in fresh sample
//! processes; the parent ([`measure`]) times them and reports the
//! end-to-end metrics, or with tracing the per-layer ones, named in
//! [`registry`] and in `BENCHMARK.json` at the repository root.

pub mod compare;
pub mod digest;
pub mod json;
pub mod measure;
pub mod registry;
pub mod spans;
pub mod stats;
pub mod workloads;
