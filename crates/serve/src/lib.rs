//! # t3-serve — deterministic inference serving on the T3 simulator
//!
//! The T3 paper reports static per-sublayer speedups; this crate asks
//! what they are worth in *serving* terms — p99 latency and
//! tokens/sec/GPU under live traffic. It models a serving fleet end
//! to end, deterministically:
//!
//! * [`traffic`] — seeded open-loop request generation: Poisson and
//!   bursty arrival processes with bucketed prompt/output-length
//!   mixtures, all drawn from one [`t3_sim::rng::SplitMix64`] stream.
//! * [`engine`] — a continuous-batching scheduler with
//!   prefill/decode phase switching: prefill-priority admission under
//!   a token budget, one generated token per decode iteration, exact
//!   cycle accounting for every request's enqueue → admission →
//!   first-token → completion lifecycle.
//! * [`cost`] — the iteration-cost oracle: token counts are bucketed
//!   to powers of two and each bucket is priced with the paper's
//!   [`t3_core::configs::Configuration`] engines (Sequential vs
//!   T3-MCA), whose runs the shared sublayer cost oracle simulates
//!   once per process.
//! * [`interference`] — multi-tenant fabric contention priced by
//!   running staggered concurrent reduce-scatters on one shared
//!   [`t3_topo::fabric::Fabric`].
//! * [`request`] — lifecycle records, the canonical request log, and
//!   exact-integer nearest-rank percentiles (p50/p95/p99).
//! * [`study`] — the headline `figures serving` /
//!   `figures serving-fused` experiments: two fabrics × two load
//!   points × baseline-vs-fused, plus a tenant sweep.
//!
//! Everything is integer-cycle arithmetic on seeded streams: the same
//! seed and config produce byte-identical request logs, percentiles,
//! and traces on any host, at any parallelism.
//!
//! ```
//! use t3_serve::cost::EngineMode;
//! use t3_serve::engine::{run_engine, EngineConfig};
//! use t3_serve::study::serve_cost_model;
//! use t3_serve::traffic::{generate_requests, ArrivalKind, TrafficConfig};
//!
//! let cfg = TrafficConfig {
//!     requests: 8,
//!     arrival: ArrivalKind::Poisson,
//!     mean_gap_cycles: 100_000,
//!     token_divisor: 8,
//! };
//! let requests = generate_requests(&cfg, 0, 42);
//! let cost = serve_cost_model();
//! let run = run_engine(
//!     &cost,
//!     &EngineConfig::with_mode(EngineMode::Fused),
//!     &requests,
//!     None,
//! );
//! assert_eq!(run.outcomes.len(), 8);
//! ```

pub mod cost;
pub mod engine;
pub mod interference;
pub mod request;
pub mod study;
pub mod traffic;

pub use cost::{CostModel, EngineMode};
pub use engine::{run_engine, EngineConfig, EngineRun};
pub use request::{percentile, request_log, LatencySummary, Request, RequestOutcome};
pub use traffic::{generate_requests, ArrivalKind, TrafficConfig};
