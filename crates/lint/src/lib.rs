//! t3-lint — a workspace-wide determinism & fidelity lint pass.
//!
//! Every headline number in this repository rests on bit-identical,
//! pinned cycle timings (the seed-timing pins in `t3-core::multigpu`
//! and `t3-topo::fabric`). The classic ways GPU simulators rot are
//! not caught by the compiler: wall-clock or OS entropy leaking into
//! timing paths, hash-map iteration order deciding arbitration ties,
//! float accumulation order silently shifting cycle counts, a helper
//! three frames below `step()` that unwraps, or a renamed trace-arg
//! key that desynchronizes the emit and consume sides of the trace
//! pipeline. This crate enforces those invariants statically, with
//! zero external dependencies:
//!
//! | rule | code | what it forbids |
//! |------|------|-----------------|
//! | `wall-clock` | T3L001 | `Instant`/`SystemTime`/`RandomState` in timing crates |
//! | `hash-iteration` | T3L002 | `HashMap`/`HashSet` where order reaches timing or output |
//! | `float-cycles` | T3L003 | float expressions truncated into `u64`/`Cycle`/`Bytes` counters |
//! | `panic-hot-path` | T3L004 | `unwrap`/`expect`/`panic!` inside per-cycle `step`/`tick`/`advance` |
//! | `naked-allow` | T3L005 | any suppression without a written `-- reason` |
//! | `panic-reachable` | T3L006 | aborts *transitively* reachable from hot-path entries (call graph) |
//! | `wall-clock-reachable` | T3L007 | host time reachable from timing entries through non-timing crates |
//! | `unit-confusion` | T3L008 | `_cycles`/`_bytes`/`_permille`/`_tokens` mixed via `+`/`-`/comparison |
//! | `trace-schema` | T3L009 | t3-trace emit side diverging from t3-prof's consume side |
//!
//! T3L001–T3L005 and T3L008 are token-local. T3L006/T3L007 run on a
//! workspace call graph built by a lightweight item parser
//! ([`parser`]) with conservative name-based resolution
//! ([`callgraph`]); T3L009 cross-checks string literals between
//! crates ([`schema`]).
//!
//! Suppressions are comment directives with mandatory justification:
//!
//! ```text
//! let c = (bytes as f64 / bw).ceil() as Cycle; // t3-lint: allow(float-cycles) -- ceil of a rational is exact & direction-explicit
//! // t3-lint: allow-file(hash-iteration) -- this file never iterates the map
//! ```
//!
//! A directive covers its own line and the next; `allow-file` covers
//! the file. Directives that name unknown rules, omit the reason, or
//! suppress nothing are themselves diagnostics, so the allowlist can
//! only shrink to what is truly needed. They are the only suppression
//! mechanism: every other finding fails the run. Run `t3-lint --list`
//! for the rule table, `t3-lint --explain T3L006` for any rule's
//! rationale and sanctioned suppression, `--json` / `--sarif <path>`
//! for machine-readable output; `ci.sh` gates on a clean pass.

pub mod callgraph;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod schema;
pub mod units;

pub use diag::{to_json, Diagnostic};
pub use engine::{lint_files, lint_source, lint_workspace, workspace_files, FileAnalysis};
pub use rules::{RuleInfo, RULES};
pub use sarif::to_sarif;
