//! The determinism & fidelity rules.
//!
//! Every rule works on the token/comment streams produced by
//! [`crate::lexer`] plus the region maps computed by
//! [`crate::engine`] (test spans, hot-path function bodies). Rules are
//! deliberately syntactic — this is a zero-dependency analyzer, not a
//! type checker — and the limits of each heuristic are documented on
//! the rule itself.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::TokKind;

/// Crates whose cycle math *is* the simulator's output: wall-clock,
/// OS entropy and float-derived counters are forbidden here. `bench`
/// is deliberately absent (its harness measures host wall time by
/// design) and so are `trace` and `lint` themselves. `runtime` is
/// in scope — its simulated cycles must come from job outputs, never
/// the host clock — with file-wide allows on the two modules that
/// legitimately measure host-side scheduler wall time. `prof` is in
/// scope: analytics re-derive cycle quantities from traces, and a
/// wall-clock read there would contaminate golden-pinned output.
/// `serve` is in scope: its arrival generator and engine produce the
/// request timelines behind the serving figures, so a host-clock read
/// there would make the tail-latency percentiles irreproducible.
/// `spec` is in scope: its point executor prices sweep rows in cycles,
/// so a wall-clock or float-truncated counter there would corrupt the
/// sweep figures the specs exist to reproduce.
pub const TIMING_CRATES: &[&str] = &[
    "sim",
    "gpu",
    "mem",
    "net",
    "core",
    "topo",
    "collectives",
    "models",
    "serve",
    "runtime",
    "prof",
    "spec",
];

/// Crates (and root dirs) whose iteration order reaches timing or
/// exported artifacts: the timing crates plus `trace` (exporters) and
/// the facade's `src/` and `tests/` (golden pipelines). `runtime`
/// qualifies through its merged stdout, cache entries and run
/// reports — all byte-exact artifacts; `prof` through its analysis,
/// collective-record, and gate-verdict renderings, all golden-pinned;
/// `serve` through the canonical request log and batch assembly —
/// hash-ordered admission would leak into every latency percentile.
/// `spec` qualifies through sweep enumeration: point order is the row
/// order of the emitted sweep table, so hash-map iteration anywhere in
/// axis expansion would scramble a byte-pinned artifact.
pub const ORDERED_OUTPUT_CRATES: &[&str] = &[
    "sim",
    "gpu",
    "mem",
    "net",
    "core",
    "topo",
    "collectives",
    "models",
    "trace",
    "serve",
    "runtime",
    "prof",
    "spec",
];

/// Static description of one rule: the `--list` line plus the longer
/// `--explain` material (rationale, an example violation, and the
/// sanctioned suppression form).
pub struct RuleInfo {
    pub name: &'static str,
    pub code: &'static str,
    pub summary: &'static str,
    /// Why the rule exists — what rots when it is violated.
    pub rationale: &'static str,
    /// A minimal example that fires the rule.
    pub example: &'static str,
    /// The sanctioned way to suppress a justified occurrence.
    pub suppression: &'static str,
}

/// The rule registry, in code order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "wall-clock",
        code: "T3L001",
        summary: "std::time::Instant / SystemTime / RandomState forbidden in timing crates \
                  (host time and OS entropy must never reach simulated cycles)",
        rationale: "Every headline figure rests on bit-identical simulated cycle counts. A host \
                    clock read or OS-seeded hash state anywhere in a timing crate lets wall-time \
                    jitter or process entropy shape simulated results, breaking run-to-run \
                    byte-identity and every pinned seed timing.",
        example: "    let t0 = std::time::Instant::now(); // in crates/gpu",
        suppression: "// t3-lint: allow(wall-clock) -- <why host time cannot reach cycles>\n\
                      (or allow-file for a module that legitimately measures host time)",
    },
    RuleInfo {
        name: "hash-iteration",
        code: "T3L002",
        summary: "HashMap/HashSet forbidden where iteration order can reach timing or exported \
                  output; use BTreeMap/BTreeSet",
        rationale: "std hash containers iterate in RandomState order, different every process. \
                    If that order decides an arbitration tie or the order of exported records, \
                    output differs run to run while every individual value looks correct.",
        example: "    let mut queues: HashMap<StreamId, Vec<Txn>> = HashMap::new();",
        suppression: "// t3-lint: allow(hash-iteration) -- <why iteration order is never observed>",
    },
    RuleInfo {
        name: "float-cycles",
        code: "T3L003",
        summary: "float expression cast into a cycle/byte counter (u64/Cycle/Bytes) without a \
                  justified allow directive",
        rationale: "Float accumulation order and rounding direction silently shape integer cycle \
                    counts: (a+b)+c != a+(b+c) in f64, and `as u64` truncates toward zero. A \
                    justified cast must state why the value is exact or the rounding direction \
                    is the documented semantic.",
        example: "    let cycles = (bytes as f64 / bw).ceil() as u64;",
        suppression: "// t3-lint: allow(float-cycles) -- <why the rounding is deterministic and \
                      direction-explicit>",
    },
    RuleInfo {
        name: "panic-hot-path",
        code: "T3L004",
        summary: "unwrap()/expect()/panic! inside a per-cycle step/tick/advance body",
        rationale: "step/tick/advance run once per simulated cycle. An abort there takes down \
                    the whole sweep (and, under the parallel runtime, poisons a worker) instead \
                    of surfacing a modeled error the harness can report.",
        example: "    fn step(&mut self) { let txn = self.queue.pop().unwrap(); }",
        suppression: "// t3-lint: allow(panic-hot-path) -- <why the invariant provably holds>",
    },
    RuleInfo {
        name: "naked-allow",
        code: "T3L005",
        summary: "#[allow(...)] or t3-lint: allow(...) without a `-- reason`, an unknown rule \
                  name, or a suppression that matches nothing",
        rationale: "Suppressions rot: an allow without a written reason cannot be audited, an \
                    allow naming an unknown rule guards nothing, and a stale allow hides that \
                    the violation it excused is gone. The escape hatch polices itself so the \
                    allowlist can only shrink to what is truly needed.",
        example: "    #[allow(dead_code)]  // no reason given",
        suppression: "This rule is not suppressible; write the `-- <reason>` (or `reason = \
                      \"...\"` attribute field) it demands, or delete the stale directive.",
    },
    RuleInfo {
        name: "panic-reachable",
        code: "T3L006",
        summary: "unwrap()/expect()/panic! transitively reachable from a hot-path entry \
                  (step*/tick*/advance*/run_* in a timing crate), any call depth",
        rationale: "T3L004 sees a panic typed directly into a step() body; it cannot see a hot \
                    path that calls a helper three frames deep that unwraps. The workspace call \
                    graph closes that hole: any abort reachable from a per-cycle or run_* entry \
                    in a timing crate can kill a sweep mid-experiment. The diagnostic prints \
                    the full call chain and anchors at the sink, so one justified suppression \
                    at a provably-safe unwrap covers every entry that reaches it.",
        example: "    fn step(&mut self) { self.drain(); }\n\
                  \x20   fn drain(&mut self) { self.queue.pop().unwrap(); } // reachable abort",
        suppression: "// t3-lint: allow(panic-reachable) -- <why the invariant provably holds>\n\
                      (placed at the sink line)",
    },
    RuleInfo {
        name: "wall-clock-reachable",
        code: "T3L007",
        summary: "Instant/SystemTime/RandomState transitively reachable from a timing-crate \
                  entry through helpers in non-timing crates",
        rationale: "T3L001 polices timing crates themselves, but a hot path may call into a \
                    crate outside the timing scope (trace, bench, the facade) whose helper \
                    reads the host clock — contaminating simulated results through the back \
                    door. Reachability closes the gap without forcing the whole workspace into \
                    wall-clock scope.",
        example: "    // crates/gpu: fn run_sweep() { t3_bench::now_marker(); }\n\
                  \x20   // crates/bench: pub fn now_marker() -> Instant { Instant::now() }",
        suppression: "// t3-lint: allow(wall-clock-reachable) -- <why host time cannot reach \
                      simulated cycles on this chain>",
    },
    RuleInfo {
        name: "unit-confusion",
        code: "T3L008",
        summary: "identifiers of different units (_cycles/_bytes/_permille/_tokens) combined \
                  with +, -, or a comparison, without an explicit cast",
        rationale: "The simulator's integers carry implicit units. Adding a byte count to a \
                    cycle count, or comparing tokens against permille, type-checks fine (both \
                    are u64) and produces numbers that look plausible — the class of bug no \
                    test catches until a figure drifts. Cross-unit * and / are legitimate \
                    (bytes/cycle = bandwidth) and exempt.",
        example: "    let deadline_cycles = start_cycles + payload_bytes; // bytes are not cycles",
        suppression: "// t3-lint: allow(unit-confusion) -- <why the mixed-unit arithmetic is \
                      intended>, or make the conversion explicit with `as`",
    },
    RuleInfo {
        name: "trace-schema",
        code: "T3L009",
        summary: "trace event/arg literals emitted by t3-trace must exactly match what \
                  t3-prof's parser consumes (names, arg keys, span-vs-instant cycle keys)",
        rationale: "The emit side (Event::name/visit_args/phase in t3-trace) and the consume \
                    side (t3-prof's make_record) are string-keyed and compiled independently: \
                    rename an arg key on one side and every trace round-trip silently drops or \
                    mis-reads a field, corrupting the BENCH_* gate inputs downstream. This rule \
                    cross-checks both sides (and the Event variants t3-prof analytics match on) \
                    at lint time.",
        example: "    // t3-trace:  f(\"comm_depth\", comm_depth);\n\
                  \x20   // t3-prof:   comm_depth: get(\"queue_comm_depth\")?,  // key mismatch",
        suppression: "// t3-lint: allow(trace-schema) -- <why the asymmetry is intended> \
                      (e.g. an arg emitted for human trace viewers only)",
    },
    RuleInfo {
        name: "next-event-drift",
        code: "T3L010",
        summary: "division or float math inside a `next_event`/`next_arrival` fast-forward \
                  predictor or a `*_watch`/`*watches` busy-leap accessor body in a timing crate",
        rationale: "The fast-forward engines leap `now` straight to the minimum predicted next \
                    event and replay the skipped cycles in closed form. A predictor stays sound \
                    only when it reuses the stepped path's exact integer arithmetic: a \
                    hand-rolled division (floor) or float round can predict a cycle *after* the \
                    real state change, and the leap then silently jumps over it — the stepped \
                    and fast-forward runs diverge with no panic, just wrong bytes. Predictors \
                    must derive events from stored integer deadlines (arrival cycles, `until` \
                    phases, `now + 1`), never re-derive them by dividing rates. The same holds \
                    for the `*_watch`/`*watches` accessors a busy leap stops on: a watch must be a stored \
                    integer byte count on a counter the controller keeps, or the leap can run \
                    past the cycle the component acts.",
        example: "    fn next_event(&self, now: Cycle) -> Option<Cycle> {\n\
                  \x20       Some(now + self.queued_bytes / self.chunk_bytes) // floor: too late\n\
                  \x20   }",
        suppression: "// t3-lint: allow(next-event-drift) -- <why the arithmetic cannot predict \
                      later than the true event cycle>",
    },
];

/// Looks up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

fn diag(
    ctx: &FileCtx,
    line: u32,
    rule: &'static str,
    anchor: String,
    message: String,
) -> Diagnostic {
    let info = rule_by_name(rule).expect("rule registered");
    Diagnostic {
        path: ctx.path.to_string(),
        line,
        rule: info.name,
        code: info.code,
        anchor,
        message,
    }
}

/// T3L001 — no wall-clock / OS entropy in timing crates.
///
/// Fires on any `Instant`, `SystemTime` or `RandomState` identifier in
/// a timing crate, including its unit tests: a test that consults host
/// time can mask a nondeterministic model.
pub fn check_wall_clock(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.crate_in(TIMING_CRATES) {
        return;
    }
    for tok in &ctx.lexed.tokens {
        if let Some(name @ ("Instant" | "SystemTime" | "RandomState")) = tok.ident() {
            out.push(diag(
                ctx,
                tok.line,
                "wall-clock",
                name.to_string(),
                format!("`{name}` leaks host time/entropy into a timing crate; derive everything from simulated cycles (t3-sim) or a seeded SplitMix64 (t3_sim::rng)"),
            ));
        }
    }
}

/// T3L002 — no hash-ordered containers where order is observable.
///
/// Fires on `HashMap`/`HashSet` identifiers in the timing crates,
/// `trace`, and the facade's `src/`+`tests/`. `BTreeMap`/`BTreeSet`
/// iterate in key order and are the workspace convention.
pub fn check_hash_iteration(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let in_scope = ctx.crate_in(ORDERED_OUTPUT_CRATES)
        || ctx.path.starts_with("src/")
        || ctx.path.starts_with("tests/");
    if !in_scope {
        return;
    }
    for tok in &ctx.lexed.tokens {
        if let Some(name @ ("HashMap" | "HashSet")) = tok.ident() {
            let fix = if name == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(diag(
                ctx,
                tok.line,
                "hash-iteration",
                name.to_string(),
                format!("`{name}` iteration order is randomized per-process (RandomState); use `{fix}` so arbitration ties and exported output stay bit-identical"),
            ));
        }
    }
}

/// Integer types that hold cycle/byte counters.
fn is_counter_type(name: &str) -> bool {
    matches!(name, "u64" | "u32" | "Cycle" | "Bytes")
}

/// Identifiers that mark a float-valued computation.
fn is_float_marker(name: &str) -> bool {
    matches!(
        name,
        "f32" | "f64" | "ceil" | "floor" | "round" | "powi" | "powf"
    )
}

/// T3L003 — no float math silently truncated into cycle counters.
///
/// Heuristic: within one statement (tokens between `;`/`,`/`{`/`}`
/// boundaries), an `as u64`/`as u32`/`as Cycle`/`as Bytes` cast whose
/// statement also contains earlier float evidence (an `f32`/`f64`
/// token, a float literal, or `ceil`/`floor`/`round`/`powi`/`powf`)
/// is flagged. Such sites must either restructure into integer math
/// or carry `// t3-lint: allow(float-cycles) -- <reason>` stating why
/// the rounding is deterministic and direction-explicit. Cross-
/// statement float flows (a float `let` later cast in another
/// statement) are out of reach for a syntactic pass and reviewed by
/// convention instead. Test code is skipped: float assertions on
/// ratios are the dominant *legitimate* use.
pub fn check_float_cycles(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.crate_in(TIMING_CRATES) || ctx.is_test_code {
        return;
    }
    let toks = &ctx.lexed.tokens;
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i <= toks.len() {
        let boundary = i == toks.len()
            || matches!(
                toks[i].kind,
                TokKind::Punct(';')
                    | TokKind::Punct(',')
                    | TokKind::Punct('{')
                    | TokKind::Punct('}')
            );
        if boundary {
            scan_statement(ctx, &toks[stmt_start..i], stmt_start, out);
            stmt_start = i + 1;
        }
        i += 1;
    }
}

fn scan_statement(
    ctx: &FileCtx,
    stmt: &[crate::lexer::Token],
    stmt_offset: usize,
    out: &mut Vec<Diagnostic>,
) {
    let mut float_seen = false;
    let mut j = 0usize;
    while j < stmt.len() {
        let tok = &stmt[j];
        match &tok.kind {
            TokKind::Float => float_seen = true,
            TokKind::Ident(name) if is_float_marker(name) => float_seen = true,
            TokKind::Ident(name) if name == "as" && float_seen => {
                if let Some(next) = stmt.get(j + 1) {
                    if let Some(ty) = next.ident() {
                        if is_counter_type(ty) && !ctx.in_test_region(stmt_offset + j) {
                            out.push(diag(
                                ctx,
                                next.line,
                                "float-cycles",
                                ty.to_string(),
                                format!("float expression truncated into `{ty}`: accumulation order and rounding direction silently shape cycle counts; restructure as integer math or justify with `t3-lint: allow(float-cycles) -- <reason>`"),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
}

/// T3L004 — no panics in per-cycle hot paths.
///
/// Fires on `.unwrap(`, `.expect(` and `panic!` inside the body of
/// any `fn step*` / `fn tick*` / `fn advance*` outside test code:
/// these run once per simulated cycle, and an abort there takes the
/// whole sweep down instead of surfacing a modeled error.
pub fn check_panic_hot_path(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    for (lo, hi, fn_name) in ctx.hot_fns {
        for i in *lo..*hi {
            if ctx.in_test_region(i) {
                continue;
            }
            let tok = &toks[i];
            let Some(name) = tok.ident() else { continue };
            let flagged = match name {
                "unwrap" | "expect" => toks.get(i + 1).is_some_and(|t| t.is_punct('(')),
                "panic" => toks.get(i + 1).is_some_and(|t| t.is_punct('!')),
                _ => false,
            };
            if flagged {
                out.push(diag(
                    ctx,
                    tok.line,
                    "panic-hot-path",
                    format!("{fn_name}.{name}"),
                    format!("`{name}` in per-cycle `fn {fn_name}`: hot-path aborts kill the whole sweep; return a modeled error or make the invariant unrepresentable"),
                ));
            }
        }
    }
}

/// T3L010 — no re-derived arithmetic in fast-forward predictors.
///
/// Fires on any `/` or `%` operator, float literal, or float marker
/// (`f32`/`f64`/`ceil`/`floor`/`round`/`powi`/`powf`) inside the body
/// of a `fn next_event`/`next_arrival`/`*_next_event` or a busy-leap
/// `fn *_watch`/`fn *watches` accessor in a timing crate, outside test code. The stepped engines compute transfer and
/// stage durations once, at enqueue time, with direction-explicit
/// rounding; a predictor that divides or rounds again can disagree
/// with that stored deadline and return a too-late cycle — the one
/// failure mode the leap cannot detect, because it simply never steps
/// the cycle where the real event fired.
pub fn check_next_event_drift(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !ctx.crate_in(TIMING_CRATES) || ctx.is_test_code {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (lo, hi, fn_name) in ctx.next_event_fns {
        for (i, tok) in toks.iter().enumerate().take(*hi).skip(*lo) {
            if ctx.in_test_region(i) {
                continue;
            }
            let what = match &tok.kind {
                TokKind::Punct(c @ ('/' | '%')) => c.to_string(),
                TokKind::Float => "float literal".to_string(),
                TokKind::Ident(name) if is_float_marker(name) => name.clone(),
                _ => continue,
            };
            out.push(diag(
                ctx,
                tok.line,
                "next-event-drift",
                format!("{fn_name}.{what}"),
                format!("`{what}` inside fast-forward predictor `fn {fn_name}`: re-derived rounding can predict a too-late cycle and make the leap skip a real state change; return stored integer deadlines, or justify with `t3-lint: allow(next-event-drift) -- <reason>`"),
            ));
        }
    }
}

/// T3L005 (part 1) — every `#[allow(...)]`/`#![allow(...)]` attribute
/// must justify itself: either `reason = "..."` inside the attribute
/// or a comment containing `-- <reason>` on the same or previous line.
///
/// Directive hygiene (missing reasons, unknown rules, unused
/// suppressions in `t3-lint: allow(...)` comments) is the engine's
/// half of this rule, because it needs the post-suppression state.
pub fn check_naked_allow_attrs(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('!')) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('['))
                && toks.get(j + 1).and_then(|t| t.ident()) == Some("allow")
            {
                let line = toks[j + 1].line;
                let close = attr_end(toks, j);
                let has_reason_field = toks[j..close].iter().any(|t| t.ident() == Some("reason"));
                let has_reason_comment = ctx.reasoned_comment_near(line);
                if !has_reason_field && !has_reason_comment {
                    out.push(diag(
                        ctx,
                        line,
                        "naked-allow",
                        "attr".to_string(),
                        "`#[allow(...)]` without a written reason; append `reason = \"...\"` or a `// -- <reason>` comment on the same or previous line".to_string(),
                    ));
                }
                i = close;
                continue;
            }
        }
        i += 1;
    }
}

/// Token index one past the `]` closing the attribute whose `[` is at
/// `open`.
fn attr_end(toks: &[crate::lexer::Token], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}
