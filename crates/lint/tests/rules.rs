//! Fixture-based self-tests: each rule must fire on its violating
//! fixture and stay silent on the suppressed/clean one, and the real
//! workspace must be clean (the CI gate's twin).

use std::path::Path;

use t3_lint::{lint_source, to_json, Diagnostic};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn wall_clock_fires_in_timing_crate() {
    let diags = lint_source("crates/net/src/fx.rs", &fixture("wall_clock_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["wall-clock"]);
    assert_eq!(
        diags.len(),
        3,
        "Instant, SystemTime, RandomState: {diags:?}"
    );
    assert_eq!(diags[0].line, 2);
    assert_eq!(diags[0].code, "T3L001");
}

#[test]
fn wall_clock_fires_in_runtime_crate() {
    // The runtime schedules simulator jobs and is a timing crate: its
    // simulated cycles must come from job outputs, never the host
    // clock...
    let diags = lint_source("crates/runtime/src/fx.rs", &fixture("wall_clock_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["wall-clock"]);
    assert_eq!(diags.len(), 3, "{diags:?}");
    // ...and its justified file-wide allows (scheduler wall-time
    // measurement) suppress cleanly without tripping naked-allow.
    let diags = lint_source(
        "crates/runtime/src/fx.rs",
        &fixture("wall_clock_allowed.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn prof_crate_is_in_both_scopes() {
    // The analytics crate renders golden-pinned output: a wall-clock
    // read or a hash-ordered iteration there is a lint failure.
    let diags = lint_source("crates/prof/src/fx.rs", &fixture("prof_bad.rs"));
    let mut rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    assert_eq!(rules, vec!["hash-iteration", "wall-clock"], "{diags:?}");
    let diags = lint_source("crates/prof/src/fx.rs", &fixture("wall_clock_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["wall-clock"]);
    let diags = lint_source("crates/prof/src/fx.rs", &fixture("hash_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["hash-iteration"]);
}

#[test]
fn serve_crate_is_in_both_scopes() {
    // The serving subsystem's arrival generator and batch assembly
    // feed the tail-latency figures: host time or hash order there
    // would make the request log and percentiles irreproducible.
    let diags = lint_source("crates/serve/src/fx.rs", &fixture("serve_bad.rs"));
    let mut rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    assert_eq!(rules, vec!["hash-iteration", "wall-clock"], "{diags:?}");
    let diags = lint_source("crates/serve/src/fx.rs", &fixture("wall_clock_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["wall-clock"]);
    let diags = lint_source("crates/serve/src/fx.rs", &fixture("hash_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["hash-iteration"]);
}

#[test]
fn spec_crate_is_in_both_scopes() {
    // Sweep enumeration order is the row order of the emitted table:
    // a hash-ordered axis map would scramble nothing visibly in one
    // run yet break byte-identity across runs, so T3L002 must fire.
    let diags = lint_source("crates/spec/src/fx.rs", &fixture("spec_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["hash-iteration"], "{diags:?}");
    // The point executor prices rows in simulated cycles, so the
    // timing rules cover the crate too.
    let diags = lint_source("crates/spec/src/fx.rs", &fixture("wall_clock_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["wall-clock"]);
    let diags = lint_source("crates/spec/src/fx.rs", &fixture("float_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["float-cycles"]);
}

#[test]
fn wall_clock_out_of_scope_in_bench_crate() {
    // The bench harness measures host wall time by design.
    let diags = lint_source("crates/bench/src/fx.rs", &fixture("wall_clock_bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_silent_on_clean_file() {
    let diags = lint_source("crates/sim/src/fx.rs", &fixture("wall_clock_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hash_iteration_fires_where_order_is_observable() {
    for path in [
        "crates/mem/src/fx.rs",
        "crates/trace/src/fx.rs",
        "tests/fx.rs",
    ] {
        let diags = lint_source(path, &fixture("hash_bad.rs"));
        assert_eq!(rules_fired(&diags), vec!["hash-iteration"], "at {path}");
        assert_eq!(
            diags.len(),
            4,
            "three HashMap tokens + one HashSet at {path}"
        );
    }
}

#[test]
fn hash_iteration_out_of_scope_in_examples() {
    let diags = lint_source("examples/fx.rs", &fixture("hash_bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn hash_iteration_file_directive_honoured() {
    let diags = lint_source("crates/mem/src/fx.rs", &fixture("hash_allowed.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn float_cycles_fires_in_timing_crate() {
    let diags = lint_source("crates/gpu/src/fx.rs", &fixture("float_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["float-cycles"]);
    assert_eq!(diags.len(), 2, "u64 and u32 truncations: {diags:?}");
    assert_eq!(diags[0].line, 3);
    assert_eq!(diags[1].line, 4);
}

#[test]
fn float_cycles_suppressions_honoured_both_placements() {
    let diags = lint_source("crates/gpu/src/fx.rs", &fixture("float_allowed.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn float_cycles_skips_test_code() {
    // Integration-test files are out of scope entirely...
    let diags = lint_source("crates/gpu/tests/fx.rs", &fixture("float_bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    // ...and so are #[cfg(test)] modules inside a timing crate.
    let diags = lint_source("crates/gpu/src/fx.rs", &fixture("float_test_code.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_hot_path_fires_in_step_tick_advance() {
    let diags = lint_source("crates/mem/src/fx.rs", &fixture("panic_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["panic-hot-path"]);
    let msgs: Vec<_> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(msgs[0].contains("`unwrap` in per-cycle `fn step`"));
    assert!(msgs[1].contains("`expect` in per-cycle `fn tick`"));
    assert!(msgs[2].contains("`panic` in per-cycle `fn advance_traced`"));
}

#[test]
fn panic_hot_path_silent_on_clean_engine() {
    let diags = lint_source("crates/mem/src/fx.rs", &fixture("panic_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn naked_allow_catches_every_hygiene_failure() {
    let diags = lint_source("crates/topo/src/fx.rs", &fixture("naked_allow_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["naked-allow"]);
    // The reasonless directive is both naked and stale: 5 findings.
    assert_eq!(diags.len(), 5, "{diags:?}");
    assert!(
        diags[0].message.contains("without a written reason"),
        "{diags:?}"
    );
    assert!(
        diags[1].message.contains("without a `-- <reason>`"),
        "{diags:?}"
    );
    assert!(diags[2].message.contains("suppresses nothing"), "{diags:?}");
    assert!(diags[3].message.contains("unknown rule"), "{diags:?}");
    assert!(diags[4].message.contains("suppresses nothing"), "{diags:?}");
}

#[test]
fn naked_allow_accepts_both_reason_forms() {
    let diags = lint_source("crates/topo/src/fx.rs", &fixture("naked_allow_ok.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn json_output_is_stable_and_parseable_shaped() {
    let diags = lint_source("crates/net/src/fx.rs", &fixture("wall_clock_bad.rs"));
    let json = to_json(&diags);
    assert!(json.starts_with("[\n"));
    assert!(json.trim_end().ends_with(']'));
    assert_eq!(json.matches("\"rule\": \"wall-clock\"").count(), 3);
    assert!(json.contains("\"file\": \"crates/net/src/fx.rs\""));
}

// ---------------------------------------------------------------
// Call-graph rules (T3L006 / T3L007)
// ---------------------------------------------------------------

#[test]
fn panic_reachable_fires_through_helper_chain() {
    let diags = lint_source("crates/gpu/src/fx.rs", &fixture("panic_reachable_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["panic-reachable"], "{diags:?}");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "T3L006");
    assert_eq!(diags[0].anchor, "take_one.unwrap");
    // The full chain from the entry is printed in the diagnostic.
    assert!(
        diags[0]
            .message
            .contains("run_sweep -> drain_all -> take_one"),
        "{}",
        diags[0].message
    );
}

#[test]
fn panic_reachable_silent_on_modeled_errors_and_test_code() {
    let diags = lint_source("crates/gpu/src/fx.rs", &fixture("panic_reachable_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn wall_clock_reachable_crosses_crate_boundaries() {
    // The helper lives in `bench`, where T3L001 is deliberately
    // silent; reachability from a timing-crate entry still flags it.
    let diags = t3_lint::lint_files(&[
        (
            "crates/gpu/src/probe.rs".to_string(),
            fixture("wcr_entry.rs"),
        ),
        (
            "crates/bench/src/host.rs".to_string(),
            fixture("wcr_helper_bad.rs"),
        ),
    ]);
    assert_eq!(
        rules_fired(&diags),
        vec!["wall-clock-reachable"],
        "{diags:?}"
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "T3L007");
    assert_eq!(diags[0].path, "crates/bench/src/host.rs");
    assert_eq!(diags[0].anchor, "now_marker.Instant");
    assert!(diags[0].message.contains("run_probe -> now_marker"));
}

#[test]
fn wall_clock_reachable_silent_when_chain_is_deterministic() {
    let diags = t3_lint::lint_files(&[
        (
            "crates/gpu/src/probe.rs".to_string(),
            fixture("wcr_entry.rs"),
        ),
        (
            "crates/bench/src/host.rs".to_string(),
            fixture("wcr_helper_clean.rs"),
        ),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------
// Units flow (T3L008)
// ---------------------------------------------------------------

#[test]
fn unit_confusion_fires_on_cross_unit_arithmetic() {
    let diags = lint_source("crates/net/src/fx.rs", &fixture("unit_confusion_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["unit-confusion"], "{diags:?}");
    let anchors: Vec<&str> = diags.iter().map(|d| d.anchor.as_str()).collect();
    assert_eq!(
        anchors,
        vec!["cycles+bytes", "tokens-permille", "bytes<tokens"],
        "{diags:?}"
    );
}

#[test]
fn unit_confusion_exempts_ratios_casts_and_same_unit() {
    let diags = lint_source("crates/net/src/fx.rs", &fixture("unit_confusion_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    // Out of scope entirely in non-timing crates.
    let diags = lint_source("crates/bench/src/fx.rs", &fixture("unit_confusion_bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------
// Trace schema (T3L009)
// ---------------------------------------------------------------

#[test]
fn trace_schema_catches_renamed_arg_key() {
    let diags = t3_lint::lint_files(&[
        (
            "crates/trace/src/event.rs".to_string(),
            fixture("schema_emit.rs"),
        ),
        (
            "crates/prof/src/load.rs".to_string(),
            fixture("schema_consume_bad.rs"),
        ),
    ]);
    assert_eq!(rules_fired(&diags), vec!["trace-schema"], "{diags:?}");
    assert_eq!(diags.len(), 2, "{diags:?}");
    // The consume side asks for a key the emit side never writes...
    assert_eq!(diags[0].path, "crates/prof/src/load.rs");
    assert_eq!(diags[0].anchor, "gemm_stage.stage_id");
    // ...and the emitted key is, symmetrically, never consumed.
    assert_eq!(diags[1].path, "crates/trace/src/event.rs");
    assert_eq!(diags[1].anchor, "gemm_stage.stage");
}

#[test]
fn trace_schema_clean_when_sides_agree() {
    let diags = t3_lint::lint_files(&[
        (
            "crates/trace/src/event.rs".to_string(),
            fixture("schema_emit.rs"),
        ),
        (
            "crates/prof/src/load.rs".to_string(),
            fixture("schema_consume_clean.rs"),
        ),
    ]);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn trace_schema_silent_without_both_anchor_files() {
    // A single-file lint (fixtures, editors) must not fire the rule.
    let diags = lint_source("crates/prof/src/load.rs", &fixture("schema_consume_bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    let diags = lint_source("crates/trace/src/event.rs", &fixture("schema_emit.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------
// Fast-forward predictors (T3L010)
// ---------------------------------------------------------------

#[test]
fn next_event_drift_fires_on_rederived_arithmetic() {
    let diags = lint_source("crates/net/src/fx.rs", &fixture("next_event_bad.rs"));
    assert_eq!(rules_fired(&diags), vec!["next-event-drift"], "{diags:?}");
    // One floor division in next_event, an `f64` cast and a float
    // literal in device_next_event.
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert_eq!(diags[0].code, "T3L010");
    assert_eq!(diags[0].anchor, "next_event./");
    let anchors: Vec<&str> = diags.iter().map(|d| d.anchor.as_str()).collect();
    assert!(
        anchors.contains(&"device_next_event.f64")
            && anchors.contains(&"device_next_event.float literal"),
        "{diags:?}"
    );
}

#[test]
fn next_event_drift_scopes_to_predictor_bodies_and_timing_crates() {
    // Division outside the predictor body is legal...
    let diags = lint_source("crates/net/src/fx.rs", &fixture("next_event_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
    // ...and so is the whole file outside the timing-crate scope.
    let diags = lint_source("crates/bench/src/fx.rs", &fixture("next_event_bad.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn next_event_drift_suppression_honoured() {
    let diags = lint_source("crates/net/src/fx.rs", &fixture("next_event_allowed.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------
// Registry, workspace gate, determinism
// ---------------------------------------------------------------

#[test]
fn every_rule_has_full_explain_material() {
    assert_eq!(t3_lint::RULES.len(), 10, "ten rules T3L001..T3L010");
    for r in t3_lint::RULES {
        assert!(!r.summary.is_empty(), "{} summary", r.code);
        assert!(!r.rationale.is_empty(), "{} rationale", r.code);
        assert!(!r.example.is_empty(), "{} example", r.code);
        assert!(!r.suppression.is_empty(), "{} suppression", r.code);
    }
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root")
        .to_path_buf()
}

/// The CI gate's twin: the actual workspace must have zero findings,
/// with every inline suppression justified and live. Fails here =
/// fails `./ci.sh`.
#[test]
fn workspace_is_clean() {
    let diags = t3_lint::lint_workspace(&workspace_root()).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "t3-lint violations in the workspace:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Double-run byte-identity: the lint holds itself to the invariant
/// it enforces — JSON and SARIF artifacts are byte-identical across
/// runs over the same tree.
#[test]
fn json_and_sarif_output_byte_identical_across_runs() {
    let root = workspace_root();
    let run_a = t3_lint::lint_workspace(&root).expect("walk workspace");
    let run_b = t3_lint::lint_workspace(&root).expect("walk workspace");
    assert_eq!(to_json(&run_a), to_json(&run_b));
    let sarif_a = t3_lint::to_sarif(&run_a);
    let sarif_b = t3_lint::to_sarif(&run_b);
    assert_eq!(sarif_a, sarif_b, "SARIF export must be byte-identical");
    assert!(sarif_a.contains("\"version\": \"2.1.0\""));
    assert!(
        !sarif_a.contains("\"level\": \"note\""),
        "no finding is downgraded to a note"
    );
}
