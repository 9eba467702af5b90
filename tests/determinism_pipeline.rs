//! Double-run determinism: the dynamic counterpart of the `t3-lint`
//! static pass.
//!
//! The static rules forbid the *sources* of nondeterminism (wall
//! clock, hash order, float-into-counter truncation); this test
//! checks the *consequence* end-to-end: running the same instrumented
//! figures workload twice in one process must produce byte-identical
//! exported artifacts — cycle counts, the Chrome trace JSON, and the
//! metrics registry in both JSON and CSV form. Any per-process seed,
//! leftover global state, or order-sensitive accumulation shows up
//! here as a diff.
//!
//! The `t3-runtime` worker pool adds two more consequences to hold:
//! merged figure output must not depend on the pool width, and a
//! result served from the content-addressed cache must be
//! byte-identical to the run that populated it.

use t3_bench::experiments::{self, ExperimentScale};
use t3_bench::jobs;
use t3_runtime::{CacheConfig, RunOptions, RunSummary};
use t3_sim::SimMode;
use t3_trace::chrome::chrome_trace_json;

/// One traced run's complete exported byte set.
fn tnlg_artifacts_in_mode(mode: SimMode) -> (u64, String, String, String) {
    let (ins, run, clock_ghz) =
        experiments::traced_tnlg_sublayer_in_mode(ExperimentScale::FAST, mode);
    let tracer = ins
        .tracer
        .as_ref()
        .expect("full instruments carry a tracer");
    let metrics = ins
        .metrics
        .as_ref()
        .expect("full instruments carry metrics");
    (
        run.cycles,
        chrome_trace_json(tracer.records(), clock_ghz),
        metrics.to_json(),
        metrics.to_csv(),
    )
}

fn tnlg_artifacts() -> (u64, String, String, String) {
    tnlg_artifacts_in_mode(SimMode::default())
}

fn multinode_artifacts_in_mode(topology: &str, mode: SimMode) -> (u64, String, String) {
    let (ins, run, clock_ghz) =
        experiments::traced_multinode_in_mode(ExperimentScale::FAST, topology, mode);
    let tracer = ins
        .tracer
        .as_ref()
        .expect("full instruments carry a tracer");
    let metrics = ins
        .metrics
        .as_ref()
        .expect("full instruments carry metrics");
    (
        run.cycles,
        chrome_trace_json(tracer.records(), clock_ghz),
        metrics.to_json(),
    )
}

fn multinode_artifacts(topology: &str) -> (u64, String, String) {
    multinode_artifacts_in_mode(topology, SimMode::default())
}

#[test]
fn tnlg_trace_and_metrics_are_bit_identical_across_runs() {
    let (cycles_a, trace_a, json_a, csv_a) = tnlg_artifacts();
    let (cycles_b, trace_b, json_b, csv_b) = tnlg_artifacts();
    assert_eq!(cycles_a, cycles_b, "cycle count drifted between runs");
    assert_eq!(trace_a, trace_b, "Chrome trace bytes drifted between runs");
    assert_eq!(json_a, json_b, "metrics JSON drifted between runs");
    assert_eq!(csv_a, csv_b, "metrics CSV drifted between runs");
    assert!(!trace_a.is_empty() && !json_a.is_empty() && !csv_a.is_empty());
}

#[test]
fn multinode_trace_and_metrics_are_bit_identical_across_runs() {
    let (cycles_a, trace_a, json_a) = multinode_artifacts("switch");
    let (cycles_b, trace_b, json_b) = multinode_artifacts("switch");
    assert_eq!(
        cycles_a, cycles_b,
        "multinode cycle count drifted between runs"
    );
    assert_eq!(
        trace_a, trace_b,
        "multinode Chrome trace drifted between runs"
    );
    assert_eq!(
        json_a, json_b,
        "multinode metrics JSON drifted between runs"
    );
}

/// One traced serving run's complete exported byte set: the Chrome
/// trace plus the canonical request log.
fn serving_artifacts_in_mode(mode: SimMode) -> (u64, String, String) {
    let (ins, row, clock_ghz) =
        t3_serve::study::traced_serving_in_mode(ExperimentScale::FAST.token_divisor, mode);
    let tracer = ins
        .tracer
        .as_ref()
        .expect("full instruments carry a tracer");
    (
        row.run.makespan,
        chrome_trace_json(tracer.records(), clock_ghz),
        t3_serve::request_log(&row.run.outcomes),
    )
}

fn serving_artifacts() -> (u64, String, String) {
    serving_artifacts_in_mode(SimMode::default())
}

// ---------------------------------------------------------------------
// Stepped vs. fast-forward: the event-driven engine must replay every
// skipped cycle's side effects exactly, so the two time-advancement
// modes export byte-identical artifacts on every traced workload.
// ---------------------------------------------------------------------

#[test]
fn tnlg_fast_forward_artifacts_are_byte_identical_to_stepped() {
    let stepped = tnlg_artifacts_in_mode(SimMode::Stepped);
    let fast = tnlg_artifacts_in_mode(SimMode::FastForward);
    assert_eq!(stepped.0, fast.0, "tnlg cycle count diverged across modes");
    assert_eq!(stepped.1, fast.1, "tnlg Chrome trace diverged across modes");
    assert_eq!(stepped.2, fast.2, "tnlg metrics JSON diverged across modes");
    assert_eq!(stepped.3, fast.3, "tnlg metrics CSV diverged across modes");
}

#[test]
fn multinode_fast_forward_artifacts_are_byte_identical_to_stepped() {
    for topology in ["ring", "switch"] {
        let stepped = multinode_artifacts_in_mode(topology, SimMode::Stepped);
        let fast = multinode_artifacts_in_mode(topology, SimMode::FastForward);
        assert_eq!(stepped.0, fast.0, "{topology}: cycle count diverged");
        assert_eq!(stepped.1, fast.1, "{topology}: Chrome trace diverged");
        assert_eq!(stepped.2, fast.2, "{topology}: metrics JSON diverged");
    }
}

#[test]
fn serving_fast_forward_artifacts_are_byte_identical_to_stepped() {
    let stepped = serving_artifacts_in_mode(SimMode::Stepped);
    let fast = serving_artifacts_in_mode(SimMode::FastForward);
    assert_eq!(stepped.0, fast.0, "serving makespan diverged across modes");
    assert_eq!(
        stepped.1, fast.1,
        "serving Chrome trace diverged across modes"
    );
    assert_eq!(
        stepped.2, fast.2,
        "serving request log diverged across modes"
    );
}

#[test]
fn sharded_engine_matches_sequential_at_every_width() {
    use t3_core::engine::FusedOptions;
    use t3_core::multigpu::{run_multi_gpu_fused_rs_on, run_multi_gpu_fused_rs_sharded};
    use t3_sim::config::LinkConfig;
    use t3_topo::Topology;

    // Every width, uneven shards (3 of 16) included, in both modes must
    // reproduce the stepped single-shard reference byte for byte. The
    // fabrics span the barrier leap's regimes: the ring keeps every
    // device busy, the hierarchical fabric's slow leaders leave most
    // devices idle, and the latency-bound inter-node ring (25 GB/s,
    // 5 us) spends most cycles with every controller drained.
    let sys = t3_sim::config::SystemConfig::paper_default().with_num_gpus(16);
    let mut slow = sys.link.clone();
    slow.link_gb_s /= 4.0;
    slow.latency_ns *= 4.0;
    let internode = LinkConfig {
        link_gb_s: 25.0,
        clock_ghz: sys.link.clock_ghz,
        latency_ns: 5000.0,
    };
    // The slow fabrics run a smaller grid: their stepped references
    // walk every cycle of long link waits.
    let shape = t3_gpu::gemm::GemmShape::new;
    let cases = [
        ("ring", Topology::ring(16, &sys.link), shape(256, 2048, 512)),
        (
            "hierarchical",
            Topology::hierarchical(2, 8, &sys.link, &slow),
            shape(256, 1024, 128),
        ),
        (
            "internode",
            Topology::ring(16, &internode),
            shape(256, 1024, 128),
        ),
    ];
    let opts_in = |mode| FusedOptions {
        mode,
        ..FusedOptions::default()
    };
    for (name, topo, shape) in cases {
        let grid = t3_gpu::gemm::GemmGrid::new(&sys.gpu, shape);
        let run = |mode, threads| {
            let (grid, opts) = (grid.clone(), opts_in(mode));
            let r = match threads {
                1 => run_multi_gpu_fused_rs_on(&sys, grid, &opts, &topo, None),
                _ => run_multi_gpu_fused_rs_sharded(&sys, grid, &opts, &topo, threads),
            };
            format!("{r:?}")
        };
        let reference = run(SimMode::Stepped, 1);
        for mode in [SimMode::Stepped, SimMode::FastForward] {
            for threads in [1, 2, 3, 16] {
                if (mode, threads) == (SimMode::Stepped, 1) {
                    continue;
                }
                assert_eq!(
                    reference,
                    run(mode, threads),
                    "{name}: {threads} shard(s) diverged from the stepped single shard ({} mode)",
                    mode.label()
                );
            }
        }
    }
}

#[test]
fn serving_trace_and_request_log_are_bit_identical_across_runs() {
    let (makespan_a, trace_a, log_a) = serving_artifacts();
    let (makespan_b, trace_b, log_b) = serving_artifacts();
    assert_eq!(makespan_a, makespan_b, "serving makespan drifted");
    assert_eq!(trace_a, trace_b, "serving Chrome trace drifted");
    assert_eq!(log_a, log_b, "serving request log drifted");
    assert!(!log_a.is_empty(), "request log must not be empty");
}

#[test]
fn serving_trace_round_trips_to_the_same_request_log() {
    // A serving trace file alone must re-derive the exact request
    // outcomes the engine produced: engine → chrome JSON → t3-prof
    // outcomes is lossless.
    let (_, trace, log) = serving_artifacts();
    let records = t3_prof::parse_chrome_trace(&trace).expect("serving trace parses");
    let outcomes = t3_prof::request_outcomes(&records);
    assert_eq!(t3_serve::request_log(&outcomes), log);
    let stats = t3_prof::iteration_stats(&records);
    assert!(stats.prefill_iterations > 0 && stats.decode_iterations > 0);
}

/// Runs the given figure targets through the runtime scheduler.
fn figures_run(targets: &[&str], workers: usize, cache: Option<CacheConfig>) -> RunSummary {
    let targets: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
    let graph =
        jobs::figure_job_graph(&targets, ExperimentScale::FAST, None).expect("known targets");
    t3_runtime::run(graph, &RunOptions { workers, cache })
}

/// Runs the smoke-target job graph through the runtime scheduler.
fn smoke_run(workers: usize, cache: Option<CacheConfig>) -> RunSummary {
    figures_run(jobs::SMOKE_TARGETS, workers, cache)
}

#[test]
fn serving_report_is_byte_identical_at_any_width() {
    // The ISSUE's acceptance pin: the full serving report — both
    // serving tables — must be byte-identical across runs and across
    // worker-pool widths.
    let narrow = figures_run(&["serving", "serving-fused"], 1, None);
    let wide = figures_run(&["serving", "serving-fused"], 4, None);
    assert!(narrow.ok() && wide.ok(), "serving jobs must succeed");
    assert_eq!(
        narrow.merged_stdout(),
        wide.merged_stdout(),
        "serving report must not depend on the pool width"
    );
    assert_eq!(narrow.total_sim_cycles(), wide.total_sim_cycles());
    let text = narrow.merged_stdout();
    assert!(text.contains("t3-fused") && text.contains("baseline"));
}

#[test]
fn merged_output_is_independent_of_worker_count() {
    let narrow = smoke_run(1, None);
    let wide = smoke_run(4, None);
    assert!(narrow.ok() && wide.ok(), "smoke jobs must all succeed");
    assert_eq!(
        narrow.merged_stdout(),
        wide.merged_stdout(),
        "--jobs 1 and --jobs 4 must merge byte-identical output"
    );
    assert_eq!(
        narrow.total_sim_cycles(),
        wide.total_sim_cycles(),
        "simulated cycle tally must not depend on the pool width"
    );
    assert!(!narrow.merged_stdout().is_empty());
}

/// Expands the checked-in example spec pair and runs it through the
/// runtime scheduler, exactly as `figures sweep w.t3w s.t3s` does.
fn sweep_run(workers: usize, cache: Option<CacheConfig>) -> RunSummary {
    let plan = jobs::load_sweep_plan("examples/specs/tnlg_tp.t3w", "examples/specs/ring.t3s")
        .expect("example specs expand");
    let graph = jobs::figure_job_graph_with_sweep(
        &["sweep".to_string()],
        ExperimentScale::FAST,
        None,
        Some(&plan),
    )
    .expect("sweep graph builds");
    t3_runtime::run(graph, &RunOptions { workers, cache })
}

#[test]
fn spec_sweep_is_byte_identical_across_runs_and_widths() {
    // The ISSUE's acceptance pin for the spec frontend: the expanded
    // sweep's merged output must not depend on the run or the pool
    // width, because point rows are emitted in spec enumeration order.
    let first = sweep_run(1, None);
    let again = sweep_run(1, None);
    let wide = sweep_run(4, None);
    assert!(first.ok() && again.ok() && wide.ok(), "sweep jobs succeed");
    assert_eq!(
        first.merged_stdout(),
        again.merged_stdout(),
        "sweep output drifted between runs"
    );
    assert_eq!(
        first.merged_stdout(),
        wide.merged_stdout(),
        "sweep output must not depend on the pool width"
    );
    assert_eq!(first.total_sim_cycles(), wide.total_sim_cycles());
    let text = first.merged_stdout();
    assert!(text.contains("3D-parallelism sweep"), "header must render");
    assert!(text.contains("t3mca"), "fused rows must render");
}

#[test]
fn spec_sweep_cache_round_trip_replays_the_exact_bytes() {
    let dir = format!("target/t3-cache-sweep-test-{}", std::process::id());
    let _ = std::fs::remove_dir_all(&dir);
    let cold = sweep_run(2, Some(CacheConfig::at(&dir)));
    let warm = sweep_run(2, Some(CacheConfig::at(&dir)));
    let result = std::panic::catch_unwind(|| {
        assert!(cold.ok() && warm.ok(), "sweep jobs must all succeed");
        assert_eq!(cold.cache_hits, 0, "first run must miss everything");
        assert_eq!(
            warm.cache_misses, 0,
            "spec content unchanged, so the rerun must hit on every job"
        );
        assert_eq!(warm.cache_hits, cold.cache_misses);
        assert_eq!(
            cold.merged_stdout(),
            warm.merged_stdout(),
            "cache-warm sweep must replay the exact bytes of the live run"
        );
        assert_eq!(cold.total_sim_cycles(), warm.total_sim_cycles());
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn cache_round_trip_preserves_bytes_and_cycles() {
    // A per-process scratch cache under target/ so concurrent test
    // binaries and stale state cannot interfere.
    let dir = format!("target/t3-cache-test-{}", std::process::id());
    let _ = std::fs::remove_dir_all(&dir);
    let cold = smoke_run(2, Some(CacheConfig::at(&dir)));
    let warm = smoke_run(2, Some(CacheConfig::at(&dir)));
    let result = std::panic::catch_unwind(|| {
        assert!(cold.ok() && warm.ok(), "smoke jobs must all succeed");
        assert_eq!(cold.cache_hits, 0, "first run must miss everything");
        assert_eq!(cold.cache_misses as usize, jobs::SMOKE_TARGETS.len());
        assert_eq!(
            warm.cache_hits as usize,
            jobs::SMOKE_TARGETS.len(),
            "second run must be served entirely from cache"
        );
        assert_eq!(
            cold.merged_stdout(),
            warm.merged_stdout(),
            "cached results must replay the exact bytes of the live run"
        );
        assert_eq!(
            cold.total_sim_cycles(),
            warm.total_sim_cycles(),
            "simulated cycles must survive the cache round-trip"
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
