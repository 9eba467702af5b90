//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p t3-bench --bin figures -- <target> [--fast] [--jobs N]
//! cargo run --release -p t3-bench --bin figures -- sweep <workload.t3w> <system.t3s>
//! cargo run --release -p t3-bench --bin figures -- --trace out.json
//! ```
//!
//! Targets: `table1 table2 table3 fig4 fig6 fig14 fig15 fig16 fig17
//! fig18 fig19 fig20 multinode extensions sweep serving serving-fused
//! all`. `--fast` shrinks workloads 8x in the token dimension for
//! smoke runs.
//!
//! Positional arguments ending in `.t3w` / `.t3s` are declarative
//! spec files (see `examples/specs/` and ARCHITECTURE §11): exactly
//! one workload and one system spec expand into the 3D-parallelism
//! sweep — one runtime job per TP×PP×DP×EP point, fingerprinted from
//! the spec content. With a spec pair, the `sweep` target names that
//! expansion (`figures sweep w.t3w s.t3s` runs exactly the sweep);
//! without an explicit `sweep` target the sweep jobs append after the
//! named targets, and `all` keeps its historical meaning. After the
//! rows, every sequential/T3-fused point pair prints one speedup
//! line.
//!
//! Targets run as jobs on the `t3-runtime` worker pool: `--jobs N`
//! sets the pool width (default: available parallelism) and outputs
//! merge in submission order, so any width prints byte-identical
//! results. Finished jobs land in a content-addressed cache under
//! `target/t3-cache/` keyed by config fingerprint; `--no-cache`
//! bypasses it and `--cache-dir <dir>` relocates it. `--report
//! <file>` writes a JSON run report with per-job wall time and
//! simulated cycles.
//!
//! `--topology <name>` selects the fabric for the `multinode` study
//! and for traced runs; accepted names are `ring`, `fully-connected`,
//! `switch`, `torus` and `hierarchical`.
//!
//! `--trace <file>` runs an instrumented fused GEMM-RS — the T-NLG
//! FC-2 (TP=8) mirrored engine, or the explicit 16-GPU multi-node
//! engine when `--topology` is given — and writes a Chrome
//! trace-event JSON loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`. `--metrics <file>` writes the same run's
//! metrics registry as JSON (or CSV when the file name ends in
//! `.csv`). `--analyze` runs the same instrumented workload and
//! prints the `t3-prof` critical-path breakdown and per-collective
//! records to stdout. Any of the three may be given alone or with
//! targets.
//!
//! `--trace-serving <file>` runs the instrumented high-load serving
//! point (ring fabric, bursty arrivals, T3-fused engine) and writes
//! its Chrome trace — request lifecycles and engine iterations —
//! which `t3-prof requests` turns back into the canonical request
//! log and latency percentiles.
//!
//! Exit codes: 0 on success, 1 when jobs fail or outputs cannot be
//! written, 2 on usage errors.

use std::env;
use std::process::ExitCode;

use t3_bench::experiments::{self, ExperimentScale};
use t3_bench::jobs;
use t3_prof::analyze as prof_analyze;
use t3_prof::analyze::Analysis;
use t3_prof::collective as prof_collective;
use t3_runtime::{report_json, CacheConfig, JobStatus, RunOptions, DEFAULT_CACHE_DIR};
use t3_trace::chrome::chrome_trace_json_named;

/// Exit code for malformed invocations (bad flags, unknown targets).
const EXIT_USAGE: u8 = 2;
/// Exit code for runs where at least one job failed.
const EXIT_FAILED_JOBS: u8 = 1;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let no_cache = args.iter().any(|a| a == "--no-cache");
    let analyze = args.iter().any(|a| a == "--analyze");
    let scale = if fast {
        ExperimentScale::FAST
    } else {
        ExperimentScale::FULL
    };
    let trace_path = match flag_value(&args, "--trace") {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let metrics_path = match flag_value(&args, "--metrics") {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let trace_serving_path = match flag_value(&args, "--trace-serving") {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let topology = match flag_value(&args, "--topology") {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    if let Some(name) = &topology {
        if !experiments::TOPOLOGY_NAMES.contains(&name.as_str()) {
            return usage(&format!("unknown topology: {name}"));
        }
    }
    let workers = match flag_value(&args, "--jobs") {
        Ok(None) => RunOptions::default_workers(),
        Ok(Some(v)) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return usage(&format!("--jobs needs a positive integer, got: {v}")),
        },
        Err(e) => return usage(&e),
    };
    let cache_dir = match flag_value(&args, "--cache-dir") {
        Ok(v) => v.unwrap_or_else(|| DEFAULT_CACHE_DIR.to_string()),
        Err(e) => return usage(&e),
    };
    let report_path = match flag_value(&args, "--report") {
        Ok(v) => v,
        Err(e) => return usage(&e),
    };
    let positionals = match targets(&args) {
        Ok(t) => t,
        Err(e) => return usage(&e),
    };
    // Positionals ending in .t3w/.t3s are declarative spec files; the
    // rest are figure targets.
    let mut workload_specs = Vec::new();
    let mut system_specs = Vec::new();
    let mut targets = Vec::new();
    for p in positionals {
        if p.ends_with(".t3w") {
            workload_specs.push(p);
        } else if p.ends_with(".t3s") {
            system_specs.push(p);
        } else {
            targets.push(p);
        }
    }
    let sweep_plan = match (workload_specs.as_slice(), system_specs.as_slice()) {
        ([], []) => None,
        ([w], [s]) => match jobs::load_sweep_plan(w, s) {
            Ok(plan) => Some(plan),
            Err(e) => return usage(&e),
        },
        _ => return usage("a sweep needs exactly one workload (.t3w) and one system (.t3s) spec"),
    };
    if targets.is_empty()
        && sweep_plan.is_none()
        && trace_path.is_none()
        && metrics_path.is_none()
        && trace_serving_path.is_none()
        && !analyze
    {
        return usage("no targets given");
    }

    let mut failed = false;
    if !targets.is_empty() || sweep_plan.is_some() {
        let graph = match jobs::figure_job_graph_with_sweep(
            &targets,
            scale,
            topology.as_deref(),
            sweep_plan.as_ref(),
        ) {
            Ok(g) => g,
            Err(e) => return usage(&e),
        };
        let opts = RunOptions {
            workers,
            cache: (!no_cache).then(|| CacheConfig::at(&cache_dir)),
        };
        let summary = t3_runtime::run(graph, &opts);
        print!("{}", summary.merged_stdout());
        if sweep_plan.is_some() {
            // Pair each sequential point with its T3-fused twin. The
            // iteration cycles come from job metrics, which survive
            // the result cache, so these lines are byte-stable across
            // pool widths and cache state.
            let rows: Vec<(String, u64)> = summary
                .results
                .iter()
                .filter_map(|r| {
                    let label = r.name.strip_prefix("sweep[")?.strip_suffix(']')?;
                    let iter = *r.output.as_ref()?.metrics.get("iter_cycles")?;
                    Some((label.to_string(), iter))
                })
                .collect();
            for line in t3_spec::exec::speedup_summary(&rows) {
                println!("{line}");
            }
        }
        for result in &summary.results {
            let reason = match &result.status {
                JobStatus::Failed(e) => e,
                JobStatus::Skipped(e) => e,
                JobStatus::Ok | JobStatus::Cached => continue,
            };
            eprintln!("job {} failed: {}", result.name, reason);
        }
        if summary.cache_enabled {
            eprintln!(
                "cache: {} hit(s), {} miss(es) in {cache_dir}",
                summary.cache_hits, summary.cache_misses
            );
        }
        if let Some(path) = report_path {
            if let Err(e) = std::fs::write(&path, report_json(&summary)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_FAILED_JOBS);
            }
            eprintln!("wrote run report to {path}");
        }
        failed = !summary.ok();
    }

    if trace_path.is_some() || metrics_path.is_some() || analyze {
        let workload = topology
            .as_deref()
            .map_or("T-NLG FC-2 TP=8".to_string(), |t| {
                format!("multi-node TP=16 ({t})")
            });
        let (ins, cycles, clock_ghz) = match &topology {
            Some(name) => {
                let (ins, run, ghz) = experiments::traced_multinode(scale, name);
                (ins, run.cycles, ghz)
            }
            None => {
                let (ins, run, ghz) = experiments::traced_tnlg_sublayer(scale);
                (ins, run.cycles, ghz)
            }
        };
        eprintln!(
            "traced {workload} fused GEMM-RS: {cycles} cycles, {} events",
            ins.tracer.as_ref().map_or(0, |t| t.len())
        );
        if let Some(path) = trace_path {
            let tracer = ins.tracer.as_ref().expect("full instruments");
            let json = chrome_trace_json_named(tracer.records(), clock_ghz, &workload);
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_FAILED_JOBS);
            }
            eprintln!("wrote Chrome trace to {path} (load in ui.perfetto.dev)");
        }
        if analyze {
            let tracer = ins.tracer.as_ref().expect("full instruments");
            println!("== t3-prof analyze: {workload} ==");
            print!(
                "{}",
                prof_analyze::render(&Analysis::from_records(tracer.records()))
            );
            println!("== t3-prof collectives: {workload} ==");
            print!(
                "{}",
                prof_collective::render(&prof_collective::collective_records(tracer.records()))
            );
        }
        if let Some(path) = metrics_path {
            let metrics = ins.metrics.as_ref().expect("full instruments");
            let body = if path.ends_with(".csv") {
                metrics.to_csv()
            } else {
                metrics.to_json()
            };
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_FAILED_JOBS);
            }
            eprintln!("wrote metrics to {path}");
        }
    }
    if let Some(path) = trace_serving_path {
        let (ins, row, clock_ghz) = t3_serve::study::traced_serving(scale.token_divisor);
        let workload = format!(
            "serving {} @{}% load ({}, {})",
            row.topology,
            row.load_permille / 10,
            row.arrival.label(),
            row.mode.label()
        );
        let tracer = ins.tracer.as_ref().expect("full instruments");
        eprintln!(
            "traced {workload}: {} cycles, {} events",
            row.run.makespan,
            tracer.len()
        );
        let json = chrome_trace_json_named(tracer.records(), clock_ghz, &workload);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(EXIT_FAILED_JOBS);
        }
        eprintln!("wrote serving trace to {path} (analyze with `t3-prof requests {path}`)");
    }
    if failed {
        ExitCode::from(EXIT_FAILED_JOBS)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    eprintln!(
        "usage: figures [<table1|table2|table3|fig4|fig6|fig14|fig15|fig16|fig17|fig18|fig19|fig20|multinode|extensions|sweep|serving|serving-fused|all> ...] [<workload.t3w> <system.t3s>] [flags]"
    );
    eprintln!("spec sweeps:");
    eprintln!("  figures sweep <workload.t3w> <system.t3s>   expand the spec pair into one job per TP*PP*DP*EP point");
    eprintln!(
        "  (example specs live in examples/specs/; grammar in docs/ARCHITECTURE.md section 11)"
    );
    eprintln!("flags:");
    eprintln!("  --fast                 shrink workloads 8x in the token dimension");
    eprintln!("  --jobs <N>             worker pool width (default: available parallelism)");
    eprintln!("  --no-cache             bypass the result cache");
    eprintln!("  --cache-dir <dir>      result cache location (default: {DEFAULT_CACHE_DIR})");
    eprintln!("  --report <file>        write a JSON run report (per-job wall time + cycles)");
    eprintln!("  --topology <name>      fabric for multinode/traced runs: ring, fully-connected, switch, torus, hierarchical");
    eprintln!("  --trace <out.json>     write a Chrome trace of an instrumented fused GEMM-RS");
    eprintln!("  --trace-serving <out.json>    write a Chrome trace of the instrumented high-load serving point");
    eprintln!("  --metrics <out.json|out.csv>  write the traced run's metrics registry");
    eprintln!("  --analyze              print the traced run's critical-path breakdown and per-collective records");
    ExitCode::from(EXIT_USAGE)
}

/// The value following `flag`, if present.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("{flag} requires a value")),
        },
    }
}

/// Positional target names: everything that is not a flag or a flag's
/// value.
fn targets(args: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a == "--trace"
            || a == "--trace-serving"
            || a == "--metrics"
            || a == "--topology"
            || a == "--jobs"
            || a == "--cache-dir"
            || a == "--report"
        {
            i += 2; // flag + its value (validated by flag_value)
        } else if a == "--fast" || a == "--no-cache" || a == "--analyze" {
            i += 1;
        } else if a.starts_with("--") {
            return Err(format!("unknown flag: {a}"));
        } else {
            out.push(a.clone());
            i += 1;
        }
    }
    Ok(out)
}
