//! Figure regeneration as enumerable runtime jobs.
//!
//! Every `figures` target is one [`Job`]: a named closure that builds
//! its table off-thread and returns the exact bytes a sequential run
//! would have printed, plus the simulated-cycle tally. The
//! [`t3_runtime`] scheduler merges outputs in submission order, so
//! `figures all --jobs N` is byte-identical to `--jobs 1` — which is
//! itself byte-identical to the historical sequential loop.
//!
//! Job identity for the result cache is the canonical fingerprint of
//! everything that shapes the output: the target name, the workload
//! scale, the topology (for the one target that reads it), and
//! [`WORKLOAD_REV`].

use t3_runtime::{Fingerprint, FingerprintBuilder, Job, JobGraph, JobOutput};
use t3_spec::sweep::{SweepPlan, SPEC_REV};
use t3_spec::{exec, SystemSpec, WorkloadSpec};

use crate::experiments::{self, ExperimentScale};
use crate::report::Table;

/// Workload revision folded into every job fingerprint. The
/// fingerprint covers the experiment *config*, not the simulator
/// *code* — bump this whenever a simulator or experiment change must
/// invalidate previously cached results.
pub const WORKLOAD_REV: u64 = 1;

/// Every figures target, in `figures all` emission order.
pub const ALL_TARGETS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig4",
    "fig6",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "multinode",
    "extensions",
    "sweep",
    "serving",
    "serving-fused",
];

/// A cheap-but-representative target subset for smoke tests of the
/// parallel path: the analytic tables plus three genuinely simulating
/// targets (the fig4 overlap anatomy, the fig14 validation runs, and
/// the serving study so the perf gate covers serving cycles). Kept
/// fast enough for debug-profile test binaries — the heavy
/// matrix/multinode targets are exercised by `figures all` in CI's
/// release smoke run instead.
pub const SMOKE_TARGETS: &[&str] = &["table1", "table2", "table3", "fig4", "fig14", "serving"];

/// The canonical config fingerprint of one target's job. `topology`
/// participates only for the `multinode` target — the only one whose
/// output depends on it — so a `--topology` flag never invalidates
/// unrelated cache entries.
pub fn fingerprint_for(
    target: &str,
    scale: ExperimentScale,
    topology: Option<&str>,
) -> Fingerprint {
    let b = FingerprintBuilder::new()
        .str("experiment", "t3-figures")
        .u64("workload_rev", WORKLOAD_REV)
        .str("target", target)
        .u64("token_divisor", scale.token_divisor);
    if target == "multinode" {
        b.opt_str("topology", topology).finish()
    } else {
        b.finish()
    }
}

/// What `println!("{table}")` would have emitted, as a [`JobOutput`].
fn render(table: &Table) -> JobOutput {
    let mut out = JobOutput::text(format!("{table}\n"));
    out.sim_cycles = table.sim_cycles();
    out
}

/// Builds the job for one target; `None` for unknown target names.
pub fn job_for(target: &str, scale: ExperimentScale, topology: Option<&str>) -> Option<Job> {
    let fp = fingerprint_for(target, scale, topology);
    let topology: Option<String> = topology.map(str::to_string);
    let table: Box<dyn FnOnce() -> Table + Send> = match target {
        "table1" => Box::new(experiments::table1),
        "table2" => Box::new(experiments::table2),
        "table3" => Box::new(experiments::table3),
        "fig4" => Box::new(experiments::fig4),
        "fig6" => Box::new(move || experiments::fig6(scale)),
        "fig14" => Box::new(experiments::fig14),
        "fig15" => Box::new(move || {
            experiments::fig15(&experiments::run_sublayer_matrix(
                &experiments::main_study_models(),
                scale,
            ))
        }),
        "fig16" => Box::new(move || {
            experiments::fig16(&experiments::run_sublayer_matrix(
                &experiments::main_study_models(),
                scale,
            ))
        }),
        "fig17" => Box::new(move || experiments::fig17(scale)),
        "fig18" => Box::new(move || {
            experiments::fig18(&experiments::run_sublayer_matrix(
                &experiments::main_study_models(),
                scale,
            ))
        }),
        "fig19" => Box::new(move || experiments::fig19(scale)),
        "fig20" => Box::new(move || experiments::fig20(scale)),
        "multinode" => Box::new(move || experiments::multinode(scale, topology.as_deref())),
        "extensions" => Box::new(move || experiments::extensions(scale)),
        "sweep" => Box::new(experiments::sweep),
        "serving" => Box::new(move || experiments::serving(scale)),
        "serving-fused" => Box::new(move || experiments::serving_fused(scale)),
        _ => return None,
    };
    Some(Job::new(target, fp, move || render(&table())))
}

/// Reads and expands a workload/system spec pair from disk. Errors
/// are the spec frontend's `file:line` diagnostics (or the I/O
/// failure), ready for the CLI's usage path.
pub fn load_sweep_plan(workload_path: &str, system_path: &str) -> Result<SweepPlan, String> {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let w = WorkloadSpec::parse(workload_path, &read(workload_path)?).map_err(|e| e.to_string())?;
    let s = SystemSpec::parse(system_path, &read(system_path)?).map_err(|e| e.to_string())?;
    SweepPlan::expand(workload_path, &w, &s).map_err(|e| e.to_string())
}

/// One expanded sweep as runtime jobs: a header job (banner + column
/// line) followed by one job per point, in enumeration order. Point
/// fingerprints come from the spec content ([`t3_spec::ResolvedPoint`]
/// fields plus the scale), so reruns and textually identical specs hit
/// the cache while any semantic edit misses.
pub fn sweep_jobs(plan: &SweepPlan, scale: ExperimentScale) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(plan.points.len() + 1);
    let header_fp = FingerprintBuilder::new()
        .str("experiment", "t3-sweep-header")
        .u64("spec_rev", SPEC_REV)
        .str("workload", &plan.workload)
        .str("system", &plan.system)
        .finish();
    let header = exec::header_lines(&plan.workload, &plan.system);
    jobs.push(Job::new("sweep-header", header_fp, move || {
        JobOutput::text(header)
    }));
    for point in &plan.points {
        let name = format!("sweep[{}]", point.label());
        let fp = point.fingerprint(scale.token_divisor);
        let point = point.clone();
        jobs.push(Job::new(&name, fp, move || {
            let out = exec::simulate_point(&point, scale.token_divisor);
            let mut job_out = JobOutput::text(exec::row_line(&out));
            job_out.sim_cycles = out.iter_cycles;
            job_out
                .metrics
                .insert("iter_cycles".into(), out.iter_cycles);
            job_out
                .metrics
                .insert("pp_exposed_cycles".into(), out.pp_exposed_cycles);
            job_out
                .metrics
                .insert("dp_exposed_cycles".into(), out.dp_exposed_cycles);
            job_out
        }));
    }
    jobs
}

/// Builds the dependency-free job graph for a target list, expanding
/// `all` in place. Errors name the first unknown target.
pub fn figure_job_graph(
    targets: &[String],
    scale: ExperimentScale,
    topology: Option<&str>,
) -> Result<JobGraph, String> {
    figure_job_graph_with_sweep(targets, scale, topology, None)
}

/// [`figure_job_graph`] plus an optional expanded spec sweep. With a
/// plan, an explicit `sweep` target becomes the spec jobs (so
/// `figures sweep w.t3w s.t3s` runs exactly the sweep); `all` keeps
/// its historical meaning — the legacy target list, including the
/// compute-scaling `sweep` table — and the spec jobs append at the
/// end when no explicit `sweep` target claimed them.
pub fn figure_job_graph_with_sweep(
    targets: &[String],
    scale: ExperimentScale,
    topology: Option<&str>,
    sweep: Option<&SweepPlan>,
) -> Result<JobGraph, String> {
    let mut graph = JobGraph::new();
    let mut sweep_added = false;
    for target in targets {
        if target == "all" {
            for t in ALL_TARGETS {
                graph.add(job_for(t, scale, topology).expect("ALL_TARGETS are known"));
            }
        } else if target == "sweep" && sweep.is_some() {
            for job in sweep_jobs(sweep.expect("checked"), scale) {
                graph.add(job);
            }
            sweep_added = true;
        } else {
            let job = job_for(target, scale, topology)
                .ok_or_else(|| format!("unknown target: {target}"))?;
            graph.add(job);
        }
    }
    if let Some(plan) = sweep {
        if !sweep_added {
            for job in sweep_jobs(plan, scale) {
                graph.add(job);
            }
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_all_target_resolves() {
        for t in ALL_TARGETS {
            assert!(
                job_for(t, ExperimentScale::FAST, None).is_some(),
                "target {t} must build"
            );
        }
        assert!(job_for("nonsense", ExperimentScale::FAST, None).is_none());
    }

    #[test]
    fn smoke_targets_are_a_subset_of_all() {
        for t in SMOKE_TARGETS {
            assert!(ALL_TARGETS.contains(t), "{t} missing from ALL_TARGETS");
        }
    }

    #[test]
    fn fingerprints_separate_targets_scales_and_topology() {
        let fast = ExperimentScale::FAST;
        let full = ExperimentScale::FULL;
        assert_ne!(
            fingerprint_for("fig16", fast, None),
            fingerprint_for("fig15", fast, None)
        );
        assert_ne!(
            fingerprint_for("fig16", fast, None),
            fingerprint_for("fig16", full, None)
        );
        // Topology shapes only the multinode output...
        assert_ne!(
            fingerprint_for("multinode", fast, Some("switch")),
            fingerprint_for("multinode", fast, None)
        );
        // ...and is deliberately ignored everywhere else.
        assert_eq!(
            fingerprint_for("fig16", fast, Some("switch")),
            fingerprint_for("fig16", fast, None)
        );
        // Stability: same config, same fingerprint.
        assert_eq!(
            fingerprint_for("fig16", fast, None),
            fingerprint_for("fig16", fast, None)
        );
    }

    #[test]
    fn graph_expands_all_in_order() {
        let graph =
            figure_job_graph(&["all".to_string()], ExperimentScale::FAST, None).expect("builds");
        assert_eq!(graph.len(), ALL_TARGETS.len());
        assert_eq!(graph.names().collect::<Vec<_>>(), ALL_TARGETS);
        let err = figure_job_graph(&["bogus".to_string()], ExperimentScale::FAST, None)
            .expect_err("unknown target");
        assert!(err.contains("bogus"));
    }

    /// A 2-point sweep plan parsed from inline spec text, so the
    /// sweep-path tests exercise the same frontend as the CLI.
    fn tiny_plan(seq_len: u64) -> SweepPlan {
        let w = format!(
            "workload \"tiny\"\n[model]\nzoo = t-nlg\nseq_len = {seq_len}\n\
             [sweep]\nmode = [sequential, t3mca]\n"
        );
        let s = "system \"mini\"\n[topology]\nkind = ring\n";
        let w = WorkloadSpec::parse("tiny.t3w", &w).expect("workload parses");
        let s = SystemSpec::parse("mini.t3s", s).expect("system parses");
        SweepPlan::expand("tiny.t3w", &w, &s).expect("expands")
    }

    #[test]
    fn sweep_jobs_emit_header_then_points_in_plan_order() {
        let plan = tiny_plan(512);
        let jobs = sweep_jobs(&plan, ExperimentScale::FAST);
        assert_eq!(jobs.len(), plan.points.len() + 1);
        assert_eq!(jobs[0].name(), "sweep-header");
        for (job, point) in jobs[1..].iter().zip(&plan.points) {
            assert_eq!(job.name(), format!("sweep[{}]", point.label()));
        }
    }

    #[test]
    fn sweep_fingerprints_derive_from_spec_content() {
        let a = sweep_jobs(&tiny_plan(512), ExperimentScale::FAST);
        let b = sweep_jobs(&tiny_plan(512), ExperimentScale::FAST);
        let edited = sweep_jobs(&tiny_plan(1024), ExperimentScale::FAST);
        let full = sweep_jobs(&tiny_plan(512), ExperimentScale::FULL);
        // Textually identical specs hit the cache...
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint(), y.fingerprint());
        }
        // ...a semantic edit misses on every point...
        for (x, y) in a[1..].iter().zip(&edited[1..]) {
            assert_ne!(x.fingerprint(), y.fingerprint());
        }
        // ...and so does a scale change (token divisor is hashed).
        for (x, y) in a[1..].iter().zip(&full[1..]) {
            assert_ne!(x.fingerprint(), y.fingerprint());
        }
    }

    #[test]
    fn explicit_sweep_target_runs_the_spec_jobs() {
        let plan = tiny_plan(512);
        let graph = figure_job_graph_with_sweep(
            &["sweep".to_string()],
            ExperimentScale::FAST,
            None,
            Some(&plan),
        )
        .expect("builds");
        let names: Vec<_> = graph.names().collect();
        assert_eq!(names[0], "sweep-header");
        assert_eq!(names.len(), plan.points.len() + 1);
        // Without a plan, `sweep` keeps its legacy compute-scaling
        // meaning: a single job of that name.
        let legacy =
            figure_job_graph(&["sweep".to_string()], ExperimentScale::FAST, None).expect("builds");
        assert_eq!(legacy.names().collect::<Vec<_>>(), vec!["sweep"]);
    }

    #[test]
    fn spec_pair_without_sweep_target_appends_the_jobs() {
        let plan = tiny_plan(512);
        let graph = figure_job_graph_with_sweep(
            &["table1".to_string()],
            ExperimentScale::FAST,
            None,
            Some(&plan),
        )
        .expect("builds");
        let names: Vec<_> = graph.names().collect();
        assert_eq!(names[0], "table1");
        assert_eq!(names[1], "sweep-header");
        assert_eq!(names.len(), plan.points.len() + 2);
    }

    #[test]
    fn job_output_matches_direct_call() {
        let job = job_for("table1", ExperimentScale::FAST, None).expect("known");
        assert_eq!(job.name(), "table1");
        // The runtime runs the closure on a worker; call the
        // experiment directly here and compare the bytes.
        let direct = format!("{}\n", experiments::table1());
        let summary = t3_runtime::run(
            {
                let mut g = JobGraph::new();
                g.add(job);
                g
            },
            &t3_runtime::RunOptions::with_workers(1),
        );
        assert_eq!(summary.merged_stdout(), direct);
    }
}
