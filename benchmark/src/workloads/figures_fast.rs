//! `figures-fast`: what `ci.sh` runs, end to end.
//!
//! Every `figures` target except `ff-speedup` (which benchmarks the
//! simulator against itself), plus the `gpt3_3d_sweep.t3w` ×
//! `hierarchical.t3s` spec sweep, at `--fast`, as one `t3_runtime::run`
//! on two workers with no result cache. It is the repeated workload:
//! fig15/16/18/19 each re-simulate one sublayer matrix and most sweep
//! points re-simulate a sublayer another point already priced. It is
//! also the only workload that goes through `t3-runtime`, `t3-spec`,
//! `t3-models` and `t3-serve`. The job order is the CLI's, so the seed
//! does not change this workload.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use t3_bench::experiments::{main_study_models, ExperimentScale};
use t3_bench::jobs::{job_for, sweep_jobs, ALL_TARGETS};
use t3_core::configs::Configuration;
use t3_models::zoo::Sublayer;
use t3_runtime::{JobGraph, JobResult, JobStatus, RunOptions, RunSummary};
use t3_sim::{geomean, SimMode};
use t3_spec::sweep::SweepPlan;
use t3_spec::system::McPolicy;
use t3_spec::workload::ExecMode;
use t3_spec::{SystemSpec, WorkloadSpec};

use super::{ratio, Bench, Unit};
use crate::digest::OpHash;
use crate::registry::{Pin, FIGURE_TARGETS};
use crate::spans::Spans;

/// One line on why the benchmark runs this workload.
pub const WHY: &str = "what ci.sh runs: every figures target but ff-speedup plus the 3D spec sweep at --fast on 2 runtime workers; the heavily repeated workload and the only runtime/spec/serve user";

/// One sample's simulated cycles and result digest.
pub const PIN: Pin = Pin {
    sim_cycles: 41_104_306_752,
    digest: "02c8cb19cfe7cede",
};

/// Runtime workers: the host has two cores.
const WORKERS: usize = 2;

/// The checked-in spec pair, relative to the repository root.
const WORKLOAD_SPEC: &str = "examples/specs/gpt3_3d_sweep.t3w";
const SYSTEM_SPEC: &str = "examples/specs/hierarchical.t3s";

/// Targets whose jobs each simulate the main-study sublayer matrix.
const MATRIX_TARGETS: [&str; 4] = ["fig15", "fig16", "fig18", "fig19"];

/// The one op: a job graph to run, and the sweep it came from.
#[derive(Debug)]
pub struct Op {
    graph: RefCell<Option<JobGraph>>,
    plan: SweepPlan,
}

/// The `figures-fast` workload.
#[derive(Debug)]
pub struct FiguresFast;

fn read_spec(path: &str) -> String {
    let full = format!("{}/../{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {full}: {e}"))
}

impl Bench for FiguresFast {
    type Op = Op;
    type Out = RunSummary;

    fn setup(spans: &mut Spans) -> Vec<Op> {
        let (w, s) = spans.time("spec.parse", |_| {
            let w = WorkloadSpec::parse(WORKLOAD_SPEC, &read_spec(WORKLOAD_SPEC));
            let s = SystemSpec::parse(SYSTEM_SPEC, &read_spec(SYSTEM_SPEC));
            (
                w.expect("workload spec parses"),
                s.expect("system spec parses"),
            )
        });
        let plan = spans.time("spec.expand", |_| {
            SweepPlan::expand(WORKLOAD_SPEC, &w, &s).expect("sweep expands")
        });
        // `figures all <specs>` without `ff-speedup`: the legacy
        // targets in CLI order, then the sweep's jobs.
        let graph = spans.time("runtime.graph", |_| {
            let mut graph = JobGraph::new();
            for target in ALL_TARGETS.iter().filter(|&&t| t != "ff-speedup") {
                graph.add(
                    job_for(target, ExperimentScale::FAST, None).expect("listed targets are known"),
                );
            }
            for job in sweep_jobs(&plan, ExperimentScale::FAST) {
                graph.add(job);
            }
            graph
        });
        vec![Op {
            graph: RefCell::new(Some(graph)),
            plan,
        }]
    }

    fn run(op: &Op, spans: &mut Spans) -> RunSummary {
        let graph = op
            .graph
            .borrow_mut()
            .take()
            .expect("a sample runs its graph once");
        spans.time("runtime.run", |_| {
            t3_runtime::run(graph, &RunOptions::with_workers(WORKERS))
        })
    }

    fn units(_: &Op, out: &RunSummary) -> Vec<Unit> {
        out.results
            .iter()
            .map(|r| {
                let mut h = OpHash::new(&r.name).str(r.status.label());
                let mut cycles = 0;
                if let Some(o) = &r.output {
                    h = h.str(&o.stdout).u64(o.sim_cycles);
                    for (k, &v) in &o.metrics {
                        h = h.str(k).u64(v);
                    }
                    cycles = o.sim_cycles;
                }
                let error = match &r.status {
                    JobStatus::Failed(e) | JobStatus::Skipped(e) => {
                        Some(format!("job {} failed: {e}", r.name))
                    }
                    JobStatus::Ok | JobStatus::Cached => None,
                };
                Unit {
                    hash: h.finish(),
                    cycles,
                    error,
                }
            })
            .collect()
    }

    fn finish(
        ops: &[Op],
        outs: &[Option<RunSummary>],
        spans: &mut Spans,
        layers: &mut BTreeMap<String, f64>,
    ) -> Vec<(usize, String)> {
        if let Some(Some(summary)) = outs.first() {
            runtime_layers(summary, layers);
            sweep_layers(&summary.results, layers);
        }
        if let Some(op) = ops.first() {
            let (calls, distinct) = sublayer_keys(&op.plan);
            layers.insert("core.configs.calls".into(), calls);
            layers.insert(
                "core.configs.repeat_share".into(),
                ratio(calls - distinct, calls),
            );
        }
        let setup_s = spans.seconds("bench.setup");
        for layer in ["spec.parse", "spec.expand", "runtime.graph"] {
            layers.insert(
                format!("{layer}.setup_share"),
                ratio(spans.seconds(layer), setup_s),
            );
        }
        // Failed jobs fail their own units; nothing else to cross-check.
        Vec::new()
    }
}

fn is_sweep_job(name: &str) -> bool {
    name.starts_with("sweep[") || name == "sweep-header"
}

/// Where the runtime's workers spent their time, from each job's own
/// wall clock (`JobResult::wall_ns`).
fn runtime_layers(summary: &RunSummary, layers: &mut BTreeMap<String, f64>) {
    let wall = |r: &JobResult| r.wall_ns as f64;
    let busy: f64 = summary.results.iter().map(wall).sum();
    let total = summary.total_wall_ns as f64;
    let longest = summary.results.iter().map(wall).fold(0.0, f64::max);
    let share_of = |pred: &dyn Fn(&str) -> bool| {
        ratio(
            summary
                .results
                .iter()
                .filter(|r| pred(&r.name))
                .map(wall)
                .sum(),
            busy,
        )
    };
    layers.insert("runtime.jobs".into(), summary.results.len() as f64);
    layers.insert(
        "runtime.idle_share".into(),
        1.0 - ratio(busy, summary.workers as f64 * total),
    );
    layers.insert("runtime.longest_job_share".into(), ratio(longest, total));
    for target in FIGURE_TARGETS {
        layers.insert(
            format!("bench.job.{target}.busy_share"),
            share_of(&|n| n == target),
        );
    }
    layers.insert("spec.exec.busy_share".into(), share_of(&is_sweep_job));
    layers.insert(
        "core.configs.host_share".into(),
        share_of(&|n| MATRIX_TARGETS.contains(&n)),
    );
}

/// The sweep's exposed cycles and its T3-MCA speed-up: the geomean of
/// sequential ÷ fused iteration cycles over the sequential/fused pairs.
fn sweep_layers(results: &[JobResult], layers: &mut BTreeMap<String, f64>) {
    let mut iters: BTreeMap<(String, bool), u64> = BTreeMap::new();
    let (mut points, mut pp, mut dp) = (0.0, 0.0, 0.0);
    for r in results {
        let (Some(label), Some(o)) = (
            r.name
                .strip_prefix("sweep[")
                .and_then(|l| l.strip_suffix(']')),
            &r.output,
        ) else {
            continue;
        };
        points += 1.0;
        let metric = |k: &str| o.metrics.get(k).copied().unwrap_or(0) as f64;
        pp += metric("pp_exposed_cycles");
        dp += metric("dp_exposed_cycles");
        for (mode, fused) in [(ExecMode::Sequential, false), (ExecMode::T3Mca, true)] {
            if let Some(base) = label.strip_suffix(&format!(" {}", mode.label())) {
                iters.insert((base.to_string(), fused), o.sim_cycles);
            }
        }
    }
    let speedups: Vec<f64> = iters
        .iter()
        .filter(|((_, fused), _)| !fused)
        .filter_map(|((base, _), &seq)| {
            Some(seq as f64 / *iters.get(&(base.clone(), true))? as f64)
        })
        .collect();
    layers.insert("spec.exec.calls".into(), points);
    layers.insert("spec.exec.pp_exposed_cycles".into(), pp);
    layers.insert("spec.exec.dp_exposed_cycles".into(), dp);
    layers.insert("sim.t3mca_speedup".into(), geomean(&speedups));
}

/// Counts the `Configuration::run` calls the matrix jobs and the sweep
/// make, and how many of them repeat a (configuration, system, shape,
/// mode) key. Other jobs' internal calls are not enumerated.
///
/// An estimate: the jobs report no shapes, so this re-derives them the
/// way `run_sublayer_matrix` and `t3_spec::exec::simulate_point` do
/// (mode and MC policy to configuration, per-micro-batch tokens scaled
/// by the token divisor, at least 256). A change to that lowering which
/// moves a result also moves this workload's pinned cycles and digest;
/// a test pins the estimate itself.
fn sublayer_keys(plan: &SweepPlan) -> (f64, f64) {
    let mut keys: Vec<String> = Vec::new();
    let link = t3_sim::config::SystemConfig::paper_default().link;
    let link = format!("{}/{}", link.link_gb_s, link.latency_ns);
    let fast = ExperimentScale::FAST.token_divisor;
    for _ in MATRIX_TARGETS {
        for (model, tp) in main_study_models() {
            for sub in Sublayer::ALL {
                let mut s = model.sublayer_gemm(sub, tp);
                s.m = (s.m / fast).max(256);
                for config in Configuration::ALL {
                    let sim = SimMode::default();
                    keys.push(format!("{config:?} tp={tp} {link} {s:?} {sim:?}"));
                }
            }
        }
    }
    for p in &plan.points {
        let config = match (p.mode, p.policy) {
            (ExecMode::Sequential, _) => Configuration::Sequential,
            (ExecMode::T3Mca, McPolicy::Mca) => Configuration::T3Mca,
            (ExecMode::T3Mca, McPolicy::RoundRobin) => Configuration::T3,
        };
        let m = (p.model.tokens().div_ceil(p.microbatches) / fast).max(256);
        let link = format!("{}/{}", p.link_gb_s, p.latency_ns);
        for sub in Sublayer::ALL {
            let mut s = p.model.sublayer_gemm(sub, p.tp);
            s.m = m;
            keys.push(format!("{config:?} tp={} {link} {s:?} {:?}", p.tp, p.sim));
        }
    }
    let distinct = keys.iter().collect::<BTreeSet<_>>().len() as f64;
    (keys.len() as f64, distinct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_quarters_of_the_sublayer_simulations_repeat() {
        let mut spans = Spans::new(false);
        let ops = FiguresFast::setup(&mut spans);
        let (calls, distinct) = sublayer_keys(&ops[0].plan);
        // Four matrix jobs of 80 calls on 80 keys, and 64 sweep calls
        // on 16 keys.
        assert_eq!((calls, distinct), (384.0, 96.0));
        assert_eq!(ratio(calls - distinct, calls), 0.75);
    }
}
