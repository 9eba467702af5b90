//! Every metric the benchmark reports, and the pinned outputs it
//! checks. `BENCHMARK.json` at the repository root lists the same
//! names, units, directions and bounds; [`check_manifest`] keeps the
//! two in step, and the benchmark refuses to run when they differ.

use crate::json::{self, obj, Value};
use crate::stats::{median, Better};
use crate::workloads::Workload;

/// `BENCHMARK.json` as built into the binary.
pub const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The bound of a deterministic metric: positive, but smaller than one
/// unit's share of any value it is applied to.
pub const EXACT: f64 = 1e-12;

/// How a run turns a metric's samples into its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The median sample.
    Median,
    /// The mean sample.
    Mean,
    /// The smallest sample.
    Min,
}

impl Stat {
    /// The run's value of `samples` (0 for none).
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Stat::Median => median(samples),
            Stat::Mean if samples.is_empty() => 0.0,
            Stat::Mean => samples.iter().sum::<f64>() / samples.len() as f64,
            Stat::Min => samples.iter().copied().reduce(f64::min).unwrap_or(0.0),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
    /// How a run reduces the metric's samples to one value.
    pub stat: Stat,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
        stat: Stat::Median,
    }
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    // Host time is the mean over a run's samples, not the median. The
    // host switches between a fast and a slow state (up to 1.7x apart)
    // for tens of seconds at a time, so a run's samples fall into two
    // groups and their median jumps to whichever group holds the
    // middle one; the mean is the run's share of slow time, which
    // moves far less between runs.
    vec![
        // Mean wall time of one fresh sample process, spawn to exit.
        Metric {
            stat: Stat::Mean,
            ..metric("wall_s", "s", Lower, Some(0.25))
        },
        // Median time to build a workload's inputs (spec parse and
        // expansion, fabric routing, job graph, op list), over the set-up
        // probes spread through a run.
        metric("setup_s", "s", Lower, Some(0.25)),
        // Smallest peak resident set (`VmHWM`) of the run's sample
        // processes. Two runtime workers or shards overlap their largest
        // allocations in one sample and not in the next, adding up to a
        // third to that sample's peak; the smallest peak is the
        // workload's own footprint.
        Metric {
            stat: Stat::Min,
            ..metric("peak_rss_mib", "MiB", Lower, Some(0.15))
        },
        // Simulated cycles per second of sample wall time, mean over
        // the run's samples.
        Metric {
            stat: Stat::Mean,
            ..metric("sim_cycles_per_s", "1/s", Higher, Some(0.25))
        },
        // Simulated cycles of one sample: exact. The bound is far below
        // one cycle's share of any workload's total, so `compare` flags
        // any change, and the pin makes any change a failed check too.
        metric("sim_cycles", "cycles", Lower, Some(EXACT)),
    ]
}

/// Names of the workload's figures jobs reported one by one: every
/// `figures` target except `ff-speedup`.
pub const FIGURE_TARGETS: [&str; 17] = [
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

/// The `fabric-16` cases with an instrumented replay (the sharded
/// engine takes no instruments).
pub const TRACED_FABRICS: [&str; 4] = ["ring", "switch", "hierarchical", "internode"];

/// Every `fabric-16` case.
pub const FABRIC_CASES: [&str; 5] = ["ring", "switch", "hierarchical", "internode", "sharded2"];

/// The per-layer metrics, measured in a traced sample. Every workload
/// reports every name; a layer a workload never calls reads 0. Host
/// times are seconds only where every workload has the layer; the
/// others are shares of a measured time, so a layer absent from a
/// workload is a zero share rather than a zero time.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut m = vec![
        metric("bench.setup.host_s", "s", Lower, None),
        metric("bench.ops.host_s", "s", Lower, None),
        metric("trace.overhead_s", "s", Lower, None),
        metric("bench.ops.count", "count", Higher, None),
        metric("bench.replay.coverage", "ratio", Higher, None),
        metric("core.configs.calls", "count", Lower, None),
        metric("core.configs.repeat_share", "ratio", Lower, None),
        metric("core.configs.host_share", "ratio", Lower, None),
        metric("gpu.engine.calls", "count", Lower, None),
        metric("gpu.engine.repeat_share", "ratio", Lower, None),
        metric("gpu.engine.host_share", "ratio", Lower, None),
        metric("gpu.engine.cycles_per_s", "1/s", Higher, None),
        metric("core.engine.calls", "count", Lower, None),
        metric("core.engine.repeat_share", "ratio", Lower, None),
        metric("core.engine.host_share", "ratio", Lower, None),
        metric("core.engine.cycles_per_s", "1/s", Higher, None),
        metric("core.engine.dma_transfers", "count", Lower, None),
        metric("core.engine.peak_tracker_entries", "count", Lower, None),
        metric("gpu.collective.calls", "count", Lower, None),
        metric("gpu.collective.repeat_share", "ratio", Lower, None),
        metric("gpu.collective.host_share", "ratio", Lower, None),
        metric("core.multigpu.calls", "count", Lower, None),
        metric("core.multigpu.host_share", "ratio", Lower, None),
    ];
    for case in FABRIC_CASES {
        m.push(metric(
            format!("core.multigpu.cycles_per_s.{case}"),
            "1/s",
            Higher,
            None,
        ));
    }
    m.extend([
        metric("core.multigpu.sharded2_speedup", "ratio", Higher, None),
        metric("core.multigpu.wire_bytes", "bytes", Lower, None),
        metric("core.multigpu.dma_transfers", "count", Lower, None),
        metric("topo.build.calls", "count", Lower, None),
        metric("topo.build.setup_share", "ratio", Lower, None),
        metric("spec.parse.setup_share", "ratio", Lower, None),
        metric("spec.expand.setup_share", "ratio", Lower, None),
        metric("runtime.graph.setup_share", "ratio", Lower, None),
        metric("spec.exec.calls", "count", Lower, None),
        metric("spec.exec.busy_share", "ratio", Lower, None),
        metric("runtime.jobs", "count", Lower, None),
        metric("runtime.idle_share", "ratio", Lower, None),
        metric("runtime.longest_job_share", "ratio", Lower, None),
    ]);
    for target in FIGURE_TARGETS {
        m.push(metric(
            format!("bench.job.{target}.busy_share"),
            "ratio",
            Lower,
            None,
        ));
    }
    m.extend([
        metric("trace.events", "count", Lower, None),
        metric("trace.export.bytes", "bytes", Lower, None),
        metric("trace.export.host_share", "ratio", Lower, None),
        metric("prof.load.host_share", "ratio", Lower, None),
        metric("prof.analyze.host_share", "ratio", Lower, None),
    ]);
    for case in TRACED_FABRICS {
        m.push(metric(
            format!("prof.ff_leaps.{case}"),
            "count",
            Lower,
            None,
        ));
    }
    for case in TRACED_FABRICS {
        m.push(metric(
            format!("prof.ff_cycles_share.{case}"),
            "ratio",
            Higher,
            None,
        ));
    }
    m.extend([
        metric("prof.overlap_permille", "permille", Higher, None),
        metric("prof.exposed_collective_cycles", "cycles", Lower, None),
        metric("mem.traffic.gemm_read_bytes", "bytes", Lower, None),
        metric("mem.traffic.gemm_write_bytes", "bytes", Lower, None),
        metric("mem.traffic.rs_read_bytes", "bytes", Lower, None),
        metric("mem.traffic.rs_update_bytes", "bytes", Lower, None),
        metric("mem.traffic.ag_read_bytes", "bytes", Lower, None),
        metric("mem.llc.hit_ratio", "ratio", Higher, None),
        metric("mem.mc.queue_depth_mean", "entries", Lower, None),
        metric("mem.mc.stream_switches", "count", Lower, None),
        metric("sim.gemm_cycles", "cycles", Lower, None),
        metric("sim.rs_cycles", "cycles", Lower, None),
        metric("sim.ag_cycles", "cycles", Lower, None),
        metric("spec.exec.pp_exposed_cycles", "cycles", Lower, None),
        metric("spec.exec.dp_exposed_cycles", "cycles", Lower, None),
        metric("sim.t3_speedup", "ratio", Higher, None),
        metric("sim.t3mca_speedup", "ratio", Higher, None),
        metric("sim.ideal_overlap_speedup", "ratio", Higher, None),
        metric("sim.paper_gap_pct", "%", Lower, None),
    ]);
    m
}

/// A workload's pinned outputs: simulated cycles of one sample and the
/// order-independent digest of its per-op results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// FNV-1a digest, as 16 hex digits.
    pub digest: &'static str,
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `m` as `BENCHMARK.json` lists it.
fn entry(m: &Metric) -> Value {
    let mut pairs = vec![
        ("name", m.name.as_str().into()),
        ("unit", m.unit.into()),
        ("better", m.better.label().into()),
    ];
    if let Some(b) = m.bound {
        pairs.push(("bound", b.into()));
    }
    obj(pairs)
}

/// Checks that the registry is well formed and that `text` (a
/// `BENCHMARK.json`) lists exactly its workloads and metrics, in order,
/// with the same units, directions and bounds, within the file's
/// limits. Returns the first difference.
pub fn check_manifest(text: &str) -> Result<(), String> {
    let fail = |ok: bool, why: String| if ok { Ok(()) } else { Err(why) };
    let (e2e, layer) = (end_to_end(), per_layer());
    fail(
        (1..=16).contains(&e2e.len()),
        "1 to 16 end-to-end metrics".into(),
    )?;
    fail(
        (1..=128).contains(&layer.len()),
        "1 to 128 layer metrics".into(),
    )?;
    let mut names = std::collections::BTreeSet::new();
    for m in e2e.iter().chain(&layer) {
        fail(valid_name(&m.name), format!("bad metric name {}", m.name))?;
        fail(
            valid_unit(m.unit),
            format!("bad unit {} of {}", m.unit, m.name),
        )?;
        fail(names.insert(&m.name), format!("{} listed twice", m.name))?;
    }
    for m in &e2e {
        let ok = m.bound.is_some_and(|b| b > 0.0 && b <= 0.25);
        fail(ok, format!("{} needs a bound in (0, 0.25]", m.name))?;
    }
    fail(
        layer.iter().all(|m| m.bound.is_none()),
        "layer metrics have no bound".into(),
    )?;
    let setup = e2e.iter().find(|m| m.name == "setup_s");
    fail(
        setup.is_some_and(|s| (s.unit, s.better) == ("s", Better::Lower))
            && e2e.iter().all(|m| m.bound <= setup.and_then(|s| s.bound)),
        "setup_s, in s, lower is better, with the largest bound".into(),
    )?;
    for w in Workload::ALL {
        fail(
            w.why().len() <= 200 && !w.why().contains('\n'),
            format!("{}: why is not one short line", w.name()),
        )?;
    }

    fail(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB".into())?;
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let keys: Vec<&str> = doc
        .as_obj()
        .map(|m| m.keys().map(String::as_str).collect())
        .unwrap_or_default();
    fail(
        keys == [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads",
        ],
        format!("BENCHMARK.json keys {keys:?}"),
    )?;
    let list = |k: &str| doc.get(k).and_then(Value::as_arr).unwrap_or_default();
    fail(
        list("end_to_end") == e2e.iter().map(entry).collect::<Vec<_>>(),
        "BENCHMARK.json end_to_end differs from the registry".into(),
    )?;
    fail(
        list("per_layer") == layer.iter().map(entry).collect::<Vec<_>>(),
        "BENCHMARK.json per_layer differs from the registry".into(),
    )?;
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| obj([("name", w.name().into()), ("why", w.why().into())]))
        .collect();
    fail(
        list("workloads") == workloads,
        "BENCHMARK.json workloads differ from the registry".into(),
    )?;
    fail(
        list("paths") == [Value::from("benchmark")],
        "BENCHMARK.json paths must be [\"benchmark\"]".into(),
    )?;
    let command = list("command");
    fail(
        !command.is_empty()
            && command.len() <= 32
            && command.iter().all(|a| {
                a.as_str()
                    .is_some_and(|a| a.len() <= 200 && !a.starts_with('/') && !a.contains(".."))
            }),
        "BENCHMARK.json command: 1 to 32 relative strings".into(),
    )?;
    let seconds = doc.get("run_seconds").and_then(Value::as_f64);
    fail(
        seconds.is_some_and(|s| s.fract() == 0.0 && (1.0..=60.0).contains(&s)),
        "BENCHMARK.json run_seconds: a whole number from 1 to 60".into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reduce_samples() {
        assert_eq!(Stat::Median.of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(Stat::Mean.of(&[3.0, 1.0, 5.0]), 3.0);
        assert_eq!(Stat::Mean.of(&[]), 0.0);
        assert_eq!(Stat::Min.of(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(Stat::Min.of(&[]), 0.0);
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        assert_eq!(check_manifest(MANIFEST), Ok(()));
    }

    #[test]
    fn a_drifted_manifest_is_refused() {
        for (from, to) in [
            ("\"wall_s\"", "\"wall_time_s\""),
            ("\"bound\": 0.15", "\"bound\": 0.2"),
            ("\"run_seconds\": 30", "\"run_seconds\": 30.5"),
            (
                "\"name\": \"trace.events\"",
                "\"name\": \"trace.event_count\"",
            ),
        ] {
            assert!(MANIFEST.contains(from), "{from}");
            assert!(check_manifest(&MANIFEST.replace(from, to)).is_err(), "{to}");
        }
        assert!(check_manifest("{}").is_err());
    }

    #[test]
    fn the_exact_bound_is_below_one_cycle_of_every_pin() {
        for w in Workload::ALL {
            assert!(EXACT * (w.pin().sim_cycles as f64) < 1.0, "{}", w.name());
        }
    }
}
