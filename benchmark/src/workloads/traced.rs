//! `traced`: the engines with full instrumentation, then the trace
//! pipeline a user runs on their output.
//!
//! Three instrumented runs at paper scale — the T-NLG FC-2 TP=8 fused
//! sublayer (`figures --trace`), the hierarchical 16-GPU run (`figures
//! --topology hierarchical --trace`) and the high-load serving point
//! (`figures --trace-serving`) — each exported with
//! `chrome_trace_json_named`, loaded back with `t3_prof`'s parser and
//! analysed (`t3-prof analyze`, `collectives`, `requests`). It is the
//! only workload that records events next to the simulation and the
//! only user of `t3-trace` and `t3-prof`; every other workload passes
//! no instruments and should not move when instrumentation gets
//! dearer.

use std::collections::BTreeMap;

use t3_core::engine::{run_fused_gemm_rs_instrumented, FusedOptions, PolicyChoice};
use t3_core::multigpu::run_multi_gpu_fused_rs_on;
use t3_gpu::gemm::GemmGrid;
use t3_models::zoo::{self, Sublayer};
use t3_prof::analyze::Analysis;
use t3_prof::collective::collective_records;
use t3_prof::load::parse_chrome_trace;
use t3_prof::serve::request_outcomes;
use t3_sim::config::SystemConfig;
use t3_topo::Topology;
use t3_trace::chrome::chrome_trace_json_named;
use t3_trace::{Event, Instruments, MetricsRegistry};

use super::{add_traffic, ratio, Bench, MemCounters, Unit};
use crate::digest::OpHash;
use crate::registry::Pin;
use crate::spans::Spans;

/// One line on why the benchmark runs this workload.
pub const WHY: &str = "the engines with full instrumentation plus Chrome export and t3-prof analyze/collectives/requests; the only trace/prof user, every other workload runs uninstrumented";

/// One sample's simulated cycles and result digest.
pub const PIN: Pin = Pin {
    sim_cycles: 638_746_273,
    digest: "730678f81dd929e0",
};

/// One instrumented run and its trace passes.
#[derive(Debug)]
pub enum Op {
    /// The fused T-NLG FC-2 sublayer at TP=8, SL×B = 4K, under T3-MCA.
    Sublayer {
        /// The 8-GPU system.
        sys: SystemConfig,
        /// The sublayer's GEMM.
        grid: GemmGrid,
    },
    /// The explicit 16-GPU T-NLG FC-2 run over two 8-GPU nodes.
    Multinode {
        /// The 16-GPU system.
        sys: SystemConfig,
        /// The sublayer's GEMM.
        grid: GemmGrid,
        /// The hierarchical fabric.
        topo: Topology,
    },
    /// The high-load bursty serving point on the ring, fused engine.
    Serving,
}

impl Op {
    fn name(&self) -> &'static str {
        match self {
            Op::Sublayer { .. } => "T-NLG FC-2 TP=8",
            Op::Multinode { .. } => "multi-node TP=16 (hierarchical)",
            Op::Serving => "serving",
        }
    }
}

/// What one op produced.
#[derive(Debug)]
pub struct Out {
    cycles: u64,
    events: usize,
    json: String,
    /// Canonical text of the analyses: critical path, collectives or
    /// the request log.
    report: String,
    analysis: Option<Analysis>,
    metrics: Option<MetricsRegistry>,
    mismatches: Vec<String>,
}

/// The `traced` workload.
#[derive(Debug)]
pub struct Traced;

impl Bench for Traced {
    type Op = Op;
    type Out = Out;

    fn setup(spans: &mut Spans) -> Vec<Op> {
        let fc2 = |model: zoo::ModelConfig, tp: u64| {
            let sys = SystemConfig::paper_default().with_num_gpus(tp as usize);
            let mut shape = model.sublayer_gemm(Sublayer::Fc2, tp);
            shape.m = shape.m.max(256);
            let grid = GemmGrid::new(&sys.gpu, shape);
            (sys, grid)
        };
        let mut tnlg_4k = zoo::t_nlg();
        tnlg_4k.batch = 4;
        let (sys8, grid8) = fc2(tnlg_4k, 8);
        let (sys16, grid16) = fc2(zoo::t_nlg(), 16);
        let topo = spans.time("topo.build", |_| {
            let mut slow = sys16.link.clone();
            slow.link_gb_s /= 4.0;
            slow.latency_ns *= 4.0;
            Topology::hierarchical(2, 8, &sys16.link, &slow)
        });
        vec![
            Op::Sublayer {
                sys: sys8,
                grid: grid8,
            },
            Op::Multinode {
                sys: sys16,
                grid: grid16,
                topo,
            },
            Op::Serving,
        ]
    }

    fn run(op: &Op, spans: &mut Spans) -> Out {
        let mut ins = Instruments::full();
        let mut mismatches = Vec::new();
        let (cycles, clock_ghz) = match op {
            Op::Sublayer { sys, grid } => {
                let opts = FusedOptions {
                    policy: PolicyChoice::McaDynamic,
                    ..FusedOptions::default()
                };
                let run = spans.time("core.engine", |_| {
                    run_fused_gemm_rs_instrumented(sys, grid.clone(), &opts, Some(&mut ins))
                });
                let fires = ins.tracer.as_ref().map_or(0, |t| {
                    t.count(|e| matches!(e, Event::DmaTriggerFire { .. })) as u64
                });
                if fires != run.dma_transfers {
                    mismatches.push(format!(
                        "{fires} trigger events for {} DMA transfers",
                        run.dma_transfers
                    ));
                }
                (run.cycles, sys.gpu.clock_ghz)
            }
            Op::Multinode { sys, grid, topo } => {
                let run = spans.time("core.multigpu", |_| {
                    run_multi_gpu_fused_rs_on(
                        sys,
                        grid.clone(),
                        &FusedOptions::default(),
                        topo,
                        Some(&mut ins),
                    )
                });
                (run.cycles, sys.gpu.clock_ghz)
            }
            Op::Serving => {
                let (served, row, clock_ghz) =
                    spans.time("serve.engine", |_| t3_serve::study::traced_serving(1));
                ins = served;
                let mut expected = row.run.outcomes.clone();
                expected.sort_by_key(|o| (o.request.tenant, o.request.id));
                let json = spans.time("trace.export", |_| {
                    chrome_trace_json_named(records(&ins), clock_ghz, op.name())
                });
                let loaded = spans.time("prof.load", |_| parse_chrome_trace(&json));
                let outcomes = spans.time("prof.analyze", |_| loaded.map(|r| request_outcomes(&r)));
                let report = match outcomes {
                    Ok(o) if o == expected => t3_serve::request::request_log(&o),
                    Ok(_) => {
                        mismatches
                            .push("requests rebuilt from the trace differ from the run's".into());
                        String::new()
                    }
                    Err(e) => {
                        mismatches.push(format!("exported trace does not load: {e}"));
                        String::new()
                    }
                };
                return Out {
                    cycles: row.run.makespan,
                    events: records(&ins).len(),
                    json,
                    report,
                    analysis: None,
                    metrics: ins.metrics,
                    mismatches,
                };
            }
        };
        if let Some(m) = &ins.metrics {
            if m.counter("run.cycles") != cycles {
                mismatches.push(format!(
                    "metrics report {} cycles, the run {cycles}",
                    m.counter("run.cycles")
                ));
            }
        }
        let json = spans.time("trace.export", |_| {
            chrome_trace_json_named(records(&ins), clock_ghz, op.name())
        });
        let loaded = spans.time("prof.load", |_| parse_chrome_trace(&json));
        let (analysis, report) = match loaded {
            Ok(r) => spans.time("prof.analyze", |_| {
                let a = Analysis::from_records(&r);
                let mut report = t3_prof::analyze::render(&a);
                for c in collective_records(&r) {
                    report.push_str(&c.describe());
                    report.push('\n');
                }
                (Some(a), report)
            }),
            Err(e) => {
                mismatches.push(format!("exported trace does not load: {e}"));
                (None, String::new())
            }
        };
        if let Some(a) = &analysis {
            if a.total_cycles != cycles {
                mismatches.push(format!(
                    "analysis covers {} cycles, the run {cycles}",
                    a.total_cycles
                ));
            }
        }
        Out {
            cycles,
            events: records(&ins).len(),
            json,
            report,
            analysis,
            metrics: ins.metrics,
            mismatches,
        }
    }

    fn units(op: &Op, out: &Out) -> Vec<Unit> {
        let h = OpHash::new(op.name())
            .u64(out.cycles)
            .u64(out.events as u64)
            .str(&out.json)
            .str(&out.report);
        vec![Unit::ok(h, out.cycles)]
    }

    fn finish(
        ops: &[Op],
        outs: &[Option<Out>],
        spans: &mut Spans,
        layers: &mut BTreeMap<String, f64>,
    ) -> Vec<(usize, String)> {
        let mut failures = Vec::new();
        let mut mem = MemCounters::default();
        for (i, (op, out)) in ops.iter().zip(outs).enumerate() {
            let Some(out) = out else { continue };
            failures.extend(
                out.mismatches
                    .iter()
                    .map(|m| (i, format!("{}: {m}", op.name()))),
            );
            *layers.entry("trace.events".into()).or_default() += out.events as f64;
            *layers.entry("trace.export.bytes".into()).or_default() += out.json.len() as f64;
            let Some(m) = &out.metrics else { continue };
            match op {
                Op::Sublayer { .. } => {
                    let a = out.analysis.as_ref();
                    layers.insert("core.engine.calls".into(), 1.0);
                    layers.insert(
                        "core.engine.dma_transfers".into(),
                        m.counter("dma.transfers") as f64,
                    );
                    layers.insert(
                        "core.engine.peak_tracker_entries".into(),
                        m.counter("tracker.peak_entries") as f64,
                    );
                    layers.insert(
                        "core.engine.cycles_per_s".into(),
                        ratio(out.cycles as f64, spans.seconds("core.engine")),
                    );
                    layers.insert(
                        "prof.overlap_permille".into(),
                        a.map_or(0.0, |a| a.overlap_permille as f64),
                    );
                    layers.insert(
                        "prof.exposed_collective_cycles".into(),
                        a.map_or(0.0, |a| a.exposed_collective_cycles as f64),
                    );
                }
                Op::Multinode { .. } => {
                    layers.insert("core.multigpu.calls".into(), 1.0);
                    layers.insert("topo.build.calls".into(), 1.0);
                }
                Op::Serving => continue,
            }
            mem.add(m);
            add_traffic_from_metrics(layers, m);
        }
        mem.write(layers);
        if spans.enabled() {
            let ops_s = spans.seconds("bench.op");
            for layer in [
                "core.engine",
                "core.multigpu",
                "trace.export",
                "prof.load",
                "prof.analyze",
            ] {
                layers.insert(
                    format!("{layer}.host_share"),
                    ratio(spans.seconds(layer), ops_s),
                );
            }
            layers.insert(
                "topo.build.setup_share".into(),
                ratio(spans.seconds("topo.build"), spans.seconds("bench.setup")),
            );
        }
        failures
    }
}

fn records(ins: &Instruments) -> &[t3_trace::Record] {
    ins.tracer.as_ref().map_or(&[][..], |t| t.records())
}

/// The `mem.traffic.*` metrics from a run's `traffic.<class>.bytes`
/// counters (device 0 of a multi-GPU run).
fn add_traffic_from_metrics(layers: &mut BTreeMap<String, f64>, m: &MetricsRegistry) {
    let mut stats = t3_sim::stats::TrafficStats::new();
    for class in t3_sim::stats::TrafficClass::ALL {
        stats.record(class, m.counter(&format!("traffic.{}.bytes", class.slug())));
    }
    add_traffic(layers, &stats);
}
