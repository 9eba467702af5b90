//! `fabric-16`: the explicit 16-GPU fused GEMM-RS at paper scale.
//!
//! The T-NLG FC-2 sublayer at TP=16 with every GPU simulated
//! (`core::multigpu`) over `t3-topo` fabrics: the ring, a switch, the
//! two-node hierarchical fabric, and a latency-bound inter-node ring
//! (25 GB/s, 5 µs) that spends most of its cycles waiting on links.
//! The ring runs a second time on the sharded engine at width 2. No
//! op touches the mirrored engines, so a change there predicts no move
//! here; a change to the clock driver or to sharding shows here first.

use std::collections::BTreeMap;
use std::rc::Rc;

use t3_core::engine::FusedOptions;
use t3_core::multigpu::{
    run_multi_gpu_fused_rs_on, run_multi_gpu_fused_rs_sharded, MultiGpuResult,
};
use t3_gpu::gemm::GemmGrid;
use t3_models::zoo::{self, Sublayer};
use t3_prof::analyze::Analysis;
use t3_sim::config::{LinkConfig, SystemConfig};
use t3_topo::Topology;
use t3_trace::Instruments;

use super::{add_traffic, hash_traffic, ratio, Bench, MemCounters, Unit};
use crate::digest::OpHash;
use crate::registry::{Pin, TRACED_FABRICS};
use crate::spans::Spans;

/// One line on why the benchmark runs this workload.
pub const WHY: &str = "the only explicit multi-GPU workload: 16 GPUs over ring, switch, hierarchical and a latency-bound inter-node ring, plus the sharded engine; bypasses the mirrored engines";

/// One sample's simulated cycles and result digest.
pub const PIN: Pin = Pin {
    sim_cycles: 23_191_273,
    digest: "a46e3f1ade08951c",
};

/// GPUs, and tensor-parallel degree, of every case.
const GPUS: usize = 16;

/// Worker threads of the sharded case.
const SHARDS: usize = 2;

/// One multi-GPU run.
#[derive(Debug)]
pub struct Op {
    case: &'static str,
    sys: Rc<SystemConfig>,
    grid: Rc<GemmGrid>,
    topo: Rc<Topology>,
    sharded: bool,
}

impl Op {
    fn run(&self, ins: Option<&mut Instruments>) -> MultiGpuResult {
        let opts = FusedOptions::default();
        let grid = (*self.grid).clone();
        if self.sharded {
            run_multi_gpu_fused_rs_sharded(&self.sys, grid, &opts, &self.topo, SHARDS)
        } else {
            run_multi_gpu_fused_rs_on(&self.sys, grid, &opts, &self.topo, ins)
        }
    }
}

/// The `fabric-16` workload.
#[derive(Debug)]
pub struct Fabric16;

impl Bench for Fabric16 {
    type Op = Op;
    type Out = MultiGpuResult;

    fn setup(spans: &mut Spans) -> Vec<Op> {
        let sys = SystemConfig::paper_default().with_num_gpus(GPUS);
        let mut shape = zoo::t_nlg().sublayer_gemm(Sublayer::Fc2, GPUS as u64);
        shape.m = shape.m.max(256);
        let grid = Rc::new(GemmGrid::new(&sys.gpu, shape));
        // The hierarchical fabric's leaders meet over links with a
        // quarter of the bandwidth and four times the latency, as in
        // the `multinode` figure.
        let mut slow = sys.link.clone();
        slow.link_gb_s /= 4.0;
        slow.latency_ns *= 4.0;
        let internode = LinkConfig {
            link_gb_s: 25.0,
            clock_ghz: sys.link.clock_ghz,
            latency_ns: 5000.0,
        };
        let mut build = |f: &dyn Fn() -> Topology| Rc::new(spans.time("topo.build", |_| f()));
        let ring = build(&|| Topology::ring(GPUS, &sys.link));
        let topos = [
            ("ring", ring.clone(), false),
            (
                "switch",
                build(&|| Topology::switch(GPUS, &sys.link)),
                false,
            ),
            (
                "hierarchical",
                build(&|| Topology::hierarchical(2, GPUS / 2, &sys.link, &slow)),
                false,
            ),
            (
                "internode",
                build(&|| Topology::ring(GPUS, &internode)),
                false,
            ),
            ("sharded2", ring, true),
        ];
        let sys = Rc::new(sys);
        topos
            .into_iter()
            .map(|(case, topo, sharded)| Op {
                case,
                sys: sys.clone(),
                grid: grid.clone(),
                topo,
                sharded,
            })
            .collect()
    }

    fn run(op: &Op, spans: &mut Spans) -> MultiGpuResult {
        spans.time("core.multigpu", |_| op.run(None))
    }

    fn units(op: &Op, out: &MultiGpuResult) -> Vec<Unit> {
        let mut h = OpHash::new(op.case)
            .u64(out.cycles)
            .u64(out.skew)
            .u64(out.dma_transfers);
        for (&c, stats) in out.per_gpu_cycles.iter().zip(&out.per_gpu_stats) {
            h = hash_traffic(h.u64(c), stats);
        }
        for &b in &out.link_bytes {
            h = h.u64(b);
        }
        vec![Unit::ok(h, out.cycles)]
    }

    fn finish(
        ops: &[Op],
        outs: &[Option<MultiGpuResult>],
        spans: &mut Spans,
        layers: &mut BTreeMap<String, f64>,
    ) -> Vec<(usize, String)> {
        let mut failures = Vec::new();
        let find = |case: &str| ops.iter().position(|o| o.case == case);
        // The sharded engine must reproduce the sequential ring run.
        if let (Some(r), Some(s)) = (find("ring"), find("sharded2")) {
            if let (Some(ring), Some(sharded)) = (&outs[r], &outs[s]) {
                if (
                    ring.cycles,
                    &ring.per_gpu_cycles,
                    &ring.link_bytes,
                    ring.dma_transfers,
                ) != (
                    sharded.cycles,
                    &sharded.per_gpu_cycles,
                    &sharded.link_bytes,
                    sharded.dma_transfers,
                ) {
                    failures.push((
                        s,
                        format!(
                            "sharded ring run took {} cycles, the sequential one {}",
                            sharded.cycles, ring.cycles
                        ),
                    ));
                }
            }
        }
        let done = || outs.iter().flatten();
        layers.insert("core.multigpu.calls".into(), ops.len() as f64);
        layers.insert(
            "core.multigpu.wire_bytes".into(),
            done().flat_map(|o| &o.link_bytes).map(|&b| b as f64).sum(),
        );
        layers.insert(
            "core.multigpu.dma_transfers".into(),
            done().map(|o| o.dma_transfers as f64).sum(),
        );
        for stats in done().flat_map(|o| &o.per_gpu_stats) {
            add_traffic(layers, stats);
        }
        // The sharded case reuses the ring's fabric.
        let fabrics = ops.iter().filter(|o| !o.sharded).count();
        layers.insert("topo.build.calls".into(), fabrics as f64);
        if spans.enabled() {
            host_layers(ops, outs, spans, layers);
            failures.extend(instrumented_replay(ops, outs, spans, layers));
        }
        failures
    }
}

/// Each case's simulation rate, the sharded engine's speed-up over the
/// sequential ring, and the set-up share of fabric construction.
fn host_layers(
    ops: &[Op],
    outs: &[Option<MultiGpuResult>],
    spans: &Spans,
    layers: &mut BTreeMap<String, f64>,
) {
    let mut seconds = BTreeMap::new();
    for (i, (op, out)) in ops.iter().zip(outs).enumerate() {
        let s = spans.op_seconds("core.multigpu", i);
        seconds.insert(op.case, s);
        if let Some(out) = out {
            layers.insert(
                format!("core.multigpu.cycles_per_s.{}", op.case),
                ratio(out.cycles as f64, s),
            );
        }
    }
    let get = |c: &str| seconds.get(c).copied().unwrap_or(0.0);
    layers.insert(
        "core.multigpu.sharded2_speedup".into(),
        ratio(get("ring"), get("sharded2")),
    );
    layers.insert(
        "core.multigpu.host_share".into(),
        ratio(spans.seconds("core.multigpu"), spans.seconds("bench.op")),
    );
    layers.insert(
        "topo.build.setup_share".into(),
        ratio(spans.seconds("topo.build"), spans.seconds("bench.setup")),
    );
}

/// Runs each instrumentable case once more with full instruments,
/// checks the instrumented run matches the plain one, and reads the
/// fast-forward leaps and memory counters out of its trace.
fn instrumented_replay(
    ops: &[Op],
    outs: &[Option<MultiGpuResult>],
    spans: &mut Spans,
    layers: &mut BTreeMap<String, f64>,
) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let mut mem = MemCounters::default();
    for (i, (op, out)) in ops.iter().zip(outs).enumerate() {
        let (Some(out), true) = (out, TRACED_FABRICS.contains(&op.case)) else {
            continue;
        };
        let mut ins = Instruments::full();
        let traced = spans.time("core.multigpu.instrumented", |_| op.run(Some(&mut ins)));
        if traced.cycles != out.cycles || traced.link_bytes != out.link_bytes {
            failures.push((
                i,
                format!(
                    "{}: instrumented run took {} cycles, the plain one {}",
                    op.case, traced.cycles, out.cycles
                ),
            ));
        }
        let records = ins.tracer.as_ref().map_or(&[][..], |t| t.records());
        let a = spans.time("prof.analyze", |_| Analysis::from_records(records));
        layers.insert(
            format!("prof.ff_leaps.{}", op.case),
            a.fast_forward_leaps as f64,
        );
        layers.insert(
            format!("prof.ff_cycles_share.{}", op.case),
            ratio(a.fast_forwardable_cycles as f64, a.total_cycles as f64),
        );
        if let Some(m) = &ins.metrics {
            mem.add(m);
        }
    }
    mem.write(layers);
    failures
}
