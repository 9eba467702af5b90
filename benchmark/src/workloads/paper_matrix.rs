//! `paper-matrix`: the Fig. 15/16/18 sublayer matrix at paper scale.
//!
//! Four (model, TP) pairs × four sublayers × the five configurations
//! make 80 `Configuration::run` calls. Nearly all host time goes to
//! the mirrored engines: the isolated GEMM (`gpu::engine`, three
//! configurations per sublayer) and the fused GEMM-RS (`core::engine`,
//! two). No (configuration, shape) pair repeats, so a memo at the
//! configuration level should leave this workload unchanged.

use std::collections::{BTreeMap, BTreeSet};

use t3_bench::experiments::main_study_models;
use t3_core::configs::{Configuration, SublayerOutcome};
use t3_core::engine::{run_fused_gemm_rs, FusedOptions, PolicyChoice};
use t3_gpu::collective::{CollectiveKind, RingCollective};
use t3_gpu::engine::{run_gemm_isolated_in_mode, WritePolicy};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_models::zoo::Sublayer;
use t3_sim::config::SystemConfig;
use t3_sim::{geomean, SimMode};

use super::{add_traffic, hash_traffic, ratio, Bench, Unit};
use crate::digest::OpHash;
use crate::registry::Pin;
use crate::spans::Spans;

/// One line on why the benchmark runs this workload.
pub const WHY: &str = "the paper's headline: Fig. 15/16/18 matrix at paper scale, 80 Configuration::run calls in the mirrored engines; no (config, shape) key repeats";

/// One sample's simulated cycles and result digest.
pub const PIN: Pin = Pin {
    sim_cycles: 202_511_407,
    digest: "a715662f571e8463",
};

/// The paper's Fig. 16 geomean speed-ups over Sequential.
const PAPER_GEOMEANS: [(Configuration, f64); 3] = [
    (Configuration::T3, 1.20),
    (Configuration::T3Mca, 1.30),
    (Configuration::IdealOverlap, 1.35),
];

/// One `Configuration::run` call on one sublayer of the matrix.
#[derive(Debug, Clone)]
pub struct Op {
    label: String,
    sys: SystemConfig,
    shape: GemmShape,
    config: Configuration,
}

/// The `paper-matrix` workload.
#[derive(Debug)]
pub struct PaperMatrix;

impl Bench for PaperMatrix {
    type Op = Op;
    type Out = SublayerOutcome;

    /// The ops `t3_bench::experiments::run_sublayer_matrix` runs at
    /// full scale: the main-study (model, TP) pairs, token dimension
    /// clamped to at least 256.
    fn setup(_: &mut Spans) -> Vec<Op> {
        let mut ops = Vec::new();
        for (model, tp) in main_study_models() {
            let sys = SystemConfig::paper_default().with_num_gpus(tp as usize);
            for sub in Sublayer::ALL {
                let mut shape = model.sublayer_gemm(sub, tp);
                shape.m = shape.m.max(256);
                for config in Configuration::ALL {
                    ops.push(Op {
                        label: format!("{} TP={tp} {}", model.name, sub.label()),
                        sys: sys.clone(),
                        shape,
                        config,
                    });
                }
            }
        }
        ops
    }

    fn run(op: &Op, spans: &mut Spans) -> SublayerOutcome {
        spans.time("core.configs", |_| op.config.run(&op.sys, &op.shape))
    }

    fn units(op: &Op, out: &SublayerOutcome) -> Vec<Unit> {
        let h = OpHash::new(&op.label)
            .str(op.config.name())
            .u64(out.gemm_cycles)
            .u64(out.rs_cycles)
            .u64(out.ag_cycles)
            .u64(out.total_cycles);
        vec![Unit::ok(hash_traffic(h, &out.stats), out.total_cycles)]
    }

    fn finish(
        ops: &[Op],
        outs: &[Option<SublayerOutcome>],
        spans: &mut Spans,
        layers: &mut BTreeMap<String, f64>,
    ) -> Vec<(usize, String)> {
        simulated_layers(ops, outs, layers);
        let calls = layer_calls(ops);
        let configs: BTreeSet<String> = ops
            .iter()
            .map(|o| format!("{:?} {} {:?}", o.config, o.sys.num_gpus, o.shape))
            .collect();
        layers.insert("core.configs.calls".into(), ops.len() as f64);
        layers.insert(
            "core.configs.repeat_share".into(),
            ratio((ops.len() - configs.len()) as f64, ops.len() as f64),
        );
        for layer in ["gpu.engine", "core.engine", "gpu.collective"] {
            let of_layer = calls.iter().filter(|((c, _), _)| c.layer() == layer);
            let (n, distinct) = of_layer.fold((0, 0), |(n, d), (_, ops)| (n + ops.len(), d + 1));
            layers.insert(format!("{layer}.calls"), n as f64);
            layers.insert(
                format!("{layer}.repeat_share"),
                ratio((n - distinct) as f64, n as f64),
            );
        }
        if spans.enabled() {
            replay(ops, outs, &calls, spans, layers)
        } else {
            Vec::new()
        }
    }
}

/// Speed-ups, the gap to the paper, cycles and traffic: simulated
/// values, the same in every sample.
fn simulated_layers(
    ops: &[Op],
    outs: &[Option<SublayerOutcome>],
    layers: &mut BTreeMap<String, f64>,
) {
    // Total cycles by (sublayer, configuration).
    let mut totals: BTreeMap<(&str, u64), BTreeMap<&str, u64>> = BTreeMap::new();
    for (op, out) in ops.iter().zip(outs) {
        if let Some(o) = out {
            totals
                .entry((op.label.as_str(), op.sys.num_gpus as u64))
                .or_default()
                .insert(op.config.name(), o.total_cycles);
        }
    }
    let geo = |config: Configuration| {
        let speedups: Vec<f64> = totals
            .values()
            .filter_map(|t| {
                Some(
                    *t.get(Configuration::Sequential.name())? as f64
                        / *t.get(config.name())? as f64,
                )
            })
            .collect();
        geomean(&speedups)
    };
    let gap = PAPER_GEOMEANS
        .iter()
        .map(|&(config, paper)| (geo(config) / paper - 1.0).abs())
        .sum::<f64>()
        / PAPER_GEOMEANS.len() as f64;
    layers.insert("sim.t3_speedup".into(), geo(Configuration::T3));
    layers.insert("sim.t3mca_speedup".into(), geo(Configuration::T3Mca));
    layers.insert(
        "sim.ideal_overlap_speedup".into(),
        geo(Configuration::IdealOverlap),
    );
    layers.insert("sim.paper_gap_pct".into(), gap * 100.0);
    let done = || outs.iter().flatten();
    layers.insert(
        "sim.gemm_cycles".into(),
        done().map(|o| o.gemm_cycles as f64).sum(),
    );
    layers.insert(
        "sim.rs_cycles".into(),
        done().map(|o| o.rs_cycles as f64).sum(),
    );
    layers.insert(
        "sim.ag_cycles".into(),
        done().map(|o| o.ag_cycles as f64).sum(),
    );
    for o in done() {
        add_traffic(layers, &o.stats);
    }
}

/// One engine call `Configuration::run` makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Call {
    /// Isolated GEMM (`gpu::engine`).
    Gemm,
    /// Fused GEMM-RS (`core::engine`) under an arbitration policy.
    Fused(Policy),
    /// Ring all-gather (`gpu::collective`).
    AllGather,
    /// Ring reduce-scatter (`gpu::collective`), with or without NMC.
    ReduceScatter { nmc: bool },
}

/// The fused engine's arbitration policies that configurations use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Policy {
    RoundRobin,
    Mca,
}

impl Call {
    /// The calls `Configuration::run` makes for `config`.
    fn of(config: Configuration) -> &'static [Call] {
        use Call::*;
        match config {
            Configuration::Sequential | Configuration::IdealOverlap => {
                &[Gemm, ReduceScatter { nmc: false }, AllGather]
            }
            Configuration::IdealRsNmc => &[Gemm, ReduceScatter { nmc: true }, AllGather],
            Configuration::T3 => &[Fused(Policy::RoundRobin), AllGather],
            Configuration::T3Mca => &[Fused(Policy::Mca), AllGather],
        }
    }

    fn layer(self) -> &'static str {
        match self {
            Call::Gemm => "gpu.engine",
            Call::Fused(_) => "core.engine",
            Call::AllGather | Call::ReduceScatter { .. } => "gpu.collective",
        }
    }

    /// What the call's inputs are: the shape for the engines, only
    /// the payload for the analytic collectives.
    fn key(self, op: &Op) -> String {
        match self {
            Call::Gemm | Call::Fused(_) => format!("{} {:?}", op.sys.num_gpus, op.shape),
            Call::AllGather | Call::ReduceScatter { .. } => {
                format!("{} {}", op.sys.num_gpus, op.shape.output_bytes())
            }
        }
    }

    /// The cycles of this call inside an op's outcome.
    fn cycles_in(self, out: &SublayerOutcome) -> u64 {
        match self {
            Call::Gemm | Call::Fused(_) => out.gemm_cycles,
            Call::AllGather => out.ag_cycles,
            Call::ReduceScatter { .. } => out.rs_cycles,
        }
    }

    /// Runs the call once: cycles, DMA transfers, tracker high-water
    /// mark.
    fn replay(self, op: &Op) -> (u64, u64, usize) {
        let (sys, shape) = (&op.sys, op.shape);
        let payload = shape.output_bytes();
        let ring = |kind, nmc| {
            RingCollective::baseline(kind, payload, sys)
                .with_nmc(nmc)
                .simulate(sys)
                .cycles
        };
        match self {
            Call::Gemm => {
                let grid = GemmGrid::new(&sys.gpu, shape);
                let run = run_gemm_isolated_in_mode(
                    sys,
                    grid,
                    WritePolicy::CachedLocal,
                    SimMode::default(),
                );
                (run.cycles, 0, 0)
            }
            Call::Fused(policy) => {
                let policy = match policy {
                    Policy::RoundRobin => PolicyChoice::RoundRobin,
                    Policy::Mca => PolicyChoice::McaDynamic,
                };
                let opts = FusedOptions {
                    policy,
                    ..FusedOptions::default()
                };
                let run = run_fused_gemm_rs(sys, GemmGrid::new(&sys.gpu, shape), &opts);
                (run.cycles, run.dma_transfers, run.peak_tracker_entries)
            }
            Call::AllGather => (ring(CollectiveKind::AllGather, false), 0, 0),
            Call::ReduceScatter { nmc } => (ring(CollectiveKind::ReduceScatter, nmc), 0, 0),
        }
    }
}

/// Every distinct engine call behind the ops, with the ops that make
/// it.
fn layer_calls(ops: &[Op]) -> BTreeMap<(Call, String), Vec<usize>> {
    let mut calls: BTreeMap<(Call, String), Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        for &c in Call::of(op.config) {
            calls.entry((c, c.key(op))).or_default().push(i);
        }
    }
    calls
}

/// Replays each distinct engine call behind `Configuration::run` once
/// under its own span and checks that it reproduces every op that
/// makes it. Each replay's time, times the number of ops' calls it
/// stands for, estimates that layer's share of the ops; the estimates
/// should add up to the ops' time (`bench.replay.coverage`).
fn replay(
    ops: &[Op],
    outs: &[Option<SublayerOutcome>],
    calls: &BTreeMap<(Call, String), Vec<usize>>,
    spans: &mut Spans,
    layers: &mut BTreeMap<String, f64>,
) -> Vec<(usize, String)> {
    let mut failures = Vec::new();
    let mut seconds: BTreeMap<&str, f64> = BTreeMap::new();
    let mut cycles: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut dma, mut peak_tracker) = (0u64, 0usize);
    for ((call, _), users) in calls {
        let first = &ops[users[0]];
        let ((c, d, p), s) = spans.time_s(call.layer(), |_| call.replay(first));
        let n = users.len() as f64;
        *seconds.entry(call.layer()).or_default() += s * n;
        *cycles.entry(call.layer()).or_default() += c as f64 * n;
        dma += d * users.len() as u64;
        peak_tracker = peak_tracker.max(p);
        for &i in users {
            let Some(out) = &outs[i] else { continue };
            if call.cycles_in(out) != c {
                failures.push((
                    i,
                    format!(
                        "{} {}: replayed {call:?} gives {c} cycles, the op gave {}",
                        ops[i].label,
                        ops[i].config.name(),
                        call.cycles_in(out)
                    ),
                ));
            }
        }
    }
    let ops_s = spans.seconds("bench.op");
    for (layer, s) in &seconds {
        layers.insert(format!("{layer}.host_share"), ratio(*s, ops_s));
    }
    for layer in ["gpu.engine", "core.engine"] {
        let (c, s) = (cycles.get(layer), seconds.get(layer));
        layers.insert(
            format!("{layer}.cycles_per_s"),
            ratio(c.copied().unwrap_or(0.0), s.copied().unwrap_or(0.0)),
        );
    }
    layers.insert("core.engine.dma_transfers".into(), dma as f64);
    layers.insert(
        "core.engine.peak_tracker_entries".into(),
        peak_tracker as f64,
    );
    layers.insert(
        "core.configs.host_share".into(),
        ratio(spans.seconds("core.configs"), ops_s),
    );
    layers.insert(
        "bench.replay.coverage".into(),
        ratio(seconds.values().sum(), ops_s),
    );
    failures
}
