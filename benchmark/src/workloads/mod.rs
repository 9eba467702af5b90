//! The four workloads and the sample process that runs one of them.
//!
//! A sample process sets a workload up, runs its ops one at a time in
//! an order shuffled by the seed (a closed loop), checks every result,
//! and reports one [`Sample`]. The workloads hold no randomness of
//! their own, so every check holds on any seed.

pub mod fabric16;
pub mod figures_fast;
pub mod paper_matrix;
pub mod traced;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use t3_sim::rng::SplitMix64;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_trace::MetricsRegistry;

use crate::digest::{self, OpHash};
use crate::json::{obj, parse, Value};
use crate::registry::Pin;
use crate::spans::Spans;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 15/16/18 sublayer matrix at paper scale.
    PaperMatrix,
    /// Every figures target but `ff-speedup`, plus the 3D spec sweep,
    /// at `--fast` through the runtime.
    FiguresFast,
    /// The explicit 16-GPU fused GEMM-RS over four fabrics and the
    /// sharded engine.
    Fabric16,
    /// The instrumented engines, Chrome export and `t3-prof` passes.
    Traced,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::FiguresFast,
        Workload::Fabric16,
        Workload::Traced,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::FiguresFast => "figures-fast",
            Workload::Fabric16 => "fabric-16",
            Workload::Traced => "traced",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the benchmark runs this workload, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperMatrix => paper_matrix::WHY,
            Workload::FiguresFast => figures_fast::WHY,
            Workload::Fabric16 => fabric16::WHY,
            Workload::Traced => traced::WHY,
        }
    }

    /// The pinned simulated cycles and digest of one sample.
    pub fn pin(self) -> Pin {
        match self {
            Workload::PaperMatrix => paper_matrix::PIN,
            Workload::FiguresFast => figures_fast::PIN,
            Workload::Fabric16 => fabric16::PIN,
            Workload::Traced => traced::PIN,
        }
    }

    /// Per-layer metrics that describe the workload's input rather
    /// than its speed; `run` prints them so a claim can cite the share
    /// of a workload that has a property.
    pub fn properties(self) -> &'static [&'static str] {
        match self {
            Workload::PaperMatrix => &[
                "core.configs.repeat_share",
                "gpu.engine.repeat_share",
                "gpu.collective.repeat_share",
                "sim.t3mca_speedup",
                "sim.paper_gap_pct",
            ],
            Workload::FiguresFast => &["core.configs.repeat_share", "sim.t3mca_speedup"],
            Workload::Fabric16 => &["core.multigpu.calls", "core.multigpu.wire_bytes"],
            Workload::Traced => &["trace.events", "trace.export.bytes"],
        }
    }

    /// Runs one sample of this workload in the current process.
    /// `t_main` is when the process entered `main`.
    pub fn sample(self, seed: u64, mode: Mode, t_main: Instant) -> Sample {
        match self {
            Workload::PaperMatrix => run::<paper_matrix::PaperMatrix>(seed, mode, t_main),
            Workload::FiguresFast => run::<figures_fast::FiguresFast>(seed, mode, t_main),
            Workload::Fabric16 => run::<fabric16::Fabric16>(seed, mode, t_main),
            Workload::Traced => run::<traced::Traced>(seed, mode, t_main),
        }
    }
}

/// What a sample process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up once and exit: measures set-up time alone, as a fresh
    /// process pays it.
    Setup,
    /// Run every op with tracing off.
    Plain,
    /// Run every op with spans on, then replay each layer.
    Traced,
}

impl Mode {
    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Setup => "setup",
            Mode::Plain => "plain",
            Mode::Traced => "traced",
        }
    }

    /// Looks a mode up by name.
    pub fn parse(name: &str) -> Option<Mode> {
        [Mode::Setup, Mode::Plain, Mode::Traced]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// One checked operation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    /// FNV-1a hash of the result's canonical fields.
    pub hash: u64,
    /// Simulated cycles the result accounts for.
    pub cycles: u64,
    /// Why the operation reported failure itself (e.g. a failed job).
    pub error: Option<String>,
}

impl Unit {
    /// A successful unit.
    pub fn ok(hash: OpHash, cycles: u64) -> Unit {
        Unit {
            hash: hash.finish(),
            cycles,
            error: None,
        }
    }
}

/// A workload as the sample process drives it.
pub trait Bench {
    /// One op: the input of one closed-loop call.
    type Op;
    /// The op's result.
    type Out;

    /// Builds the ops. Everything here counts as set-up time.
    fn setup(spans: &mut Spans) -> Vec<Self::Op>;

    /// Runs one op, recording spans around each layer call.
    fn run(op: &Self::Op, spans: &mut Spans) -> Self::Out;

    /// The op's checked results, one per attempted operation.
    fn units(op: &Self::Op, out: &Self::Out) -> Vec<Unit>;

    /// Cross-checks the results and fills `layers` with per-layer
    /// metrics. In a traced sample this also replays each distinct
    /// layer call under its own span. Returns the ops that failed a
    /// check, with the reason.
    fn finish(
        ops: &[Self::Op],
        outs: &[Option<Self::Out>],
        spans: &mut Spans,
        layers: &mut BTreeMap<String, f64>,
    ) -> Vec<(usize, String)>;
}

/// What one sample process reports to its parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Set-up time, ns: `main` to the first op.
    pub setup_ns: u64,
    /// The op loop, ns.
    pub ops_ns: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, reported failure or failed a check.
    pub failed: u64,
    /// Simulated cycles over every operation.
    pub sim_cycles: u64,
    /// Order-independent digest of every result.
    pub digest: u64,
    /// Peak resident set, KiB.
    pub peak_rss_kib: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Per-layer metrics (host-time ones only from traced samples).
    pub layers: BTreeMap<String, f64>,
    /// Recorded spans (traced samples only).
    pub spans: Value,
}

impl Sample {
    /// The one-line JSON a sample process prints.
    pub fn to_json(&self) -> String {
        obj([
            ("setup_ns", self.setup_ns.into()),
            ("ops_ns", self.ops_ns.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("sim_cycles", self.sim_cycles.into()),
            ("digest", digest::hex(self.digest).into()),
            ("peak_rss_kib", self.peak_rss_kib.into()),
            (
                "errors",
                Value::Arr(self.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
            (
                "layers",
                obj(self.layers.iter().map(|(k, &v)| (k.clone(), v.into()))),
            ),
            ("spans", self.spans.clone()),
        ])
        .to_json()
    }

    /// Parses a sample process's line.
    pub fn from_json(text: &str) -> Result<Sample, String> {
        let v = parse(text)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("sample line lacks {k}"))
        };
        let digest = v
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("sample line lacks digest")?;
        Ok(Sample {
            setup_ns: num("setup_ns")?,
            ops_ns: num("ops_ns")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            sim_cycles: num("sim_cycles")?,
            digest,
            peak_rss_kib: num("peak_rss_kib")?,
            errors: v
                .get("errors")
                .and_then(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            layers: v
                .get("layers")
                .and_then(Value::as_obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default(),
            spans: v.get("spans").cloned().unwrap_or(Value::Null),
        })
    }
}

/// Fisher–Yates shuffle of `0..n` driven by `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range_usize(0, i + 1));
    }
    order
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".into())
}

fn run<B: Bench>(seed: u64, mode: Mode, t_main: Instant) -> Sample {
    let mut spans = Spans::new(mode == Mode::Traced);
    let ops = spans.time("bench.setup", B::setup);
    let setup_ns = t_main.elapsed().as_nanos() as u64;
    let mut sample = Sample {
        setup_ns,
        ..Sample::default()
    };
    if mode == Mode::Setup {
        sample.peak_rss_kib = peak_rss_kib();
        return sample;
    }

    let mut outs: Vec<Option<B::Out>> = ops.iter().map(|_| None).collect();
    let mut panics: Vec<Option<String>> = vec![None; ops.len()];
    let t_ops = Instant::now();
    for i in shuffled(ops.len(), seed) {
        spans.set_op(Some(i));
        match catch_unwind(AssertUnwindSafe(|| {
            spans.time("bench.op", |s| B::run(&ops[i], s))
        })) {
            Ok(out) => outs[i] = Some(out),
            Err(payload) => {
                spans.recover();
                panics[i] = Some(format!("op {i} panicked: {}", panic_text(payload.as_ref())));
            }
        }
    }
    sample.ops_ns = t_ops.elapsed().as_nanos() as u64;
    spans.set_op(None);

    let mut layers = BTreeMap::new();
    let checks = match catch_unwind(AssertUnwindSafe(|| {
        B::finish(&ops, &outs, &mut spans, &mut layers)
    })) {
        Ok(checks) => checks,
        Err(payload) => {
            spans.recover();
            vec![(
                usize::MAX,
                format!("checks panicked: {}", panic_text(payload.as_ref())),
            )]
        }
    };
    let mut errors = Vec::new();
    let mut bad_ops = vec![false; ops.len()];
    for (i, why) in checks {
        match bad_ops.get_mut(i) {
            Some(b) => *b = true,
            // A failure no op owns fails every op.
            None => bad_ops.iter_mut().for_each(|b| *b = true),
        }
        errors.push(why);
    }

    let mut hashes = Vec::new();
    for (i, (op, out)) in ops.iter().zip(&outs).enumerate() {
        let units = match out {
            Some(out) => B::units(op, out),
            None => vec![Unit {
                hash: 0,
                cycles: 0,
                error: panics[i].take(),
            }],
        };
        for u in units {
            sample.attempted += 1;
            sample.failed += u64::from(u.error.is_some() || bad_ops[i]);
            sample.sim_cycles += u.cycles;
            hashes.push(u.hash);
            errors.extend(u.error);
        }
    }
    sample.digest = digest::combine(hashes);
    sample.errors = errors;
    if spans.enabled() {
        layers.insert("bench.setup.host_s".into(), setup_ns as f64 * 1e-9);
        layers.insert("bench.ops.host_s".into(), sample.ops_ns as f64 * 1e-9);
        layers.insert("bench.ops.count".into(), sample.attempted as f64);
        sample.spans = spans.to_json();
    }
    sample.layers = layers;
    sample.peak_rss_kib = peak_rss_kib();
    sample
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The DRAM traffic classes reported as `mem.traffic.<class>_bytes`.
const REPORTED_TRAFFIC: [TrafficClass; 5] = [
    TrafficClass::GemmRead,
    TrafficClass::GemmWrite,
    TrafficClass::RsRead,
    TrafficClass::RsUpdate,
    TrafficClass::AgRead,
];

/// Adds `stats` to the `mem.traffic.*` layer metrics.
pub fn add_traffic(layers: &mut BTreeMap<String, f64>, stats: &TrafficStats) {
    for class in REPORTED_TRAFFIC {
        *layers
            .entry(format!("mem.traffic.{}_bytes", class.slug()))
            .or_default() += stats.bytes(class) as f64;
    }
}

/// Memory-system counters summed over instrumented runs.
#[derive(Debug, Default)]
pub struct MemCounters {
    llc_hits: u64,
    llc_misses: u64,
    queue_depth_sum: u64,
    queue_depth_samples: u64,
    stream_switches: u64,
}

impl MemCounters {
    /// Adds one run's metrics registry.
    pub fn add(&mut self, m: &MetricsRegistry) {
        self.llc_hits += m.counter("llc.hits");
        self.llc_misses += m.counter("llc.misses");
        self.stream_switches += m.counter("mc.stream_switches");
        if let Some(h) = m.histogram("mc.queue_depth") {
            self.queue_depth_sum += h.sum();
            self.queue_depth_samples += h.count();
        }
    }

    /// Writes the `mem.llc.*` and `mem.mc.*` layer metrics.
    pub fn write(&self, layers: &mut BTreeMap<String, f64>) {
        let accesses = (self.llc_hits + self.llc_misses) as f64;
        layers.insert(
            "mem.llc.hit_ratio".into(),
            ratio(self.llc_hits as f64, accesses),
        );
        layers.insert(
            "mem.mc.queue_depth_mean".into(),
            ratio(self.queue_depth_sum as f64, self.queue_depth_samples as f64),
        );
        layers.insert("mem.mc.stream_switches".into(), self.stream_switches as f64);
    }
}

/// Feeds every traffic class of `stats` to `h`.
pub fn hash_traffic(h: OpHash, stats: &TrafficStats) -> OpHash {
    TrafficClass::ALL
        .into_iter()
        .fold(h, |h, class| h.u64(stats.bytes(class)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(80, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..80).collect::<Vec<_>>());
        assert_eq!(a, shuffled(80, 1));
        assert_ne!(a, shuffled(80, 2));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(!w.why().is_empty() && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Mode::parse("traced"), Some(Mode::Traced));
    }

    #[test]
    fn sample_line_round_trips() {
        let mut s = Sample {
            setup_ns: 1234,
            ops_ns: 5_000_000_000,
            attempted: 80,
            failed: 1,
            sim_cycles: 202_511_407,
            digest: 0xdead_beef_0123_4567,
            peak_rss_kib: 2048,
            errors: vec!["op 3 panicked: boom".into()],
            spans: Value::Arr(vec![]),
            ..Sample::default()
        };
        s.layers.insert("gpu.engine.calls".into(), 48.0);
        assert_eq!(Sample::from_json(&s.to_json()), Ok(s));
        assert!(Sample::from_json("{}").is_err());
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kib() > 0);
        }
    }
}
