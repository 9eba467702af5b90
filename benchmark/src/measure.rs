//! The parent side: spawns fresh sample processes one at a time and
//! turns their reports into end-to-end and per-layer metrics.
//!
//! Every sample is a new process, which is what a user of `figures`
//! pays for, and which keeps an in-process memo from turning later
//! samples into cache replays. The parent times each sample from spawn
//! to exit.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use t3_sim::rng::SplitMix64;

use crate::digest;
use crate::json::{obj, Value};
use crate::registry::{end_to_end, per_layer};
use crate::spans::{layer_times, Span};
use crate::stats::{median, Summary};
use crate::workloads::{Mode, Sample, Workload};

/// Set-up probes before each plain sample. A probe is a fresh process
/// that builds the workload's inputs once, as a user's process does.
/// Set-up takes tens of microseconds, and on a shared host its time
/// switches between a fast and a slow level from one second to the
/// next; probing between every two samples spreads the probes over the
/// whole run, and running them alone keeps them from disturbing the
/// samples.
const PROBES_PER_GAP: usize = 8;

/// Fewest plain samples in a run, however short `--seconds` is.
pub const MIN_SAMPLES: usize = 3;

/// When a run stops taking samples.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many samples (plain), or plain/traced pairs.
    Samples(usize),
    /// Once another sample would end past this many seconds.
    Seconds(f64),
}

/// One sample process's outcome.
#[derive(Debug, Clone)]
pub struct Child {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Its report, or why there is none.
    pub sample: Result<Sample, String>,
}

/// A run's outcome checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Every sample ran, passed its checks and matched the pins.
    pub correct: bool,
    /// Operations attempted over all samples.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why not correct, one line per distinct reason.
    pub errors: Vec<String>,
}

/// Every process of one run of one workload.
#[derive(Debug, Clone)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// The seed its samples' op orders came from.
    pub seed: u64,
    /// Set-up-only processes.
    pub probes: Vec<Child>,
    /// Samples with tracing off.
    pub plain: Vec<Child>,
    /// Samples with spans and layer replays.
    pub traced: Vec<Child>,
}

/// Runs one sample process of `w` and waits for it.
pub fn spawn(exe: &Path, w: Workload, seed: u64, mode: Mode) -> Child {
    let t = Instant::now();
    let out = Command::new(exe)
        .args([
            "sample",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--mode", mode.name()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let wall_s = t.elapsed().as_secs_f64();
    let sample = match out {
        Err(e) => Err(format!("cannot start a sample process: {e}")),
        Ok(o) if !o.status.success() => Err(format!("sample process failed: {}", o.status)),
        Ok(o) => String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .ok_or_else(|| "sample process printed nothing".to_string())
            .and_then(Sample::from_json),
    };
    Child { wall_s, sample }
}

/// Measures `w`: plain samples until `stop`, each after
/// [`PROBES_PER_GAP`] set-up probes, or with `traced`, plain/traced
/// pairs (the plain half gives the tracing overhead).
pub fn measure(exe: &Path, w: Workload, seed: u64, stop: Stop, traced: bool) -> Run {
    // One probe first: it warms the page cache for the binary.
    let mut run = Run {
        workload: w,
        seed,
        probes: vec![spawn(exe, w, seed, Mode::Setup)],
        plain: Vec::new(),
        traced: Vec::new(),
    };
    let (min, max) = match (stop, traced) {
        (Stop::Samples(n), _) => (n, n),
        (Stop::Seconds(_), true) => (1, usize::MAX),
        (Stop::Seconds(_), false) => (MIN_SAMPLES, usize::MAX),
    };
    let probes = if traced { 0 } else { PROBES_PER_GAP };
    // Each sample runs the ops in its own order, drawn from the run's
    // seed, so a run's values average over orders instead of resting
    // on one.
    let mut orders = SplitMix64::new(seed);
    let start = Instant::now();
    let mut last = 0.0;
    for n in 0..max {
        if n >= min {
            let Stop::Seconds(limit) = stop else { break };
            if start.elapsed().as_secs_f64() + last > limit {
                break;
            }
        }
        let t = Instant::now();
        for _ in 0..probes {
            run.probes.push(spawn(exe, w, seed, Mode::Setup));
        }
        let order = orders.next_u64();
        run.plain.push(spawn(exe, w, order, Mode::Plain));
        if traced {
            run.traced.push(spawn(exe, w, order, Mode::Traced));
        }
        last = t.elapsed().as_secs_f64();
    }
    run
}

impl Run {
    fn ok<'a>(children: &'a [Child]) -> impl Iterator<Item = (f64, &'a Sample)> + 'a {
        children
            .iter()
            .filter_map(|c| c.sample.as_ref().ok().map(|s| (c.wall_s, s)))
    }

    /// Per-sample values of every end-to-end metric. `setup_s` has one
    /// per gap between samples: the median cold build of that gap's
    /// probes. One process's cold build differs from the next by up to
    /// half; the gap medians drop that and keep the host's slower
    /// spells. The first probe, which warms the page cache, is left out.
    pub fn end_to_end_samples(&self) -> BTreeMap<String, Vec<f64>> {
        let mut m: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for gap in self
            .probes
            .get(1..)
            .unwrap_or_default()
            .chunks(PROBES_PER_GAP)
        {
            let builds: Vec<f64> = Run::ok(gap)
                .map(|(_, s)| s.setup_ns as f64 * 1e-9)
                .collect();
            if !builds.is_empty() {
                m.entry("setup_s".into()).or_default().push(median(&builds));
            }
        }
        for (wall, s) in Run::ok(&self.plain) {
            m.entry("wall_s".into()).or_default().push(wall);
            m.entry("peak_rss_mib".into())
                .or_default()
                .push(s.peak_rss_kib as f64 / 1024.0);
            m.entry("sim_cycles".into())
                .or_default()
                .push(s.sim_cycles as f64);
            m.entry("sim_cycles_per_s".into())
                .or_default()
                .push(s.sim_cycles as f64 / wall);
        }
        m
    }

    /// Each end-to-end metric's value for the run (see [`crate::registry::Stat`]).
    pub fn end_to_end_values(&self) -> BTreeMap<String, f64> {
        let samples = self.end_to_end_samples();
        end_to_end()
            .into_iter()
            .map(|m| {
                let v = m.stat.of(samples.get(&m.name).map_or(&[][..], |s| s));
                (m.name, v)
            })
            .collect()
    }

    /// The per-layer metrics: medians over the traced samples, with
    /// `trace.overhead_s` the traced minus the plain median op time.
    pub fn layer_metrics(&self) -> BTreeMap<String, f64> {
        let traced: Vec<&Sample> = Run::ok(&self.traced).map(|(_, s)| s).collect();
        let ops_s = |c: &[Child]| {
            median(
                &Run::ok(c)
                    .map(|(_, s)| s.ops_ns as f64 * 1e-9)
                    .collect::<Vec<_>>(),
            )
        };
        let mut out = BTreeMap::new();
        for m in per_layer() {
            let values: Vec<f64> = traced
                .iter()
                .map(|s| s.layers.get(&m.name).copied().unwrap_or(0.0))
                .collect();
            out.insert(m.name, median(&values));
        }
        out.insert(
            "trace.overhead_s".into(),
            ops_s(&self.traced) - ops_s(&self.plain),
        );
        out
    }

    /// Whether every sample ran, passed its checks and matched the
    /// pins.
    pub fn checked(&self) -> Checked {
        let pin = self.workload.pin();
        let (mut attempted, mut failed) = (0, 0);
        let mut errors = Vec::new();
        for c in self.plain.iter().chain(&self.traced) {
            match &c.sample {
                Ok(s) => {
                    attempted += s.attempted;
                    failed += s.failed;
                    errors.extend(s.errors.iter().cloned());
                    if s.sim_cycles != pin.sim_cycles {
                        errors.push(format!(
                            "simulated {} cycles, pinned {}",
                            s.sim_cycles, pin.sim_cycles
                        ));
                    }
                    if digest::hex(s.digest) != pin.digest {
                        errors.push(format!(
                            "result digest {}, pinned {}",
                            digest::hex(s.digest),
                            pin.digest
                        ));
                    }
                }
                Err(e) => {
                    attempted += 1;
                    failed += 1;
                    errors.push(e.clone());
                }
            }
        }
        for c in &self.probes {
            if let Err(e) = &c.sample {
                errors.push(format!("set-up probe: {e}"));
            }
        }
        errors.sort();
        errors.dedup();
        Checked {
            correct: errors.is_empty() && attempted > 0,
            attempted,
            failed,
            errors,
        }
    }

    /// The run's one-line JSON result: correctness, operation
    /// counts and the end-to-end metrics (or, traced, the per-layer
    /// ones), each with its unit.
    pub fn result_line(&self) -> String {
        let c = self.checked();
        let metrics: Vec<(String, Value)> = if self.traced.is_empty() {
            let values = self.end_to_end_values();
            end_to_end()
                .into_iter()
                .map(|m| {
                    let v = values.get(&m.name).copied().unwrap_or(0.0);
                    (m.name, obj([("value", v.into()), ("unit", m.unit.into())]))
                })
                .collect()
        } else {
            let values = self.layer_metrics();
            per_layer()
                .into_iter()
                .map(|m| {
                    let v = values.get(&m.name).copied().unwrap_or(0.0);
                    (m.name, obj([("value", v.into()), ("unit", m.unit.into())]))
                })
                .collect()
        };
        obj([
            ("correct", c.correct.into()),
            ("attempted", c.attempted.into()),
            ("failed", c.failed.into()),
            ("metrics", obj(metrics)),
        ])
        .to_json()
    }

    /// This run's entry in a `results.json`: every end-to-end sample
    /// with its summary, plus the workload properties.
    pub fn results_entry(&self) -> Value {
        let c = self.checked();
        let samples = self.end_to_end_samples();
        let metrics = end_to_end().into_iter().map(|m| {
            let s = samples.get(&m.name).cloned().unwrap_or_default();
            let sum = Summary::of(&s);
            let f = |g: fn(&Summary) -> f64| sum.as_ref().map_or(Value::Null, |x| g(x).into());
            (
                m.name,
                obj([
                    ("unit", m.unit.into()),
                    ("n", (s.len() as u64).into()),
                    ("value", m.stat.of(&s).into()),
                    ("median", f(|x| x.median)),
                    ("q1", f(|x| x.q1)),
                    ("q3", f(|x| x.q3)),
                    (
                        "samples",
                        Value::Arr(s.into_iter().map(Value::from).collect()),
                    ),
                ]),
            )
        });
        obj([
            ("correct", c.correct.into()),
            ("attempted", c.attempted.into()),
            ("failed", c.failed.into()),
            (
                "errors",
                Value::Arr(c.errors.into_iter().map(Value::from).collect()),
            ),
            ("metrics", obj(metrics)),
            (
                "properties",
                obj(self
                    .properties()
                    .into_iter()
                    .map(|(k, v)| (k, Value::from(v)))),
            ),
        ])
    }

    /// The workload's properties (see [`Workload::properties`]), read
    /// from the first plain sample: simulated and counted values that
    /// every sample reports.
    pub fn properties(&self) -> BTreeMap<String, f64> {
        let first = Run::ok(&self.plain).next().map(|(_, s)| s);
        self.workload
            .properties()
            .iter()
            .map(|&p| {
                let v = first.and_then(|s| s.layers.get(p)).copied().unwrap_or(0.0);
                (p.to_string(), v)
            })
            .collect()
    }

    /// The first traced sample's spans.
    pub fn spans(&self) -> Vec<Span> {
        let Some((_, s)) = Run::ok(&self.traced).next() else {
            return Vec::new();
        };
        s.spans
            .as_arr()
            .unwrap_or_default()
            .iter()
            .filter_map(|v| {
                let num = |k: &str| v.get(k).and_then(Value::as_f64);
                Some(Span {
                    name: v.get("name")?.as_str()?.to_string(),
                    start_ns: num("start_ns")? as u64,
                    end_ns: num("end_ns")? as u64,
                    parent: num("parent").map(|p| p as usize),
                    op: num("op").map(|o| o as usize),
                })
            })
            .collect()
    }

    /// The `<workload>.layers.json` document: per-layer metrics, the
    /// tracing overhead, and each span name's calls, inclusive and self
    /// time.
    pub fn layers_document(&self) -> Value {
        let values = self.layer_metrics();
        let units: BTreeMap<String, &str> =
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
        let metrics = values.iter().map(|(k, &v)| {
            (
                k.clone(),
                obj([
                    ("value", v.into()),
                    ("unit", units.get(k).copied().unwrap_or("").into()),
                ]),
            )
        });
        let spans = layer_times(&self.spans()).into_iter().map(|(k, l)| {
            (
                k,
                obj([
                    ("calls", l.calls.into()),
                    ("inclusive_s", (l.inclusive_ns as f64 * 1e-9).into()),
                    ("self_s", (l.self_ns as f64 * 1e-9).into()),
                ]),
            )
        });
        obj([
            ("workload", self.workload.name().into()),
            ("seed", self.seed.into()),
            ("traced_samples", (self.traced.len() as u64).into()),
            (
                "tracing_overhead_s",
                values
                    .get("trace.overhead_s")
                    .copied()
                    .unwrap_or(0.0)
                    .into(),
            ),
            ("metrics", obj(metrics)),
            ("spans", obj(spans)),
        ])
    }

    /// The `<workload>.spans.json` document: every span of the first
    /// traced sample.
    pub fn spans_document(&self) -> Value {
        let spans = Run::ok(&self.traced)
            .next()
            .map_or(Value::Arr(Vec::new()), |(_, s)| s.spans.clone());
        obj([
            ("workload", self.workload.name().into()),
            ("seed", self.seed.into()),
            ("spans", spans),
        ])
    }
}
