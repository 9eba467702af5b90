//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start and end (ns since the recorder was
//! made), the span that encloses it, and the op it belongs to. Spans
//! live in memory and are written out when the sample ends. A
//! disabled recorder only runs the closure, so untraced samples pay
//! nothing but a branch.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Value};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `gpu.engine`.
    pub name: String,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op this span belongs to, if any.
    pub op: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed duration, children included.
    pub inclusive_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Tags the spans that follow with op `op`.
    pub fn set_op(&mut self, op: Option<usize>) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.time_s(name, f).0
    }

    /// [`Spans::time`], also returning the span's duration in seconds
    /// (0 when disabled).
    pub fn time_s<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let Some(epoch) = self.epoch else {
            return (f(self), 0.0);
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let start = epoch.elapsed().as_nanos() as u64;
        let r = f(self);
        let end = epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        (r, (end - start) as f64 * 1e-9)
    }

    /// Closes the spans a panic left open when it unwound through
    /// [`Spans::time`], as zero-length spans.
    pub fn recover(&mut self) {
        for idx in self.open.drain(..) {
            self.spans[idx].end_ns = self.spans[idx].start_ns;
        }
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// Summed duration of op `op`'s spans named `name`, in seconds.
    pub fn op_seconds(&self, name: &str, op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == Some(op))
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", s.name.as_str().into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| (p as u64).into()),
                        ),
                        ("op", s.op.map_or(Value::Null, |o| (o as u64).into())),
                    ])
                })
                .collect(),
        )
    }
}

/// Per-name totals of `spans`. A span's self time is its duration
/// minus its direct children's durations: children of one span run
/// one after another on one thread, so they never overlap.
pub fn layer_times(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let l = out.entry(s.name.clone()).or_default();
        l.calls += 1;
        l.inclusive_ns += s.dur_ns();
        l.self_ns += s.dur_ns().saturating_sub(child);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("op", 0, 100, None),
            span("engine", 10, 40, Some(0)),
            span("mem", 15, 25, Some(1)),
            span("engine", 50, 90, Some(0)),
        ];
        let l = layer_times(&spans);
        assert_eq!(
            l["op"],
            LayerTime {
                calls: 1,
                inclusive_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            l["engine"],
            LayerTime {
                calls: 2,
                inclusive_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            l["mem"],
            LayerTime {
                calls: 1,
                inclusive_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn recorder_nests_and_can_be_disabled() {
        let mut s = Spans::new(true);
        s.set_op(Some(3));
        let v = s.time("outer", |s| s.time("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].op, Some(3));
        assert!(s.spans()[0].dur_ns() >= s.spans()[1].dur_ns());

        let mut off = Spans::new(false);
        assert_eq!(off.time("x", |_| 1), 1);
        assert!(off.spans().is_empty());
        assert_eq!(off.seconds("x"), 0.0);
    }

    #[test]
    fn recover_closes_spans_left_open_by_a_panic() {
        let mut s = Spans::new(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.time("boom", |_| -> () { panic!("op failed") })
        }));
        assert!(r.is_err());
        s.recover();
        assert_eq!(s.spans()[0].dur_ns(), 0);
        s.time("next", |_| ());
        assert_eq!(s.spans()[1].parent, None);
    }
}
