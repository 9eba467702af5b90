//! A registry of named counters and histograms, snapshotable at end
//! of run to flat JSON or CSV — hand-rolled writers, no serde.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use t3_sim::stats::TrafficStats;

/// A power-of-two-bucketed histogram of `u64` observations.
///
/// Bucket `i` counts values `v` with `floor(log2(v.max(1))) == i`
/// (value 0 lands in bucket 0). 65 buckets cover the full `u64`
/// range.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; 65],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty `(bucket_floor, count)` pairs, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

/// Named counters and histograms for one run.
///
/// Keys are stored in a `BTreeMap` so every export is
/// deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter (creating it at 0).
    pub fn add(&mut self, name: &str, delta: u64) {
        self.update(name, |c| *c += delta);
    }

    /// Sets the named counter to `value`.
    pub fn set(&mut self, name: &str, value: u64) {
        self.update(name, |c| *c = value);
    }

    /// Applies `f` to the named counter, creating it at 0; only a new
    /// key allocates its name.
    fn update(&mut self, name: &str, f: impl FnOnce(&mut u64)) {
        match self.counters.get_mut(name) {
            Some(c) => f(c),
            None => f(self.counters.entry(name.to_string()).or_insert(0)),
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => self
                .histograms
                .entry(name.to_string())
                .or_default()
                .observe(value),
        }
    }

    /// Sets one `traffic.<class>.bytes` counter per traffic class,
    /// plus `traffic.total.bytes`. End-of-run snapshot of a
    /// [`TrafficStats`], so the exported totals match the simulator's
    /// own accounting by construction.
    pub fn record_traffic(&mut self, stats: &TrafficStats) {
        for (class, bytes) in stats.iter() {
            self.set(&format!("traffic.{}.bytes", class.slug()), bytes);
        }
        self.set("traffic.total.bytes", stats.total());
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Renders the registry as a flat JSON object:
    /// `{"counters": {...}, "histograms": {name: {count, sum, min,
    /// max, mean, buckets: [[floor, count], ...]}, ...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {value}", escape_json(name));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \"buckets\": [",
                escape_json(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.mean()
            );
            for (j, (floor, count)) in h.buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{floor},{count}]");
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Renders counters (and histogram summaries) as CSV with header
    /// `kind,name,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,value\n");
        for (name, value) in self.counters() {
            let _ = writeln!(out, "counter,{name},{value}");
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(out, "histogram_count,{name},{}", h.count());
            let _ = writeln!(out, "histogram_sum,{name},{}", h.sum());
            let _ = writeln!(out, "histogram_min,{name},{}", h.min());
            let _ = writeln!(out, "histogram_max,{name},{}", h.max());
        }
        out
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.add("dma.triggers", 3);
        m.add("dma.triggers", 4);
        m.set("run.cycles", 100);
        assert_eq!(m.counter("dma.triggers"), 7);
        assert_eq!(m.counter("run.cycles"), 100);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn new_and_existing_keys_render_pinned_json() {
        let mut m = MetricsRegistry::new();
        m.add("added", 3);
        m.add("added", 4);
        m.set("set", 9);
        m.set("set", 5);
        m.add("set_then_added", 1);
        m.set("set_then_added", 10);
        m.add("set_then_added", 2);
        m.observe("depth", 3);
        m.observe("depth", 8);
        m.observe("once", 0);
        assert_eq!(
            m.to_json(),
            "{\n  \"counters\": {\n    \"added\": 7,\n    \"set\": 5,\n    \"set_then_added\": 12\n  },\n  \"histograms\": {\n    \"depth\": {\"count\": 2, \"sum\": 11, \"min\": 3, \"max\": 8, \"mean\": 5.500, \"buckets\": [[2,1],[8,1]]},\n    \"once\": {\"count\": 1, \"sum\": 0, \"min\": 0, \"max\": 0, \"mean\": 0.000, \"buckets\": [[0,1]]}\n  }\n}\n"
        );
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        let buckets: Vec<_> = h.buckets().collect();
        // 0 and 1 share bucket 0; 2 and 3 share floor 2; 4 floor 4;
        // 1024 floor 1024.
        assert_eq!(buckets, vec![(0, 2), (2, 2), (4, 1), (1024, 1)]);
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let mut m = MetricsRegistry::new();
        m.add("b", 2);
        m.add("a", 1);
        m.observe("depth", 5);
        let json = m.to_json();
        assert_eq!(json, m.to_json());
        // "a" sorts before "b".
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn csv_lists_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.add("x", 9);
        m.observe("h", 2);
        let csv = m.to_csv();
        assert!(csv.starts_with("kind,name,value\n"));
        assert!(csv.contains("counter,x,9\n"));
        assert!(csv.contains("histogram_count,h,1\n"));
        assert!(csv.contains("histogram_sum,h,2\n"));
    }

    #[test]
    fn traffic_snapshot_sets_per_class_counters() {
        use t3_sim::stats::TrafficClass;
        let mut stats = TrafficStats::new();
        stats.record(TrafficClass::GemmRead, 100);
        stats.record(TrafficClass::RsUpdate, 50);
        let mut m = MetricsRegistry::new();
        m.record_traffic(&stats);
        assert_eq!(m.counter("traffic.gemm_read.bytes"), 100);
        assert_eq!(m.counter("traffic.rs_update.bytes"), 50);
        assert_eq!(m.counter("traffic.ag_write.bytes"), 0);
        assert_eq!(m.counter("traffic.total.bytes"), 150);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("plain"), "plain");
    }
}
