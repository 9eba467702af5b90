//! The tracer: an append-only buffer of [`Record`]s plus the
//! [`Instruments`] bundle the engines thread through their hot paths.

use crate::event::{Event, Record};
use crate::metrics::MetricsRegistry;
use t3_sim::Cycle;

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Detail {
    /// Stage/chunk/trigger-level events only — bounded volume, the
    /// default.
    #[default]
    Coarse,
    /// Additionally record per-wavefront Tracker updates (high
    /// volume).
    Fine,
}

/// Collects typed simulation events in emission order.
///
/// Recording is a `Vec::push`; there is no I/O or formatting until an
/// exporter walks the buffer. Engines take `Option<&mut Instruments>`
/// so the disabled path is a branch on `None`.
#[derive(Debug, Default)]
pub struct Tracer {
    records: Vec<Record>,
    seq: u64,
    detail: Detail,
    mc_sample_interval: Cycle,
    next_mc_sample: Cycle,
}

impl Tracer {
    /// Default spacing of memory-controller queue-depth samples.
    pub const DEFAULT_MC_SAMPLE_INTERVAL: Cycle = 1024;

    /// Creates a coarse-detail tracer.
    pub fn new() -> Self {
        Tracer {
            mc_sample_interval: Self::DEFAULT_MC_SAMPLE_INTERVAL,
            ..Tracer::default()
        }
    }

    /// Creates a tracer with the given detail level.
    pub fn with_detail(detail: Detail) -> Self {
        Tracer {
            detail,
            ..Tracer::new()
        }
    }

    /// Overrides the MC queue-depth sampling interval (cycles).
    pub fn with_mc_sample_interval(mut self, interval: Cycle) -> Self {
        self.mc_sample_interval = interval.max(1);
        self
    }

    /// True when per-wavefront events should be recorded.
    pub fn fine(&self) -> bool {
        self.detail == Detail::Fine
    }

    /// Appends one event at `cycle`.
    pub fn record(&mut self, cycle: Cycle, event: Event) {
        self.records.push(Record {
            seq: self.seq,
            cycle,
            event,
        });
        self.seq += 1;
    }

    /// Returns true (and advances the schedule) when a queue-depth
    /// sample is due at `now`.
    pub fn mc_sample_due(&mut self, now: Cycle) -> bool {
        if now >= self.next_mc_sample {
            self.next_mc_sample = now + self.mc_sample_interval;
            true
        } else {
            false
        }
    }

    /// The next cycle in `[from, to)` at which a queue-depth sample
    /// falls due, advancing the schedule past it — the closed-form
    /// replay of calling [`Tracer::mc_sample_due`] once per cycle over
    /// the range. Returns `None` (schedule untouched) when no sample
    /// is due in the range.
    pub fn mc_sample_due_in(&mut self, from: Cycle, to: Cycle) -> Option<Cycle> {
        let due = self.next_mc_sample.max(from);
        if due < to {
            self.next_mc_sample = due + self.mc_sample_interval;
            Some(due)
        } else {
            None
        }
    }

    /// The recorded events, in emission order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count of events for which `pred` holds.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.event)).count()
    }
}

/// The bundle engines thread through their loops: an optional tracer
/// and an optional metrics registry, independently switchable.
///
/// Engines accept `Option<&mut Instruments>`; passing `None`
/// short-circuits every instrumentation site to a branch.
#[derive(Debug, Default)]
pub struct Instruments {
    /// Event tracer, if event collection is on.
    pub tracer: Option<Tracer>,
    /// Metrics registry, if metric collection is on.
    pub metrics: Option<MetricsRegistry>,
}

impl Instruments {
    /// Both tracer and metrics enabled, coarse detail.
    pub fn full() -> Self {
        Instruments {
            tracer: Some(Tracer::new()),
            metrics: Some(MetricsRegistry::new()),
        }
    }

    /// Records an event if the tracer is enabled.
    pub fn record(&mut self, cycle: Cycle, event: Event) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(cycle, event);
        }
    }

    /// Bumps a named counter if metrics are enabled.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.add(name, delta);
        }
    }

    /// Sets a work counter (see [`MetricsRegistry::set_work`]) if
    /// metrics are enabled.
    pub fn set_work(&mut self, name: &str, value: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.set_work(name, value);
        }
    }

    /// Records a histogram observation if metrics are enabled.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.observe(name, value);
        }
    }
}

/// Reborrows an `Option<&mut Instruments>` for a nested call without
/// consuming it (the usual `as_deref_mut` dance, named).
pub fn reborrow<'a>(ins: &'a mut Option<&mut Instruments>) -> Option<&'a mut Instruments> {
    ins.as_deref_mut()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_sequenced() {
        let mut t = Tracer::new();
        t.record(5, Event::ChunkRecv { chunk: 0, bytes: 1 });
        t.record(9, Event::ChunkRecv { chunk: 1, bytes: 2 });
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].seq, 0);
        assert_eq!(t.records()[1].seq, 1);
        assert_eq!(t.records()[1].cycle, 9);
    }

    #[test]
    fn mc_sampling_advances() {
        let mut t = Tracer::new().with_mc_sample_interval(100);
        assert!(t.mc_sample_due(0));
        assert!(!t.mc_sample_due(50));
        assert!(t.mc_sample_due(100));
        assert!(t.mc_sample_due(1000));
    }

    #[test]
    fn ranged_sampling_replays_the_stepped_schedule() {
        // Stepping cycle by cycle and replaying ranges must fire
        // samples at identical cycles and leave identical state.
        let fire_stepped = |range: std::ops::Range<Cycle>| -> Vec<Cycle> {
            let mut t = Tracer::new().with_mc_sample_interval(100);
            range.filter(|&c| t.mc_sample_due(c)).collect()
        };
        let fire_ranged = |range: std::ops::Range<Cycle>| -> Vec<Cycle> {
            let mut t = Tracer::new().with_mc_sample_interval(100);
            let mut out = Vec::new();
            while let Some(c) = t.mc_sample_due_in(range.start, range.end) {
                out.push(c);
            }
            out
        };
        for range in [0..1, 0..100, 0..101, 5..350, 100..100, 250..251] {
            assert_eq!(
                fire_stepped(range.clone()),
                fire_ranged(range.clone()),
                "{range:?}"
            );
        }
        // Mixed use: a step, then a leap, then a step.
        let mut t = Tracer::new().with_mc_sample_interval(100);
        assert!(t.mc_sample_due(0));
        assert_eq!(t.mc_sample_due_in(1, 250), Some(100));
        assert_eq!(t.mc_sample_due_in(1, 250), Some(200));
        assert_eq!(t.mc_sample_due_in(1, 250), None);
        assert!(t.mc_sample_due(300));
    }

    #[test]
    fn instruments_none_paths_are_noops() {
        let mut ins = Instruments::default();
        ins.record(0, Event::ChunkRecv { chunk: 0, bytes: 1 });
        ins.add("x", 1);
        ins.observe("h", 1);
        assert!(ins.tracer.is_none() && ins.metrics.is_none());
    }

    #[test]
    fn detail_gates_fine() {
        assert!(!Tracer::new().fine());
        assert!(Tracer::with_detail(Detail::Fine).fine());
    }
}
