//! DMA engine (Section 4.2.2).
//!
//! T3 pre-programs DMA commands at kernel launch (via the address-space
//! configuration, Figure 12) and the Tracker marks them *ready* as the
//! producer and incoming updates complete. The engine then reads the
//! source region through the memory controller's communication stream,
//! with no CUs involved, and hands the command back once its read is
//! done; the caller puts the payload on its own wire (a
//! [`crate::link::Link`] or a multi-hop fabric).
//!
//! The engine is cycle-stepped and pipelined: one source read is in
//! flight at a time, in trigger order, so while one command's payload
//! serialises on the wire the next command's read is already at the
//! memory controller.

use std::collections::VecDeque;

use t3_mem::controller::{MemoryController, StreamId, Watch};
use t3_sim::stats::TrafficClass;
use t3_sim::{Bytes, Cycle};

/// A pre-programmed DMA command, marked ready by the Tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCommand {
    /// Caller-chosen identifier, handed back when the read completes.
    pub id: u64,
    /// Destination device of the payload (the `dma_map` target); the
    /// engine only carries it.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: Bytes,
    /// Traffic class of the source read at the local memory controller
    /// (e.g. [`TrafficClass::RsRead`] for reduce-scatter chunks).
    pub read_class: TrafficClass,
}

#[derive(Debug, Clone, Copy)]
struct Reading {
    cmd: DmaCommand,
    /// Target value of the serviced-bytes counter for `read_class`
    /// at which the source read is complete.
    target: Bytes,
}

/// The DMA engine: a command queue and an in-flight source read.
#[derive(Debug, Default)]
pub struct DmaEngine {
    queue: VecDeque<DmaCommand>,
    reading: Option<Reading>,
    sent_commands: u64,
}

// The explicit multi-GPU engine calls the small methods below on every
// device step, from another crate, hence the `#[inline]`s.
impl DmaEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a ready command (Tracker trigger). A zero-byte command
    /// completes at once and never touches memory or a wire.
    pub fn trigger(&mut self, cmd: DmaCommand) {
        if cmd.bytes == 0 {
            self.sent_commands += 1;
            return;
        }
        self.queue.push_back(cmd);
    }

    /// Advances the engine one cycle, after the memory controller has
    /// stepped it: returns the command whose source read has just
    /// completed, for the caller to send, and starts the next queued
    /// command's read.
    #[inline]
    pub fn step(&mut self, mc: &mut MemoryController) -> Option<DmaCommand> {
        let done = self
            .reading
            .filter(|r| mc.stats().bytes(r.cmd.read_class) >= r.target)
            .map(|r| r.cmd);
        if done.is_some() {
            self.sent_commands += 1;
            self.reading = None;
        }
        if self.reading.is_none() {
            if let Some(cmd) = self.queue.pop_front() {
                // One read in flight, so the completion target is simply
                // "current serviced count + this command's bytes". The
                // fused engines keep the read class exclusive to DMA
                // source reads.
                let target = mc.stats().bytes(cmd.read_class) + cmd.bytes;
                mc.enqueue(StreamId::Comm, cmd.read_class, cmd.bytes, 1.0);
                self.reading = Some(Reading { cmd, target });
            }
        }
        done
    }

    /// True when no command is queued or reading.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.reading.is_none()
    }

    /// The next cycle strictly after `now` at which stepping this
    /// engine can change state: `now + 1` for a completed source read
    /// or a queued command waiting to start its read. `None` otherwise
    /// — an in-flight source read that the memory controller has not
    /// finished servicing reports `None` here because the controller
    /// itself is busy (it holds the un-serviced transactions), and a
    /// busy leap stops where [`DmaEngine::read_watch`] is reached.
    #[inline]
    pub fn next_event(&self, now: Cycle, mc: &MemoryController) -> Option<Cycle> {
        match self.reading {
            Some(r) if mc.stats().bytes(r.cmd.read_class) >= r.target => Some(now + 1),
            Some(_) => None,
            None => (!self.queue.is_empty()).then_some(now + 1),
        }
    }

    /// The controller counter the in-flight source read waits on: its
    /// read class's serviced bytes reaching the read's target. A busy
    /// leap must stop where it is reached, because
    /// [`DmaEngine::next_event`] cannot time it.
    #[inline]
    pub fn read_watch(&self) -> Option<Watch> {
        self.reading
            .map(|r| Watch::Class(r.cmd.read_class, r.target))
    }

    /// Commands whose source read has completed, plus zero-byte
    /// commands completed at trigger.
    pub fn sent_commands(&self) -> u64 {
        self.sent_commands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use t3_mem::arbiter::ComputeFirstPolicy;
    use t3_sim::config::SystemConfig;

    fn setup() -> (DmaEngine, MemoryController) {
        let sys = SystemConfig::paper_default();
        let mc = MemoryController::new(&sys.mem, ComputeFirstPolicy::new());
        (DmaEngine::new(), mc)
    }

    fn cmd(id: u64, bytes: Bytes) -> DmaCommand {
        DmaCommand {
            id,
            dst: 1,
            bytes,
            read_class: TrafficClass::RsRead,
        }
    }

    /// Steps the controller and then the engine every cycle until both
    /// drain; returns each completed command with its cycle.
    fn drain(engine: &mut DmaEngine, mc: &mut MemoryController) -> Vec<(Cycle, DmaCommand)> {
        let mut out = Vec::new();
        let mut now = 0;
        while !(engine.is_idle() && mc.is_idle()) {
            mc.step(now, None);
            out.extend(engine.step(mc).map(|c| (now, c)));
            now += 1;
            assert!(now < 100_000_000, "failed to drain");
        }
        out
    }

    #[test]
    fn command_reads_its_source_once_then_completes() {
        let (mut engine, mut mc) = setup();
        engine.trigger(cmd(42, 100_000));
        let done = drain(&mut engine, &mut mc);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, cmd(42, 100_000));
        // The source read went through the memory controller, and the
        // command completes no earlier than its bytes' service time.
        assert_eq!(mc.stats().bytes(TrafficClass::RsRead), 100_000);
        assert_eq!(engine.sent_commands(), 1);
        let min_cycles = 100_000.0 / SystemConfig::paper_default().mem.bytes_per_cycle();
        assert!(done[0].0 as f64 >= min_cycles, "read finished too early");
    }

    #[test]
    fn commands_complete_in_order() {
        let (mut engine, mut mc) = setup();
        for id in 0..3 {
            engine.trigger(cmd(id, 50_000));
        }
        let done = drain(&mut engine, &mut mc);
        let ids: Vec<u64> = done.iter().map(|(_, c)| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(done.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(engine.sent_commands(), 3);
    }

    #[test]
    fn zero_byte_command_completes_eagerly() {
        let (mut engine, mut mc) = setup();
        engine.trigger(cmd(9, 0));
        assert!(engine.is_idle());
        assert_eq!(engine.sent_commands(), 1);
        assert_eq!(engine.step(&mut mc), None, "nothing to send");
        assert!(mc.is_idle(), "nothing read");
    }

    #[test]
    fn next_event_matches_the_stepped_state_changes() {
        let (mut engine, mut mc) = setup();
        assert_eq!(engine.next_event(0, &mc), None, "idle engine has no events");
        for id in 0..2 {
            engine.trigger(cmd(id, 100_000));
        }
        // Queued command: starts its read on the very next step.
        assert_eq!(engine.next_event(0, &mc), Some(1));
        // Step the run to completion, recording every cycle at which
        // the engine observably changed, plus the prediction made right
        // after each step.
        let snapshot = |e: &DmaEngine| (e.queue.len(), e.reading.is_some(), e.sent_commands);
        let mut changes = Vec::new();
        let mut predictions = Vec::new();
        let mut now = 0;
        while !(engine.is_idle() && mc.is_idle()) {
            mc.step(now, None);
            let before = snapshot(&engine);
            engine.step(&mut mc);
            if snapshot(&engine) != before {
                changes.push(now);
            }
            predictions.push((now, engine.next_event(now, &mc), mc.is_idle()));
            now += 1;
            assert!(now < 100_000_000);
        }
        assert!(changes.len() >= 3, "reads started and completed");
        // Whenever the memory controller was idle (the only situation
        // in which the fast-forward loop leaps), the prediction must be
        // EXACTLY the next cycle the stepped engine changed state.
        let mut checked = 0;
        for (asked, predicted, mc_idle) in predictions {
            if !mc_idle {
                continue;
            }
            let actual = changes.iter().copied().find(|&c| c > asked);
            assert_eq!(
                predicted, actual,
                "prediction after cycle {asked} must match the stepped run"
            );
            checked += 1;
        }
        assert!(checked > 0, "the run must contain idle-controller cycles");
        assert_eq!(engine.next_event(now, &mc), None);
    }

    #[test]
    fn read_watch_is_reached_when_the_read_completes() {
        let (mut engine, mut mc) = setup();
        engine.trigger(cmd(5, 20_000));
        engine.step(&mut mc);
        let Some(Watch::Class(class, target)) = engine.read_watch() else {
            panic!("a read is in flight");
        };
        assert_eq!((class, target), (TrafficClass::RsRead, 20_000));
        let mut now = 1;
        while mc.stats().bytes(TrafficClass::RsRead) < target {
            mc.step(now, None);
            now += 1;
        }
        assert_eq!(engine.step(&mut mc), Some(cmd(5, 20_000)));
        assert_eq!(engine.read_watch(), None);
    }

    #[test]
    fn back_to_back_commands_saturate_a_link() {
        // With large commands the wire, not the read path, must be the
        // bottleneck: the next read overlaps the current payload's
        // serialisation, so the total time is ~ the sum of
        // serialisation times.
        let (mut engine, mut mc) = setup();
        let mut link = Link::new(&SystemConfig::paper_default().link);
        let n = 4;
        let bytes = 2_000_000;
        for id in 0..n {
            engine.trigger(cmd(id, bytes));
        }
        let mut now = 0;
        let mut seen = 0;
        while seen < n as usize {
            mc.step(now, None);
            if let Some(c) = engine.step(&mut mc) {
                link.send(now, c.id, c.bytes);
            }
            seen += link.deliveries_until(now).len();
            now += 1;
            assert!(now < 100_000_000);
        }
        let ideal = link.serialization_cycles(bytes) * n + link.latency();
        assert!(
            (now as f64) < ideal as f64 * 1.15,
            "link under-utilised: {now} vs ideal {ideal}"
        );
    }
}
