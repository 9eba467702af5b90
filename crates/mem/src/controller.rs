//! Cycle-stepped memory controller with compute/communication streams.
//!
//! This is the component where the paper's compute-vs-communication
//! memory contention (Section 3.2.2) and its mitigation by T3-MCA
//! (Section 4.5) play out. Two request streams — the producer kernel's
//! and communication's — feed a bounded DRAM queue through an
//! [`ArbitrationPolicy`]; the queue drains at the HBM service rate.
//! Near-memory op-and-store updates carry a service-cost multiplier
//! (CCDWL, Section 5.1.1).
//!
//! Traffic is moved in transactions of [`MemConfig::txn_bytes`] but
//! enqueued in batches, so large phases stay cheap to simulate.

use std::collections::VecDeque;

pub use crate::arbiter::StreamId;
use crate::arbiter::{ArbiterState, ArbitrationPolicy};
use t3_sim::config::MemConfig;
use t3_sim::stats::{TrafficClass, TrafficStats};
use t3_sim::timeseries::TimeSeries;
use t3_sim::{Bytes, Cycle};
use t3_trace::{Event, Instruments};

/// A batch of same-class transactions waiting in a stream FIFO.
#[derive(Debug, Clone)]
struct Batch {
    class: TrafficClass,
    remaining_txns: u64,
    remaining_bytes: Bytes,
    cost_each: f64,
}

/// One transaction resident in the DRAM queue.
#[derive(Debug, Clone, Copy)]
struct QueuedTxn {
    stream: StreamId,
    class: TrafficClass,
    bytes: Bytes,
    cost: f64,
}

/// The memory controller. See the module docs for the model.
#[derive(Debug)]
pub struct MemoryController {
    txn_bytes: Bytes,
    service_rate: f64,
    issue_rate: f64,
    dram_capacity: usize,
    policy: Box<dyn ArbitrationPolicy>,
    compute_q: VecDeque<Batch>,
    comm_q: VecDeque<Batch>,
    dram_q: VecDeque<QueuedTxn>,
    issue_credit: f64,
    service_credit: f64,
    stream_switch_penalty: f64,
    last_serviced_stream: Option<StreamId>,
    serviced_compute: Bytes,
    serviced_comm: Bytes,
    pending_compute: Bytes,
    pending_comm: Bytes,
    enqueued_compute: Bytes,
    enqueued_comm: Bytes,
    stats: TrafficStats,
    occupancy_accum: u64,
    occupancy_samples: u64,
    stream_switches: u64,
}

impl MemoryController {
    /// Creates a controller for the memory system in `cfg`, arbitrated
    /// by `policy`.
    pub fn new(cfg: &MemConfig, policy: Box<dyn ArbitrationPolicy>) -> Self {
        let service_rate = cfg.txns_per_cycle();
        MemoryController {
            txn_bytes: cfg.txn_bytes,
            service_rate,
            // The controller frontend is faster than DRAM, so bursts
            // can pile into the DRAM queue — that queueing is exactly
            // what T3-MCA manages.
            issue_rate: service_rate * 2.0,
            dram_capacity: cfg.dram_queue_capacity,
            policy,
            compute_q: VecDeque::new(),
            comm_q: VecDeque::new(),
            dram_q: VecDeque::new(),
            issue_credit: 0.0,
            service_credit: 0.0,
            stream_switch_penalty: cfg.stream_switch_penalty,
            last_serviced_stream: None,
            serviced_compute: 0,
            serviced_comm: 0,
            pending_compute: 0,
            pending_comm: 0,
            enqueued_compute: 0,
            enqueued_comm: 0,
            stats: TrafficStats::new(),
            occupancy_accum: 0,
            occupancy_samples: 0,
            stream_switches: 0,
        }
    }

    /// Enqueues `bytes` of `class` traffic on `stream`. `cost_multiplier`
    /// scales DRAM service cost per transaction (1.0 for plain
    /// reads/writes; the NMC/atomics multipliers for op-and-store
    /// updates).
    pub fn enqueue(
        &mut self,
        stream: StreamId,
        class: TrafficClass,
        bytes: Bytes,
        cost_multiplier: f64,
    ) {
        assert!(cost_multiplier >= 1.0, "cost multiplier must be >= 1.0");
        if bytes == 0 {
            return;
        }
        let txns = bytes.div_ceil(self.txn_bytes);
        let batch = Batch {
            class,
            remaining_txns: txns,
            remaining_bytes: bytes,
            cost_each: cost_multiplier,
        };
        match stream {
            StreamId::Compute => {
                self.pending_compute += bytes;
                self.enqueued_compute += bytes;
                self.compute_q.push_back(batch);
            }
            StreamId::Comm => {
                self.pending_comm += bytes;
                self.enqueued_comm += bytes;
                self.comm_q.push_back(batch);
            }
        }
    }

    /// Cumulative bytes ever enqueued on `stream`. Because each stream
    /// is serviced in FIFO order, a client that enqueues work can wait
    /// for `serviced_bytes(stream)` to reach the pre-enqueue value of
    /// `enqueued_bytes(stream)` plus its own request size.
    pub fn enqueued_bytes(&self, stream: StreamId) -> Bytes {
        match stream {
            StreamId::Compute => self.enqueued_compute,
            StreamId::Comm => self.enqueued_comm,
        }
    }

    /// Advances the controller by one cycle at time `now`, optionally
    /// recording serviced traffic into a time series.
    pub fn step(&mut self, now: Cycle, timeseries: Option<&mut TimeSeries>) {
        self.step_traced(now, timeseries, None);
    }

    /// [`MemoryController::step`] with an optional instrumentation
    /// sink: samples DRAM queue depth into the tracer/metrics at the
    /// tracer's sampling interval. Passing `None` is bit-identical to
    /// `step`.
    pub fn step_traced(
        &mut self,
        now: Cycle,
        mut timeseries: Option<&mut TimeSeries>,
        ins: Option<&mut Instruments>,
    ) {
        if let Some(ins) = ins {
            let depth = self.dram_q.len() as u64;
            if let Some(tracer) = ins.tracer.as_mut() {
                if tracer.mc_sample_due(now) {
                    let comm_depth = self
                        .dram_q
                        .iter()
                        .filter(|t| t.stream == StreamId::Comm)
                        .count() as u64;
                    tracer.record(
                        now,
                        Event::McQueueDepth {
                            depth,
                            comm_depth,
                            capacity: self.dram_capacity as u64,
                        },
                    );
                    ins.observe("mc.queue_depth", depth);
                }
            }
        }
        self.policy.tick();

        // Frontend: move transactions from stream FIFOs into the DRAM
        // queue, as arbitration allows.
        self.issue_credit = (self.issue_credit + self.issue_rate).min(self.issue_rate * 2.0);
        while self.issue_credit >= 1.0 && self.dram_q.len() < self.dram_capacity {
            let state = ArbiterState {
                compute_pending: !self.compute_q.is_empty(),
                comm_pending: !self.comm_q.is_empty(),
                dram_occupancy: self.dram_q.len(),
                dram_capacity: self.dram_capacity,
            };
            let Some(stream) = self.policy.choose(&state) else {
                break;
            };
            let txn = self.pop_txn(stream);
            self.dram_q.push_back(txn);
            self.policy.on_issue(stream);
            self.issue_credit -= 1.0;
        }

        // DRAM: drain the queue at the service rate. Bandwidth cannot
        // be banked while the queue is empty.
        if self.dram_q.is_empty() {
            self.service_credit = 0.0;
        } else {
            self.service_credit += self.service_rate;
            while let Some(head) = self.dram_q.front() {
                // Switching between unrelated access streams loses
                // row-buffer locality: the first transaction after a
                // switch costs extra (see MemConfig docs).
                let switch = self
                    .last_serviced_stream
                    .is_some_and(|last| last != head.stream);
                let cost = head.cost
                    + if switch {
                        self.stream_switch_penalty
                    } else {
                        0.0
                    };
                if self.service_credit < cost {
                    break;
                }
                self.stream_switches += switch as u64;
                let txn = *head;
                self.dram_q.pop_front();
                self.service_credit -= cost;
                self.last_serviced_stream = Some(txn.stream);
                match txn.stream {
                    StreamId::Compute => self.serviced_compute += txn.bytes,
                    StreamId::Comm => self.serviced_comm += txn.bytes,
                }
                self.stats.record(txn.class, txn.bytes);
                if let Some(ts) = timeseries.as_deref_mut() {
                    ts.record(now, txn.class, txn.bytes);
                }
            }
        }

        self.occupancy_accum += self.dram_q.len() as u64;
        self.occupancy_samples += 1;
    }

    fn pop_txn(&mut self, stream: StreamId) -> QueuedTxn {
        let (queue, pending) = match stream {
            StreamId::Compute => (&mut self.compute_q, &mut self.pending_compute),
            StreamId::Comm => (&mut self.comm_q, &mut self.pending_comm),
        };
        // t3-lint: allow(panic-reachable) -- `step_traced` asks the policy only with each stream's pending flag, and every policy picks a stream whose flag is set
        let batch = queue.front_mut().expect("policy chose an empty stream");
        let bytes = batch.remaining_bytes.min(self.txn_bytes);
        batch.remaining_bytes -= bytes;
        batch.remaining_txns -= 1;
        *pending -= bytes;
        let txn = QueuedTxn {
            stream,
            class: batch.class,
            bytes,
            cost: batch.cost_each,
        };
        if batch.remaining_txns == 0 {
            debug_assert_eq!(batch.remaining_bytes, 0);
            queue.pop_front();
        }
        txn
    }

    /// Bytes fully serviced by DRAM for `stream` so far.
    pub fn serviced_bytes(&self, stream: StreamId) -> Bytes {
        match stream {
            StreamId::Compute => self.serviced_compute,
            StreamId::Comm => self.serviced_comm,
        }
    }

    /// Bytes enqueued but not yet issued to the DRAM queue for `stream`.
    pub fn pending_bytes(&self, stream: StreamId) -> Bytes {
        match stream {
            StreamId::Compute => self.pending_compute,
            StreamId::Comm => self.pending_comm,
        }
    }

    /// True when both stream FIFOs and the DRAM queue are empty.
    pub fn is_idle(&self) -> bool {
        self.compute_q.is_empty() && self.comm_q.is_empty() && self.dram_q.is_empty()
    }

    /// The next cycle at which stepping this controller can change
    /// observable state, seen from cycle `now` (already stepped):
    /// `Some(now + 1)` while any queue holds work — a busy controller
    /// issues or services every cycle — and `None` when idle, because
    /// an idle controller only changes state through an external
    /// [`MemoryController::enqueue`].
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            None
        } else {
            Some(now + 1)
        }
    }

    /// Replays the idle cycles `[from, to)` in closed form — exactly
    /// the side effects `to - from` calls of
    /// [`MemoryController::step_traced`] would have had with every
    /// queue empty: queue-depth samples at the tracer's due cycles,
    /// policy starvation ticks, issue-credit saturation, the
    /// service-credit reset, and occupancy sampling. The fast-forward
    /// engines call this for every leaped or skipped gap. Replaying a
    /// gap in pieces, split at any cycles, equals one replay; an empty
    /// gap (`to <= from`) is a no-op even on a busy controller.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle, ins: Option<&mut Instruments>) {
        if to <= from {
            return;
        }
        debug_assert!(self.is_idle(), "skip_idle on a busy controller");
        let cycles = to - from;
        if let Some(ins) = ins {
            let mut samples = 0u64;
            if let Some(tracer) = ins.tracer.as_mut() {
                while let Some(due) = tracer.mc_sample_due_in(from, to) {
                    tracer.record(
                        due,
                        Event::McQueueDepth {
                            depth: 0,
                            comm_depth: 0,
                            capacity: self.dram_capacity as u64,
                        },
                    );
                    samples += 1;
                }
            }
            for _ in 0..samples {
                ins.observe("mc.queue_depth", 0);
            }
        }
        self.policy.tick_many(cycles);
        // With both stream FIFOs empty the issue loop moves nothing
        // and the credit just saturates: each idle step applies the
        // same clamped add, reaching the exact f64 fixed point
        // `issue_rate * 2.0` within two applications (credit is
        // non-negative, so one add already lands at or above
        // `issue_rate`, and the second clamps).
        for _ in 0..cycles.min(2) {
            self.issue_credit = (self.issue_credit + self.issue_rate).min(self.issue_rate * 2.0);
        }
        // An empty DRAM queue resets banked service bandwidth every
        // stepped cycle; the last skipped cycle leaves it at zero.
        self.service_credit = 0.0;
        self.occupancy_samples += cycles;
    }

    /// Current DRAM queue occupancy in transactions.
    pub fn dram_occupancy(&self) -> usize {
        self.dram_q.len()
    }

    /// Per-class serviced traffic so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Average DRAM-queue occupancy as a fraction of capacity since the
    /// last [`MemoryController::reset_occupancy_window`]; used for the
    /// MCA first-stage memory-intensity probe.
    pub fn avg_occupancy_fraction(&self) -> f64 {
        if self.occupancy_samples == 0 {
            return 0.0;
        }
        self.occupancy_accum as f64 / (self.occupancy_samples as f64 * self.dram_capacity as f64)
    }

    /// Starts a fresh occupancy-measurement window.
    pub fn reset_occupancy_window(&mut self) {
        self.occupancy_accum = 0;
        self.occupancy_samples = 0;
    }

    /// Feeds the arbitration policy a measured compute-kernel memory
    /// intensity (Section 4.5 probe).
    pub fn observe_compute_intensity(&mut self, avg_occupancy_fraction: f64) {
        self.policy
            .observe_compute_intensity(avg_occupancy_fraction);
    }

    /// Name of the active arbitration policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Times DRAM service switched between the compute and
    /// communication streams (each switch pays the row-locality
    /// penalty — the contention signal motivating T3-MCA).
    pub fn stream_switches(&self) -> u64 {
        self.stream_switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{ComputeFirstPolicy, McaPolicy, RoundRobinPolicy};
    use t3_sim::config::SystemConfig;

    fn mem_cfg() -> MemConfig {
        SystemConfig::paper_default().mem
    }

    fn run_until_idle(mc: &mut MemoryController) -> Cycle {
        let mut now = 0;
        while !mc.is_idle() {
            mc.step(now, None);
            now += 1;
            assert!(now < 100_000_000, "controller failed to drain");
        }
        now
    }

    #[test]
    fn drains_single_stream_at_service_rate() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        let bytes: Bytes = 1_000_000;
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, bytes, 1.0);
        let cycles = run_until_idle(&mut mc);
        let ideal = bytes as f64 / cfg.bytes_per_cycle();
        assert!(
            (cycles as f64) < ideal * 1.1 && (cycles as f64) > ideal * 0.9,
            "took {cycles} cycles, ideal {ideal:.0}"
        );
        assert_eq!(mc.serviced_bytes(StreamId::Compute), bytes);
    }

    #[test]
    fn nmc_updates_cost_more_service_time() {
        let cfg = mem_cfg();
        let bytes: Bytes = 2_000_000;
        let mut plain = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        plain.enqueue(StreamId::Comm, TrafficClass::RsWrite, bytes, 1.0);
        let t_plain = run_until_idle(&mut plain);

        let mut nmc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        nmc.enqueue(StreamId::Comm, TrafficClass::RsUpdate, bytes, 1.5);
        let t_nmc = run_until_idle(&mut nmc);
        let ratio = t_nmc as f64 / t_plain as f64;
        assert!(
            (ratio - 1.5).abs() < 0.1,
            "NMC cost ratio {ratio} should be ~1.5"
        );
    }

    #[test]
    fn compute_first_lets_compute_finish_sooner_than_round_robin() {
        let cfg = mem_cfg();
        let bytes: Bytes = 1_000_000;
        let compute_done = |policy: Box<dyn ArbitrationPolicy>| {
            let mut mc = MemoryController::new(&cfg, policy);
            mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, bytes, 1.0);
            mc.enqueue(StreamId::Comm, TrafficClass::RsRead, bytes, 1.0);
            let mut now = 0;
            while mc.serviced_bytes(StreamId::Compute) < bytes {
                mc.step(now, None);
                now += 1;
            }
            now
        };
        let rr = compute_done(Box::new(RoundRobinPolicy::new()));
        let cf = compute_done(Box::new(ComputeFirstPolicy::new()));
        assert!(
            (cf as f64) < (rr as f64) * 0.7,
            "compute-first {cf} should beat round-robin {rr} clearly"
        );
    }

    #[test]
    fn mca_throttles_comm_while_compute_is_active() {
        let cfg = mem_cfg();
        let bytes: Bytes = 500_000;
        let mut mc = MemoryController::new(&cfg, Box::new(McaPolicy::with_fixed_threshold(5)));
        // Comm arrives first (bursty RS traffic), compute follows.
        mc.enqueue(StreamId::Comm, TrafficClass::RsUpdate, bytes, 1.0);
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, bytes, 1.0);
        let mut now = 0;
        while mc.serviced_bytes(StreamId::Compute) < bytes {
            mc.step(now, None);
            now += 1;
            // DRAM queue must never fill with comm traffic beyond the
            // threshold plus in-flight compute transactions.
            assert!(mc.dram_occupancy() <= cfg.dram_queue_capacity);
        }
        // Comm is still mostly pending: compute got priority.
        assert!(mc.pending_bytes(StreamId::Comm) > 0);
        run_until_idle(&mut mc);
        assert_eq!(mc.serviced_bytes(StreamId::Comm), bytes);
    }

    #[test]
    fn stats_record_by_class() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        mc.enqueue(StreamId::Compute, TrafficClass::GemmWrite, 10_000, 1.0);
        mc.enqueue(StreamId::Comm, TrafficClass::AgRead, 20_000, 1.0);
        run_until_idle(&mut mc);
        assert_eq!(mc.stats().bytes(TrafficClass::GemmWrite), 10_000);
        assert_eq!(mc.stats().bytes(TrafficClass::AgRead), 20_000);
    }

    #[test]
    fn timeseries_receives_service_events() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        let mut ts = TimeSeries::new(16);
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 100_000, 1.0);
        let mut now = 0;
        while !mc.is_idle() {
            mc.step(now, Some(&mut ts));
            now += 1;
        }
        assert_eq!(ts.total(TrafficClass::GemmRead), 100_000);
        assert!(ts.len() > 1, "traffic should span multiple buckets");
    }

    #[test]
    fn occupancy_probe_reflects_load() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        // Idle controller: zero occupancy.
        for now in 0..100 {
            mc.step(now, None);
        }
        assert_eq!(mc.avg_occupancy_fraction(), 0.0);
        mc.reset_occupancy_window();
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 10_000_000, 1.0);
        for now in 100..2_000 {
            mc.step(now, None);
        }
        assert!(mc.avg_occupancy_fraction() > 0.3, "queue should be busy");
    }

    #[test]
    fn partial_final_transaction_preserves_byte_totals() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        // 1000 bytes is not a multiple of 256.
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 1000, 1.0);
        run_until_idle(&mut mc);
        assert_eq!(mc.serviced_bytes(StreamId::Compute), 1000);
        assert_eq!(mc.stats().bytes(TrafficClass::GemmRead), 1000);
    }

    #[test]
    fn zero_byte_enqueue_is_noop() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        mc.enqueue(StreamId::Comm, TrafficClass::RsRead, 0, 1.0);
        assert!(mc.is_idle());
    }

    #[test]
    #[should_panic(expected = "cost multiplier")]
    fn sub_unit_cost_rejected() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        mc.enqueue(StreamId::Comm, TrafficClass::RsRead, 100, 0.5);
    }

    #[test]
    fn round_robin_interleaving_loses_row_locality() {
        // With two active streams, round-robin alternates per
        // transaction and pays the stream-switch penalty on nearly
        // every service; compute-first batches each stream and pays it
        // only once.
        let cfg = mem_cfg();
        let bytes: Bytes = 1_000_000;
        let run = |policy: Box<dyn ArbitrationPolicy>| {
            let mut mc = MemoryController::new(&cfg, policy);
            mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, bytes, 1.0);
            mc.enqueue(StreamId::Comm, TrafficClass::RsRead, bytes, 1.0);
            run_until_idle(&mut mc)
        };
        let rr = run(Box::new(RoundRobinPolicy::new()));
        let cf = run(Box::new(ComputeFirstPolicy::new()));
        let ideal = 2.0 * bytes as f64 / cfg.bytes_per_cycle();
        assert!(
            (cf as f64) < ideal * 1.05,
            "batched streams should be near ideal: {cf} vs {ideal:.0}"
        );
        let expected_rr = ideal * (1.0 + cfg.stream_switch_penalty);
        assert!(
            (rr as f64) > expected_rr * 0.9 && (rr as f64) < expected_rr * 1.1,
            "interleaved streams should pay the switch penalty: {rr} vs {expected_rr:.0}"
        );
    }

    #[test]
    fn step_traced_samples_queue_depth_and_counts_switches() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(RoundRobinPolicy::new()));
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 500_000, 1.0);
        mc.enqueue(StreamId::Comm, TrafficClass::RsRead, 500_000, 1.0);
        let mut ins = Instruments::full();
        let mut now = 0;
        while !mc.is_idle() {
            mc.step_traced(now, None, Some(&mut ins));
            now += 1;
        }
        let tracer = ins.tracer.as_ref().expect("tracer on");
        assert!(
            tracer.count(|e| matches!(e, Event::McQueueDepth { .. })) > 0,
            "queue depth must be sampled"
        );
        let metrics = ins.metrics.as_ref().expect("metrics on");
        assert!(metrics.histogram("mc.queue_depth").is_some());
        // Round-robin interleaves the streams, so switches must occur.
        assert!(mc.stream_switches() > 0);
    }

    #[test]
    fn step_traced_none_matches_step() {
        let cfg = mem_cfg();
        let run = |traced: bool| {
            let mut mc = MemoryController::new(&cfg, Box::new(RoundRobinPolicy::new()));
            mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 300_000, 1.0);
            mc.enqueue(StreamId::Comm, TrafficClass::RsUpdate, 200_000, 1.5);
            let mut now = 0;
            while !mc.is_idle() {
                if traced {
                    mc.step_traced(now, None, None);
                } else {
                    mc.step(now, None);
                }
                now += 1;
            }
            now
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn next_event_is_the_exact_next_state_change() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(ComputeFirstPolicy::new()));
        assert_eq!(mc.next_event(7), None, "idle controller has no events");
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 1_000, 1.0);
        let mut now = 0;
        while !mc.is_idle() {
            assert_eq!(mc.next_event(now), Some(now + 1));
            let before = (
                mc.serviced_bytes(StreamId::Compute),
                mc.pending_bytes(StreamId::Compute),
                mc.dram_occupancy(),
                mc.issue_credit.to_bits(),
                mc.service_credit.to_bits(),
            );
            mc.step(now, None);
            let after = (
                mc.serviced_bytes(StreamId::Compute),
                mc.pending_bytes(StreamId::Compute),
                mc.dram_occupancy(),
                mc.issue_credit.to_bits(),
                mc.service_credit.to_bits(),
            );
            assert_ne!(
                before, after,
                "a busy controller must change state at cycle {now}"
            );
            now += 1;
        }
        assert_eq!(mc.next_event(now), None, "drained controller has no events");
    }

    /// A controller (and its full instruments) drained idle after a
    /// busy prefix, so credits, the tracer schedule and the arbitration
    /// policy all hold mid-run values; returns the first idle cycle.
    fn idle_after_busy_prefix(cfg: &MemConfig) -> (MemoryController, Instruments, Cycle) {
        let mut mc = MemoryController::new(cfg, Box::new(McaPolicy::with_fixed_threshold(5)));
        let mut ins = Instruments::full();
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 100_000, 1.0);
        mc.enqueue(StreamId::Comm, TrafficClass::RsUpdate, 50_000, 1.5);
        let mut now = 0;
        while !mc.is_idle() {
            mc.step_traced(now, None, Some(&mut ins));
            now += 1;
        }
        (mc, ins, now)
    }

    fn trace_records(ins: &Instruments) -> Vec<(u64, Cycle, String)> {
        ins.tracer
            .as_ref()
            .expect("tracer on")
            .records()
            .iter()
            .map(|r| (r.seq, r.cycle, format!("{:?}", r.event)))
            .collect()
    }

    /// Drains more work after a gap: identical arbitration and cycle
    /// counts prove the policy state also matched.
    fn drain_more(mc: &mut MemoryController, from: Cycle) -> Cycle {
        mc.enqueue(StreamId::Comm, TrafficClass::RsUpdate, 80_000, 1.5);
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 40_000, 1.0);
        let mut now = from;
        while !mc.is_idle() {
            mc.step(now, None);
            now += 1;
        }
        now
    }

    #[test]
    fn skip_idle_matches_stepping_idle_cycles_exactly() {
        let cfg = mem_cfg();
        for gap in [1u64, 2, 3, 1023, 1024, 5000] {
            let (mut stepped, mut ins_s, idle_at) = idle_after_busy_prefix(&cfg);
            for now in idle_at..idle_at + gap {
                stepped.step_traced(now, None, Some(&mut ins_s));
            }
            let (mut leaped, mut ins_l, idle_at_l) = idle_after_busy_prefix(&cfg);
            assert_eq!(idle_at, idle_at_l);
            leaped.skip_idle(idle_at, idle_at + gap, Some(&mut ins_l));
            assert_eq!(
                stepped.issue_credit.to_bits(),
                leaped.issue_credit.to_bits(),
                "issue credit, gap {gap}"
            );
            assert_eq!(
                stepped.service_credit.to_bits(),
                leaped.service_credit.to_bits(),
                "service credit, gap {gap}"
            );
            assert_eq!(stepped.occupancy_accum, leaped.occupancy_accum);
            assert_eq!(stepped.occupancy_samples, leaped.occupancy_samples);
            assert_eq!(
                trace_records(&ins_s),
                trace_records(&ins_l),
                "trace records, gap {gap}"
            );
            assert_eq!(
                drain_more(&mut stepped, idle_at + gap),
                drain_more(&mut leaped, idle_at + gap),
                "post-gap drain, gap {gap}"
            );
        }
    }

    #[test]
    fn skip_idle_composes_across_any_split_of_a_gap() {
        // An engine that skips an idle device replays its gap in
        // pieces of any length, one per call. Every split — at the
        // tracer's due cycles, next to them, or at every cycle — must
        // leave the controller exactly as one replay and as stepping.
        let cfg = mem_cfg();
        let gap = 2_500;
        let (mut stepped, mut ins_s, idle_at) = idle_after_busy_prefix(&cfg);
        let end = idle_at + gap;
        for now in idle_at..end {
            stepped.step_traced(now, None, Some(&mut ins_s));
        }
        let due: Vec<Cycle> = trace_records(&ins_s)
            .iter()
            .map(|r| r.1)
            .filter(|&c| c >= idle_at)
            .collect();
        assert!(due.len() >= 2, "the gap must span tracer samples");
        let (mut once, mut ins_o, _) = idle_after_busy_prefix(&cfg);
        once.skip_idle(idle_at, end, Some(&mut ins_o));
        let want = (format!("{stepped:?}"), trace_records(&ins_s));
        assert_eq!((format!("{once:?}"), trace_records(&ins_o)), want);
        let want_drain = drain_more(&mut stepped, end);

        let mut splits: Vec<Vec<Cycle>> = [idle_at, idle_at + 1, idle_at + 2, end - 1, end]
            .into_iter()
            .chain(due.iter().flat_map(|&d| [d - 1, d, d + 1]))
            .map(|c| vec![c])
            .collect();
        splits.push(due.clone());
        splits.push((idle_at..=end).collect());
        for cuts in splits {
            let (mut split, mut ins_p, _) = idle_after_busy_prefix(&cfg);
            let mut from = idle_at;
            for &cut in cuts.iter().chain([end].iter()) {
                split.skip_idle(from, cut, Some(&mut ins_p));
                from = from.max(cut);
            }
            assert_eq!(
                (format!("{split:?}"), trace_records(&ins_p)),
                want,
                "split at {:?}",
                &cuts[..cuts.len().min(4)]
            );
            assert_eq!(drain_more(&mut split, end), want_drain);
        }
    }

    #[test]
    fn empty_skip_idle_is_a_no_op_even_on_a_busy_controller() {
        let cfg = mem_cfg();
        let mut mc = MemoryController::new(&cfg, Box::new(RoundRobinPolicy::new()));
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, 10_000, 1.0);
        mc.step(0, None);
        let before = format!("{mc:?}");
        mc.skip_idle(1, 1, None);
        mc.skip_idle(5, 1, None);
        assert_eq!(format!("{mc:?}"), before);
    }

    #[test]
    fn switch_penalty_zero_restores_fair_sharing() {
        let mut cfg = mem_cfg();
        cfg.stream_switch_penalty = 0.0;
        let bytes: Bytes = 1_000_000;
        let mut mc = MemoryController::new(&cfg, Box::new(RoundRobinPolicy::new()));
        mc.enqueue(StreamId::Compute, TrafficClass::GemmRead, bytes, 1.0);
        mc.enqueue(StreamId::Comm, TrafficClass::RsRead, bytes, 1.0);
        let cycles = run_until_idle(&mut mc);
        let ideal = 2.0 * bytes as f64 / cfg.bytes_per_cycle();
        assert!((cycles as f64) < ideal * 1.1, "no bandwidth should be lost");
        assert!(
            (cycles as f64) > ideal * 0.95,
            "no bandwidth can be created"
        );
    }
}
