//! Timing fabric: one [`Link`] per topology edge, store-and-forward
//! routing, and a dependency-driven schedule executor.
//!
//! A message from GPU `s` to GPU `d` serialises onto **every** link of
//! the precomputed route in turn (store-and-forward): the hop `k + 1`
//! transmission starts only once the message fully arrives at hop
//! `k`'s far end, and each hop's serialiser is shared FIFO state — so
//! two messages crossing the same switch port contend exactly like the
//! single-link engines' sends do. Per-link byte counters come straight
//! from [`Link::total_sent`], which lets tests pin observed wire bytes
//! to [`Schedule::predicted_link_bytes`].

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use t3_net::link::Link;
use t3_sim::{Bytes, Cycle};
use t3_trace::{reborrow, Instruments};

use crate::graph::{LinkId, Topology};
use crate::schedule::Schedule;

/// A message that has fully arrived at a GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Caller-chosen tag (e.g. DMA command id).
    pub tag: u64,
    /// Sending GPU.
    pub src: usize,
    /// Payload size.
    pub bytes: Bytes,
    /// Cycle at which the last hop delivered the message.
    pub arrival: Cycle,
}

/// Pending inbox entry, ordered by `(arrival, seq)` so draining is
/// deterministic even when two messages land on the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    arrival: Cycle,
    seq: u64,
    src: usize,
    tag: u64,
    bytes: Bytes,
}

/// The timing state of a whole fabric: every link's serialiser plus a
/// per-GPU inbox of in-flight messages.
#[derive(Debug, Clone)]
pub struct Fabric {
    topo: Topology,
    links: Vec<Link>,
    inboxes: Vec<BinaryHeap<Reverse<Pending>>>,
    seq: u64,
}

impl Fabric {
    /// Builds an idle fabric over `topo` (one [`Link`] per edge).
    pub fn new(topo: &Topology) -> Self {
        Fabric {
            links: topo.links().iter().map(|l| Link::new(&l.cfg)).collect(),
            inboxes: (0..topo.num_gpus()).map(|_| BinaryHeap::new()).collect(),
            topo: topo.clone(),
            seq: 0,
        }
    }

    /// The topology this fabric times.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Sends `bytes` from GPU `src` to GPU `dst` along the precomputed
    /// route, starting no earlier than `now`; returns the arrival
    /// cycle at `dst` and queues an [`Arrival`] in its inbox.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, either id is not a GPU, or `bytes` is
    /// zero (links reject empty messages).
    pub fn send(&mut self, now: Cycle, src: usize, dst: usize, tag: u64, bytes: Bytes) -> Cycle {
        self.send_traced(now, src, dst, tag, bytes, None)
    }

    /// [`Fabric::send`] that also records every hop's serialiser busy
    /// span (one [`t3_trace::Event::LinkBusy`] per link on the route).
    /// Passing `None` is identical to `send`.
    pub fn send_traced(
        &mut self,
        now: Cycle,
        src: usize,
        dst: usize,
        tag: u64,
        bytes: Bytes,
        mut ins: Option<&mut Instruments>,
    ) -> Cycle {
        assert_ne!(src, dst, "no self sends");
        let route: Vec<LinkId> = self.topo.route(src, dst).to_vec();
        let mut t = now;
        for id in route {
            t = self.links[id.0].send_traced(t, tag, bytes, reborrow(&mut ins));
            // The fabric's inbox is the delivery record; drain the
            // link's own queue so it doesn't grow without bound.
            let _ = self.links[id.0].deliveries_until(Cycle::MAX);
        }
        let seq = self.seq;
        self.seq += 1;
        self.inboxes[dst].push(Reverse(Pending {
            arrival: t,
            seq,
            src,
            tag,
            bytes,
        }));
        t
    }

    /// Pops every message that has fully arrived at GPU `gpu` by
    /// `now`, in `(arrival, send order)` order.
    pub fn deliveries_until(&mut self, gpu: usize, now: Cycle) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(head) = self.inboxes[gpu].peek_mut() {
            if head.0.arrival > now {
                break;
            }
            let Reverse(p) = PeekMut::pop(head);
            out.push(Arrival {
                tag: p.tag,
                src: p.src,
                bytes: p.bytes,
                arrival: p.arrival,
            });
        }
        out
    }

    /// The link behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Observed wire bytes per link, indexed by [`LinkId`]. After a
    /// schedule runs, this must equal
    /// [`Schedule::predicted_link_bytes`].
    pub fn link_bytes(&self) -> Vec<Bytes> {
        self.links.iter().map(Link::total_sent).collect()
    }

    /// Total wire bytes across every link (multi-hop messages count
    /// once per hop).
    pub fn total_wire_bytes(&self) -> Bytes {
        self.links.iter().map(Link::total_sent).sum()
    }

    /// Latest cycle at which any serialiser frees up.
    pub fn busy_until(&self) -> Cycle {
        self.links.iter().map(Link::busy_until).max().unwrap_or(0)
    }

    /// True when every link is idle and every inbox drained.
    pub fn is_idle(&self, now: Cycle) -> bool {
        self.links.iter().all(|l| l.is_idle(now)) && self.inboxes.iter().all(BinaryHeap::is_empty)
    }

    /// The next cycle strictly after `now` at which polling
    /// [`Fabric::deliveries_until`] for GPU `gpu` can return something
    /// new: the head inbox arrival, clamped forward to `now + 1` (a
    /// head already due pops on the very next poll). `None` when the
    /// inbox is empty. Sends record their arrival eagerly, so inbox
    /// heads are the fabric's only future events.
    pub fn next_arrival(&self, gpu: usize, now: Cycle) -> Option<Cycle> {
        self.inboxes[gpu]
            .peek()
            .map(|Reverse(p)| p.arrival.max(now + 1))
    }

    /// The next cycle strictly after `now` at which any GPU's inbox can
    /// deliver; `None` when the whole fabric has nothing in flight.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        (0..self.inboxes.len())
            .filter_map(|gpu| self.next_arrival(gpu, now))
            .min()
    }

    /// Executes `sched` as a standalone collective over `payload_bytes`
    /// and returns the finish cycle (latest arrival).
    ///
    /// The executor is dependency-driven: for recv-gated collectives
    /// (reduce-scatter, all-gather — see
    /// [`crate::schedule::CollectiveKind::is_recv_gated`]) a device's
    /// step `s + 1` send starts no earlier than its step `s` receive
    /// arrived, because it forwards that very data. All-to-all sends
    /// are all resident up front, so they only contend on link
    /// serialisers. Zero-byte chunks (payloads smaller than the device
    /// count) are skipped — they have no wire representation.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's device count does not match the
    /// fabric's GPU count.
    pub fn run_schedule(
        &mut self,
        sched: &Schedule,
        payload_bytes: Bytes,
        mut ins: Option<&mut Instruments>,
    ) -> Cycle {
        assert_eq!(
            sched.devices(),
            self.topo.num_gpus(),
            "schedule and fabric disagree on device count"
        );
        let n = sched.devices();
        let gated = sched.kind().is_recv_gated();
        let mut ready: Vec<Cycle> = vec![0; n];
        let mut finish: Cycle = 0;
        for step in sched.steps() {
            let mut next_ready: Vec<Cycle> = vec![0; n];
            for send in step {
                let bytes = sched.chunk_size(payload_bytes, send.chunk);
                if bytes == 0 {
                    continue;
                }
                let start = if gated { ready[send.src] } else { 0 };
                let arrival = self.send_traced(
                    start,
                    send.src,
                    send.dst,
                    send.chunk as u64,
                    bytes,
                    reborrow(&mut ins),
                );
                next_ready[send.dst] = next_ready[send.dst].max(arrival);
                finish = finish.max(arrival);
            }
            if gated {
                for d in 0..n {
                    ready[d] = ready[d].max(next_ready[d]);
                }
            }
        }
        // Drain the inboxes: standalone execution consumes its own
        // arrivals so the fabric ends idle.
        for gpu in 0..n {
            let _ = self.deliveries_until(gpu, finish);
        }
        finish
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_sim::config::{LinkConfig, SystemConfig};

    fn cfg() -> LinkConfig {
        SystemConfig::paper_default().link
    }

    #[test]
    fn single_hop_matches_bare_link_arithmetic() {
        let topo = Topology::ring(4, &cfg());
        let mut fabric = Fabric::new(&topo);
        let mut bare = Link::new(&cfg());
        let arrival = fabric.send(0, 0, 1, 7, 107_000);
        assert_eq!(arrival, bare.send(0, 7, 107_000));
        let got = fabric.deliveries_until(1, arrival);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].src, 0);
        assert_eq!(got[0].tag, 7);
        assert!(fabric.is_idle(arrival));
    }

    #[test]
    fn two_hops_store_and_forward() {
        let topo = Topology::switch(4, &cfg());
        let mut fabric = Fabric::new(&topo);
        let bytes = 107_000;
        let link = Link::new(&cfg());
        let one_hop = link.serialization_cycles(bytes) + link.latency();
        let arrival = fabric.send(0, 0, 2, 1, bytes);
        assert_eq!(arrival, 2 * one_hop);
    }

    #[test]
    fn switch_port_contention_serialises() {
        // GPUs 0 and 1 both send to GPU 2: the hub->2 port is shared,
        // so the second message queues behind the first there.
        let topo = Topology::switch(4, &cfg());
        let mut fabric = Fabric::new(&topo);
        let bytes = 107_000;
        let a = fabric.send(0, 0, 2, 1, bytes);
        let b = fabric.send(0, 1, 2, 2, bytes);
        let ser = Link::new(&cfg()).serialization_cycles(bytes);
        assert_eq!(b - a, ser, "second message waits a full serialisation");
    }

    #[test]
    fn distinct_ports_do_not_contend() {
        let topo = Topology::fully_connected(4, &cfg());
        let mut fabric = Fabric::new(&topo);
        let a = fabric.send(0, 0, 2, 1, 107_000);
        let b = fabric.send(0, 1, 3, 2, 107_000);
        assert_eq!(a, b, "dedicated links carry both at once");
    }

    #[test]
    fn deliveries_sorted_by_arrival_then_send_order() {
        let topo = Topology::fully_connected(4, &cfg());
        let mut fabric = Fabric::new(&topo);
        // Larger message first: arrives later despite earlier send.
        fabric.send(0, 1, 0, 10, 500_000);
        fabric.send(0, 2, 0, 20, 1_000);
        let got = fabric.deliveries_until(0, 10_000_000);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].tag, 20);
        assert_eq!(got[1].tag, 10);
        assert!(got[0].arrival <= got[1].arrival);
    }

    #[test]
    fn ring_rs_wire_cycles_match_closed_form() {
        // Equal chunks, symmetric ring: each of the n-1 gated steps
        // costs one chunk serialisation plus one link latency.
        let n = 8;
        let topo = Topology::ring(n, &cfg());
        let sched = Schedule::reduce_scatter(&topo);
        let payload: Bytes = 8 * 107_000;
        let chunk = payload / n as u64;
        let mut fabric = Fabric::new(&topo);
        let finish = fabric.run_schedule(&sched, payload, None);
        let link = Link::new(&cfg());
        let per_step = link.serialization_cycles(chunk) + link.latency();
        assert_eq!(finish, (n as Cycle - 1) * per_step);
        assert!(fabric.is_idle(finish));
    }

    #[test]
    fn observed_link_bytes_equal_prediction_on_every_fabric() {
        let payload: Bytes = 8 * 1024;
        for topo in [
            Topology::ring(8, &cfg()),
            Topology::fully_connected(8, &cfg()),
            Topology::switch(8, &cfg()),
            Topology::torus2d(2, 4, &cfg()),
            Topology::hierarchical(2, 4, &cfg(), &cfg()),
        ] {
            for sched in [
                Schedule::reduce_scatter(&topo),
                Schedule::all_gather(&topo),
                Schedule::all_to_all(&topo),
            ] {
                let mut fabric = Fabric::new(&topo);
                let finish = fabric.run_schedule(&sched, payload, None);
                assert!(finish > 0);
                assert_eq!(
                    fabric.link_bytes(),
                    sched.predicted_link_bytes(&topo, payload),
                    "{:?} on {}",
                    sched.kind(),
                    topo.kind().label()
                );
            }
        }
    }

    #[test]
    fn slow_inter_node_links_dominate_hierarchical_collectives() {
        let fast = cfg();
        let mut slow = cfg();
        slow.link_gb_s /= 10.0;
        let flat = Topology::ring(8, &fast);
        let hier = Topology::hierarchical(2, 4, &fast, &slow);
        let payload: Bytes = 8 * 107_000;
        let t_flat = Fabric::new(&flat).run_schedule(&Schedule::all_to_all(&flat), payload, None);
        let t_hier = Fabric::new(&hier).run_schedule(&Schedule::all_to_all(&hier), payload, None);
        assert!(
            t_hier > t_flat,
            "crossing slow node boundaries must cost more ({t_hier} <= {t_flat})"
        );
    }

    #[test]
    fn tiny_payload_skips_empty_chunks() {
        // payload 3 over 8 devices: five chunks are empty; the
        // schedule must still run without tripping Link's zero-byte
        // panic.
        let topo = Topology::switch(8, &cfg());
        let sched = Schedule::reduce_scatter(&topo);
        let finish = Fabric::new(&topo).run_schedule(&sched, 3, None);
        assert!(finish > 0);
    }

    #[test]
    fn traced_run_counts_every_hop() {
        let topo = Topology::switch(4, &cfg());
        let sched = Schedule::all_to_all(&topo);
        let payload: Bytes = 4 * 1024;
        let mut ins = Instruments::full();
        let mut fabric = Fabric::new(&topo);
        fabric.run_schedule(&sched, payload, Some(&mut ins));
        let traced = ins
            .metrics
            .as_ref()
            .expect("metrics on")
            .counter("link.bytes_sent");
        assert_eq!(traced, fabric.total_wire_bytes());
    }

    #[test]
    fn next_event_is_the_exact_inbox_arrival() {
        let topo = Topology::fully_connected(4, &cfg());
        let mut fabric = Fabric::new(&topo);
        assert_eq!(fabric.next_event(0), None, "idle fabric has no events");
        let slow = fabric.send(0, 1, 0, 10, 500_000);
        let fast = fabric.send(0, 2, 3, 20, 1_000);
        assert!(fast < slow);
        // Global minimum across inboxes, and exact per GPU.
        assert_eq!(fabric.next_event(0), Some(fast));
        assert_eq!(fabric.next_arrival(0, 0), Some(slow));
        assert_eq!(fabric.next_arrival(3, 0), Some(fast));
        assert_eq!(fabric.next_arrival(1, 0), None);
        // Stepping deliveries cycle by cycle pops exactly at the
        // predicted cycles.
        for now in 1..fast {
            assert!(fabric.deliveries_until(3, now).is_empty());
        }
        assert_eq!(fabric.deliveries_until(3, fast).len(), 1);
        assert_eq!(fabric.next_event(0), Some(slow));
        // An overdue head clamps forward to now + 1.
        assert_eq!(fabric.next_arrival(0, slow + 10), Some(slow + 11));
        fabric.deliveries_until(0, slow);
        assert_eq!(fabric.next_event(slow), None);
    }

    #[test]
    #[should_panic(expected = "disagree on device count")]
    fn mismatched_schedule_rejected() {
        let topo4 = Topology::ring(4, &cfg());
        let topo8 = Topology::ring(8, &cfg());
        let sched = Schedule::reduce_scatter(&topo8);
        let _ = Fabric::new(&topo4).run_schedule(&sched, 1024, None);
    }
}
