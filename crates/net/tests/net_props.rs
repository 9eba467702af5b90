//! Property tests for the interconnect substrate: link conservation
//! and ordering, ring-schedule algebra, and DMA pipelines.
//!
//! Cases are generated with a seeded deterministic PRNG
//! ([`SplitMix64`]) so every failure reproduces from its seed.

use t3_mem::arbiter::ComputeFirstPolicy;
use t3_mem::controller::MemoryController;
use t3_net::dma::{DmaCommand, DmaEngine};
use t3_net::link::Link;
use t3_net::ring::{chunk_bounds, Ring};
use t3_sim::config::SystemConfig;
use t3_sim::rng::SplitMix64;
use t3_sim::stats::TrafficClass;

/// Arrivals are FIFO and never earlier than the physical bound
/// (serialisation + latency); total delivered equals total sent.
#[test]
fn link_fifo_and_conservation() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed);
        let msgs: Vec<(u64, u64)> = (0..rng.gen_range(1, 20))
            .map(|_| (rng.gen_range(1, 500_000), rng.gen_range(0, 10_000)))
            .collect();
        let cfg = SystemConfig::paper_default().link;
        let mut link = Link::new(&cfg);
        let mut sent_total = 0u64;
        let mut last_arrival = 0u64;
        let mut clock = 0u64;
        for (i, (bytes, gap)) in msgs.iter().enumerate() {
            clock += gap;
            let arrival = link.send(clock, i as u64, *bytes);
            sent_total += bytes;
            assert!(
                arrival >= last_arrival,
                "seed {seed}: arrivals must be FIFO"
            );
            assert!(
                arrival >= clock + link.serialization_cycles(*bytes) + link.latency(),
                "seed {seed}: arrival beats physics"
            );
            last_arrival = arrival;
        }
        let deliveries = link.deliveries_until(u64::MAX);
        assert_eq!(deliveries.len(), msgs.len(), "seed {seed}");
        assert_eq!(
            deliveries.iter().map(|d| d.bytes).sum::<u64>(),
            sent_total,
            "seed {seed}"
        );
        assert_eq!(link.total_sent(), sent_total, "seed {seed}");
        // Tags preserved in order.
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.tag, i as u64, "seed {seed}");
        }
    }
}

/// Ring schedule algebra for every ring size 2..=32: each step's sends
/// are a permutation of chunks; receive = predecessor's send; the
/// reduction chain of every chunk ends at its owner.
#[test]
fn ring_schedule_algebra() {
    for n in 2usize..33 {
        let ring = Ring::new(n);
        for step in 0..ring.steps() {
            let mut seen = vec![false; n];
            for d in 0..n {
                let c = ring.rs_send_chunk(d, step);
                assert!(!seen[c], "n={n}");
                seen[c] = true;
                assert_eq!(
                    ring.rs_recv_chunk(d, step),
                    ring.rs_send_chunk(ring.prev(d), step),
                    "n={n}"
                );
                assert_eq!(
                    ring.ag_recv_chunk(d, step),
                    ring.ag_send_chunk(ring.prev(d), step),
                    "n={n}"
                );
            }
        }
        for c in 0..n {
            let mut holder = c;
            for step in 0..ring.steps() {
                assert_eq!(ring.rs_send_chunk(holder, step), c, "n={n}");
                holder = ring.next(holder);
            }
            assert_eq!(ring.rs_owned_chunk(holder), c, "n={n}");
        }
    }
}

/// Chunk bounds partition any length over any device count.
#[test]
fn chunk_bounds_partition() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.gen_range_usize(0, 10_000);
        let n = rng.gen_range_usize(1, 64);
        let mut covered = 0;
        for i in 0..n {
            let (s, e) = chunk_bounds(len, n, i);
            assert_eq!(s, covered, "seed {seed}: len={len} n={n}");
            assert!(e >= s, "seed {seed}");
            covered = e;
        }
        assert_eq!(covered, len, "seed {seed}: len={len} n={n}");
    }
}

/// DMA pipelines complete every command once, in trigger order, reading
/// exactly the command's bytes from memory; zero-byte commands complete
/// at trigger without a read. Commands arrive while earlier reads are in
/// flight, and whenever the controller is idle (where a fast-forward
/// loop leaps) `next_event` names exactly the next cycle the engine
/// changes state.
#[test]
fn dma_pipeline_conservation() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(seed);
        let mut at = 0;
        let cmds: Vec<(u64, DmaCommand)> = (0..rng.gen_range(1, 8))
            .map(|id| {
                at += rng.gen_range(0, 2_000);
                let bytes = if rng.gen_range(0, 4) == 0 {
                    0
                } else {
                    rng.gen_range(1, 300_000)
                };
                let read_class = TrafficClass::RsRead;
                (
                    at,
                    DmaCommand {
                        id,
                        dst: 1,
                        bytes,
                        read_class,
                    },
                )
            })
            .collect();
        let sys = SystemConfig::paper_default();
        let mut engine = DmaEngine::new();
        let mut mc = MemoryController::new(&sys.mem, ComputeFirstPolicy::new());
        let mut pending = cmds.iter().peekable();
        let (mut done, mut changes, mut predictions) = (Vec::new(), Vec::new(), Vec::new());
        let mut now = 0u64;
        while pending.peek().is_some() || !(engine.is_idle() && mc.is_idle()) {
            mc.step(now, None);
            let before = (
                engine.is_idle(),
                engine.read_watch(),
                engine.sent_commands(),
            );
            done.extend(engine.step(&mut mc).map(|c| c.id));
            while let Some((_, cmd)) = pending.next_if(|(at, _)| *at == now) {
                engine.trigger(*cmd);
            }
            if (
                engine.is_idle(),
                engine.read_watch(),
                engine.sent_commands(),
            ) != before
            {
                changes.push(now);
            }
            let next_trigger = pending.peek().map(|(at, _)| *at);
            predictions.push((now, engine.next_event(now, &mc), next_trigger, mc.is_idle()));
            now += 1;
            assert!(now < 50_000_000, "seed {seed}: failed to drain");
        }
        let nonempty = cmds.iter().filter(|(_, c)| c.bytes > 0);
        let expected: Vec<u64> = nonempty.map(|(_, c)| c.id).collect();
        assert_eq!(done, expected, "seed {seed}: order, exactly once");
        assert_eq!(engine.sent_commands(), cmds.len() as u64, "seed {seed}");
        assert_eq!(
            mc.stats().bytes(TrafficClass::RsRead),
            cmds.iter().map(|(_, c)| c.bytes).sum::<u64>(),
            "seed {seed}: bytes read"
        );
        for (asked, predicted, next_trigger, mc_idle) in predictions {
            // Only an engine left alone is predictable: a trigger is
            // an external input.
            if !mc_idle || next_trigger.is_some_and(|t| t <= asked + 1) {
                continue;
            }
            let actual = changes.iter().copied().find(|&c| c > asked);
            let actual = actual.filter(|&c| next_trigger.is_none_or(|t| c < t));
            assert_eq!(predicted, actual, "seed {seed}: after cycle {asked}");
        }
    }
}
