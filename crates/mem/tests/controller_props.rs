//! Property tests for the memory controller: conservation, bounded
//! queues, and policy-independent correctness under arbitrary batch
//! sequences.
//!
//! Cases come from a seeded deterministic PRNG so failures reproduce
//! from the printed seed alone.

use t3_mem::arbiter::{ArbitrationPolicy, ComputeFirstPolicy, McaPolicy, RoundRobinPolicy};
use t3_mem::controller::{MemoryController, StreamId};
use t3_sim::config::SystemConfig;
use t3_sim::rng::SplitMix64;
use t3_sim::stats::TrafficClass;

#[derive(Debug, Clone)]
struct Req {
    compute: bool,
    class_idx: usize,
    bytes: u64,
    nmc: bool,
}

fn gen_reqs(rng: &mut SplitMix64, max_len: usize) -> Vec<Req> {
    (0..rng.gen_range_usize(1, max_len))
        .map(|_| Req {
            compute: rng.gen_bool(),
            class_idx: rng.gen_range_usize(0, TrafficClass::ALL.len()),
            bytes: rng.gen_range(1, 200_000),
            nmc: rng.gen_bool(),
        })
        .collect()
}

fn policies() -> Vec<ArbitrationPolicy> {
    let cfg = SystemConfig::paper_default().mem;
    vec![
        RoundRobinPolicy::new().into(),
        ComputeFirstPolicy::new().into(),
        McaPolicy::new(&cfg).into(),
        McaPolicy::with_fixed_threshold(5).into(),
    ]
}

/// Every byte enqueued is eventually serviced, exactly once, under
/// every arbitration policy, and the DRAM queue never exceeds its
/// capacity.
#[test]
fn conservation_under_every_policy() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let reqs = gen_reqs(&mut rng, 20);
        let cfg = SystemConfig::paper_default().mem;
        for policy in policies() {
            let mut mc = MemoryController::new(&cfg, policy);
            let mut want_compute = 0u64;
            let mut want_comm = 0u64;
            let mut want_per_class = [0u64; TrafficClass::ALL.len()];
            for r in &reqs {
                let stream = if r.compute {
                    StreamId::Compute
                } else {
                    StreamId::Comm
                };
                let class = TrafficClass::ALL[r.class_idx];
                let cost = if r.nmc { cfg.nmc_cost_multiplier } else { 1.0 };
                mc.enqueue(stream, class, r.bytes, cost);
                if r.compute {
                    want_compute += r.bytes;
                } else {
                    want_comm += r.bytes;
                }
                want_per_class[class.index()] += r.bytes;
            }
            let mut now = 0u64;
            while !mc.is_idle() {
                assert!(
                    mc.dram_occupancy() <= cfg.dram_queue_capacity,
                    "seed {seed}"
                );
                mc.step(now, None);
                now += 1;
                assert!(now < 50_000_000, "seed {seed}: failed to drain");
            }
            assert_eq!(
                mc.serviced_bytes(StreamId::Compute),
                want_compute,
                "seed {seed}"
            );
            assert_eq!(mc.serviced_bytes(StreamId::Comm), want_comm, "seed {seed}");
            for (i, &class) in TrafficClass::ALL.iter().enumerate() {
                assert_eq!(mc.stats().bytes(class), want_per_class[i], "seed {seed}");
            }
            assert_eq!(mc.pending_bytes(StreamId::Compute), 0, "seed {seed}");
            assert_eq!(mc.pending_bytes(StreamId::Comm), 0, "seed {seed}");
        }
    }
}

/// Service time is bounded below by the bandwidth bound and above by a
/// generous contention bound.
#[test]
fn timing_bounds() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let compute_bytes = rng.gen_range(10_000, 2_000_000);
        let comm_bytes = rng.gen_range(10_000, 2_000_000);
        let cfg = SystemConfig::paper_default().mem;
        let mut mc = MemoryController::new(&cfg, RoundRobinPolicy::new());
        mc.enqueue(
            StreamId::Compute,
            TrafficClass::GemmRead,
            compute_bytes,
            1.0,
        );
        mc.enqueue(StreamId::Comm, TrafficClass::RsRead, comm_bytes, 1.0);
        let mut now = 0u64;
        while !mc.is_idle() {
            mc.step(now, None);
            now += 1;
        }
        let total = (compute_bytes + comm_bytes) as f64;
        let floor = total / cfg.bytes_per_cycle();
        let ceil = floor * (1.0 + cfg.stream_switch_penalty) + 1_000.0;
        assert!(
            (now as f64) >= floor * 0.99,
            "seed {seed}: {now} below bandwidth floor {floor}"
        );
        assert!(
            (now as f64) <= ceil * 1.05,
            "seed {seed}: {now} above contention ceiling {ceil}"
        );
    }
}

/// FIFO order within a stream: a later batch never completes before an
/// earlier one (observed via cumulative counters at each step).
#[test]
fn serviced_bytes_monotone() {
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let reqs = gen_reqs(&mut rng, 10);
        let cfg = SystemConfig::paper_default().mem;
        let mut mc = MemoryController::new(&cfg, ComputeFirstPolicy::new());
        for r in &reqs {
            let stream = if r.compute {
                StreamId::Compute
            } else {
                StreamId::Comm
            };
            mc.enqueue(stream, TrafficClass::ALL[r.class_idx], r.bytes, 1.0);
        }
        let mut last = (0u64, 0u64);
        let mut now = 0u64;
        while !mc.is_idle() {
            mc.step(now, None);
            let cur = (
                mc.serviced_bytes(StreamId::Compute),
                mc.serviced_bytes(StreamId::Comm),
            );
            assert!(cur.0 >= last.0 && cur.1 >= last.1, "seed {seed}");
            last = cur;
            now += 1;
            assert!(now < 50_000_000, "seed {seed}");
        }
    }
}

/// `advance_busy` is exactly one-cycle stepping: from any busy state,
/// under every policy (MCA with a short starvation guard too), it stops
/// at the first cycle a watch on any counter is reached, the
/// controller drains, or the horizon is next, and leaves the controller,
/// its time series and its instruments exactly as stepping does.
#[test]
fn advance_busy_equals_one_cycle_stepping() {
    use t3_mem::controller::Watch;
    use t3_sim::timeseries::TimeSeries;
    use t3_trace::Instruments;

    let cfg = SystemConfig::paper_default().mem;
    let mut all = policies();
    all.push(
        McaPolicy::with_fixed_threshold(10)
            .with_starvation_limit(40)
            .into(),
    );
    for seed in 0..24u64 {
        for policy in &all {
            let mut rng = SplitMix64::new(seed);
            let mut stepped = MemoryController::new(&cfg, policy.clone());
            let mut leaped = MemoryController::new(&cfg, policy.clone());
            let (mut ts_s, mut ts_l) = (TimeSeries::new(64), TimeSeries::new(64));
            let (mut ins_s, mut ins_l) = (Instruments::full(), Instruments::full());
            let mut now = 0u64;
            for round in 0..10 {
                for r in gen_reqs(&mut rng, 5) {
                    let stream = if r.compute {
                        StreamId::Compute
                    } else {
                        StreamId::Comm
                    };
                    let class = TrafficClass::ALL[r.class_idx];
                    let cost = if r.nmc { cfg.nmc_cost_multiplier } else { 1.0 };
                    stepped.enqueue(stream, class, r.bytes, cost);
                    leaped.enqueue(stream, class, r.bytes, cost);
                }
                if round == 3 {
                    stepped.observe_compute_intensity(0.3);
                    leaped.observe_compute_intensity(0.3);
                }
                let ahead = |rng: &mut SplitMix64, at: u64| at + rng.gen_range(0, 400_000);
                let class = TrafficClass::ALL[rng.gen_range_usize(0, TrafficClass::ALL.len())];
                let watches = [
                    Some(Watch::Serviced(
                        StreamId::Compute,
                        ahead(&mut rng, stepped.serviced_bytes(StreamId::Compute)),
                    )),
                    rng.gen_bool().then(|| {
                        Watch::Serviced(
                            StreamId::Comm,
                            ahead(&mut rng, stepped.serviced_bytes(StreamId::Comm)),
                        )
                    }),
                    Some(Watch::Class(
                        class,
                        ahead(&mut rng, stepped.stats().bytes(class)),
                    )),
                ];
                let horizon = now + rng.gen_range(1, 20_000);
                let at =
                    leaped.advance_busy(now, horizon, &watches, Some(&mut ts_l), Some(&mut ins_l));
                let mut t = now;
                loop {
                    stepped.step_traced(t, Some(&mut ts_s), Some(&mut ins_s));
                    let watched = watches.iter().flatten().any(|&w| match w {
                        Watch::Serviced(stream, target) => stepped.serviced_bytes(stream) >= target,
                        Watch::Class(class, target) => stepped.stats().bytes(class) >= target,
                    });
                    if watched || stepped.is_idle() || t + 1 == horizon {
                        break;
                    }
                    t += 1;
                }
                let case = format!("seed {seed} {policy:?} round {round}");
                assert_eq!(at, t, "{case}");
                assert_eq!(format!("{leaped:?}"), format!("{stepped:?}"), "{case}");
                now = at + 1;
            }
            assert_eq!(format!("{ts_l:?}"), format!("{ts_s:?}"), "seed {seed}");
            let trace =
                |ins: &Instruments| ins.tracer.as_ref().map(|t| format!("{:?}", t.records()));
            assert_eq!(trace(&ins_l), trace(&ins_s), "seed {seed}");
            let metrics = |ins: &Instruments| ins.metrics.as_ref().map(|m| m.to_json());
            assert_eq!(metrics(&ins_l), metrics(&ins_s), "seed {seed}");
        }
    }
}

/// The uninstrumented twin of `advance_busy_equals_one_cycle_stepping`:
/// with no time series and no instruments, `advance_busy` replays a
/// lone stream's drain in a tight loop, so half the rounds here enqueue
/// large batches on one stream only. Under all five policies the leap
/// must stop at the same cycle as plain stepping and leave a
/// `Debug`-equal controller after every leap.
#[test]
fn uninstrumented_advance_busy_equals_one_cycle_stepping() {
    use t3_mem::controller::Watch;

    let cfg = SystemConfig::paper_default().mem;
    let mut all = policies();
    all.push(
        McaPolicy::with_fixed_threshold(10)
            .with_starvation_limit(40)
            .into(),
    );
    let mut covered = 0u64;
    for seed in 0..48u64 {
        for policy in &all {
            let mut rng = SplitMix64::new(seed);
            let mut stepped = MemoryController::new(&cfg, policy.clone());
            let mut leaped = MemoryController::new(&cfg, policy.clone());
            let mut now = 0u64;
            for round in 0..10 {
                let lone = rng.gen_bool().then(|| rng.gen_bool());
                let reqs = match lone {
                    Some(compute) => (0..rng.gen_range_usize(1, 4))
                        .map(|_| Req {
                            compute,
                            class_idx: rng.gen_range_usize(0, TrafficClass::ALL.len()),
                            bytes: rng.gen_range(1, 4_000_000),
                            nmc: rng.gen_bool(),
                        })
                        .collect(),
                    None => gen_reqs(&mut rng, 5),
                };
                for r in reqs {
                    let stream = if r.compute {
                        StreamId::Compute
                    } else {
                        StreamId::Comm
                    };
                    let class = TrafficClass::ALL[r.class_idx];
                    let cost = if r.nmc { cfg.nmc_cost_multiplier } else { 1.0 };
                    stepped.enqueue(stream, class, r.bytes, cost);
                    leaped.enqueue(stream, class, r.bytes, cost);
                }
                if round == 3 {
                    stepped.observe_compute_intensity(0.3);
                    leaped.observe_compute_intensity(0.3);
                }
                let ahead = |rng: &mut SplitMix64, at: u64| at + rng.gen_range(0, 3_000_000);
                let class = TrafficClass::ALL[rng.gen_range_usize(0, TrafficClass::ALL.len())];
                let watches = [
                    rng.gen_bool().then(|| {
                        Watch::Serviced(
                            StreamId::Compute,
                            ahead(&mut rng, stepped.serviced_bytes(StreamId::Compute)),
                        )
                    }),
                    rng.gen_bool().then(|| {
                        Watch::Serviced(
                            StreamId::Comm,
                            ahead(&mut rng, stepped.serviced_bytes(StreamId::Comm)),
                        )
                    }),
                    rng.gen_bool().then(|| {
                        Watch::Class(class, ahead(&mut rng, stepped.stats().bytes(class)))
                    }),
                ];
                let horizon = now + rng.gen_range(1, 60_000);
                let at = leaped.advance_busy(now, horizon, &watches, None, None);
                let mut t = now;
                loop {
                    stepped.step(t, None);
                    let watched = watches.iter().flatten().any(|&w| match w {
                        Watch::Serviced(stream, target) => stepped.serviced_bytes(stream) >= target,
                        Watch::Class(class, target) => stepped.stats().bytes(class) >= target,
                    });
                    if watched || stepped.is_idle() || t + 1 == horizon {
                        break;
                    }
                    t += 1;
                }
                let case = format!("seed {seed} {policy:?} round {round}");
                assert_eq!(at, t, "{case}");
                assert_eq!(format!("{leaped:?}"), format!("{stepped:?}"), "{case}");
                covered += at + 1 - now;
                now = at + 1;
            }
        }
    }
    assert!(covered > 2_000_000, "only {covered} cycles covered");
}
