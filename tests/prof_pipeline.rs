//! End-to-end pipeline tests for `t3-prof`: the analytics must agree
//! with the simulator's own cycle tally, survive the Chrome-JSON
//! round trip losslessly, render byte-identical golden output on a
//! pinned multinode workload, and gate the checked-in perf baseline.

use t3_bench::experiments::{self, ExperimentScale};
use t3_prof::analyze::{render as render_analysis, Analysis};
use t3_prof::check;
use t3_prof::collective::{collective_records, render as render_collectives};
use t3_prof::load::parse_chrome_trace;
use t3_trace::chrome::chrome_trace_json;
use t3_trace::Record;

fn tnlg_records() -> (Vec<Record>, u64, f64) {
    let (ins, run, clock_ghz) = experiments::traced_tnlg_sublayer(ExperimentScale::FAST);
    let tracer = ins.tracer.as_ref().expect("full instruments");
    (tracer.records().to_vec(), run.cycles, clock_ghz)
}

fn multinode_ring_records() -> (Vec<Record>, u64) {
    let (ins, run, _) = experiments::traced_multinode(ExperimentScale::FAST, "ring");
    let tracer = ins.tracer.as_ref().expect("full instruments");
    (tracer.records().to_vec(), run.cycles)
}

/// The acceptance cross-check: the analysis of a traced tnlg run must
/// agree with the engine's tallied `sim_cycles`, and the labeled
/// interval sets must partition the run exactly.
#[test]
fn tnlg_analysis_is_consistent_with_sim_cycles() {
    let (records, sim_cycles, _) = tnlg_records();
    let a = Analysis::from_records(&records);
    assert_eq!(
        a.total_cycles, sim_cycles,
        "analysis total must equal the engine's cycle tally"
    );
    assert_eq!(
        a.compute_cycles + a.exposed_collective_cycles + a.dma_fabric_cycles + a.idle_cycles,
        a.total_cycles,
        "compute/exposed/dma/idle must partition the run"
    );
    assert_eq!(
        a.overlapped_cycles + a.exposed_collective_cycles,
        a.collective_busy_cycles,
        "overlapped + exposed must cover all collective busy cycles"
    );
    let labeled: u64 = a.critical_path.iter().map(|s| s.end - s.start).sum();
    assert_eq!(labeled, a.total_cycles, "critical path must cover the run");
    // The fused run genuinely overlaps: both kinds of cycles exist.
    assert!(a.compute_cycles > 0 && a.collective_busy_cycles > 0);
    assert!(a.overlapped_cycles > 0, "T3 overlap must be visible");
    assert!(a.memory_stall_cycles > 0);
}

/// The exporter embeds exact integer cycles, so analysis of a trace
/// loaded back from Chrome JSON is identical to analysis of the
/// in-memory records.
#[test]
fn analysis_survives_the_chrome_round_trip() {
    let (records, _, clock_ghz) = tnlg_records();
    let direct = Analysis::from_records(&records);
    let json = chrome_trace_json(&records, clock_ghz);
    let loaded = parse_chrome_trace(&json).expect("exported traces parse");
    let round_tripped = Analysis::from_records(&loaded);
    assert_eq!(direct, round_tripped);
    assert_eq!(
        render_collectives(&collective_records(&records)),
        render_collectives(&collective_records(&loaded)),
    );
}

/// Same trace, same analysis: the analytics pass itself is
/// deterministic down to the byte.
#[test]
fn analytics_are_deterministic_across_runs() {
    let (a, _) = multinode_ring_records();
    let (b, _) = multinode_ring_records();
    assert_eq!(
        render_analysis(&Analysis::from_records(&a)),
        render_analysis(&Analysis::from_records(&b)),
    );
    assert_eq!(
        render_collectives(&collective_records(&a)),
        render_collectives(&collective_records(&b)),
    );
}

/// Golden test: the full analyze + collectives output of the FAST
/// ring multinode run, byte for byte. A diff here means collective
/// timing or attribution changed — update deliberately, with the
/// perf baseline, never casually.
#[test]
fn multinode_ring_golden_output() {
    let (records, sim_cycles) = multinode_ring_records();
    assert_eq!(sim_cycles, 198_519);
    let analysis = render_analysis(&Analysis::from_records(&records));
    let expected_analysis = "\
total cycles              : 198519
gemm stages               : 4
compute cycles            : 186867 (94.1% of total)
  memory-stall cycles     : 26639
collective busy cycles    : 76390 (14 sends, 7626752 bytes)
  overlapped with compute : 71189
  exposed                 : 5201 (2.6% of total)
dma/fabric-only cycles    : 2853
idle cycles               : 3598
fast-forward leaps        : 5 (6451 skippable cycles, 3.2% of total)
overlap fraction          : 93.1%
critical path             : 11 segments
  [0..2001) idle (2001 cycles)
  [2001..57264) compute (55263 cycles)
  [57264..57265) collective (1 cycles)
  [57265..101405) compute (44140 cycles)
  [101405..101406) dma/fabric (1 cycles)
  [101406..148813) compute (47407 cycles)
  [148813..148814) dma/fabric (1 cycles)
  [148814..188871) compute (40057 cycles)
  [188871..191722) dma/fabric (2851 cycles)
  [191722..196922) collective (5200 cycles)
  [196922..198519) idle (1597 cycles)
";
    assert_eq!(analysis, expected_analysis);

    let collectives = render_collectives(&collective_records(&records));
    let expected_collectives = "\
collective#00 op=reduce-scatter sched=ring-dma chunk=1 bytes=532480 hops=1 trigger=63791 send=[64538..69508) exposed=0
collective#01 op=reduce-scatter sched=ring-dma chunk=2 bytes=557056 hops=1 trigger=71638 send=[72419..77619) exposed=0
collective#02 op=reduce-scatter sched=ring-dma chunk=3 bytes=532480 hops=1 trigger=78339 send=[79086..84056) exposed=0
collective#03 op=reduce-scatter sched=ring-dma chunk=4 bytes=557056 hops=1 trigger=101405 send=[104256..109456) exposed=0
collective#04 op=reduce-scatter sched=ring-dma chunk=5 bytes=532480 hops=1 trigger=110698 send=[111445..116415) exposed=0
collective#05 op=reduce-scatter sched=ring-dma chunk=6 bytes=557056 hops=1 trigger=118630 send=[119411..124611) exposed=0
collective#06 op=reduce-scatter sched=ring-dma chunk=7 bytes=532480 hops=1 trigger=125246 send=[125993..130963) exposed=0
collective#07 op=reduce-scatter sched=ring-dma chunk=8 bytes=557056 hops=1 trigger=133784 send=[134565..139765) exposed=0
collective#08 op=reduce-scatter sched=ring-dma chunk=9 bytes=532480 hops=1 trigger=148813 send=[151539..156509) exposed=0
collective#09 op=reduce-scatter sched=ring-dma chunk=10 bytes=557056 hops=1 trigger=158375 send=[159156..164356) exposed=0
collective#10 op=reduce-scatter sched=ring-dma chunk=11 bytes=532480 hops=1 trigger=165340 send=[166087..171057) exposed=0
collective#11 op=reduce-scatter sched=ring-dma chunk=12 bytes=557056 hops=1 trigger=173529 send=[174310..179510) exposed=0
collective#12 op=reduce-scatter sched=ring-dma chunk=13 bytes=532480 hops=1 trigger=179888 send=[180635..185605) exposed=0
collective#13 op=reduce-scatter sched=ring-dma chunk=14 bytes=557056 hops=1 trigger=188871 send=[191722..196922) exposed=5200
total: 14 collectives, 7626752 bytes, 5200 exposed cycles
";
    assert_eq!(collectives, expected_collectives);
}

/// The checked-in perf baseline must self-check: a report with the
/// same cycles passes the gate, an injected regression beyond the
/// band fails it.
#[test]
fn bench_baseline_gates_regressions() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_10.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_10.json is checked in");
    let baseline = check::parse_report(&text).expect("baseline parses");
    assert!(!baseline.is_empty());
    assert!(
        baseline.iter().any(|j| j.sim_cycles > 0),
        "baseline must pin real simulated cycles"
    );
    assert!(baseline.iter().all(|j| j.status == "ok"));

    // Identity: the baseline passes against itself.
    let verdict = check::check(&baseline, &baseline, check::DEFAULT_TOLERANCE_PERMILLE);
    assert!(verdict.passed(), "{}", verdict.render_text());

    // Injected regression: grow the largest job past the (exact) band.
    let mut regressed = baseline.clone();
    let biggest = regressed
        .iter_mut()
        .max_by_key(|j| j.sim_cycles)
        .expect("non-empty");
    biggest.sim_cycles += biggest.sim_cycles / 100; // +1%
    let verdict = check::check(&regressed, &baseline, check::DEFAULT_TOLERANCE_PERMILLE);
    assert!(!verdict.passed(), "{}", verdict.render_text());

    // A dropped job also fails: coverage must not silently shrink.
    let shrunk: Vec<_> = baseline[1..].to_vec();
    let verdict = check::check(&shrunk, &baseline, check::DEFAULT_TOLERANCE_PERMILLE);
    assert!(!verdict.passed());
}
