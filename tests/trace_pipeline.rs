//! Golden end-to-end test of the observability pipeline: a small
//! fused GEMM-RS run traced through [`t3::trace::Instruments`], with
//! event counts cross-checked against the run's own results, metrics
//! cross-checked against [`TrafficStats`], and the Chrome trace-event
//! exporter producing structurally valid, cycle-ordered JSON.

use std::collections::BTreeSet;

use t3::core::engine::{run_fused_gemm_rs, run_fused_gemm_rs_instrumented, FusedOptions};
use t3::core::multigpu::run_multi_gpu_fused_rs_on;
use t3::gpu::gemm::{GemmGrid, GemmShape};
use t3::sim::config::SystemConfig;
use t3::sim::stats::TrafficClass;
use t3::topo::Topology;
use t3::trace::chrome::chrome_trace_json;
use t3::trace::{Detail, Event, Instruments, Tracer};

fn small_system() -> (SystemConfig, GemmShape) {
    let mut sys = SystemConfig::paper_default();
    sys.num_gpus = 4;
    (sys, GemmShape::new(512, 1024, 256))
}

/// Enabling instrumentation must not perturb the simulation: every
/// externally visible result is bit-identical with and without it.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let (sys, shape) = small_system();
    let opts = FusedOptions::default();
    let plain = run_fused_gemm_rs(&sys, GemmGrid::new(&sys.gpu, shape), &opts);
    let mut ins = Instruments::full();
    let traced =
        run_fused_gemm_rs_instrumented(&sys, GemmGrid::new(&sys.gpu, shape), &opts, Some(&mut ins));
    assert_eq!(traced.cycles, plain.cycles);
    assert_eq!(traced.dma_transfers, plain.dma_transfers);
    assert_eq!(traced.link_bytes_sent, plain.link_bytes_sent);
    assert_eq!(traced.peak_tracker_entries, plain.peak_tracker_entries);
    for class in TrafficClass::ALL {
        assert_eq!(traced.stats.bytes(class), plain.stats.bytes(class));
    }
}

/// Event counts and byte totals agree with the run's own accounting.
#[test]
fn event_counts_match_run_result() {
    let (sys, shape) = small_system();
    let opts = FusedOptions::default();
    let mut ins = Instruments::full();
    let run =
        run_fused_gemm_rs_instrumented(&sys, GemmGrid::new(&sys.gpu, shape), &opts, Some(&mut ins));
    let tracer = ins.tracer.as_ref().unwrap();
    let metrics = ins.metrics.as_ref().unwrap();

    // One trigger fire and one DMA chunk send per DMA transfer.
    let fires = tracer.count(|e| matches!(e, Event::DmaTriggerFire { .. }));
    let sends = tracer.count(|e| matches!(e, Event::ChunkSend { .. }));
    assert_eq!(fires as u64, run.dma_transfers);
    assert_eq!(sends as u64, run.dma_transfers);
    assert_eq!(metrics.counter("dma.triggers_fired"), run.dma_transfers);
    assert_eq!(metrics.counter("dma.transfers"), run.dma_transfers);

    // Every byte on the link shows up in a LinkBusy interval.
    let link_bytes: u64 = tracer
        .records()
        .iter()
        .filter_map(|r| match r.event {
            Event::LinkBusy { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum();
    assert_eq!(link_bytes, run.link_bytes_sent);
    assert_eq!(metrics.counter("link.bytes_sent"), run.link_bytes_sent);

    // GEMM stages: one span per stage of the grid, summary counters.
    let stages = tracer.count(|e| matches!(e, Event::GemmStage { .. }));
    assert!(stages > 0);
    assert_eq!(metrics.counter("gemm.stages"), stages as u64);
    assert_eq!(metrics.counter("run.cycles"), run.cycles);
    assert_eq!(
        metrics.counter("tracker.peak_entries"),
        run.peak_tracker_entries as u64
    );
}

/// Per-class byte counters in the registry equal the run's
/// `TrafficStats` exactly (acceptance criterion for the metrics dump).
#[test]
fn traffic_metrics_match_traffic_stats() {
    let (sys, shape) = small_system();
    let opts = FusedOptions::default();
    let mut ins = Instruments::full();
    let run =
        run_fused_gemm_rs_instrumented(&sys, GemmGrid::new(&sys.gpu, shape), &opts, Some(&mut ins));
    let metrics = ins.metrics.as_ref().unwrap();
    for class in TrafficClass::ALL {
        let name = format!("traffic.{}.bytes", class.slug());
        assert_eq!(metrics.counter(&name), run.stats.bytes(class), "{name}");
    }
    assert_eq!(metrics.counter("traffic.total.bytes"), run.stats.total());
}

/// The mirrored ring with `ins` attached.
fn mirrored_ring(ins: &mut Instruments) {
    let (sys, shape) = small_system();
    let grid = GemmGrid::new(&sys.gpu, shape);
    run_fused_gemm_rs_instrumented(&sys, grid, &FusedOptions::default(), Some(ins));
}

/// The explicit ring with `ins` attached to device 0.
fn explicit_ring(ins: &mut Instruments) {
    let (sys, shape) = small_system();
    let grid = GemmGrid::new(&sys.gpu, shape);
    let topo = Topology::ring(sys.num_gpus, &sys.link);
    let opts = FusedOptions::default();
    run_multi_gpu_fused_rs_on(&sys, grid, &opts, &topo, Some(ins));
}

/// Tracker-table updates are only recorded at `Detail::Fine`, and at
/// that level one per wavefront completion, in both engines.
#[test]
fn tracker_updates_gated_behind_fine_detail() {
    type Run = fn(&mut Instruments);
    let engines: [(&str, Run); 2] = [("mirrored", mirrored_ring), ("explicit", explicit_ring)];
    let updates = |ins: &Instruments| {
        let tracer = ins.tracer.as_ref().unwrap();
        tracer.count(|e| matches!(e, Event::TrackerUpdate { .. }))
    };
    for (name, run) in engines {
        let mut coarse = Instruments::full();
        run(&mut coarse);
        assert_eq!(updates(&coarse), 0, "{name}");

        let mut fine = Instruments::full();
        fine.tracer = Some(Tracer::with_detail(Detail::Fine));
        run(&mut fine);
        let completions = fine
            .metrics
            .as_ref()
            .unwrap()
            .counter("tracker.wf_completions");
        assert_eq!(updates(&fine) as u64, completions, "{name}");
        assert!(completions > 0, "{name}");
    }
}

/// Both engines book device 0's metrics under the same keys (the
/// explicit one adds `run.skew`), and each DMA transfer is one fire
/// and one send of the chunk's bytes.
#[test]
fn device_zero_metrics_share_one_scope_across_engines() {
    let keys = |ins: &Instruments| {
        let m = ins.metrics.as_ref().unwrap();
        let counters = m.counters().map(|(k, _)| k.to_string());
        let histograms = m.histograms().map(|(k, _)| k.to_string());
        counters.chain(histograms).collect::<BTreeSet<_>>()
    };
    let mut mirrored = Instruments::full();
    mirrored_ring(&mut mirrored);
    let mut explicit = Instruments::full();
    explicit_ring(&mut explicit);
    let mut want = keys(&mirrored);
    want.insert("run.skew".to_string());
    assert_eq!(keys(&explicit), want);

    let m = explicit.metrics.as_ref().unwrap();
    let transfers = m.counter("dma.transfers");
    assert!(transfers > 0);
    assert_eq!(m.counter("dma.chunks_sent"), transfers);
    assert_eq!(m.counter("dma.triggers_fired"), transfers);
    let sent: u64 = explicit
        .tracer
        .as_ref()
        .unwrap()
        .records()
        .iter()
        .filter_map(|r| match r.event {
            Event::ChunkSend { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum();
    assert_eq!(m.counter("dma.bytes_sent"), sent);
}

/// The Chrome exporter emits structurally valid, cycle-ordered JSON
/// that Perfetto / `chrome://tracing` can load.
#[test]
fn chrome_export_is_valid_and_ordered() {
    let (sys, shape) = small_system();
    let opts = FusedOptions::default();
    let mut ins = Instruments::full();
    run_fused_gemm_rs_instrumented(&sys, GemmGrid::new(&sys.gpu, shape), &opts, Some(&mut ins));
    let tracer = ins.tracer.as_ref().unwrap();
    let json = chrome_trace_json(tracer.records(), sys.gpu.clock_ghz);

    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    // Balanced braces and brackets (no string in the output contains
    // them: names and categories are fixed identifiers).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // Every record makes it out, plus metadata lines.
    let durable = json.matches("\"ph\":\"X\"").count()
        + json.matches("\"ph\":\"i\"").count()
        + json.matches("\"ph\":\"C\"").count();
    assert_eq!(durable, tracer.len());
    assert!(json.contains("\"ph\":\"M\""));
    // Timestamps of emitted events are non-decreasing.
    let mut last = f64::NEG_INFINITY;
    for line in json.lines().filter(|l| !l.contains("\"ph\":\"M\"")) {
        if let Some(pos) = line.find("\"ts\":") {
            let rest = &line[pos + 5..];
            let end = rest
                .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let ts: f64 = rest[..end].parse().unwrap();
            assert!(ts >= last, "timestamps must be sorted: {ts} < {last}");
            last = ts;
        }
    }
    assert!(last > 0.0);
}
