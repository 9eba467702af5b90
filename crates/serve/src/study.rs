//! The headline serving studies behind the `figures serving` and
//! `figures serving-fused` targets.
//!
//! One deployment — a scaled transformer slice on an 8-GPU TP group —
//! is driven by seeded open-loop traffic at two load points on two
//! fabrics, under the baseline (sequential GEMM → RS → AG) and the
//! T3-fused engine. Both engines see **byte-identical request
//! traces**: arrival gaps are derived from the *baseline* engine's
//! decode capacity, so the comparison isolates the execution mode.
//! Co-tenant interference is priced by
//! [`contention_factor_permille`] on the same fabric the TP group
//! runs on.

use t3_sim::config::SystemConfig;
use t3_sim::{Cycle, SimMode};
use t3_topo::graph::Topology;
use t3_trace::Instruments;

use crate::cost::{CostModel, EngineMode, MAX_BUCKET_TOKENS};
use crate::engine::{run_engine, EngineConfig, EngineRun};
use crate::interference::contention_factor_permille;
use crate::request::{LatencySummary, Request};
use crate::traffic::{
    expected_output_tokens, generate_requests, mean_gap_cycles, ArrivalKind, TrafficConfig,
};

/// TP degree of the serving deployment (one 8-GPU group).
pub const SERVE_TP: u64 = 8;
/// Hidden dimension of the served model slice — scaled down from the
/// Table 2 models so debug-mode smoke runs stay quick while keeping
/// the GEMM-vs-collective balance the paper studies.
pub const SERVE_HIDDEN: u64 = 1024;
/// Transformer layers of the served model slice.
pub const SERVE_LAYERS: u64 = 4;
/// Request streams sharing the fabric in the headline study.
pub const SERVE_TENANTS: u64 = 2;
/// Decode slots of the continuous-batching engine.
pub const SERVE_MAX_BATCH: u64 = 16;
/// Prefill token budget per iteration.
pub const SERVE_MAX_PREFILL_TOKENS: u64 = 2048;
/// Base seed of every serving trace ("serve" in ASCII).
pub const SERVE_SEED: u64 = 0x73_65_72_76_65;
/// The fabrics of the headline study.
pub const SERVE_TOPOLOGIES: [&str; 2] = ["ring", "hierarchical"];
/// The load points: (permille of decode capacity, arrival process).
/// Low load arrives smoothly; high load arrives in bursts — the
/// regime where tail latency separates the engines.
pub const SERVE_LOAD_POINTS: [(u64, ArrivalKind); 2] =
    [(400, ArrivalKind::Poisson), (900, ArrivalKind::Bursty)];

/// The serving deployment's system: paper-default GPUs, one TP group.
pub fn serve_system() -> SystemConfig {
    SystemConfig::paper_default().with_num_gpus(SERVE_TP as usize)
}

/// Builds the named serving fabric over the TP group. `hierarchical`
/// joins two half-size nodes by links with 1/4 bandwidth and 4x
/// latency (the multinode study's convention). Returns `None` for
/// unknown names.
pub fn serve_topology(name: &str, sys: &SystemConfig) -> Option<Topology> {
    let n = SERVE_TP as usize;
    let link = &sys.link;
    Some(match name {
        "ring" => Topology::ring(n, link),
        "hierarchical" => {
            let mut slow = link.clone();
            slow.link_gb_s /= 4.0;
            slow.latency_ns *= 4.0;
            Topology::hierarchical(2, n / 2, link, &slow)
        }
        _ => return None,
    })
}

/// Requests per tenant at a token divisor (fast scales shrink the
/// trace alongside the token lengths).
pub fn requests_per_tenant(token_divisor: u64) -> usize {
    if token_divisor >= 8 {
        24
    } else {
        64
    }
}

/// One measured serving point: a (fabric, load, engine) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingRow {
    /// Fabric name (see [`SERVE_TOPOLOGIES`]).
    pub topology: &'static str,
    /// Offered load in permille of baseline decode capacity.
    pub load_permille: u64,
    /// Arrival process of the trace.
    pub arrival: ArrivalKind,
    /// Engine mode the point ran under.
    pub mode: EngineMode,
    /// Tenants sharing the fabric.
    pub tenants: u64,
    /// Priced fabric-contention factor (permille).
    pub contention_permille: u64,
    /// Time-to-first-token percentiles (cycles).
    pub ttft: LatencySummary,
    /// End-to-end latency percentiles (cycles).
    pub e2e: LatencySummary,
    /// The full engine run (outcomes, iteration counts, makespan).
    pub run: EngineRun,
}

impl ServingRow {
    /// Generated tokens per second per GPU at `clock_ghz`.
    pub fn tokens_per_sec_per_gpu(&self, clock_ghz: f64) -> f64 {
        let seconds = self.run.makespan as f64 / (clock_ghz * 1e9);
        self.run.generated_tokens as f64 / seconds / SERVE_TP as f64
    }
}

/// The merged multi-tenant request trace for one load point. Every
/// tenant draws from its own seeded stream; gaps are calibrated
/// against the **baseline** engine's decode capacity so both engines
/// serve identical traffic.
pub fn serving_traffic(
    cost: &CostModel,
    load_permille: u64,
    arrival: ArrivalKind,
    tenants: u64,
    token_divisor: u64,
) -> Vec<Request> {
    let decode_iter = cost.iteration_cycles(EngineMode::Baseline, SERVE_MAX_BATCH, 1000);
    let mean_gap = mean_gap_cycles(
        decode_iter,
        expected_output_tokens(token_divisor),
        SERVE_MAX_BATCH,
        load_permille,
    );
    let cfg = TrafficConfig {
        requests: requests_per_tenant(token_divisor),
        arrival,
        mean_gap_cycles: mean_gap,
        token_divisor,
    };
    let mut all = Vec::new();
    for tenant in 0..tenants {
        let seed = SERVE_SEED.wrapping_add(tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        all.extend(generate_requests(&cfg, tenant, seed));
    }
    all
}

/// Runs one serving point. Sublayer simulations are paid once per
/// token bucket per process: the cost oracle under
/// `Configuration::run_in_mode` keeps them.
#[allow(clippy::too_many_arguments)] // -- one serving cell is genuinely this many knobs; every study wrapper names them explicitly
pub fn serving_point(
    cost: &CostModel,
    topology: &'static str,
    load_permille: u64,
    arrival: ArrivalKind,
    mode: EngineMode,
    tenants: u64,
    token_divisor: u64,
    ins: Option<&mut Instruments>,
) -> ServingRow {
    let sys = serve_system();
    let topo = serve_topology(topology, &sys).expect("known serving fabric");
    // Price co-tenancy with the heaviest recurring collective: the
    // prefill-scale reduce-scatter payload.
    let payload = SERVE_MAX_PREFILL_TOKENS.min(MAX_BUCKET_TOKENS) * SERVE_HIDDEN * 2;
    let contention = contention_factor_permille(&topo, payload, tenants);
    let requests = serving_traffic(cost, load_permille, arrival, tenants, token_divisor);
    let cfg = EngineConfig {
        mode,
        max_batch: SERVE_MAX_BATCH,
        max_prefill_tokens: SERVE_MAX_PREFILL_TOKENS,
        contention_permille: contention,
    };
    let run = run_engine(cost, &cfg, &requests, ins);
    let ttft: Vec<Cycle> = run.outcomes.iter().map(|o| o.ttft_cycles()).collect();
    let e2e: Vec<Cycle> = run.outcomes.iter().map(|o| o.e2e_cycles()).collect();
    ServingRow {
        topology,
        load_permille,
        arrival,
        mode,
        tenants,
        contention_permille: contention,
        ttft: LatencySummary::of(&ttft),
        e2e: LatencySummary::of(&e2e),
        run,
    }
}

/// A fresh cost model for the serving deployment.
pub fn serve_cost_model() -> CostModel {
    CostModel::new(&serve_system(), SERVE_HIDDEN, SERVE_LAYERS, SERVE_TP)
}

/// [`serve_cost_model`] pricing its sublayer buckets with an explicit
/// simulation mode (stepped reference vs fast-forward); the modes are
/// byte-identical, which the determinism pipeline asserts through
/// [`serving_study_in_mode`].
pub fn serve_cost_model_in_mode(mode: SimMode) -> CostModel {
    CostModel::new_in_mode(&serve_system(), SERVE_HIDDEN, SERVE_LAYERS, SERVE_TP, mode)
}

/// The headline serving study: every fabric × load point × engine
/// mode, [`SERVE_TENANTS`] tenants, in deterministic row order
/// (fabric-major, then load, then baseline before fused).
pub fn serving_study(token_divisor: u64) -> Vec<ServingRow> {
    serving_study_in_mode(token_divisor, SimMode::default())
}

/// [`serving_study`] with the sublayer simulations running in an
/// explicit mode. Every row must be identical across modes.
pub fn serving_study_in_mode(token_divisor: u64, mode: SimMode) -> Vec<ServingRow> {
    let cost = serve_cost_model_in_mode(mode);
    let mut rows = Vec::new();
    for topology in SERVE_TOPOLOGIES {
        for (load, arrival) in SERVE_LOAD_POINTS {
            for mode in [EngineMode::Baseline, EngineMode::Fused] {
                rows.push(serving_point(
                    &cost,
                    topology,
                    load,
                    arrival,
                    mode,
                    SERVE_TENANTS,
                    token_divisor,
                    None,
                ));
            }
        }
    }
    rows
}

/// The fused deep-dive: the high-load bursty point on the ring,
/// swept over tenant counts, both engines — how much of the fused
/// advantage survives as fabric contention grows.
pub fn tenant_sweep(token_divisor: u64) -> Vec<ServingRow> {
    let (load, arrival) = SERVE_LOAD_POINTS[1];
    let cost = serve_cost_model();
    let mut rows = Vec::new();
    for tenants in [1u64, 2, 4] {
        for mode in [EngineMode::Baseline, EngineMode::Fused] {
            rows.push(serving_point(
                &cost,
                "ring",
                load,
                arrival,
                mode,
                tenants,
                token_divisor,
                None,
            ));
        }
    }
    rows
}

/// A fully-instrumented serving run — the high-load bursty point on
/// the ring under the fused engine — for `figures --trace` exports
/// and the determinism pipeline. Returns the populated instruments,
/// the measured row, and the core clock.
pub fn traced_serving(token_divisor: u64) -> (Instruments, ServingRow, f64) {
    traced_serving_in_mode(token_divisor, SimMode::default())
}

/// [`traced_serving`] with the sublayer simulations priced under an
/// explicit mode; exported bytes must not depend on it.
pub fn traced_serving_in_mode(token_divisor: u64, mode: SimMode) -> (Instruments, ServingRow, f64) {
    let cost = serve_cost_model_in_mode(mode);
    let mut ins = Instruments::full();
    let (load, arrival) = SERVE_LOAD_POINTS[1];
    let row = serving_point(
        &cost,
        "ring",
        load,
        arrival,
        EngineMode::Fused,
        SERVE_TENANTS,
        token_divisor,
        Some(&mut ins),
    );
    (ins, row, serve_system().gpu.clock_ghz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::request_log;

    /// Fast-scale divisor used throughout (mirrors `--fast` figures).
    const FAST: u64 = 8;

    #[test]
    fn headline_study_shape_and_acceptance() {
        let rows = serving_study(FAST);
        assert_eq!(
            rows.len(),
            SERVE_TOPOLOGIES.len() * SERVE_LOAD_POINTS.len() * 2
        );
        // Identical traffic per (fabric, load): baseline and fused
        // rows serve the same number of requests.
        for pair in rows.chunks(2) {
            let (base, fused) = (&pair[0], &pair[1]);
            assert_eq!(base.mode, EngineMode::Baseline);
            assert_eq!(fused.mode, EngineMode::Fused);
            assert_eq!(base.run.outcomes.len(), fused.run.outcomes.len());
            assert_eq!(base.contention_permille, fused.contention_permille);
            // Fused never loses on p99, and strictly wins at the
            // high-load point (the ISSUE's acceptance criterion).
            assert!(fused.e2e.p99 <= base.e2e.p99);
            if base.load_permille == 900 {
                assert!(
                    fused.e2e.p99 < base.e2e.p99,
                    "{} @900: fused p99 {} vs baseline {}",
                    base.topology,
                    fused.e2e.p99,
                    base.e2e.p99
                );
            }
        }
    }

    #[test]
    fn stepped_and_fast_forward_studies_agree() {
        assert_eq!(
            serving_study_in_mode(FAST, SimMode::Stepped),
            serving_study_in_mode(FAST, SimMode::FastForward),
            "serving rows must not depend on the time-advancement mode"
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = serving_study(FAST);
        let b = serving_study(FAST);
        assert_eq!(a, b);
        let log_a: String = a.iter().map(|r| request_log(&r.run.outcomes)).collect();
        let log_b: String = b.iter().map(|r| request_log(&r.run.outcomes)).collect();
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn tenant_sweep_contention_monotone() {
        let rows = tenant_sweep(FAST);
        assert_eq!(rows.len(), 6);
        let factors: Vec<u64> = rows
            .iter()
            .filter(|r| r.mode == EngineMode::Baseline)
            .map(|r| r.contention_permille)
            .collect();
        assert_eq!(factors[0], 1000, "single tenant is parity");
        assert!(factors[1] >= factors[0] && factors[2] >= factors[1]);
        assert!(factors[2] > 1000, "four tenants must contend");
    }

    #[test]
    fn throughput_is_positive_and_fused_wins() {
        let rows = serving_study(FAST);
        let clock = serve_system().gpu.clock_ghz;
        for pair in rows.chunks(2) {
            let base = pair[0].tokens_per_sec_per_gpu(clock);
            let fused = pair[1].tokens_per_sec_per_gpu(clock);
            assert!(base > 0.0);
            assert!(
                fused >= base,
                "{} @{}: fused {fused:.0} tok/s < baseline {base:.0}",
                pair[0].topology,
                pair[0].load_permille
            );
        }
    }

    #[test]
    fn traced_run_matches_untraced() {
        let (ins, row, clock) = traced_serving(FAST);
        assert!(clock > 0.0);
        let records = ins.tracer.as_ref().expect("tracer on").records();
        assert!(!records.is_empty());
        // Tracing must not perturb simulated results.
        let cost = serve_cost_model();
        let (load, arrival) = SERVE_LOAD_POINTS[1];
        let bare = serving_point(
            &cost,
            "ring",
            load,
            arrival,
            EngineMode::Fused,
            SERVE_TENANTS,
            FAST,
            None,
        );
        assert_eq!(bare, row);
    }
}
