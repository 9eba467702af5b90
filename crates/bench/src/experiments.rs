//! One regeneration function per paper table and figure.
//!
//! Each function reproduces the rows/series the paper reports, using
//! the workspace's simulators. `scale.token_divisor` shrinks the token
//! dimension of every workload for quick runs (tests use it; the
//! `figures` binary defaults to full scale).

use crate::report::{mb, pct, us, x, Table};
use t3_core::agfuse::{run_fused_ag_gemm, sequential_ag_gemm, AgFuseOptions};
use t3_core::configs::{Configuration, SublayerOutcome};
use t3_core::engine::{run_fused_gemm_direct_rs, run_fused_gemm_rs, FusedOptions, PolicyChoice};
use t3_core::multigpu::{run_multi_gpu_fused_rs, run_multi_gpu_fused_rs_on};
use t3_core::study;
use t3_gpu::engine::{run_gemm_isolated_traced, WritePolicy};
use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_models::e2e::{self, E2eParams, Phase};
use t3_models::moe::{moe_combine_study, scheduled_all_to_all_cycles, MoeConfig};
use t3_models::zoo::{self, ModelConfig, Sublayer};
use t3_serve::cost::EngineMode;
use t3_serve::study as serve_study;
use t3_sim::config::{LinkConfig, SystemConfig};
use t3_sim::stats::TrafficClass;
use t3_sim::{geomean, SimMode};
use t3_topo::Topology;

/// Workload scaling for quick runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Divides every sublayer's token count (1 = paper scale).
    pub token_divisor: u64,
}

impl ExperimentScale {
    /// Paper-scale workloads.
    pub const FULL: ExperimentScale = ExperimentScale { token_divisor: 1 };

    /// Quick runs for tests and smoke checks.
    pub const FAST: ExperimentScale = ExperimentScale { token_divisor: 8 };

    fn shape(&self, model: &ModelConfig, sub: Sublayer, tp: u64) -> GemmShape {
        let mut s = model.sublayer_gemm(sub, tp);
        s.m = (s.m / self.token_divisor).max(256);
        s
    }
}

/// The (model, TP) pairs of the paper's main sublayer studies
/// (Figures 15, 16, 18).
pub fn main_study_models() -> Vec<(ModelConfig, u64)> {
    vec![
        (zoo::mega_gpt2(), 8),
        (zoo::mega_gpt2(), 16),
        (zoo::t_nlg(), 8),
        (zoo::t_nlg(), 16),
    ]
}

/// The large-model study of Figure 20 / Section 6.4.
pub fn large_study_models() -> Vec<(ModelConfig, u64)> {
    vec![(zoo::gpt3(), 32), (zoo::palm(), 32), (zoo::mt_nlg(), 32)]
}

fn system_for(tp: u64) -> SystemConfig {
    SystemConfig::paper_default().with_num_gpus(tp as usize)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Table 1: the simulated system configuration.
pub fn table1() -> Table {
    let cfg = SystemConfig::paper_default();
    let mut t = Table::new("Table 1: simulation setup", &["parameter", "value"]);
    let rows = [
        (
            "#GPUs",
            "8, 16 (32 for large models; 4 for validation)".to_string(),
        ),
        (
            "inter-GPU interconnect",
            format!(
                "ring, {:.0} GB/s bi-directional, {:.0} ns link latency",
                cfg.link.link_gb_s, cfg.link.latency_ns
            ),
        ),
        (
            "#CUs",
            format!("{}, {} GHz", cfg.gpu.num_cus, cfg.gpu.clock_ghz),
        ),
        (
            "GEMM throughput",
            format!(
                "{:.0} TFLOP/s FP16 peak (sustained {:.0}%)",
                cfg.gpu.peak_tflops(),
                cfg.gpu.gemm_efficiency * 100.0
            ),
        ),
        (
            "LLC",
            format!(
                "{} MB, {}-way, {} B lines",
                cfg.mem.llc_capacity >> 20,
                cfg.mem.llc_ways,
                cfg.mem.llc_line
            ),
        ),
        (
            "HBM2",
            format!(
                "{:.0} GB/s, {} B transactions, queue depth {}, NMC CCDWL x{:.2}",
                cfg.mem.hbm_gb_s,
                cfg.mem.txn_bytes,
                cfg.mem.dram_queue_capacity,
                cfg.mem.nmc_cost_multiplier
            ),
        ),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t
}

/// Table 2: the model zoo.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2: studied models, hyperparameters & setup",
        &[
            "model",
            "hidden",
            "layers",
            "tokens (SL x B)",
            "TP degrees",
            "~params",
        ],
    );
    for m in zoo::all_models() {
        t.row(vec![
            m.name.to_string(),
            m.hidden.to_string(),
            m.layers.to_string(),
            format!("{} ({} x {})", m.tokens(), m.seq_len, m.batch),
            format!("{:?}", m.tp_degrees),
            format!("{:.0e}", m.approx_params),
        ]);
    }
    t
}

/// Table 3: qualitative comparison with prior approaches.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: T3-MCA vs prior work",
        &[
            "approach",
            "GPU support",
            "transparent",
            "overlaps comm",
            "reduces contention",
            "no extra accelerator",
            "topology independent",
        ],
    );
    let rows: [(&str, [&str; 6]); 5] = [
        ("In-switch", ["yes", "yes", "no", "no", "no", "no"]),
        ("ACE", ["yes", "yes", "no", "yes", "no", "no"]),
        ("CoCoNet", ["yes", "no", "yes", "no", "yes", "yes"]),
        (
            "Google Decomposition",
            ["no (TPU)", "no", "yes", "no", "yes", "yes"],
        ),
        (
            "T3-MCA (this repo)",
            ["yes", "yes", "yes", "yes", "yes", "yes"],
        ),
    ];
    for (name, cells) in rows {
        let mut row = vec![name.to_string()];
        row.extend(cells.iter().map(|s| s.to_string()));
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------
// Figure 4: sliced GEMM -> AR fraction of a layer
// ---------------------------------------------------------------------

/// Figure 4: fraction of training/prompt time in "sliced GEMM -> AR".
pub fn fig4() -> Table {
    let params = E2eParams::default();
    let mut t = Table::new(
        "Figure 4: time in sliced GEMM -> AR (RS+AG shown separately)",
        &["model", "TP", "phase", "sliced GEMM+AR", "RS+AG alone"],
    );
    for model in zoo::all_models() {
        for &tp in model.tp_degrees {
            let sys = system_for(tp);
            for (phase, label) in [
                (Phase::Training, "training"),
                (Phase::InferencePrompt, "inference (prompt)"),
            ] {
                let lt = e2e::layer_time(&sys, &model, tp, phase, &params);
                t.row(vec![
                    model.name.to_string(),
                    tp.to_string(),
                    label.to_string(),
                    pct(lt.sliced_fraction()),
                    pct(lt.comm_fraction()),
                ]);
            }
        }
    }
    let sys = system_for(16);
    let lt = e2e::layer_time(
        &sys,
        &zoo::t_nlg(),
        16,
        Phase::Training,
        &E2eParams::default(),
    );
    t.note(format!(
        "2x faster compute pushes T-NLG's sliced fraction to {} (Section 2.4)",
        pct(lt.sliced_fraction_with_faster_compute(2.0))
    ));
    t
}

// ---------------------------------------------------------------------
// Figure 6: CU-split overlap study
// ---------------------------------------------------------------------

/// Figure 6: potential overlap speedup under CU sharing, for the
/// Attn (OP) and FC-2 sublayers of Mega-GPT-2 and T-NLG at TP=8.
pub fn fig6(scale: ExperimentScale) -> Table {
    let mut t = Table::new(
        "Figure 6: CU-sharing study (GEMM CUs - AR CUs)",
        &[
            "layer",
            "split",
            "GEMM time (norm)",
            "AR time (norm)",
            "potential overlap speedup",
        ],
    );
    let mut per_split: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (model, _) in [(zoo::mega_gpt2(), 0), (zoo::t_nlg(), 0)] {
        for sub in [Sublayer::Op, Sublayer::Fc2] {
            let tp = 8;
            let sys = system_for(tp);
            let shape = scale.shape(&model, sub, tp);
            for row in study::cu_split_study(&sys, &shape) {
                per_split
                    .entry(row.label.clone())
                    .or_default()
                    .push(row.potential_overlap_speedup);
                t.row(vec![
                    format!("{} {}", model.name, sub.label()),
                    row.label,
                    format!("{:.2}", row.gemm_norm),
                    format!("{:.2}", row.ar_norm),
                    x(row.potential_overlap_speedup),
                ]);
            }
        }
    }
    for (label, speedups) in per_split {
        t.note(format!(
            "geomean potential speedup [{label}]: {}",
            x(geomean(&speedups))
        ));
    }
    t
}

// ---------------------------------------------------------------------
// Figure 14: reduce-scatter validation
// ---------------------------------------------------------------------

/// Figure 14: simulated ring-RS vs the bandwidth reference, 6-192 MB
/// on 4 GPUs.
pub fn fig14() -> Table {
    let sys = SystemConfig::paper_default().with_num_gpus(4);
    let mb_u = 1u64 << 20;
    let sizes: Vec<u64> = [6u64, 12, 24, 48, 96, 192]
        .iter()
        .map(|s| s * mb_u)
        .collect();
    let rows = study::rs_validation(&sys, &sizes);
    let mut t = Table::new(
        "Figure 14: multi-GPU reduce-scatter validation (4 GPUs)",
        &["payload (MB)", "simulated (us)", "reference (us)", "error"],
    );
    for r in &rows {
        t.tally_cycles(r.simulated_cycles);
        t.row(vec![
            (r.payload_bytes >> 20).to_string(),
            us(r.simulated_cycles, sys.gpu.clock_ghz),
            us(r.reference_cycles, sys.gpu.clock_ghz),
            pct(r.error),
        ]);
    }
    t.note(format!(
        "geomean error: {} (paper: 6% vs 4x MI210 hardware)",
        pct(study::validation_geomean_error(&rows))
    ));
    t
}

// ---------------------------------------------------------------------
// Figures 15 / 16 / 18: the sublayer matrix
// ---------------------------------------------------------------------

/// One sublayer's outcomes under every configuration.
#[derive(Debug, Clone)]
pub struct SublayerCase {
    /// Model name.
    pub model: String,
    /// TP degree.
    pub tp: u64,
    /// Which sublayer.
    pub sublayer: Sublayer,
    /// Outcomes, indexed like [`Configuration::ALL`].
    pub outcomes: Vec<SublayerOutcome>,
}

impl SublayerCase {
    /// The outcome for one configuration.
    pub fn outcome(&self, config: Configuration) -> &SublayerOutcome {
        &self.outcomes[Configuration::ALL
            .iter()
            .position(|&c| c == config)
            .expect("unknown configuration")]
    }

    /// Speedup of `config` over Sequential.
    pub fn speedup(&self, config: Configuration) -> f64 {
        self.outcome(config)
            .speedup_over(self.outcome(Configuration::Sequential))
    }
}

/// Runs the full sublayer matrix for `(model, tp)` pairs.
pub fn run_sublayer_matrix(
    pairs: &[(ModelConfig, u64)],
    scale: ExperimentScale,
) -> Vec<SublayerCase> {
    let mut cases = Vec::new();
    for (model, tp) in pairs {
        let sys = system_for(*tp);
        for sub in Sublayer::ALL {
            let shape = scale.shape(model, sub, *tp);
            let outcomes = Configuration::ALL
                .iter()
                .map(|c| c.run(&sys, &shape))
                .collect();
            cases.push(SublayerCase {
                model: model.name.to_string(),
                tp: *tp,
                sublayer: sub,
                outcomes,
            });
        }
    }
    cases
}

/// Sum of every configuration's total cycles across a case set — the
/// simulated work a matrix-derived table stands on.
fn matrix_cycles(cases: &[SublayerCase]) -> u64 {
    cases
        .iter()
        .flat_map(|c| c.outcomes.iter())
        .map(|o| o.total_cycles)
        .sum()
}

/// Figure 15: sublayer runtime distribution (GEMM / RS / AG) under the
/// Sequential baseline.
pub fn fig15(cases: &[SublayerCase]) -> Table {
    let clock = SystemConfig::paper_default().gpu.clock_ghz;
    let mut t = Table::new(
        "Figure 15: sublayer runtime distribution (Sequential)",
        &[
            "model",
            "TP",
            "sublayer",
            "GEMM (us)",
            "RS (us)",
            "AG (us)",
            "GEMM %",
            "RS %",
            "AG %",
        ],
    );
    t.tally_cycles(matrix_cycles(cases));
    for c in cases {
        let seq = c.outcome(Configuration::Sequential);
        let total = seq.total_cycles as f64;
        t.row(vec![
            c.model.clone(),
            c.tp.to_string(),
            c.sublayer.label().to_string(),
            us(seq.gemm_cycles, clock),
            us(seq.rs_cycles, clock),
            us(seq.ag_cycles, clock),
            pct(seq.gemm_cycles as f64 / total),
            pct(seq.rs_cycles as f64 / total),
            pct(seq.ag_cycles as f64 / total),
        ]);
    }
    t
}

/// Figure 16: sublayer speedups for every configuration over
/// Sequential.
pub fn fig16(cases: &[SublayerCase]) -> Table {
    let mut t = Table::new(
        "Figure 16: sublayer speedups over Sequential",
        &[
            "model",
            "TP",
            "sublayer",
            "T3",
            "T3-MCA",
            "Ideal-overlap",
            "Ideal-RS+NMC",
        ],
    );
    let configs = [
        Configuration::T3,
        Configuration::T3Mca,
        Configuration::IdealOverlap,
        Configuration::IdealRsNmc,
    ];
    t.tally_cycles(matrix_cycles(cases));
    for c in cases {
        let mut row = vec![
            c.model.clone(),
            c.tp.to_string(),
            c.sublayer.label().to_string(),
        ];
        row.extend(configs.iter().map(|&cfg| x(c.speedup(cfg))));
        t.row(row);
    }
    for cfg in configs {
        let speedups: Vec<f64> = cases.iter().map(|c| c.speedup(cfg)).collect();
        let max = speedups.iter().cloned().fold(f64::MIN, f64::max);
        t.note(format!(
            "{}: geomean {} / max {}",
            cfg.name(),
            x(geomean(&speedups)),
            x(max)
        ));
    }
    t
}

/// Figure 18: per-sublayer DRAM accesses by category, Sequential vs
/// T3-MCA, plus the paper's headline reductions.
pub fn fig18(cases: &[SublayerCase]) -> Table {
    let mut t = Table::new(
        "Figure 18: DRAM accesses per sublayer (MB per GPU)",
        &[
            "model",
            "TP",
            "sublayer",
            "config",
            "GEMM rd",
            "GEMM wr",
            "RS rd",
            "RS wr/upd",
            "AG rd",
            "AG wr",
            "total",
        ],
    );
    let mut reductions = Vec::new();
    let mut rs_read_ratios = Vec::new();
    let mut write_ratios = Vec::new();
    let mut gemm_read_ratios = Vec::new();
    t.tally_cycles(matrix_cycles(cases));
    for c in cases {
        let seq = c.outcome(Configuration::Sequential);
        let t3m = c.outcome(Configuration::T3Mca);
        for (label, s) in [("Sequential", &seq.stats), ("T3-MCA", &t3m.stats)] {
            t.row(vec![
                c.model.clone(),
                c.tp.to_string(),
                c.sublayer.label().to_string(),
                label.to_string(),
                mb(s.bytes(TrafficClass::GemmRead)),
                mb(s.bytes(TrafficClass::GemmWrite)),
                mb(s.bytes(TrafficClass::RsRead)),
                mb(s.bytes(TrafficClass::RsWrite) + s.bytes(TrafficClass::RsUpdate)),
                mb(s.bytes(TrafficClass::AgRead)),
                mb(s.bytes(TrafficClass::AgWrite)),
                mb(s.total()),
            ]);
        }
        reductions.push(1.0 - t3m.stats.total() as f64 / seq.stats.total() as f64);
        rs_read_ratios.push(
            seq.stats.bytes(TrafficClass::RsRead) as f64
                / t3m.stats.bytes(TrafficClass::RsRead).max(1) as f64,
        );
        write_ratios.push(seq.stats.total_writes() as f64 / t3m.stats.total_writes() as f64);
        gemm_read_ratios.push(
            seq.stats.bytes(TrafficClass::GemmRead) as f64
                / t3m.stats.bytes(TrafficClass::GemmRead).max(1) as f64,
        );
    }
    let max_red = reductions.iter().cloned().fold(f64::MIN, f64::max);
    t.note(format!(
        "data movement reduction: mean {} / max {} (paper: 22% geomean, 36% max)",
        pct(reductions.iter().sum::<f64>() / reductions.len() as f64),
        pct(max_red)
    ));
    t.note(format!(
        "RS reads reduced {} geomean (paper: 2.4x); writes {} (paper: ~1.1x); GEMM reads {} (paper: 1.56x)",
        x(geomean(&rs_read_ratios)),
        x(geomean(&write_ratios)),
        x(geomean(&gemm_read_ratios)),
    ));
    t
}

// ---------------------------------------------------------------------
// Figure 17: DRAM traffic timelines
// ---------------------------------------------------------------------

/// Figure 17: DRAM traffic over time for the baseline GEMM and T3's
/// fused GEMM-RS (T-NLG FC-2, TP=8, SL*B=4K), as GB/s per category.
pub fn fig17(scale: ExperimentScale) -> Table {
    let tp = 8u64;
    let sys = system_for(tp);
    let mut model = zoo::t_nlg();
    model.batch = 4; // SL*B = 4K as in the paper's Figure 17
    let shape = scale.shape(&model, Sublayer::Fc2, tp);
    let grid = GemmGrid::new(&sys.gpu, shape);
    let bucket = 16_384;
    let (base_run, base_ts) =
        run_gemm_isolated_traced(&sys, grid.clone(), WritePolicy::CachedLocal, Some(bucket));
    let base_ts = base_ts.expect("requested");
    let fused = run_fused_gemm_rs(
        &sys,
        grid,
        &FusedOptions {
            policy: PolicyChoice::McaDynamic,
            timeseries_bucket: Some(bucket),
            ..FusedOptions::default()
        },
    );
    let fused_ts = fused.timeseries.expect("requested");
    let mut t = Table::new(
        "Figure 17: DRAM traffic timeline (GB/s per 16K-cycle bucket)",
        &[
            "run",
            "bucket start (us)",
            "GEMM rd",
            "GEMM wr",
            "RS rd",
            "RS upd",
        ],
    );
    t.tally_cycles(base_run.cycles).tally_cycles(fused.cycles);
    let clock = sys.gpu.clock_ghz;
    let gbps = |bytes: u64, cycles: u64| -> String {
        format!("{:.0}", bytes as f64 / cycles as f64 * clock)
    };
    for (label, ts) in [("baseline GEMM", &base_ts), ("T3 fused GEMM-RS", &fused_ts)] {
        let small = ts.downsample(12);
        for (start, row) in small.rows() {
            t.row(vec![
                label.to_string(),
                us(start, clock),
                gbps(row[TrafficClass::GemmRead.index()], small.bucket_cycles()),
                gbps(row[TrafficClass::GemmWrite.index()], small.bucket_cycles()),
                gbps(row[TrafficClass::RsRead.index()], small.bucket_cycles()),
                gbps(row[TrafficClass::RsUpdate.index()], small.bucket_cycles()),
            ]);
        }
    }
    t.note("baseline shows per-stage read phases capped by bursty write phases; T3 adds overlapped RS reads/updates (paper Figure 17)");
    t
}

// ---------------------------------------------------------------------
// Figure 19: end-to-end speedups
// ---------------------------------------------------------------------

/// Figure 19: end-to-end training and inference-prompt speedups,
/// combining the analytical layer breakdown with simulated sublayer
/// speedups (the paper's Section 5.1.2 methodology).
pub fn fig19(scale: ExperimentScale) -> Table {
    let params = E2eParams::default();
    let mut t = Table::new(
        "Figure 19: end-to-end model speedups",
        &["model", "TP", "phase", "T3", "T3-MCA"],
    );
    let mut tr_mca = Vec::new();
    let mut inf_mca = Vec::new();
    for (model, tp) in main_study_models() {
        let sys = system_for(tp);
        let cases = run_sublayer_matrix(&[(model.clone(), tp)], scale);
        t.tally_cycles(matrix_cycles(&cases));
        let speedup_of = |config: Configuration, sub: Sublayer| -> f64 {
            cases
                .iter()
                .find(|c| c.sublayer == sub)
                .map(|c| c.speedup(config))
                .expect("sublayer present")
        };
        for (phase, label) in [
            (Phase::Training, "training"),
            (Phase::InferencePrompt, "inference (prompt)"),
        ] {
            let lt = e2e::layer_time(&sys, &model, tp, phase, &params);
            let s_t3 = lt.speedup_with(|sub| speedup_of(Configuration::T3, sub));
            let s_mca = lt.speedup_with(|sub| speedup_of(Configuration::T3Mca, sub));
            match phase {
                Phase::Training => tr_mca.push(s_mca),
                Phase::InferencePrompt => inf_mca.push(s_mca),
            }
            t.row(vec![
                model.name.to_string(),
                tp.to_string(),
                label.to_string(),
                x(s_t3),
                x(s_mca),
            ]);
        }
    }
    t.note(format!(
        "T3-MCA training: geomean {} / max {} (paper: 10% / 12%)",
        x(geomean(&tr_mca)),
        x(tr_mca.iter().cloned().fold(f64::MIN, f64::max))
    ));
    t.note(format!(
        "T3-MCA inference-prompt: geomean {} / max {} (paper: 12% / 15%)",
        x(geomean(&inf_mca)),
        x(inf_mca.iter().cloned().fold(f64::MIN, f64::max))
    ));
    t
}

// ---------------------------------------------------------------------
// Figure 20: larger models and future hardware
// ---------------------------------------------------------------------

/// Figure 20: sublayer speedups for ~500B-parameter models at TP=32,
/// on the base system and on GPU-2X-CU (Section 7.5), plus their
/// end-to-end effect.
pub fn fig20(scale: ExperimentScale) -> Table {
    let mut t = Table::new(
        "Figure 20: large models and 2x-compute future hardware",
        &[
            "model",
            "sublayer",
            "T3-MCA speedup (base)",
            "T3-MCA speedup (GPU-2X-CU)",
        ],
    );
    let params = E2eParams::default();
    let mut base_all = Vec::new();
    let mut e2e_notes = Vec::new();
    for (model, tp) in large_study_models() {
        let mut sub_speedups = Vec::new();
        for sub in Sublayer::ALL {
            let shape = scale.shape(&model, sub, tp);
            let row = study::future_hw_study(&shape, tp as usize);
            base_all.push(row.base_speedup);
            sub_speedups.push((sub, row.base_speedup));
            t.row(vec![
                model.name.to_string(),
                sub.label().to_string(),
                x(row.base_speedup),
                x(row.future_speedup),
            ]);
        }
        let sys = system_for(tp);
        let lt = e2e::layer_time(&sys, &model, tp, Phase::Training, &params);
        let s = lt.speedup_with(|sub| {
            sub_speedups
                .iter()
                .find(|(x, _)| *x == sub)
                .map(|(_, s)| *s)
                .expect("all sublayers present")
        });
        e2e_notes.push(format!("{} end-to-end training: {}", model.name, x(s)));
    }
    t.note(format!(
        "sublayer geomean (base): {} (paper: 29% geomean, 35% max)",
        x(geomean(&base_all))
    ));
    for note in e2e_notes {
        t.note(note);
    }
    t
}

// ---------------------------------------------------------------------
// Section 7 extensions and sweeps (beyond the paper's figures)
// ---------------------------------------------------------------------

/// The Section-7 extension studies: direct-RS on a fully-connected
/// topology (7.1), AG→consumer overlap (7.2), expert-parallel
/// all-to-all fusion (7.2), the generation phase (7.3), and
/// NMC-executed following ops (7.6).
pub fn extensions(scale: ExperimentScale) -> Table {
    let sys = system_for(8);
    let clock = sys.gpu.clock_ghz;
    let mut t = Table::new(
        "Section 7 extensions",
        &["study", "case", "sequential (us)", "T3 (us)", "speedup"],
    );
    // 7.1 direct-RS vs ring fusion on a T-NLG FC-2 sublayer.
    let shape = scale.shape(&zoo::t_nlg(), Sublayer::Fc2, 8);
    let grid = GemmGrid::new(&sys.gpu, shape);
    let seq = Configuration::Sequential.run(&sys, &shape);
    let ring = run_fused_gemm_rs(&sys, grid.clone(), &FusedOptions::default());
    let direct = run_fused_gemm_direct_rs(&sys, grid.clone(), &FusedOptions::default());
    t.tally_cycles(seq.total_cycles)
        .tally_cycles(ring.cycles)
        .tally_cycles(direct.cycles);
    for (case, cycles) in [
        ("ring fused GEMM-RS", ring.cycles),
        ("direct fused GEMM-RS", direct.cycles),
    ] {
        let seq_rs = seq.gemm_cycles + seq.rs_cycles;
        t.row(vec![
            "7.1 topology".into(),
            case.into(),
            us(seq_rs, clock),
            us(cycles, clock),
            x(seq_rs as f64 / cycles as f64),
        ]);
    }
    // 7.2 AG -> consumer GEMM.
    // Keep enough tile rows for several stages so the scheduling-hint
    // difference is visible even at fast scale.
    let ag_m = (8192 / scale.token_divisor).max(2048);
    let ag_grid = GemmGrid::new(&sys.gpu, GemmShape::new(ag_m, 1024, 1024));
    let ag_seq = sequential_ag_gemm(&sys, ag_grid.clone());
    for (case, aligned) in [("WGs follow arrival", true), ("no scheduling hints", false)] {
        let fused = run_fused_ag_gemm(
            &sys,
            ag_grid.clone(),
            &AgFuseOptions {
                arrival_aligned: aligned,
            },
        );
        t.tally_cycles(ag_seq.cycles).tally_cycles(fused.cycles);
        t.row(vec![
            "7.2 AG->GEMM".into(),
            case.into(),
            us(ag_seq.cycles, clock),
            us(fused.cycles, clock),
            x(ag_seq.cycles as f64 / fused.cycles as f64),
        ]);
    }
    // 7.2 expert parallelism: fused combine all-to-all.
    let moe = moe_combine_study(
        &sys,
        &MoeConfig::switch_like(4096, (4096 / scale.token_divisor).max(256)),
    );
    t.tally_cycles(moe.sequential_cycles)
        .tally_cycles(moe.fused_cycles);
    t.row(vec![
        "7.2 MoE combine".into(),
        "expert FC-2 + all-to-all".into(),
        us(moe.sequential_cycles, clock),
        us(moe.fused_cycles, clock),
        x(moe.speedup),
    ]);
    // 7.3 generation phase.
    for tokens in [8u64, 128, 2048] {
        let row = study::generation_phase_study(&sys, 4256, tokens, 8);
        t.tally_cycles(row.sequential_cycles)
            .tally_cycles(row.t3_cycles);
        t.row(vec![
            "7.3 generation".into(),
            format!("{tokens} tokens"),
            us(row.sequential_cycles, clock),
            us(row.t3_cycles, clock),
            x(row.speedup),
        ]);
    }
    // Methodology validation: explicit 8-GPU simulation vs the
    // mirrored single-GPU model (Section 5.1.1's homogeneity claim).
    let explicit = run_multi_gpu_fused_rs(&sys, grid.clone(), &FusedOptions::default());
    t.tally_cycles(explicit.cycles);
    t.row(vec![
        "5.1.1 methodology".into(),
        format!("explicit 8-GPU (skew {} cyc)", explicit.skew),
        us(ring.cycles, clock),
        us(explicit.cycles, clock),
        x(1.0 + explicit.mirror_error(&ring)),
    ]);
    // 3.2/7.2 coarse-grained overlap contention: a GEMM sharing its
    // memory system with background (DP-style) communication.
    let contention_shape = scale.shape(&zoo::t_nlg(), Sublayer::Fc2, 8);
    for (case, policy) in [
        ("round-robin arbitration", PolicyChoice::RoundRobin),
        ("T3-MCA arbitration", PolicyChoice::McaDynamic),
    ] {
        let row = study::coarse_overlap_study(&sys, &contention_shape, 128 << 20, policy);
        t.tally_cycles(row.isolated_gemm_cycles)
            .tally_cycles(row.contended_gemm_cycles);
        t.row(vec![
            "3.2 coarse overlap".into(),
            format!("{case} (GEMM slowdown)"),
            us(row.isolated_gemm_cycles, clock),
            us(row.contended_gemm_cycles, clock),
            x(1.0 / row.gemm_slowdown),
        ]);
    }
    // 7.6 following ops near memory.
    let fo = study::nmc_following_ops_study(&sys, 64 << 20, 4.0);
    t.tally_cycles(fo.baseline_cycles)
        .tally_cycles(fo.nmc_cycles);
    t.row(vec![
        "7.6 following ops".into(),
        "4-pass sweep of 64 MB".into(),
        us(fo.baseline_cycles, clock),
        us(fo.nmc_cycles, clock),
        x(fo.baseline_cycles as f64 / fo.nmc_cycles as f64),
    ]);
    t
}

/// The Section 2.4 compute-scaling sweep: as GEMMs get faster relative
/// to the network, communication dominates and T3's headroom grows.
pub fn sweep() -> Table {
    let params = E2eParams::default();
    let model = zoo::t_nlg();
    let tp = 16u64;
    let sys = system_for(tp);
    let lt = e2e::layer_time(&sys, &model, tp, Phase::Training, &params);
    let mut t = Table::new(
        "Compute-scaling sweep (T-NLG, TP=16, training)",
        &[
            "compute speedup",
            "sliced GEMM+AR fraction",
            "headroom if AR fully hidden",
        ],
    );
    for factor in [1.0f64, 2.0, 4.0, 8.0] {
        let frac = lt.sliced_fraction_with_faster_compute(factor);
        // If the whole AR were hidden, the layer loses its comm time.
        let comm: f64 = lt.sliced.iter().map(|(_, s)| s.ar_cycles).sum();
        let total = lt.other_cycles / factor
            + lt.sliced
                .iter()
                .map(|(_, s)| s.gemm_cycles / factor + s.ar_cycles)
                .sum::<f64>();
        let hidden = total / (total - comm.min(total * 0.999));
        t.row(vec![format!("{factor:.0}x"), pct(frac), x(hidden)]);
    }
    t.note("paper Section 2.4: at 2x compute, communication approaches 75% of the sliced portion");
    t
}

// ---------------------------------------------------------------------
// Multi-node topology study (t3-topo)
// ---------------------------------------------------------------------

/// Fabric names accepted by `figures --topology`.
pub const TOPOLOGY_NAMES: &[&str] = &["ring", "fully-connected", "switch", "torus", "hierarchical"];

/// Builds the named fabric over `n` GPUs from the system's link
/// config. `torus` is a `2 x n/2` torus; `hierarchical` is two
/// `n/2`-GPU nodes whose leader GPUs are joined by slower inter-node
/// links (1/4 bandwidth, 4x latency). Returns `None` for unknown
/// names (the CLI turns that into a usage error).
pub fn topology_by_name(name: &str, n: usize, sys: &SystemConfig) -> Option<Topology> {
    let link = &sys.link;
    Topology::by_label(name, n, link, &inter_node_link(link))
}

/// The fabric joining nodes in the hierarchical topology (think
/// InfiniBand next to the intra-node xGMI links): a quarter of the
/// bandwidth, four times the latency.
fn inter_node_link(link: &LinkConfig) -> LinkConfig {
    let mut slow = link.clone();
    slow.link_gb_s /= 4.0;
    slow.latency_ns *= 4.0;
    slow
}

/// Multi-node tensor parallelism: the T-NLG FC-2 sublayer at TP=16,
/// split across two 8-GPU nodes. Every GPU is simulated explicitly
/// ([`run_multi_gpu_fused_rs_on`]) on the ring baseline plus the
/// requested fabric (or all fabrics when `topology` is `None`): the
/// fused GEMM-RS streams partials over multi-hop routes with per-link
/// serialisation, so slow inter-node links and shared switch ports
/// surface directly in the finish time. The last column prices the
/// MoE combine all-to-all on the same fabric.
pub fn multinode(scale: ExperimentScale, topology: Option<&str>) -> Table {
    let tp = 16u64;
    let sys = system_for(tp);
    let shape = scale.shape(&zoo::t_nlg(), Sublayer::Fc2, tp);
    let clock = sys.gpu.clock_ghz;
    let moe = MoeConfig::switch_like(4096, (4096 / scale.token_divisor).max(256));
    let names: Vec<&str> = match topology {
        Some("ring") => vec!["ring"],
        Some(name) => vec!["ring", name],
        None => TOPOLOGY_NAMES.to_vec(),
    };
    let mut t = Table::new(
        "Multi-node TP: T-NLG FC-2, TP=16, two 8-GPU nodes",
        &[
            "fabric",
            "links",
            "fused GEMM-RS (us)",
            "vs ring",
            "DMA transfers",
            "wire traffic (MB)",
            "combine A2A (us)",
        ],
    );
    let mut ring_cycles = None;
    for name in names {
        let topo = topology_by_name(name, tp as usize, &sys).expect("known fabric");
        let grid = GemmGrid::new(&sys.gpu, shape);
        let run = run_multi_gpu_fused_rs_on(&sys, grid, &FusedOptions::default(), &topo, None);
        let base = *ring_cycles.get_or_insert(run.cycles);
        let wire: u64 = run.link_bytes.iter().sum();
        let a2a = scheduled_all_to_all_cycles(&sys, &topo, moe.a2a_payload_bytes());
        t.tally_cycles(run.cycles).tally_cycles(a2a);
        t.row(vec![
            name.to_string(),
            topo.num_links().to_string(),
            us(run.cycles, clock),
            x(run.cycles as f64 / base as f64),
            run.dma_transfers.to_string(),
            mb(wire),
            us(a2a, clock),
        ]);
    }
    t.note("hierarchical: leaders of the two nodes joined by links with 1/4 bandwidth, 4x latency");
    t.note("wire traffic counts every hop of every routed message (store-and-forward)");
    t
}

/// A fully-instrumented explicit multi-GPU fused GEMM-RS on the named
/// fabric — the [`multinode`] study's workload — for `figures
/// --topology <fabric> --trace/--metrics`. Returns the populated
/// instruments, the run result, and the core clock.
///
/// # Panics
///
/// Panics if `topology` is not one of [`TOPOLOGY_NAMES`] (the CLI
/// validates before calling).
pub fn traced_multinode(
    scale: ExperimentScale,
    topology: &str,
) -> (
    t3_trace::Instruments,
    t3_core::multigpu::MultiGpuResult,
    f64,
) {
    traced_multinode_in_mode(scale, topology, SimMode::default())
}

/// [`traced_multinode`] under an explicit time-advancement mode; the
/// determinism pipeline runs both modes and asserts every exported
/// byte matches.
pub fn traced_multinode_in_mode(
    scale: ExperimentScale,
    topology: &str,
    mode: SimMode,
) -> (
    t3_trace::Instruments,
    t3_core::multigpu::MultiGpuResult,
    f64,
) {
    let tp = 16u64;
    let sys = system_for(tp);
    let topo = topology_by_name(topology, tp as usize, &sys).expect("validated by the CLI");
    let shape = scale.shape(&zoo::t_nlg(), Sublayer::Fc2, tp);
    let grid = GemmGrid::new(&sys.gpu, shape);
    let opts = FusedOptions {
        mode,
        ..FusedOptions::default()
    };
    let mut ins = t3_trace::Instruments::full();
    let run = run_multi_gpu_fused_rs_on(&sys, grid, &opts, &topo, Some(&mut ins));
    (ins, run, sys.gpu.clock_ghz)
}

/// A fully-instrumented T-NLG FC-2 (TP=8, SL*B=4K) fused GEMM-RS run
/// under T3-MCA — the same workload as Figure 17 — for the `figures
/// --trace` / `--metrics` exports. Returns the populated instruments,
/// the run result, and the core clock (for cycle→µs conversion in the
/// Chrome exporter).
pub fn traced_tnlg_sublayer(
    scale: ExperimentScale,
) -> (t3_trace::Instruments, t3_core::engine::FusedRunResult, f64) {
    traced_tnlg_sublayer_in_mode(scale, SimMode::default())
}

/// [`traced_tnlg_sublayer`] under an explicit time-advancement mode;
/// the determinism pipeline runs both modes and asserts every
/// exported byte matches.
pub fn traced_tnlg_sublayer_in_mode(
    scale: ExperimentScale,
    mode: SimMode,
) -> (t3_trace::Instruments, t3_core::engine::FusedRunResult, f64) {
    let tp = 8u64;
    let sys = system_for(tp);
    let mut model = zoo::t_nlg();
    model.batch = 4; // SL*B = 4K, as in Figure 17
    let shape = scale.shape(&model, Sublayer::Fc2, tp);
    let grid = GemmGrid::new(&sys.gpu, shape);
    let opts = FusedOptions {
        policy: PolicyChoice::McaDynamic,
        mode,
        ..FusedOptions::default()
    };
    let mut ins = t3_trace::Instruments::full();
    let run = t3_core::engine::run_fused_gemm_rs_instrumented(&sys, grid, &opts, Some(&mut ins));
    (ins, run, sys.gpu.clock_ghz)
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// The headline serving study: baseline vs. T3-fused tail latency on
/// every (fabric, load point) cell of [`serve_study::serving_study`],
/// with two tenants sharing the fabric. Both engines serve
/// byte-identical seeded request traces, so every latency delta is
/// attributable to the execution mode alone.
pub fn serving(scale: ExperimentScale) -> Table {
    let clock = serve_study::serve_system().gpu.clock_ghz;
    let rows = serve_study::serving_study(scale.token_divisor);
    let mut t = Table::new(
        "Serving: baseline vs. T3-fused tail latency",
        &[
            "fabric",
            "load",
            "arrival",
            "engine",
            "contention",
            "ttft p99 (us)",
            "e2e p50 (us)",
            "e2e p95 (us)",
            "e2e p99 (us)",
            "tok/s/GPU",
        ],
    );
    for row in &rows {
        t.row(vec![
            row.topology.to_string(),
            format!("{}%", row.load_permille / 10),
            row.arrival.label().to_string(),
            row.mode.label().to_string(),
            x(row.contention_permille as f64 / 1000.0),
            us(row.ttft.p99, clock),
            us(row.e2e.p50, clock),
            us(row.e2e.p95, clock),
            us(row.e2e.p99, clock),
            format!("{:.0}", row.tokens_per_sec_per_gpu(clock)),
        ]);
        t.tally_cycles(row.run.makespan);
    }
    for pair in rows.chunks(2) {
        let (base, fused) = (&pair[0], &pair[1]);
        if base.load_permille >= 900 {
            t.note(format!(
                "{} @{}% load: fused cuts e2e p99 by {} ({} requests, {} tenants)",
                base.topology,
                base.load_permille / 10,
                x(base.e2e.p99 as f64 / fused.e2e.p99 as f64),
                base.run.outcomes.len(),
                base.tenants,
            ));
        }
    }
    t.note(
        "open-loop seeded traffic; gaps calibrated to baseline decode \
         capacity so both engines serve identical traces",
    );
    t
}

/// The fused deep-dive behind `figures serving-fused`: the high-load
/// bursty point on the ring swept over tenant counts, showing how the
/// fused engine's p99 advantage holds up as fabric contention grows.
pub fn serving_fused(scale: ExperimentScale) -> Table {
    let clock = serve_study::serve_system().gpu.clock_ghz;
    let rows = serve_study::tenant_sweep(scale.token_divisor);
    let mut t = Table::new(
        "Serving-fused: tenant sweep at high load (ring, bursty)",
        &[
            "tenants",
            "engine",
            "contention",
            "ttft p99 (us)",
            "e2e p99 (us)",
            "tok/s/GPU",
            "p99 vs baseline",
        ],
    );
    for pair in rows.chunks(2) {
        let base = &pair[0];
        debug_assert_eq!(base.mode, EngineMode::Baseline);
        for row in pair {
            let gain = base.e2e.p99 as f64 / row.e2e.p99 as f64;
            t.row(vec![
                row.tenants.to_string(),
                row.mode.label().to_string(),
                x(row.contention_permille as f64 / 1000.0),
                us(row.ttft.p99, clock),
                us(row.e2e.p99, clock),
                format!("{:.0}", row.tokens_per_sec_per_gpu(clock)),
                x(gain),
            ]);
            t.tally_cycles(row.run.makespan);
        }
    }
    t.note(
        "contention priced by staggered co-tenant reduce-scatter \
         schedules on one shared fabric (t3-serve interference model)",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        assert!(table1().to_string().contains("HBM2"));
        assert_eq!(table2().len(), 7);
        assert!(table3().to_string().contains("T3-MCA"));
    }

    #[test]
    fn fig4_has_all_model_phase_rows() {
        let t = fig4();
        // 5 models x their TP degrees (2+2+1+1+1) + 2 futuristic = 9
        // (model, tp) pairs x 2 phases.
        assert_eq!(t.len(), 18);
    }

    #[test]
    fn fig14_meets_error_budget() {
        let t = fig14();
        assert_eq!(t.len(), 6);
        assert!(t.to_string().contains("geomean error"));
    }

    #[test]
    fn sublayer_matrix_smoke() {
        // One model/TP at fast scale keeps this test quick while
        // exercising the full five-configuration pipeline.
        let cases = run_sublayer_matrix(&[(zoo::t_nlg(), 8)], ExperimentScale::FAST);
        assert_eq!(cases.len(), 4);
        for c in &cases {
            assert!(c.speedup(Configuration::T3Mca) > 1.0, "{:?}", c.sublayer);
        }
        let f15 = fig15(&cases);
        let f16 = fig16(&cases);
        let f18 = fig18(&cases);
        assert_eq!(f15.len(), 4);
        assert_eq!(f16.len(), 4);
        assert_eq!(f18.len(), 8);
    }

    #[test]
    fn extensions_table_all_rows_improve_or_hold() {
        let t = extensions(ExperimentScale::FAST);
        assert!(t.len() >= 8);
        let text = t.to_string();
        assert!(text.contains("7.3 generation"));
        assert!(text.contains("MoE"));
        assert!(text.contains("methodology"));
    }

    #[test]
    fn sweep_shows_growing_headroom() {
        let t = sweep();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn topology_names_all_resolve() {
        let sys = SystemConfig::paper_default().with_num_gpus(16);
        for name in TOPOLOGY_NAMES {
            let topo = topology_by_name(name, 16, &sys).expect("known name");
            assert_eq!(topo.num_gpus(), 16, "{name}");
        }
        assert!(topology_by_name("mesh", 16, &sys).is_none());
    }

    #[test]
    fn multinode_compares_chosen_fabric_against_ring() {
        let t = multinode(ExperimentScale::FAST, Some("hierarchical"));
        assert_eq!(t.len(), 2);
        let text = t.to_string();
        assert!(text.contains("ring") && text.contains("hierarchical"));
    }

    #[test]
    fn traced_multinode_populates_instruments() {
        let (ins, run, ghz) = traced_multinode(ExperimentScale::FAST, "switch");
        assert!(ghz > 0.0);
        assert!(run.cycles > 0);
        let metrics = ins.metrics.as_ref().expect("metrics on");
        assert!(metrics.counter("link.bytes_sent") > 0);
        let tracer = ins.tracer.as_ref().expect("tracer on");
        assert!(tracer.count(|e| matches!(e, t3_trace::Event::LinkBusy { .. })) > 0);
    }

    #[test]
    fn traced_run_event_counts_match_result() {
        let (ins, run, ghz) = traced_tnlg_sublayer(ExperimentScale::FAST);
        assert!(ghz > 0.0);
        let tracer = ins.tracer.as_ref().expect("tracer on");
        let fires = tracer.count(|e| matches!(e, t3_trace::Event::DmaTriggerFire { .. }));
        assert_eq!(fires as u64, run.dma_transfers);
        let metrics = ins.metrics.as_ref().expect("metrics on");
        assert_eq!(metrics.counter("run.cycles"), run.cycles);
        assert_eq!(metrics.counter("link.bytes_sent"), run.link_bytes_sent);
    }

    #[test]
    fn serving_table_shows_fused_winning_tails() {
        let t = serving(ExperimentScale::FAST);
        assert_eq!(t.len(), 8);
        let text = t.to_string();
        assert!(text.contains("baseline") && text.contains("t3-fused"));
        assert!(text.contains("fused cuts e2e p99"));
        assert!(t.sim_cycles() > 0);
    }

    #[test]
    fn serving_fused_table_sweeps_tenants() {
        let t = serving_fused(ExperimentScale::FAST);
        assert_eq!(t.len(), 6);
        let text = t.to_string();
        assert!(text.contains("tenants"));
        assert!(text.contains("p99 vs baseline"));
    }

    #[test]
    fn fig17_renders_two_timelines() {
        let t = fig17(ExperimentScale::FAST);
        assert!(t.len() >= 8);
        assert!(t.to_string().contains("T3 fused GEMM-RS"));
    }
}
