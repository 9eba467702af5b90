//! The paper's Section-7 extensions in action: the token-generation
//! phase of inference (Section 7.3) promoted to a full serving
//! engine, all-gather → consumer-GEMM overlap (Section 7.2), and
//! near-memory execution of the ops that follow an all-reduce
//! (Section 7.6).
//!
//! The generation-phase numbers route through the **same** `t3-serve`
//! cost model and study functions as the `figures serving` target, so
//! this example and the figures table cannot drift apart.
//!
//! ```text
//! cargo run --release --example inference_generation
//! ```

use t3::core::agfuse::{run_fused_ag_gemm, sequential_ag_gemm, AgFuseOptions};
use t3::core::study::nmc_following_ops_study;
use t3::gpu::gemm::{GemmGrid, GemmShape};
use t3::serve::cost::EngineMode;
use t3::serve::study::{self, SERVE_TENANTS};
use t3::sim::config::SystemConfig;
use t3::sim::cycles_to_us;

/// Token divisor for the serving trace — mirrors `figures --fast`.
const SCALE: u64 = 8;

fn main() {
    let sys = SystemConfig::paper_default();
    let clock = sys.gpu.clock_ghz;

    println!("Section 7.3 — generation-phase iterations (serve cost model, TP=8):");
    println!(
        "  {:<10} {:>13} {:>12} {:>9}",
        "tokens", "baseline(us)", "t3-fused(us)", "speedup"
    );
    let cost = study::serve_cost_model();
    for tokens in [8u64, 32, 128, 512, 2048] {
        let base = cost.iteration_cycles(EngineMode::Baseline, tokens, 1000);
        let fused = cost.iteration_cycles(EngineMode::Fused, tokens, 1000);
        println!(
            "  {:<10} {:>13.1} {:>12.1} {:>8.2}x",
            tokens,
            cycles_to_us(base, clock),
            cycles_to_us(fused, clock),
            base as f64 / fused as f64
        );
    }

    println!("\nContinuous-batching serving study (same code path as `figures serving`):");
    println!(
        "  {:<13} {:>5} {:>8} {:>9} {:>13} {:>12} {:>10}",
        "fabric", "load", "arrival", "engine", "ttft p99(us)", "e2e p99(us)", "tok/s/GPU"
    );
    let serve_clock = study::serve_system().gpu.clock_ghz;
    for row in study::serving_study(SCALE) {
        println!(
            "  {:<13} {:>4}% {:>8} {:>9} {:>13.1} {:>12.1} {:>10.0}",
            row.topology,
            row.load_permille / 10,
            row.arrival.label(),
            row.mode.label(),
            cycles_to_us(row.ttft.p99, serve_clock),
            cycles_to_us(row.e2e.p99, serve_clock),
            row.tokens_per_sec_per_gpu(serve_clock)
        );
    }
    println!(
        "  ({SERVE_TENANTS} tenants share each fabric; both engines serve identical seeded traces)"
    );

    println!("\nSection 7.2 — all-gather overlapped with its consumer GEMM:");
    let grid = GemmGrid::new(&sys.gpu, GemmShape::new(8192, 1024, 1024));
    let seq = sequential_ag_gemm(&sys, grid.clone());
    let aligned = run_fused_ag_gemm(&sys, grid.clone(), &AgFuseOptions::default());
    let misaligned = run_fused_ag_gemm(
        &sys,
        grid,
        &AgFuseOptions {
            arrival_aligned: false,
        },
    );
    println!(
        "  sequential AG+GEMM: {:.1} us",
        cycles_to_us(seq.cycles, clock)
    );
    println!(
        "  fused, WGs scheduled with arrival hints: {:.1} us ({:.2}x)",
        cycles_to_us(aligned.cycles, clock),
        seq.cycles as f64 / aligned.cycles as f64
    );
    println!(
        "  fused, no scheduling hints (worst-case order): {:.1} us ({:.2}x)",
        cycles_to_us(misaligned.cycles, clock),
        seq.cycles as f64 / misaligned.cycles as f64
    );

    println!("\nSection 7.6 — following ops near memory, before the all-gather:");
    for gpus in [8usize, 16, 32] {
        let s = SystemConfig::paper_default().with_num_gpus(gpus);
        let row = nmc_following_ops_study(&s, 64 << 20, 4.0);
        println!(
            "  {gpus:>2} GPUs: residual/dropout sweep {:.1} us -> {:.1} us ({:.0}% saved)",
            cycles_to_us(row.baseline_cycles, clock),
            cycles_to_us(row.nmc_cycles, clock),
            row.savings * 100.0
        );
    }
}
