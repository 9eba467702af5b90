//! Property tests for the tiled-GEMM grid: partitions, bounds, and
//! the K-slicing invariant of Figure 5, for arbitrary shapes drawn
//! from a seeded deterministic PRNG.

use t3_gpu::gemm::{GemmGrid, GemmShape};
use t3_sim::config::SystemConfig;
use t3_sim::rng::SplitMix64;

fn gpu(tile: u32, cus: u32) -> t3_sim::config::GpuConfig {
    let mut g = SystemConfig::paper_default().gpu;
    g.tile_dim = tile;
    g.num_cus = cus;
    g
}

/// Stages partition the WGs; WG tiles partition the output bytes.
#[test]
fn partitions_are_exact() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let m = rng.gen_range(1, 2_000);
        let n = rng.gen_range(1, 2_000);
        let k = rng.gen_range(1, 64);
        let tile = rng.pick(&[16u32, 32, 64, 128]);
        let cus = rng.pick(&[4u32, 40, 80]);
        let grid = GemmGrid::new(&gpu(tile, cus), GemmShape::new(m, n, k));
        let mut covered = 0;
        for stage in 0..grid.num_stages() {
            let (s, e) = grid.stage_wgs(stage);
            assert_eq!(s, covered, "seed {seed}");
            assert!(e > s, "seed {seed}");
            assert!(e - s <= grid.concurrent_wgs(), "seed {seed}");
            covered = e;
        }
        assert_eq!(covered, grid.num_wgs(), "seed {seed}");
        let total: u64 = (0..grid.num_wgs()).map(|w| grid.wg_output_bytes(w)).sum();
        assert_eq!(total, grid.shape().output_bytes(), "seed {seed}");
    }
}

/// K-slicing (Figure 5): output structure is invariant; only per-WG
/// FLOPs shrink.
#[test]
fn k_slicing_invariant() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let m = rng.gen_range(64, 1_024);
        let n = rng.gen_range(64, 1_024);
        let tp = rng.pick(&[2u64, 4, 8, 16]);
        let k = rng.gen_range(tp.max(64), 4_096);
        let cfg = gpu(128, 80);
        let full = GemmGrid::new(&cfg, GemmShape::new(m, n, k));
        let sliced = GemmGrid::new(&cfg, GemmShape::new(m, n, k).tp_sliced(tp));
        assert_eq!(full.num_wgs(), sliced.num_wgs(), "seed {seed}");
        assert_eq!(full.num_stages(), sliced.num_stages(), "seed {seed}");
        assert_eq!(full.wf_tile_elems(), sliced.wf_tile_elems(), "seed {seed}");
        assert!(
            sliced.stage_wg_flops(0) <= full.stage_wg_flops(0),
            "seed {seed}"
        );
    }
}

/// Every stage read region stays within the A/B address ranges.
#[test]
fn read_regions_in_bounds() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed);
        let m = rng.gen_range(1, 1_500);
        let n = rng.gen_range(1, 1_500);
        let k = rng.gen_range(1, 128);
        let tile = rng.pick(&[32u32, 128]);
        let grid = GemmGrid::new(&gpu(tile, 80), GemmShape::new(m, n, k));
        for stage in 0..grid.num_stages() {
            for (addr, bytes) in grid.stage_read_regions(stage) {
                assert!(bytes > 0, "seed {seed}");
                let end = addr + bytes;
                let in_a = addr >= grid.a_base() && end <= grid.b_base();
                let in_b = addr >= grid.b_base() && end <= grid.c_base();
                assert!(
                    in_a || in_b,
                    "seed {seed}: region [{addr}, {end}) straddles operands"
                );
            }
        }
    }
}

/// Output regions are contiguous, disjoint, and cover C exactly.
#[test]
fn output_regions_tile_c() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed);
        let m = rng.gen_range(1, 800);
        let n = rng.gen_range(1, 800);
        let tile = rng.pick(&[16u32, 64]);
        let grid = GemmGrid::new(&gpu(tile, 80), GemmShape::new(m, n, 8));
        let mut next = grid.c_base();
        for wg in 0..grid.num_wgs() {
            let (addr, len) = grid.wg_output_region(wg);
            assert_eq!(addr, next, "seed {seed}");
            next = addr + len;
        }
        assert_eq!(
            next,
            grid.c_base() + grid.shape().output_bytes(),
            "seed {seed}"
        );
    }
}

/// Chunk bounds over WGs partition the grid for any chunk count.
#[test]
fn chunk_bounds_partition_wgs() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let m = rng.gen_range(128, 2_000);
        let n = rng.gen_range(128, 2_000);
        let chunks = rng.gen_range(2, 33);
        let grid = GemmGrid::new(&gpu(128, 80), GemmShape::new(m, n, 16));
        if grid.num_wgs() < chunks {
            continue;
        }
        let mut covered = 0;
        for i in 0..chunks {
            let (s, e) = grid.chunk_wg_bounds(chunks, i);
            assert_eq!(s, covered, "seed {seed}");
            covered = e;
        }
        assert_eq!(covered, grid.num_wgs(), "seed {seed}");
    }
}

/// The closed-form output layout equals the WG-order prefix sum of
/// tile sizes, for every WG of edge-tile shapes (short last tile-row,
/// narrow last tile-column, single row or column).
#[test]
fn output_regions_match_the_prefix_sum() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(seed);
        let tile = rng.pick(&[16u32, 32, 64, 128]);
        let t = tile as u64;
        let edge =
            |rng: &mut SplitMix64| rng.gen_range(1, 6) * t + rng.pick(&[0u64, 1, t / 2, t - 1]);
        let m = edge(&mut rng);
        let n = edge(&mut rng);
        let shape = GemmShape::new(m, n, rng.gen_range(1, 64));
        let grid = GemmGrid::new(&gpu(tile, 80), shape);
        let mut prefix = grid.c_base();
        for wg in 0..grid.num_wgs() {
            let (addr, bytes) = grid.wg_output_region(wg);
            assert_eq!(addr, prefix, "seed {seed} {shape:?} wg {wg}");
            assert_eq!(bytes, grid.wg_output_bytes(wg), "seed {seed} wg {wg}");
            assert_eq!(
                grid.wg_range_output_bytes(0, wg),
                prefix - grid.c_base(),
                "seed {seed} wg {wg}"
            );
            prefix += bytes;
        }
        let all = grid.wg_range_output_bytes(0, grid.num_wgs());
        assert_eq!(all, grid.shape().output_bytes(), "seed {seed}");
        assert_eq!(prefix, grid.c_base() + all, "seed {seed}");
    }
}
