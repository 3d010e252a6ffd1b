//! Property-based invariants of the execution-driven simulator and the
//! full pipeline: prefetching strategies must never change results,
//! counters must be internally consistent, and runs must be deterministic.
//!
//! Properties are checked over fixed-seed random cases drawn with the
//! in-tree [`Rng64`] (the workspace builds without network access, so
//! there is no external property-testing crate). Every case is
//! reproducible from its seed, which each assertion message carries.

use asap::core::{compile_with_width, PrefetchStrategy};
use asap::matrices::{Rng64, Triplets};
use asap::sim::{GracemontConfig, Machine, PrefetcherConfig};
use asap::sparsifier::KernelSpec;
use asap::tensor::{Format, SparseTensor, ValueKind};

/// Random square matrix: up to `max_n` rows, up to `max_entries`
/// (row, col, value) triplets — duplicates and empty rows included.
fn random_triplets(rng: &mut Rng64, max_n: usize, max_entries: usize) -> Triplets {
    let n = rng.gen_range(2..=max_n);
    let entries = rng.gen_range(1..max_entries);
    let mut t = Triplets::new(n, n);
    for _ in 0..entries {
        t.push(
            rng.usize_below(n),
            rng.usize_below(n),
            rng.gen_range(0.1..2.0),
        );
    }
    t
}

/// Random hardware-prefetcher on/off configuration.
fn random_pf(rng: &mut Rng64) -> PrefetcherConfig {
    PrefetcherConfig {
        l1_nlp: rng.gen_bool(0.5),
        l1_ipp: rng.gen_bool(0.5),
        l2_nlp: rng.gen_bool(0.5),
        mlc_streamer: rng.gen_bool(0.5),
        l2_amp: rng.gen_bool(0.5),
        llc_streamer: rng.gen_bool(0.5),
    }
}

fn run_simulated(
    tri: &Triplets,
    strat: &PrefetchStrategy,
    pf: PrefetcherConfig,
) -> (Vec<f64>, asap::sim::Counters) {
    let spec = KernelSpec::spmv(ValueKind::F64);
    let sparse = SparseTensor::from_coo(&tri.to_coo_f64(), Format::csr());
    let ck = compile_with_width(&spec, &Format::csr(), sparse.index_width(), strat).unwrap();
    let x: Vec<f64> = (0..tri.ncols).map(|i| 1.0 + (i % 4) as f64).collect();
    let mut m = Machine::new(GracemontConfig::scaled(), pf);
    let y = asap::core::run_spmv_f64_with(&ck, &sparse, &x, &mut m).unwrap();
    (y, m.counters())
}

/// Prefetch strategy and hardware-prefetcher configuration are pure
/// performance knobs: results must be bit-identical.
#[test]
fn prefetching_never_changes_results() {
    for seed in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(seed);
        let tri = random_triplets(&mut rng, 64, 200);
        let pf = random_pf(&mut rng);
        let distance = rng.gen_range(1..128usize);
        let (y0, _) = run_simulated(&tri, &PrefetchStrategy::none(), PrefetcherConfig::all_off());
        for strat in [
            PrefetchStrategy::asap(distance),
            PrefetchStrategy::aj(distance),
        ] {
            let (y, _) = run_simulated(&tri, &strat, pf);
            assert_eq!(y, y0, "seed {seed}, {}", strat.label());
        }
    }
}

/// PMU-style counter consistency.
#[test]
fn counters_are_consistent() {
    for seed in 0..24u64 {
        let mut rng = Rng64::seed_from_u64(seed ^ 0x5eed);
        let tri = random_triplets(&mut rng, 64, 200);
        let pf = random_pf(&mut rng);
        let (_, c) = run_simulated(&tri, &PrefetchStrategy::asap(16), pf);
        // Every demand access classifies at L1.
        assert_eq!(c.l1_hits + c.l1_misses, c.loads + c.stores, "seed {seed}");
        // L1 misses cascade down the hierarchy.
        assert_eq!(c.l2_hits + c.l2_misses, c.l1_misses, "seed {seed}");
        assert_eq!(c.l3_hits + c.dram_hits, c.l2_misses, "seed {seed}");
        // The paper's L2-miss PMU approximation.
        assert_eq!(c.l2_miss_events(), c.l3_hits + c.dram_hits, "seed {seed}");
        // Prefetch accounting: outcomes never exceed issues.
        assert!(
            c.sw_pf_dropped + c.sw_pf_redundant <= c.sw_pf_issued,
            "seed {seed}"
        );
        assert!(
            c.hw_pf_dropped + c.hw_pf_redundant <= c.hw_pf_issued,
            "seed {seed}"
        );
        // Cycles include all stalls; instructions ran.
        assert!(c.cycles >= c.stall_cycles, "seed {seed}");
        assert!(c.instructions > 0, "seed {seed}");
    }
}

/// Simulation is deterministic: identical inputs, identical counters.
#[test]
fn simulation_is_deterministic() {
    for seed in 0..8u64 {
        let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let tri = random_triplets(&mut rng, 48, 150);
        let a = run_simulated(
            &tri,
            &PrefetchStrategy::asap(8),
            PrefetcherConfig::hw_default(),
        );
        let b = run_simulated(
            &tri,
            &PrefetchStrategy::asap(8),
            PrefetcherConfig::hw_default(),
        );
        assert_eq!(a.1, b.1, "seed {seed}");
        assert_eq!(a.0, b.0, "seed {seed}");
    }
}

/// ASaP issues exactly two software prefetches per non-zero for SpMV
/// (Step 1 + Step 3).
#[test]
fn asap_prefetch_volume_bounds() {
    for seed in 0..12u64 {
        let mut rng = Rng64::seed_from_u64(seed | 0xa000);
        let tri = random_triplets(&mut rng, 64, 200);
        let (_, c) = run_simulated(
            &tri,
            &PrefetchStrategy::asap(8),
            PrefetcherConfig::all_off(),
        );
        let sparse = SparseTensor::from_coo(&tri.to_coo_f64(), Format::csr());
        let nnz = sparse.nnz() as u64;
        assert_eq!(c.sw_pf_issued, 2 * nnz, "seed {seed}");
    }
}

/// A 3-core SpMV cell through the bench runner.
fn three_core_cell() -> asap_bench::ExperimentResult {
    use asap_bench::{run_spmv_threads, Variant};
    let tri = asap::matrices::gen::erdos_renyi(8_000, 6, 21);
    run_spmv_threads(
        &tri,
        "t",
        "g",
        true,
        Variant::Asap { distance: 16 },
        PrefetcherConfig::hw_default(),
        "hw",
        GracemontConfig::scaled(),
        3,
    )
    .unwrap()
}

/// Multi-core runs are deterministic: the scheduler applies events in
/// `(clock, core_id)` order, so every counter and the DRAM traffic
/// repeat exactly.
#[test]
fn multicore_work_is_stable() {
    // Every counter the result carries (cycles, stalls, instructions,
    // prefetch counts) and the DRAM bytes.
    assert_eq!(three_core_cell(), three_core_cell());
}

/// Host threads do not leak into multi-core counters: the same cell run
/// on the calling thread and on four pool workers at once agrees.
#[test]
fn multicore_counters_ignore_host_threads() {
    let serial = three_core_cell();
    let pooled = asap_bench::parallel_map(vec![(); 4], 4, |_, ()| three_core_cell());
    for r in pooled {
        assert_eq!(r, serial);
    }
}
