//! Golden single-core counters: the full [`Counters`] and the machine's
//! DRAM byte total for every strategy and hardware-prefetcher
//! configuration the figures use, on two small seeded matrices.
//!
//! Single-core timing must stay bit-identical across refactors of the
//! simulator; a change to any value below is a change to the timing
//! model and has to be made (and explained) deliberately.

use asap::core::{compile_with_width, PrefetchStrategy};
use asap::matrices::{gen, Triplets};
use asap::sim::{CacheParams, Counters, GracemontConfig, Machine, PrefetcherConfig};
use asap::sparsifier::KernelSpec;
use asap::tensor::{DenseTensor, Format, SparseTensor, ValueKind};

/// Every field of [`Counters`], in declaration order. The destructuring
/// stops compiling when a field is added, so the golden table cannot
/// silently fall behind the struct.
fn fields(c: &Counters) -> [u64; 21] {
    let Counters {
        instructions,
        cycles,
        stall_cycles,
        loads,
        stores,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        l3_hits,
        dram_hits,
        sw_pf_issued,
        sw_pf_dropped,
        sw_pf_redundant,
        hw_pf_issued,
        hw_pf_dropped,
        hw_pf_redundant,
        pf_unused_evictions,
        dram_lines_read,
        dram_lines_written,
        tlb_misses,
    } = *c;
    [
        instructions,
        cycles,
        stall_cycles,
        loads,
        stores,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        l3_hits,
        dram_hits,
        sw_pf_issued,
        sw_pf_dropped,
        sw_pf_redundant,
        hw_pf_issued,
        hw_pf_dropped,
        hw_pf_redundant,
        pf_unused_evictions,
        dram_lines_read,
        dram_lines_written,
        tlb_misses,
    ]
}

fn simulate(
    tri: &Triplets,
    spmm: bool,
    strat: &PrefetchStrategy,
    pf: PrefetcherConfig,
    cfg: GracemontConfig,
) -> ([u64; 21], u64) {
    let spec = if spmm {
        KernelSpec::spmm(ValueKind::F64)
    } else {
        KernelSpec::spmv(ValueKind::F64)
    };
    let sparse = SparseTensor::from_coo(&tri.to_coo_f64(), Format::csr());
    let ck = compile_with_width(&spec, &Format::csr(), sparse.index_width(), strat).unwrap();
    let mut m = Machine::new(cfg, pf);
    if spmm {
        let k = 8;
        let c = DenseTensor::from_f64(
            vec![tri.ncols, k],
            (0..tri.ncols * k).map(|i| 1.0 + (i % 5) as f64).collect(),
        );
        asap::core::run_spmm_f64_with(&ck, &sparse, &c, &mut m).unwrap();
    } else {
        let x: Vec<f64> = (0..tri.ncols).map(|i| 1.0 + (i % 4) as f64).collect();
        asap::core::run_spmv_f64_with(&ck, &sparse, &x, &mut m).unwrap();
    }
    (fields(&m.counters()), m.dram_bytes_total())
}

/// The run matrix: (label, matrix, config) × (kernel, strategy, HW
/// prefetchers). The R-MAT case runs with a 256 KiB L3 so that dirty L3
/// evictions reach DRAM.
fn cases() -> Vec<(
    String,
    Triplets,
    bool,
    PrefetchStrategy,
    PrefetcherConfig,
    GracemontConfig,
)> {
    let small_l3 = GracemontConfig {
        l3: CacheParams {
            size_bytes: 256 * 1024,
            assoc: 16,
            latency: 55,
        },
        ..GracemontConfig::scaled()
    };
    let matrices = [
        (
            "er4096x8",
            gen::erdos_renyi(4096, 8, 7),
            GracemontConfig::scaled(),
        ),
        ("rmat12x8", gen::rmat(12, 8, 3), small_l3),
    ];
    let mut out = Vec::new();
    for (name, tri, cfg) in matrices {
        for (hw, pf) in [
            ("hw_default", PrefetcherConfig::hw_default()),
            ("optimized_spmv", PrefetcherConfig::optimized_spmv()),
        ] {
            for (s, strat) in [
                ("baseline", PrefetchStrategy::none()),
                ("asap", PrefetchStrategy::asap(16)),
                ("aj", PrefetchStrategy::aj(16)),
            ] {
                let label = format!("{name}/spmv/{s}/{hw}");
                out.push((label, tri.clone(), false, strat, pf, cfg));
            }
        }
        for (s, strat) in [
            ("baseline", PrefetchStrategy::none()),
            ("asap", PrefetchStrategy::asap(16)),
        ] {
            let label = format!("{name}/spmm/{s}/hw_default");
            let pf = PrefetcherConfig::hw_default();
            out.push((label, tri.clone(), true, strat, pf, cfg));
        }
    }
    out
}

/// (label, counters in [`fields`] order, `dram_bytes_total`).
const GOLDEN: &[(&str, [u64; 21], u64)] = &[
    (
        "er4096x8/spmv/baseline/hw_default",
        [
            298787, 221615, 12886, 110508, 4096, 102771, 11833, 11579, 254, 3, 251, 0, 0, 0, 25895,
            1, 12432, 3686, 7571, 0, 1,
        ],
        484544,
    ),
    (
        "er4096x8/spmv/asap/hw_default",
        [
            560712, 278112, 3902, 143249, 4096, 135452, 11893, 11868, 25, 0, 25, 65480, 0, 65185,
            25695, 31, 12376, 3598, 7479, 0, 1,
        ],
        478656,
    ),
    (
        "er4096x8/spmv/aj/hw_default",
        [
            564805, 287238, 11663, 143248, 4096, 135479, 11865, 11646, 219, 3, 216, 65480, 0,
            65439, 25884, 1, 12449, 3668, 7549, 0, 1,
        ],
        483136,
    ),
    (
        "er4096x8/spmv/baseline/optimized_spmv",
        [
            298787, 235497, 26768, 110508, 4096, 98476, 16128, 15586, 542, 7, 535, 0, 0, 0, 13454,
            0, 6485, 0, 7464, 0, 1,
        ],
        477696,
    ),
    (
        "er4096x8/spmv/asap/optimized_spmv",
        [
            560712, 280148, 5938, 143249, 4096, 131178, 16167, 16131, 36, 0, 36, 65480, 0, 64973,
            13438, 0, 6479, 0, 7464, 0, 1,
        ],
        477696,
    ),
    (
        "er4096x8/spmv/aj/optimized_spmv",
        [
            564805, 299465, 23890, 143248, 4096, 131209, 16135, 15665, 470, 6, 464, 65480, 0,
            65408, 13438, 0, 6479, 0, 7464, 0, 1,
        ],
        477696,
    ),
    (
        "er4096x8/spmm/baseline/hw_default",
        [
            2586491, 2283588, 548358, 597512, 261920, 827091, 32341, 10952, 21389, 18817, 2572, 0,
            0, 0, 395375, 0, 307741, 107703, 17754, 0, 1,
        ],
        1136256,
    ),
    (
        "er4096x8/spmm/asap/hw_default",
        [
            2881156, 1842190, 30565, 630253, 261920, 859825, 32348, 31849, 499, 95, 404, 65480, 0,
            44697, 373321, 3, 301760, 90036, 14709, 0, 1,
        ],
        941376,
    ),
    (
        "rmat12x8/spmv/baseline/hw_default",
        [
            266531, 194031, 9494, 98412, 4096, 95955, 6553, 6411, 142, 64, 78, 0, 0, 0, 22380, 0,
            10604, 6222, 6848, 60, 1,
        ],
        442112,
    ),
    (
        "rmat12x8/spmv/asap/hw_default",
        [
            496200, 245852, 3898, 127121, 4096, 124642, 6575, 6560, 15, 2, 13, 57416, 6, 57163,
            22057, 42, 10449, 6142, 6793, 59, 1,
        ],
        438528,
    ),
    (
        "rmat12x8/spmv/aj/hw_default",
        [
            500293, 248226, 4907, 127120, 4096, 124637, 6579, 6526, 53, 26, 27, 57416, 8, 57196,
            22110, 42, 10494, 6154, 6810, 60, 1,
        ],
        439680,
    ),
    (
        "rmat12x8/spmv/baseline/optimized_spmv",
        [
            266531, 204188, 19651, 98412, 4096, 92561, 9947, 9534, 413, 161, 252, 0, 0, 0, 12852,
            0, 6263, 2548, 6766, 60, 1,
        ],
        436864,
    ),
    (
        "rmat12x8/spmv/asap/optimized_spmv",
        [
            496200, 248820, 6866, 127121, 4096, 121248, 9969, 9944, 25, 1, 24, 57416, 0, 56942,
            12726, 0, 6288, 2665, 6764, 60, 1,
        ],
        436736,
    ),
    (
        "rmat12x8/spmv/aj/optimized_spmv",
        [
            500293, 252397, 9078, 127120, 4096, 121256, 9960, 9871, 89, 35, 54, 57416, 0, 57002,
            12702, 0, 6269, 2660, 6763, 60, 1,
        ],
        436672,
    ),
    (
        "rmat12x8/spmm/baseline/hw_default",
        [
            2271995, 2060739, 537861, 524936, 229664, 731286, 23314, 14289, 9025, 6103, 2922, 0, 0,
            0, 341071, 1, 279418, 74268, 22421, 1964, 1,
        ],
        1560640,
    ),
    (
        "rmat12x8/spmm/asap/hw_default",
        [
            2530372, 1623130, 33265, 553645, 229664, 759977, 23332, 23085, 247, 53, 194, 57416, 0,
            48240, 328154, 5, 274995, 66609, 17460, 1809, 1,
        ],
        1233216,
    ),
];

#[test]
fn single_core_counters_match_golden() {
    let mut actual = String::new();
    let mut mismatches = Vec::new();
    for (i, (label, tri, spmm, strat, pf, cfg)) in cases().into_iter().enumerate() {
        let (ctr, dram) = simulate(&tri, spmm, &strat, pf, cfg);
        actual.push_str(&format!("    (\"{label}\", {ctr:?}, {dram}),\n"));
        match GOLDEN.get(i) {
            Some(&(l, c, d)) if l == label && c == ctr && d == dram => {}
            _ => mismatches.push(label),
        }
    }
    assert!(
        mismatches.is_empty() && GOLDEN.len() == cases().len(),
        "counters differ from the golden table for {mismatches:?}; actual table:\n{actual}"
    );
}
