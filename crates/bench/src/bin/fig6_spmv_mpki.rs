//! Figure 6: SpMV speedup (ASaP vs baseline) versus baseline L2 MPKI,
//! single-threaded, over the footprint-selected collection.
//!
//! Paper shape to reproduce: slowdown (<1) at low MPKI from instruction
//! overhead, speedup growing with MPKI, break-even at a small MPKI, and
//! >2x speedups for the most memory-bound matrices.

use asap_bench::{
    auto_threads, cell_key, linear_fit, parallel_map_isolated_labeled, skip_report, JobFailure,
    Options, Variant, PAPER_DISTANCE,
};
use asap_ir::AsapError;
use asap_matrices::synthetic_collection;
use asap_sim::{GracemontConfig, PrefetcherConfig};

fn main() {
    if let Err(e) = real_main() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), AsapError> {
    let opts = Options::from_args();
    opts.init_trace();
    let ckpt = opts
        .checkpoint("fig6")
        .map_err(|e| AsapError::io(e.to_string()))?;
    let ckpt = &ckpt;
    // Built once: fuel bounds each cell (one meter per run), the
    // deadline — an absolute instant — bounds the whole sweep.
    let budget = opts.budget();
    let budget = &budget;
    let cfg = GracemontConfig::scaled();
    let pf = PrefetcherConfig::optimized_spmv();
    let mut results = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut skipped: Vec<JobFailure> = Vec::new();

    println!("# Figure 6: SpMV speedup (ASaP/baseline) vs baseline L2 MPKI");
    println!(
        "{:<24} {:>10} {:>10} {:>8}",
        "matrix", "mpki", "speedup", "nnz(M)"
    );
    // Each matrix's two single-core simulations run on a crash-isolated
    // pool worker keyed by the matrix name; one poisoned matrix becomes
    // a skip-report line instead of killing the sweep. The table prints
    // in collection order afterwards.
    let per_matrix = parallel_map_isolated_labeled(
        synthetic_collection(opts.size),
        auto_threads(),
        2,
        |m, _| m.name.clone(),
        |_, m| {
            let tri = {
                let _s = asap_obs::span_with("parse.matrix", || vec![("matrix", m.name.clone())]);
                m.materialize()
            };
            let run = || -> Result<_, AsapError> {
                let base = ckpt.run_cell(
                    &cell_key(&m.name, "spmv", Variant::Baseline.label(), "optimized", 1),
                    || run_spmv_checked(&tri, m, Variant::Baseline, pf, cfg, budget),
                )?;
                let asap_v = Variant::Asap {
                    distance: PAPER_DISTANCE,
                };
                let asap = ckpt.run_cell(
                    &cell_key(&m.name, "spmv", asap_v.label(), "optimized", 1),
                    || run_spmv_checked(&tri, m, asap_v, pf, cfg, budget),
                )?;
                Ok((base, asap))
            };
            (m.name.clone(), run())
        },
    );
    for (i, row) in per_matrix.into_iter().enumerate() {
        let (name, outcome) = match row {
            Ok(pair) => pair,
            Err(jf) => {
                skipped.push(jf);
                continue;
            }
        };
        let (base, asap) = match outcome {
            Ok(pair) => pair,
            Err(e) => {
                skipped.push(JobFailure {
                    index: i,
                    label: name,
                    message: e.to_string(),
                    attempts: 1,
                });
                continue;
            }
        };
        let speedup = asap.throughput / base.throughput;
        println!(
            "{:<24} {:>10.2} {:>10.3} {:>8.2}",
            name,
            base.l2_mpki,
            speedup,
            base.nnz as f64 / 1e6
        );
        xs.push(base.l2_mpki);
        ys.push(speedup);
        results.push(base);
        results.push(asap);
    }

    println!();
    if xs.len() >= 2 {
        let (slope, intercept, r2) = linear_fit(&xs, &ys);
        let breakeven = (1.0 - intercept) / slope;
        println!("linear fit: y = {slope:.4}x + {intercept:.3}  (R^2 = {r2:.3})");
        println!("break-even MPKI: {breakeven:.2}");
        println!("paper reference: break-even ~4 MPKI, y(0) ~0.9, y(50) > 2");
    } else {
        println!("too few matrices completed for a linear fit");
    }
    if !skipped.is_empty() {
        eprint!("{}", skip_report(&skipped));
    }
    opts.save("fig6", &results)?;
    opts.finish_trace("fig6")?;
    Ok(())
}

fn run_spmv_checked(
    tri: &asap_matrices::Triplets,
    m: &asap_matrices::MatrixSpec,
    variant: Variant,
    pf: PrefetcherConfig,
    cfg: GracemontConfig,
    budget: &asap_ir::Budget,
) -> Result<asap_bench::ExperimentResult, AsapError> {
    asap_bench::run_spmv_budgeted(
        tri,
        &m.name,
        &m.group,
        m.unstructured,
        variant,
        pf,
        "optimized",
        cfg,
        budget,
    )
}
