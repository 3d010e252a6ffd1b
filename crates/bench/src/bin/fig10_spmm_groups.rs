//! Figure 10: Equal-Work harmonic-mean Speedup (EWS) for SpMM across
//! matrix groups (single-threaded, 8 dense columns).
//!
//! Paper shape: ~1.28x for the unstructured aggregate ("Selected"),
//! ~1.02x for the rest; hardware-prefetcher configuration differences are
//! negligible for SpMM (which is why Figure 10 omits the "-default" bars).

use asap_bench::{
    auto_threads, cell_key, harmonic_mean, parallel_map, run_spmm_budgeted, ExperimentResult,
    Options, Variant, PAPER_DISTANCE, SPMM_COLS_F64,
};
use asap_ir::AsapError;
use asap_matrices::{spmm_collection, UNSTRUCTURED_GROUPS};
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
        .checkpoint("fig10")
        .map_err(|e| AsapError::io(e.to_string()))?;
    let ckpt = &ckpt;
    // Built once: fuel bounds each cell (one meter per run), the
    // deadline — an absolute instant — bounds the whole sweep.
    let budget = opts.budget();
    let budget = &budget;
    let cfg = GracemontConfig::scaled();
    let pf = PrefetcherConfig::optimized_spmm();

    // Per-matrix baseline/ASaP pairs simulate on pool workers.
    let per_matrix = parallel_map(spmm_collection(opts.size), auto_threads(), |_, m| {
        let tri = m.materialize();
        let b = ckpt.run_cell(
            &cell_key(&m.name, "spmm", Variant::Baseline.label(), "optimized", 1),
            || {
                run_spmm_budgeted(
                    &tri,
                    &m.name,
                    &m.group,
                    m.unstructured,
                    SPMM_COLS_F64,
                    Variant::Baseline,
                    pf,
                    "optimized",
                    cfg,
                    budget,
                )
            },
        )?;
        let asap_v = Variant::Asap {
            distance: PAPER_DISTANCE,
        };
        let a = ckpt.run_cell(
            &cell_key(&m.name, "spmm", asap_v.label(), "optimized", 1),
            || {
                run_spmm_budgeted(
                    &tri,
                    &m.name,
                    &m.group,
                    m.unstructured,
                    SPMM_COLS_F64,
                    asap_v,
                    pf,
                    "optimized",
                    cfg,
                    budget,
                )
            },
        )?;
        Ok::<_, AsapError>((m, b, a))
    });

    let mut base_thr = Vec::new();
    let mut asap_thr = Vec::new();
    let mut groups: Vec<(String, bool)> = Vec::new();
    let mut results: Vec<ExperimentResult> = Vec::new();
    for row in per_matrix {
        let (m, b, a) = row?;
        groups.push((m.group.clone(), m.unstructured));
        base_thr.push(b.throughput);
        asap_thr.push(a.throughput);
        results.push(b);
        results.push(a);
    }

    println!("# Figure 10: SpMM EWS by group (ASaP vs baseline)");
    println!("{:<12} {:>9}", "group", "asap");
    let mut names: Vec<String> = UNSTRUCTURED_GROUPS.iter().map(|s| s.to_string()).collect();
    names.push("Selected".into());
    names.push("Others".into());
    for g in &names {
        let pick = |i: usize| match g.as_str() {
            "Selected" => groups[i].1,
            "Others" => !groups[i].1,
            name => groups[i].0 == name,
        };
        let a: Vec<f64> = asap_thr
            .iter()
            .enumerate()
            .filter(|(i, _)| pick(*i))
            .map(|(_, &t)| t)
            .collect();
        let b: Vec<f64> = base_thr
            .iter()
            .enumerate()
            .filter(|(i, _)| pick(*i))
            .map(|(_, &t)| t)
            .collect();
        if a.is_empty() {
            println!("{g:<12} {:>9}", "-");
        } else {
            println!("{g:<12} {:>9.3}", harmonic_mean(&a) / harmonic_mean(&b));
        }
    }
    println!();
    println!("paper reference: Selected ~1.28, Others ~1.02");
    opts.save("fig10", &results)?;
    opts.finish_trace("fig10")?;
    Ok(())
}
