//! Figure 7: Equal-Work harmonic-mean Speedup (EWS) for SpMV across
//! matrix groups, single-threaded, with "-default" (out-of-box hardware
//! prefetchers) and optimized (L1 NLP and L2 AMP disabled) configurations.
//!
//! Paper shape: ASaP ~1.42x on the Selected (unstructured) aggregate with
//! optimized prefetchers, consistently above ASaP-default; the baseline
//! is roughly insensitive to the configuration; "Others" regresses (~0.8x).

use asap_bench::{
    auto_threads, cell_key, harmonic_mean, parallel_map, run_spmv_budgeted, ExperimentResult,
    Options, Variant, PAPER_DISTANCE,
};
use asap_ir::AsapError;
use asap_matrices::{synthetic_collection, UNSTRUCTURED_GROUPS};
use asap_sim::{GracemontConfig, PrefetcherConfig};
use std::collections::BTreeMap;

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
        .checkpoint("fig7")
        .map_err(|e| AsapError::io(e.to_string()))?;
    let ckpt = &ckpt;
    // Built once: fuel bounds each cell (one meter per run), the
    // deadline — an absolute instant — bounds the whole sweep.
    let budget = opts.budget();
    let budget = &budget;
    let cfg = GracemontConfig::scaled();
    let configs = [
        (
            "baseline",
            Variant::Baseline,
            PrefetcherConfig::optimized_spmv(),
        ),
        (
            "baseline-default",
            Variant::Baseline,
            PrefetcherConfig::hw_default(),
        ),
        (
            "asap",
            Variant::Asap {
                distance: PAPER_DISTANCE,
            },
            PrefetcherConfig::optimized_spmv(),
        ),
        (
            "asap-default",
            Variant::Asap {
                distance: PAPER_DISTANCE,
            },
            PrefetcherConfig::hw_default(),
        ),
    ];

    // All four configs of one matrix run on the same pool worker; the
    // per-config throughput columns are reassembled in collection order.
    let per_matrix = parallel_map(synthetic_collection(opts.size), auto_threads(), |_, m| {
        let tri = m.materialize();
        let mut rows = Vec::with_capacity(configs.len());
        for (label, v, pf) in &configs {
            rows.push(
                ckpt.run_cell(&cell_key(&m.name, "spmv", v.label(), label, 1), || {
                    run_spmv_budgeted(
                        &tri,
                        &m.name,
                        &m.group,
                        m.unstructured,
                        *v,
                        *pf,
                        label,
                        cfg,
                        budget,
                    )
                })?,
            );
        }
        Ok::<_, AsapError>((m, rows))
    });

    // throughput[config][matrix index]
    let mut thr: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut groups: Vec<(String, bool)> = Vec::new();
    let mut results: Vec<ExperimentResult> = Vec::new();
    for row in per_matrix {
        let (m, rows) = row?;
        groups.push((m.group.clone(), m.unstructured));
        for ((label, _, _), r) in configs.iter().zip(rows) {
            thr.entry(label).or_default().push(r.throughput);
            results.push(r);
        }
    }

    let ews_of = |label: &str, pick: &dyn Fn(usize) -> bool| -> Option<f64> {
        let sel: Vec<f64> = thr[label]
            .iter()
            .enumerate()
            .filter(|(i, _)| pick(*i))
            .map(|(_, &t)| t)
            .collect();
        let base: Vec<f64> = thr["baseline"]
            .iter()
            .enumerate()
            .filter(|(i, _)| pick(*i))
            .map(|(_, &t)| t)
            .collect();
        if sel.is_empty() {
            None
        } else {
            Some(harmonic_mean(&sel) / harmonic_mean(&base))
        }
    };

    println!("# Figure 7: SpMV EWS by group (relative to baseline w/ optimized prefetchers)");
    println!(
        "{:<12} {:>9} {:>17} {:>9} {:>13}",
        "group", "baseline", "baseline-default", "asap", "asap-default"
    );
    let mut group_names: Vec<String> = UNSTRUCTURED_GROUPS.iter().map(|s| s.to_string()).collect();
    group_names.push("Selected".into());
    group_names.push("Others".into());
    for g in &group_names {
        let groups = &groups;
        let gname = g.clone();
        let pick: Box<dyn Fn(usize) -> bool> = match g.as_str() {
            "Selected" => Box::new(move |i: usize| groups[i].1),
            "Others" => Box::new(move |i: usize| !groups[i].1),
            _ => Box::new(move |i: usize| groups[i].0 == gname),
        };
        let row: Vec<String> = ["baseline", "baseline-default", "asap", "asap-default"]
            .iter()
            .map(|l| {
                ews_of(l, &*pick)
                    .map(|x| format!("{x:.3}"))
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!(
            "{:<12} {:>9} {:>17} {:>9} {:>13}",
            g, row[0], row[1], row[2], row[3]
        );
    }
    println!();
    println!("paper reference: Selected asap ~1.42, Others asap ~0.8, asap > asap-default");
    opts.save("fig7", &results)?;
    opts.finish_trace("fig7")?;
    Ok(())
}
