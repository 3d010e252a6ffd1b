//! Figure 11: SpMV EWS across matrix groups comparing ASaP against the
//! Ainsworth & Jones low-level pass, each with default and optimized
//! hardware-prefetcher settings, all relative to the same baseline.
//!
//! Paper shape: ASaP ~1.38x over A&J on the Selected (unstructured)
//! aggregate — short inner loops are where the loop-bound clamp loses
//! coverage; the optimized prefetcher configuration helps A&J only
//! marginally (~1.02x).

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
        .checkpoint("fig11")
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
        (
            "aj",
            Variant::AinsworthJones {
                distance: PAPER_DISTANCE,
            },
            PrefetcherConfig::optimized_spmv(),
        ),
        (
            "aj-default",
            Variant::AinsworthJones {
                distance: PAPER_DISTANCE,
            },
            PrefetcherConfig::hw_default(),
        ),
    ];

    // All five configs of one matrix run on the same pool worker; the
    // throughput columns are reassembled in collection order.
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

    println!("# Figure 11: SpMV EWS by group, ASaP vs Ainsworth&Jones (relative to baseline)");
    println!(
        "{:<12} {:>8} {:>13} {:>8} {:>11} {:>9}",
        "group", "asap", "asap-default", "aj", "aj-default", "asap/aj"
    );
    let mut names: Vec<String> = UNSTRUCTURED_GROUPS.iter().map(|s| s.to_string()).collect();
    names.push("Selected".into());
    names.push("Others".into());
    for g in &names {
        let pick = |i: usize| match g.as_str() {
            "Selected" => groups[i].1,
            "Others" => !groups[i].1,
            name => groups[i].0 == name,
        };
        let hm = |label: &str| -> Option<f64> {
            let v: Vec<f64> = thr[label]
                .iter()
                .enumerate()
                .filter(|(i, _)| pick(*i))
                .map(|(_, &t)| t)
                .collect();
            if v.is_empty() {
                None
            } else {
                Some(harmonic_mean(&v))
            }
        };
        match (
            hm("baseline"),
            hm("asap"),
            hm("asap-default"),
            hm("aj"),
            hm("aj-default"),
        ) {
            (Some(b), Some(a), Some(ad), Some(j), Some(jd)) => {
                println!(
                    "{:<12} {:>8.3} {:>13.3} {:>8.3} {:>11.3} {:>9.3}",
                    g,
                    a / b,
                    ad / b,
                    j / b,
                    jd / b,
                    a / j
                );
            }
            _ => println!("{g:<12} {:>8}", "-"),
        }
    }
    println!();
    println!("paper reference: Selected asap/aj ~1.38; optimized helps aj only ~1.02x");
    opts.save("fig11", &results)?;
    opts.finish_trace("fig11")?;
    Ok(())
}
