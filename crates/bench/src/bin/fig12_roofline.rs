//! Figure 12: cache-aware roofline for multi-threaded SpMV on the
//! GAP-twitter-like matrix — baseline vs ASaP at 1..8 threads.
//!
//! For each point we report arithmetic intensity (FLOP per DRAM byte) and
//! performance (GFLOP/s), plus the machine's rooflines (peak compute and
//! DRAM bandwidth). Paper shape: ASaP above the baseline at every thread
//! count, peak relative gain at ~3 threads, with a slight leftward shift
//! in intensity from the extra prefetch-issued memory traffic.

use asap_bench::{
    auto_threads, parallel_map, run_spmv_threads, ExperimentResult, Options, Variant,
    PAPER_DISTANCE,
};
use asap_ir::AsapError;
use asap_matrices::{synthetic_collection, GenSpec};
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
    let cfg = GracemontConfig::scaled();
    let pf = PrefetcherConfig::optimized_spmv();

    // The GAP/twitter-like entry of the collection.
    // invariant: every size class of the synthetic collection includes
    // the GAP/twitter-like entry (collection.rs constructs it statically).
    let m = synthetic_collection(opts.size)
        .into_iter()
        .find(|m| m.name == "GAP/twitter-like")
        .expect("collection has the twitter-like matrix");
    assert!(matches!(m.gen, GenSpec::Rmat { .. }));
    let tri = m.materialize();

    let peak_gflops = cfg.freq_hz as f64 * cfg.ipc_base as f64 / 1e9;
    let peak_bw = cfg.freq_hz as f64 * 64.0 / cfg.dram_line_interval as f64 / 1e9;
    println!(
        "# Figure 12: roofline, SpMV on {} ({} nnz)",
        m.name,
        tri.nnz()
    );
    println!("peak compute: {peak_gflops:.1} GFLOP/s; DRAM bandwidth: {peak_bw:.1} GB/s");
    println!(
        "{:<9} {:>8} {:>12} {:>10} {:>12} {:>10}",
        "variant", "threads", "AI(F/B)", "GFLOP/s", "time(ms)", "speedup"
    );

    // Every cell runs on a pool worker: a multi-core simulation's
    // counters do not depend on the host threads it runs on, so the
    // table is the same for any worker count.
    let variants = [
        Variant::Baseline,
        Variant::Asap {
            distance: PAPER_DISTANCE,
        },
    ];
    let cells: Vec<(Variant, usize)> = variants
        .iter()
        .flat_map(|&v| (1..=8usize).map(move |threads| (v, threads)))
        .collect();
    let results = parallel_map(cells, auto_threads(), |_, (v, threads)| {
        run_spmv_threads(
            &tri,
            &m.name,
            &m.group,
            true,
            v,
            pf,
            "optimized",
            cfg,
            threads,
        )
    })
    .into_iter()
    .collect::<Result<Vec<ExperimentResult>, AsapError>>()?;
    let mut base_gflops = [0.0f64; 9];
    for r in &results {
        let flops = 2.0 * r.nnz as f64;
        let secs = cfg.cycles_to_seconds(r.cycles);
        let gflops = flops / secs / 1e9;
        let ai = flops / r.dram_bytes as f64;
        let speedup = if r.variant == Variant::Baseline.label() {
            base_gflops[r.threads] = gflops;
            1.0
        } else {
            gflops / base_gflops[r.threads]
        };
        println!(
            "{:<9} {:>8} {:>12.4} {:>10.3} {:>12.2} {:>10.3}",
            r.variant,
            r.threads,
            ai,
            gflops,
            secs * 1e3,
            speedup
        );
    }
    println!();
    println!("paper reference: ASaP above baseline throughout; peak gain (~28%) at 3 threads;");
    println!("ASaP's AI slightly left of baseline's (extra prefetch traffic).");
    opts.save("fig12", &results)?;
    opts.finish_trace("fig12")?;
    Ok(())
}
