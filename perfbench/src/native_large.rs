//! `native_large`: the library request path on matrices far larger
//! than L2. Every timed call is `asap_core::serve_request` with
//! `ExecEngine::Auto`: SpMV on ER 2^20×8 for baseline/asap/aj and SpMM
//! with 8 dense columns on ER 2^18×8 for baseline/asap.

use crate::metrics::Values;
use crate::oracle::{service_c, service_x, triad_gb_per_s, RefCsr, DISTANCE};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{derive, repeat_setup, Args, Outcome, Tally};
use asap_core::{
    cache_stats_full, checksum_f64, compile_cached, compile_for, compile_with_width, fingerprint64,
    serve_request, ExecEngine, PrefetchStrategy, ServiceKernel,
};
use asap_ir::{execute_budgeted, Budget, NullModel};
use asap_matrices::{GenSpec, MatrixSpec, Triplets};
use asap_sparsifier::{bind, read_back};
use asap_tensor::{DenseTensor, Format, SparseTensor, ValueKind};
use std::collections::BTreeMap;
use std::time::Instant;

const SPMV_SCALE: usize = 1 << 20;
const SPMM_SCALE: usize = 1 << 18;
const DEGREE: usize = 8;
const SPMM_COLS: usize = 8;
/// Bytes the bandwidth probe streams through: three arrays totalling
/// more than four times the 300 MiB L3 of the reference host.
const PROBE_BYTES: usize = 1200 << 20;
/// Calls each (kernel, strategy) makes at least, however slow.
const MIN_CALLS: usize = 3;

struct Combo {
    pair: &'static str,
    kernel: ServiceKernel,
    strategy: PrefetchStrategy,
    /// Index into the matrices: 0 = SpMV's, 1 = SpMM's.
    matrix: usize,
}

fn combos() -> Vec<Combo> {
    let spmm = ServiceKernel::Spmm { cols: SPMM_COLS };
    let c = |pair, kernel, strategy, matrix| Combo {
        pair,
        kernel,
        strategy,
        matrix,
    };
    vec![
        c(
            "spmv.baseline",
            ServiceKernel::Spmv,
            PrefetchStrategy::none(),
            0,
        ),
        c(
            "spmv.asap",
            ServiceKernel::Spmv,
            PrefetchStrategy::asap(DISTANCE),
            0,
        ),
        c(
            "spmv.aj",
            ServiceKernel::Spmv,
            PrefetchStrategy::aj(DISTANCE),
            0,
        ),
        c("spmm.baseline", spmm, PrefetchStrategy::none(), 1),
        c("spmm.asap", spmm, PrefetchStrategy::asap(DISTANCE), 1),
    ]
}

fn matrix_specs(seed: u64) -> [MatrixSpec; 2] {
    let er = |n, stream| MatrixSpec {
        name: format!("er-{n}x{DEGREE}"),
        group: "native_large".into(),
        unstructured: true,
        gen: GenSpec::ErdosRenyi {
            n,
            deg: DEGREE,
            seed: derive(seed, stream),
        },
    };
    [er(SPMV_SCALE, 11), er(SPMM_SCALE, 12)]
}

pub fn input_digest(seed: u64) -> u64 {
    fingerprint64(format!("{:?}", matrix_specs(seed)).as_bytes())
}

struct Input {
    tri: Triplets,
    sparse: SparseTensor,
}

/// Per-combo samples.
#[derive(Default)]
struct ComboStats {
    /// Untraced `serve_request` wall time per call.
    wall: Vec<f64>,
    calls: usize,
    /// Untraced calls that returned, and those of them whose
    /// `engine_used` was tier-2.
    served: usize,
    tier2_calls: usize,
    /// Wall time of every call, traced or not, failed or not.
    spent: f64,
    /// Traced replays.
    root: Vec<f64>,
    compile: Vec<f64>,
    bind: Vec<f64>,
    kernel: Vec<f64>,
    bind_bytes: u64,
}

fn expected_checksum(c: &Combo, r: &RefCsr) -> u64 {
    match c.kernel {
        ServiceKernel::Spmv => checksum_f64(&r.spmv(&service_x(r.ncols))),
        ServiceKernel::Spmm { cols } => checksum_f64(&r.spmm(&service_c(r.ncols, cols), cols)),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let specs = matrix_specs(args.seed);
    eprintln!(
        "perfbench: native_large seed {} input digest {:016x}",
        args.seed,
        input_digest(args.seed)
    );
    let combos = combos();
    let mut values = Values::default();
    let e = |e: asap_ir::AsapError| e.to_string();

    // Set-up: generate, build CSR, compile every combo cold.
    let (mut gen_s, mut csr_s) = (Vec::new(), Vec::new());
    let mut cold: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (inputs, setup) = repeat_setup(|| {
        let mut inputs = Vec::new();
        let (mut g, mut b) = (0.0, 0.0);
        for spec in &specs {
            let t0 = Instant::now();
            let tri = spec.materialize();
            g += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let sparse =
                SparseTensor::try_from_coo(&tri.try_to_coo_f64().map_err(e)?, Format::csr())
                    .map_err(e)?;
            b += t0.elapsed().as_secs_f64();
            inputs.push(Input { tri, sparse });
        }
        gen_s.push(g);
        csr_s.push(b);
        for c in &combos {
            let s = &inputs[c.matrix].sparse;
            let t0 = Instant::now();
            compile_with_width(&c.kernel.spec(), s.format(), s.index_width(), &c.strategy)
                .map_err(e)?;
            cold.entry(c.pair)
                .or_default()
                .push(t0.elapsed().as_secs_f64());
        }
        Ok(inputs)
    })?;
    values.set("setup_s", median(&setup));
    values.set("matrices.gen_s", median(&gen_s));
    let nnz_all: usize = inputs.iter().map(|i| i.sparse.nnz()).sum();
    values.set(
        "tensor.csr_build_ns_per_nnz",
        median(&csr_s) / nnz_all as f64 * 1e9,
    );
    for (pair, t) in &cold {
        values.set(format!("core.compile_cold_ms.{pair}"), median(t) * 1e3);
    }
    // The compile cache is the only lazily filled state; fill it so the
    // timed calls measure what a warm library pays.
    for c in &combos {
        let s = &inputs[c.matrix].sparse;
        compile_cached(&c.kernel.spec(), s.format(), s.index_width(), &c.strategy).map_err(e)?;
    }

    // The oracle: the benchmark's own CSR of the same triplets.
    let refs: Vec<RefCsr> = inputs
        .iter()
        .map(|i| RefCsr::from_triplets(&i.tri))
        .collect();
    let expect: Vec<u64> = combos
        .iter()
        .map(|c| expected_checksum(c, &refs[c.matrix]))
        .collect();

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut roots = Vec::new();
    let mut stats: Vec<ComboStats> = combos.iter().map(|_| ComboStats::default()).collect();
    let slice = args.seconds / combos.len() as f64;
    let budget = Budget::unlimited();
    let hits0 = cache_stats_full();
    let mut call = 0u64;
    // Round-robin so slow drift hits every combo alike; each combo
    // stops once it has had its share of the time and MIN_CALLS calls.
    loop {
        let mut busy = false;
        for (i, c) in combos.iter().enumerate() {
            let st = &mut stats[i];
            if st.calls >= MIN_CALLS && st.spent >= slice {
                continue;
            }
            busy = true;
            let inp = &inputs[c.matrix];
            call += 1;
            st.calls += 1;
            // A traced run alternates untraced and traced calls, so the
            // difference is the tracing overhead.
            if args.trace && st.calls.is_multiple_of(2) {
                let t0 = Instant::now();
                let ok = traced_call(c, &inp.sparse, &mut tracer, call, &budget).and_then(
                    |(sum, root, parts)| {
                        roots.push(root);
                        st.root.push(tracer.get(root).duration_ns() as f64 * 1e-9);
                        st.compile.push(parts.compile);
                        st.bind.push(parts.bind);
                        st.kernel.push(parts.kernel);
                        st.bind_bytes = parts.bind_bytes;
                        check(sum, expect[i])
                    },
                );
                st.spent += t0.elapsed().as_secs_f64();
                tally.check(ok);
                continue;
            }
            let t0 = Instant::now();
            let out = serve_request(
                c.kernel,
                &inp.sparse,
                &c.strategy,
                ExecEngine::Auto,
                &budget,
            );
            let wall = t0.elapsed().as_secs_f64();
            st.spent += wall;
            let ok = out.map_err(e).and_then(|o| {
                st.served += 1;
                if o.engine_used == "tier2" {
                    st.tier2_calls += 1;
                }
                if o.nnz != refs[c.matrix].nnz() {
                    return Err(format!(
                        "{}: nnz {} but the reference has {}",
                        c.pair,
                        o.nnz,
                        refs[c.matrix].nnz()
                    ));
                }
                check(o.checksum, expect[i])
            });
            if tally.check(ok) {
                st.wall.push(wall);
            }
        }
        if !busy {
            break;
        }
    }
    let hits1 = cache_stats_full();

    let med: Vec<f64> = stats.iter().map(|s| median(&s.wall)).collect();
    let nnz: Vec<f64> = combos.iter().map(|c| refs[c.matrix].nnz() as f64).collect();
    let total: f64 = med.iter().sum();
    values.set("nnz_per_s", nnz.iter().sum::<f64>() / total);
    let asap: Vec<usize> = (0..combos.len())
        .filter(|&i| combos[i].pair.ends_with(".asap"))
        .collect();
    values.set(
        "asap_nnz_per_s",
        asap.iter().map(|&i| nnz[i]).sum::<f64>() / asap.iter().map(|&i| med[i]).sum::<f64>(),
    );
    values.set("ops_per_s", combos.len() as f64 / total);
    values.set("op_p50_ms", median(&med) * 1e3);
    for (i, c) in combos.iter().enumerate() {
        let (k, s) = c.pair.split_once('.').expect("pairs are kernel.strategy");
        values.set(format!("{k}_nnz_per_s.{s}"), nnz[i] / med[i]);
        values.set(
            format!("ir.tier2_share.{}", c.pair),
            stats[i].tier2_calls as f64 / stats[i].served.max(1) as f64,
        );
    }
    values.set_cache(&hits0, &hits1);

    if args.trace {
        values.set_layers(&tracer.layer_self_s(&roots), &tracer, &roots, "bench");
        let traced: f64 = stats.iter().map(|s| median(&s.root)).sum();
        values.set("trace.overhead_pct", (traced - total) / total * 100.0);
        let compile: Vec<f64> = stats
            .iter()
            .flat_map(|s| s.compile.iter().copied())
            .collect();
        values.set("core.compile_hit_us", median(&compile) * 1e6);
        values.set(
            "sparsifier.bind_bytes",
            stats.iter().map(|s| s.bind_bytes).max().unwrap_or(0) as f64,
        );
        for (i, c) in combos.iter().enumerate() {
            values.set(
                format!("sparsifier.bind_ms.{}", c.pair),
                median(&stats[i].bind) * 1e3,
            );
            values.set(
                format!("ir.kernel_ms.{}", c.pair),
                median(&stats[i].kernel) * 1e3,
            );
        }
        let kernel = |pair: &str| {
            combos
                .iter()
                .position(|c| c.pair == pair)
                .map_or(0.0, |i| median(&stats[i].kernel))
        };
        values.set(
            "ir.asap_speedup.spmv",
            kernel("spmv.baseline") / kernel("spmv.asap"),
        );
        values.set(
            "ir.asap_speedup.spmm",
            kernel("spmm.baseline") / kernel("spmm.asap"),
        );

        // Native reference points, measured in the same run: the
        // hand-written loop (plain for baseline, the ASaP schedule for
        // asap and aj) and a bandwidth ceiling.
        for (i, c) in combos.iter().enumerate() {
            let r = &refs[c.matrix];
            let prefetched = !c.pair.ends_with(".baseline");
            let mut times = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                let sum = match c.kernel {
                    ServiceKernel::Spmv => {
                        let x = service_x(r.ncols);
                        let y = if prefetched {
                            r.spmv_prefetched(&x, DISTANCE)
                        } else {
                            r.spmv(&x)
                        };
                        checksum_f64(&y)
                    }
                    ServiceKernel::Spmm { cols } => {
                        let cv = service_c(r.ncols, cols);
                        let out = if prefetched {
                            r.spmm_prefetched(&cv, cols, DISTANCE)
                        } else {
                            r.spmm(&cv, cols)
                        };
                        checksum_f64(&out)
                    }
                };
                times.push(t0.elapsed().as_secs_f64());
                tally.check(check(sum, expect[i]));
            }
            values.set(
                format!("ir.ref_ratio.{}", c.pair),
                median(&stats[i].kernel) / median(&times),
            );
        }
        let bytes: Vec<f64> = combos
            .iter()
            .map(|c| {
                let k = if let ServiceKernel::Spmm { cols } = c.kernel {
                    cols
                } else {
                    1
                };
                refs[c.matrix].computed_bytes(k) as f64
            })
            .collect();
        drop(refs);
        drop(inputs);
        let probe = triad_gb_per_s(PROBE_BYTES, 3);
        values.set("ir.probe_gb_per_s", probe);
        for (i, c) in combos.iter().enumerate() {
            let gbps = bytes[i] / median(&stats[i].kernel) / 1e9;
            values.set(format!("ir.bw_fraction.{}", c.pair), gbps / probe);
        }
    }
    Ok(Outcome {
        values,
        tally,
        tracer: args.trace.then_some(tracer),
    })
}

fn check(sum: u64, expect: u64) -> Result<(), String> {
    if sum == expect {
        Ok(())
    } else {
        Err(format!("checksum {sum:016x}, reference {expect:016x}"))
    }
}

struct Parts {
    compile: f64,
    bind: f64,
    kernel: f64,
    bind_bytes: u64,
}

/// One call the way `serve_request` makes it, each public step in a
/// span under one root: compile through the cache, operands, bind, the
/// kernel on the bound buffers (tier-2 when the compile produced a
/// specialization, the VM otherwise, as `Auto` resolves for the
/// service), read-back, and the checksum.
fn traced_call(
    c: &Combo,
    sparse: &SparseTensor,
    t: &mut Tracer,
    group: u64,
    budget: &Budget,
) -> Result<(u64, usize, Parts), String> {
    let e = |e: asap_ir::AsapError| e.to_string();
    let secs = |t: &Tracer, id: usize| t.get(id).duration_ns() as f64 * 1e-9;
    let (res, root) = t.span("bench.call", group, |t| -> Result<(u64, Parts), String> {
        let (ck, compile_id) = t.span("core.compile", group, |_| {
            compile_for(c.kernel, sparse, &c.strategy)
        });
        let (ck, _, _) = ck.map_err(e)?;
        let rows = sparse.dims()[0];
        let n = sparse.dims()[1];
        let ((dense, mut out), _) = t.span("core.operands", group, |_| match c.kernel {
            ServiceKernel::Spmv => (
                DenseTensor::from_f64(vec![n], asap_core::service_x(n)),
                DenseTensor::zeros(ValueKind::F64, vec![rows]),
            ),
            ServiceKernel::Spmm { cols } => (
                asap_core::service_c(n, cols),
                DenseTensor::zeros(ValueKind::F64, vec![rows, cols]),
            ),
        });
        let (bound, bind_id) = t.span("sparsifier.bind", group, |_| {
            bind(&ck.kernel, sparse, &[&dense], &out)
        });
        let mut bound = bound.map_err(e)?;
        let bind_bytes = bound.bufs.bytes_allocated();
        let (ran, kernel_id) = t.span("ir.kernel", group, |_| match (&ck.tier2, &ck.program) {
            (Some(plan), _) => plan
                .run(&bound.args, &mut bound.bufs, budget)
                .map(|_| ())
                .map_err(|e| e.to_string()),
            (None, Some(prog)) => {
                execute_budgeted(prog, &bound.args, &mut bound.bufs, &mut NullModel, budget)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            (None, None) => Err("kernel has neither a tier-2 plan nor a program".to_string()),
        });
        ran?;
        let (rb, _) = t.span("sparsifier.read_back", group, |_| {
            read_back(&mut out, &bound)
        });
        rb.map_err(e)?;
        let (sum, _) = t.span("core.checksum", group, |_| checksum_f64(out.as_f64()));
        Ok((
            sum,
            Parts {
                compile: secs(t, compile_id),
                bind: secs(t, bind_id),
                kernel: secs(t, kernel_id),
                bind_bytes,
            },
        ))
    });
    let (sum, parts) = res?;
    Ok((sum, root, parts))
}
