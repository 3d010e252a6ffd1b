//! `sim_cells`: the reproduction path. A seeded draw of figure cells at
//! `SizeClass::Small`, run one after another through
//! `asap_bench::run_spmv`, `run_spmm` and `run_spmv_threads`.

use crate::metrics::{Values, PAIRS};
use crate::oracle::{figure_c, RefCsr};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{derive, repeat_setup, Args, Outcome, Tally};
use asap_bench::{run_spmm, run_spmv, run_spmv_threads, ExperimentResult, Variant, SPMM_COLS_F64};
use asap_core::{cache_stats_full, compile_cached, compile_with_width, fingerprint64};
use asap_ir::{MemoryModel, NullModel, OpId};
use asap_matrices::{synthetic_collection, GenSpec, MatrixSpec, Rng64, SizeClass, Triplets};
use asap_sim::{Counters, GracemontConfig, Machine, PrefetcherConfig};
use asap_sparsifier::{bind, KernelSpec};
use asap_tensor::{DenseTensor, Format, SparseTensor, ValueKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// The SpMV cells' matrix (also the 2-core cells').
const SPMV_MATRIX: &str = "Gleich/rand-er-a";
/// The SpMM cells' matrix: the smallest unstructured one with a
/// generator seed, so a pass stays a few seconds long.
const SPMM_MATRIX: &str = "DIMACS10/road-a";
const DISTANCE: usize = asap_bench::PAPER_DISTANCE;
/// Timed passes over the cell set at least, so every cell's median has
/// three samples and the 2-core cells three cycle counts.
const MIN_PASSES: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    Spmv,
    Spmm,
    /// SpMV on two simulated cores (Fig. 12).
    Spmv2,
}

#[derive(Debug, Clone)]
struct Cell {
    kernel: Kernel,
    variant: Variant,
    hw: &'static str,
    matrix: usize,
}

impl Cell {
    fn pf(&self) -> PrefetcherConfig {
        match (self.hw, self.kernel) {
            ("default", _) => PrefetcherConfig::hw_default(),
            (_, Kernel::Spmm) => PrefetcherConfig::optimized_spmm(),
            _ => PrefetcherConfig::optimized_spmv(),
        }
    }

    fn pair(&self) -> &'static str {
        let k = if self.kernel == Kernel::Spmm {
            "spmm"
        } else {
            "spmv"
        };
        PAIRS
            .iter()
            .find(|p| **p == format!("{k}.{}", self.variant.label()))
            .expect("every cell's pair is in PAIRS")
    }
}

struct Plan {
    matrices: Vec<MatrixSpec>,
    cells: Vec<Cell>,
}

/// Replace a collection entry's generator seed with one drawn from the
/// run seed: the family, size and degree stay, the instance changes.
fn reseed(mut m: MatrixSpec, seed: u64) -> MatrixSpec {
    match &mut m.gen {
        GenSpec::ErdosRenyi { seed: s, .. } | GenSpec::RoadNetwork { seed: s, .. } => *s = seed,
        other => panic!("{} has no reseedable generator: {other:?}", m.name),
    }
    m
}

fn plan(seed: u64) -> Plan {
    let coll = synthetic_collection(SizeClass::Small);
    let pick = |name: &str, stream: u64| {
        let m = coll
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is in the Small collection"))
            .clone();
        reseed(m, derive(seed, stream))
    };
    let matrices = vec![pick(SPMV_MATRIX, 1), pick(SPMM_MATRIX, 2)];
    let asap = Variant::Asap { distance: DISTANCE };
    let aj = Variant::AinsworthJones { distance: DISTANCE };
    let cell = |kernel, variant, hw, matrix| Cell {
        kernel,
        variant,
        hw,
        matrix,
    };
    let mut cells = vec![
        // Figs. 6, 7 and 11: SpMV under optimized and default HW prefetchers.
        cell(Kernel::Spmv, Variant::Baseline, "optimized", 0),
        cell(Kernel::Spmv, asap, "optimized", 0),
        cell(Kernel::Spmv, asap, "default", 0),
        cell(Kernel::Spmv, aj, "optimized", 0),
        cell(Kernel::Spmv, aj, "default", 0),
        // Figs. 8 and 10: SpMM.
        cell(Kernel::Spmm, Variant::Baseline, "optimized", 1),
        cell(Kernel::Spmm, asap, "optimized", 1),
        // Fig. 12 at two simulated cores.
        cell(Kernel::Spmv2, Variant::Baseline, "optimized", 0),
        cell(Kernel::Spmv2, asap, "optimized", 0),
    ];
    // The seed also draws the order the cells run in.
    let mut rng = Rng64::seed_from_u64(derive(seed, 3));
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.usize_below(i + 1));
    }
    Plan { matrices, cells }
}

pub fn input_digest(seed: u64) -> u64 {
    let p = plan(seed);
    fingerprint64(format!("{:?}{:?}", p.matrices, p.cells).as_bytes())
}

/// Counts retired instructions the way the timing model does (one per
/// memory event plus the retired non-memory ones), storing nothing.
#[derive(Default)]
struct CountModel(u64);

impl MemoryModel for CountModel {
    fn load(&mut self, _: OpId, _: u64, _: u8) {
        self.0 += 1;
    }
    fn store(&mut self, _: OpId, _: u64, _: u8) {
        self.0 += 1;
    }
    fn prefetch(&mut self, _: OpId, _: u64, _: u8, _: bool) {
        self.0 += 1;
    }
    fn retire(&mut self, n: u64) {
        self.0 += n;
    }
}

/// Digest of the result fields a single-core cell must repeat exactly:
/// cycles, instructions, software and hardware prefetches, stalls, DRAM
/// bytes, L2 MPKI and nnz.
fn digest(words: [u64; 9]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fingerprint64(&bytes)
}

fn result_digest(r: &ExperimentResult) -> u64 {
    digest([
        r.cycles,
        r.instructions,
        r.sw_pf_issued,
        r.sw_pf_dropped,
        r.hw_pf_issued,
        r.stall_cycles,
        r.dram_bytes,
        r.l2_mpki.to_bits(),
        r.nnz as u64,
    ])
}

/// The same digest from a replay's own counters.
fn counters_digest(c: &Counters, dram_bytes: u64, nnz: usize) -> u64 {
    digest([
        c.cycles,
        c.instructions,
        c.sw_pf_issued,
        c.sw_pf_dropped,
        c.hw_pf_issued,
        c.stall_cycles,
        dram_bytes,
        c.l2_mpki().to_bits(),
        nnz as u64,
    ])
}

struct Input {
    tri: Triplets,
    reference: RefCsr,
}

/// Retired instructions of a row-partitioned SpMV on `cores` simulated
/// cores, computed by the benchmark: the rows cut into contiguous
/// chunks of about equal nonzeros, each chunk's CSR run under the
/// counting model, the counts summed.
fn partitioned_instructions(c: &Cell, tri: &Triplets, cores: usize) -> Result<u64, String> {
    let e = |e: asap_ir::AsapError| e.to_string();
    let deg = tri.row_degrees();
    let per = deg.iter().sum::<usize>().div_ceil(cores).max(1);
    let mut cuts = vec![0];
    let mut acc = 0;
    for (r, d) in deg.iter().enumerate() {
        acc += d;
        if acc >= per && cuts.len() < cores {
            cuts.push(r + 1);
            acc = 0;
        }
    }
    cuts.resize(cores + 1, tri.nrows);
    let x = DenseTensor::from_f64(vec![tri.ncols], crate::oracle::service_x(tri.ncols));
    let mut count = CountModel::default();
    for w in cuts.windows(2) {
        let mut part = Triplets::new(w[1] - w[0], tri.ncols);
        part.binary = tri.binary;
        for k in 0..tri.nnz() {
            if (w[0]..w[1]).contains(&tri.rows[k]) {
                part.push(tri.rows[k] - w[0], tri.cols[k], tri.vals[k]);
            }
        }
        let sparse = SparseTensor::try_from_coo(&part.try_to_coo_f64().map_err(e)?, Format::csr())
            .map_err(e)?;
        let ck = compile_cached(
            &kernel_spec(c.kernel),
            sparse.format(),
            sparse.index_width(),
            &c.variant.strategy(),
        )
        .map_err(e)?;
        let mut y = DenseTensor::zeros(ValueKind::F64, vec![part.nrows]);
        asap_core::run(&ck, &sparse, &[&x], &mut y, &mut count).map_err(e)?;
    }
    Ok(count.0)
}

/// Run one cell through the figure harness: the timed operation.
fn run_cell(c: &Cell, m: &MatrixSpec, tri: &Triplets) -> Result<ExperimentResult, String> {
    let cfg = GracemontConfig::scaled();
    let (name, group, un) = (&m.name, &m.group, m.unstructured);
    match c.kernel {
        Kernel::Spmv => run_spmv(tri, name, group, un, c.variant, c.pf(), c.hw, cfg),
        Kernel::Spmm => run_spmm(
            tri,
            name,
            group,
            un,
            SPMM_COLS_F64,
            c.variant,
            c.pf(),
            c.hw,
            cfg,
        ),
        Kernel::Spmv2 => run_spmv_threads(tri, name, group, un, c.variant, c.pf(), c.hw, cfg, 2),
    }
    .map_err(|e| format!("{} {:?}: {e}", m.name, c))
}

/// What a single-core replay measured besides its spans.
struct Replay {
    counters: Counters,
    digest: u64,
    /// Output equals the oracle's bit for bit.
    exact: bool,
}

/// The cell again, as the public calls `run_spmv`/`run_spmm` make
/// internally, each in a span under one root: triplets to COO, CSR
/// build, compile, machine, simulated run, and the harness's own
/// dense-reference check. The oracle's comparison runs after the root
/// closes, so it is not counted in any layer.
fn replay(
    c: &Cell,
    inp: &Input,
    tracer: &mut Tracer,
    group: u64,
) -> Result<(Replay, usize), String> {
    let cfg = GracemontConfig::scaled();
    let e = |e: asap_ir::AsapError| e.to_string();
    let (res, root) = tracer.span("bench.cell", group, |t| {
        let (coo, _) = t.span("matrices.to_coo", group, |_| inp.tri.try_to_coo_f64());
        let (sparse, _) = t.span("tensor.csr_build", group, |_| {
            SparseTensor::try_from_coo(&coo.map_err(e)?, Format::csr()).map_err(e)
        });
        let sparse = sparse?;
        let spec = kernel_spec(c.kernel);
        let (ck, _) = t.span("core.compile", group, |_| {
            compile_cached(
                &spec,
                sparse.format(),
                sparse.index_width(),
                &c.variant.strategy(),
            )
        });
        let ck = ck.map_err(e)?;
        let (mut machine, _) = t.span("sim.machine_new", group, |_| Machine::new(cfg, c.pf()));
        // The harness's SpMV operand has the service's formula.
        let x = crate::oracle::service_x(inp.tri.ncols);
        let out = if c.kernel == Kernel::Spmv {
            let (y, _) = t.span("sim.run", group, |_| {
                asap_core::run_spmv_f64_with(&ck, &sparse, &x, &mut machine)
            });
            let y = y.map_err(e)?;
            t.span("matrices.dense_spmv", group, |_| inp.tri.dense_spmv(&x));
            DenseTensor::from_f64(vec![y.len()], y)
        } else {
            let (k, n) = (SPMM_COLS_F64, inp.tri.ncols);
            let cv = figure_c(n, k);
            let col0: Vec<f64> = cv.iter().step_by(k).copied().collect();
            let cd = DenseTensor::from_f64(vec![n, k], cv);
            let (out, _) = t.span("sim.run", group, |_| {
                asap_core::run_spmm_f64_with(&ck, &sparse, &cd, &mut machine)
            });
            let out = out.map_err(e)?;
            t.span("matrices.dense_spmv", group, |_| inp.tri.dense_spmv(&col0));
            out
        };
        let counters = machine.counters();
        let digest = counters_digest(&counters, machine.dram_bytes_total(), sparse.nnz());
        Ok::<_, String>((counters, digest, out))
    });
    let (counters, digest, out) = res?;
    let exact = if c.kernel == Kernel::Spmv {
        out.as_f64() == inp.reference.spmv(&crate::oracle::service_x(inp.tri.ncols))
    } else {
        let (k, n) = (SPMM_COLS_F64, inp.tri.ncols);
        out.as_f64() == inp.reference.spmm(&figure_c(n, k), k)
    };
    let replay = Replay {
        counters,
        digest,
        exact,
    };
    Ok((replay, root))
}

fn kernel_spec(k: Kernel) -> KernelSpec {
    match k {
        Kernel::Spmm => KernelSpec::spmm(ValueKind::F64),
        _ => KernelSpec::spmv(ValueKind::F64),
    }
}

/// Functional cost of a cell: bind alone, the run under `NullModel`
/// (which includes a bind), and retired instructions under a counting
/// model.
struct Functional {
    bind_s: f64,
    bind_bytes: u64,
    run_s: f64,
    instructions: u64,
}

fn functional(c: &Cell, inp: &Input, sparse: &SparseTensor) -> Result<Functional, String> {
    let e = |e: asap_ir::AsapError| e.to_string();
    let ck = compile_cached(
        &kernel_spec(c.kernel),
        sparse.format(),
        sparse.index_width(),
        &c.variant.strategy(),
    )
    .map_err(e)?;
    let n = inp.tri.ncols;
    let (dense, mut out) = if c.kernel == Kernel::Spmm {
        let k = SPMM_COLS_F64;
        (
            DenseTensor::from_f64(vec![n, k], figure_c(n, k)),
            DenseTensor::zeros(ValueKind::F64, vec![inp.tri.nrows, k]),
        )
    } else {
        (
            DenseTensor::from_f64(vec![n], crate::oracle::service_x(n)),
            DenseTensor::zeros(ValueKind::F64, vec![inp.tri.nrows]),
        )
    };
    let t0 = Instant::now();
    let bound = bind(&ck.kernel, sparse, &[&dense], &out).map_err(e)?;
    let bind_s = t0.elapsed().as_secs_f64();
    let bind_bytes = bound.bufs.bytes_allocated();
    drop(bound);
    let t0 = Instant::now();
    asap_core::run(&ck, sparse, &[&dense], &mut out, &mut NullModel).map_err(e)?;
    let func_s = t0.elapsed().as_secs_f64();
    let mut count = CountModel::default();
    asap_core::run(&ck, sparse, &[&dense], &mut out, &mut count).map_err(e)?;
    Ok(Functional {
        bind_s,
        bind_bytes,
        run_s: func_s,
        instructions: count.0,
    })
}

/// Per-cell samples gathered over the run.
#[derive(Default)]
struct CellStats {
    /// Untraced wall time of each timed execution.
    wall: Vec<f64>,
    cycles: Vec<u64>,
    /// Traced replay: root duration and the time its children cover.
    root: Vec<f64>,
    covered: Vec<f64>,
    csr_build: Vec<f64>,
    compile: Vec<f64>,
    sim_run: Vec<f64>,
    bind: Vec<f64>,
    functional: Vec<f64>,
    instructions: u64,
    bind_bytes: u64,
    counters: Option<Counters>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args.seed);
    eprintln!(
        "perfbench: sim_cells seed {} input digest {:016x}",
        args.seed,
        input_digest(args.seed)
    );
    let mut values = Values::default();

    // Set-up: generate the matrices, build their CSR, and compile every
    // (kernel, strategy) cold.
    let e = |e: asap_ir::AsapError| e.to_string();
    let mut gen_s = Vec::new();
    let mut cold: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let ((tris, sparse), setup) = repeat_setup(|| {
        let t0 = Instant::now();
        let tris: Vec<Triplets> = plan.matrices.iter().map(MatrixSpec::materialize).collect();
        gen_s.push(t0.elapsed().as_secs_f64());
        let sparse = tris
            .iter()
            .map(|t| SparseTensor::try_from_coo(&t.try_to_coo_f64()?, Format::csr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(e)?;
        for c in &plan.cells {
            let times = cold.entry(c.pair()).or_default();
            if times.len() == gen_s.len() {
                continue;
            }
            let s = &sparse[c.matrix];
            let t0 = Instant::now();
            compile_with_width(
                &kernel_spec(c.kernel),
                s.format(),
                s.index_width(),
                &c.variant.strategy(),
            )
            .map_err(e)?;
            times.push(t0.elapsed().as_secs_f64());
        }
        Ok((tris, sparse))
    })?;
    values.set("setup_s", median(&setup));
    values.set("matrices.gen_s", median(&gen_s));
    for (pair, t) in &cold {
        values.set(format!("core.compile_cold_ms.{pair}"), median(t) * 1e3);
    }
    // The compile cache is the only lazily filled state; fill it so the
    // timed cells measure what a warm figure sweep pays.
    for c in &plan.cells {
        let s = &sparse[c.matrix];
        compile_cached(
            &kernel_spec(c.kernel),
            s.format(),
            s.index_width(),
            &c.variant.strategy(),
        )
        .map_err(e)?;
    }
    let inputs: Vec<Input> = tris
        .into_iter()
        .map(|tri| Input {
            reference: RefCsr::from_triplets(&tri),
            tri,
        })
        .collect();

    let mut tally = Tally::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut roots = Vec::new();
    let mut stats: Vec<CellStats> = plan.cells.iter().map(|_| CellStats::default()).collect();
    let mut expect: Vec<Option<u64>> = vec![None; plan.cells.len()];

    // Warm-up pass, untimed: each single-core cell is replayed once and
    // its output compared bit for bit with the oracle; its counters'
    // digest becomes what every timed execution must repeat. The harness
    // does not return a 2-core cell's product, so its check is the
    // retired instruction count the benchmark computes itself.
    let mut scratch = Tracer::new(epoch);
    for (i, c) in plan.cells.iter().enumerate() {
        let inp = &inputs[c.matrix];
        if c.kernel == Kernel::Spmv2 {
            let ok = partitioned_instructions(c, &inp.tri, 2).and_then(|want| {
                expect[i] = Some(want);
                let r = run_cell(c, &plan.matrices[c.matrix], &inp.tri)?;
                stats[i].cycles.push(r.cycles);
                check_mc(c, &r, inp, want)
            });
            tally.check(ok);
            continue;
        }
        let ok = replay(c, inp, &mut scratch, i as u64).and_then(|(r, _)| {
            expect[i] = Some(r.digest);
            stats[i].counters = Some(r.counters);
            if r.exact {
                Ok(())
            } else {
                Err(format!("{:?}: output differs from the reference", c))
            }
        });
        tally.check(ok);
    }

    let hits0 = cache_stats_full();
    let t_start = Instant::now();
    let mut pass = 0u64;
    while pass < MIN_PASSES || t_start.elapsed().as_secs_f64() < args.seconds {
        for (i, c) in plan.cells.iter().enumerate() {
            let inp = &inputs[c.matrix];
            let st = &mut stats[i];
            let t0 = Instant::now();
            let r = run_cell(c, &plan.matrices[c.matrix], &inp.tri);
            let wall = t0.elapsed().as_secs_f64();
            let ok = r.and_then(|r| {
                if c.kernel == Kernel::Spmv2 {
                    // Cycles of a multi-core run drift between reps (a
                    // known defect, reported as sim.mc_cycles_spread);
                    // the functional instruction count must not.
                    st.cycles.push(r.cycles);
                    return check_mc(c, &r, inp, expect[i].unwrap_or(0));
                }
                check_nnz(&r, inp)?;
                if Some(result_digest(&r)) != expect[i] {
                    return Err(format!("{c:?}: counters differ from the oracle run"));
                }
                Ok(())
            });
            if tally.check(ok) {
                st.wall.push(wall);
            }
            if !args.trace {
                continue;
            }
            let group = pass * 1000 + i as u64;
            if c.kernel == Kernel::Spmv2 {
                // The multi-core path partitions rows inside the harness,
                // so its layers cannot be reached one by one: the whole
                // call is attributed to the simulator.
                let ((r, child), root) = tracer.span("bench.cell", group, |t| {
                    t.span("sim.multicore", group, |_| {
                        run_cell(c, &plan.matrices[c.matrix], &inp.tri)
                    })
                });
                roots.push(root);
                st.root.push(tracer.get(root).duration_ns() as f64 * 1e-9);
                st.covered
                    .push(tracer.get(child).duration_ns() as f64 * 1e-9);
                tally.check(r.and_then(|r| check_mc(c, &r, inp, expect[i].unwrap_or(0))));
                continue;
            }
            let ok = replay(c, inp, &mut tracer, group).and_then(|(r, root)| {
                roots.push(root);
                let root_s = tracer.get(root).duration_ns() as f64 * 1e-9;
                let mut covered = 0.0;
                for s in tracer.spans()[root + 1..]
                    .iter()
                    .filter(|s| s.parent == Some(root))
                {
                    let d = s.duration_ns() as f64 * 1e-9;
                    covered += d;
                    match s.name {
                        "tensor.csr_build" => st.csr_build.push(d),
                        "core.compile" => st.compile.push(d),
                        "sim.run" => st.sim_run.push(d),
                        _ => {}
                    }
                }
                st.root.push(root_s);
                st.covered.push(covered);
                if r.digest != expect[i].unwrap_or(0) || !r.exact {
                    return Err(format!("{c:?}: traced replay differs from the oracle run"));
                }
                // Functional cost on the same inputs, outside the root.
                let f = tracer
                    .span("ir.functional", group, |_| {
                        functional(c, inp, &sparse[c.matrix])
                    })
                    .0?;
                st.bind.push(f.bind_s);
                st.functional.push(f.run_s);
                st.instructions = f.instructions;
                st.bind_bytes = f.bind_bytes;
                Ok(())
            });
            tally.check(ok);
        }
        pass += 1;
    }
    let hits1 = cache_stats_full();

    // End-to-end: the fixed cell set's nonzeros over the sum of each
    // cell's median wall time.
    let med: Vec<f64> = stats.iter().map(|s| median(&s.wall)).collect();
    let nnz: Vec<f64> = plan
        .cells
        .iter()
        .map(|c| inputs[c.matrix].reference.nnz() as f64)
        .collect();
    let total: f64 = med.iter().sum();
    let nnz_per_s = nnz.iter().sum::<f64>() / total;
    let is_asap = |c: &Cell| matches!(c.variant, Variant::Asap { .. });
    let (an, at) = plan
        .cells
        .iter()
        .zip(nnz.iter().zip(&med))
        .filter(|(c, _)| is_asap(c))
        .fold((0.0, 0.0), |(n, t), (_, (cn, ct))| (n + cn, t + ct));
    values.set("nnz_per_s", nnz_per_s);
    values.set("sim_nnz_per_s", nnz_per_s);
    values.set("asap_nnz_per_s", an / at);
    values.set("ops_per_s", plan.cells.len() as f64 / total);
    values.set("op_p50_ms", median(&med) * 1e3);
    values.set_cache(&hits0, &hits1);

    // Exact simulator counts of one pass over the single-core cells.
    let mut sum = Counters::default();
    for c in stats.iter().filter_map(|s| s.counters.as_ref()) {
        sum.merge_parallel(c);
    }
    let accesses = (sum.loads + sum.stores) as f64;
    values.set("sim.accesses", accesses);
    values.set("sim.l1_hits", sum.l1_hits as f64);
    values.set("sim.l2_hits", sum.l2_hits as f64);
    values.set("sim.l3_hits", sum.l3_hits as f64);
    values.set("sim.dram_hits", sum.dram_hits as f64);
    values.set("sim.sw_pf_issued", sum.sw_pf_issued as f64);
    values.set("sim.sw_pf_dropped", sum.sw_pf_dropped as f64);
    values.set("sim.hw_pf_issued", sum.hw_pf_issued as f64);
    let mc = |s: &CellStats| !s.cycles.is_empty();
    values.set(
        "sim.mc_wall_s",
        stats
            .iter()
            .filter(|s| mc(s))
            .map(|s| median(&s.wall))
            .sum::<f64>(),
    );
    let spread = stats
        .iter()
        .filter(|s| mc(s))
        .map(|s| s.cycles.iter().max().unwrap_or(&0) - s.cycles.iter().min().unwrap_or(&0))
        .max()
        .unwrap_or(0);
    values.set("sim.mc_cycles_spread", spread as f64);

    if args.trace {
        layer_metrics(&plan, &inputs, &stats, &tracer, &roots, &mut values);
    }
    Ok(Outcome {
        values,
        tally,
        tracer: args.trace.then_some(tracer),
    })
}

/// The harness reports a single-core cell's stored nonzeros and a
/// multi-core cell's input triplets (duplicates included).
fn check_nnz(r: &ExperimentResult, inp: &Input) -> Result<(), String> {
    let want = if r.threads > 1 {
        inp.tri.nnz()
    } else {
        inp.reference.nnz()
    };
    if r.nnz == want {
        Ok(())
    } else {
        Err(format!(
            "{}: nnz {} but the input has {want}",
            r.matrix, r.nnz
        ))
    }
}

/// A 2-core cell's checks: its input's triplets, and the retired
/// instructions the benchmark computed for its row partition.
fn check_mc(c: &Cell, r: &ExperimentResult, inp: &Input, want: u64) -> Result<(), String> {
    check_nnz(r, inp)?;
    if r.instructions == want {
        Ok(())
    } else {
        Err(format!(
            "{c:?}: {} instructions, the partitioned count is {want}",
            r.instructions
        ))
    }
}

fn layer_metrics(
    plan: &Plan,
    inputs: &[Input],
    stats: &[CellStats],
    tracer: &Tracer,
    roots: &[usize],
    values: &mut Values,
) {
    let sum_med =
        |f: &dyn Fn(&CellStats) -> &Vec<f64>| -> f64 { stats.iter().map(|s| median(f(s))).sum() };
    let single = |i: usize| plan.cells[i].kernel != Kernel::Spmv2;
    // Layer self times over every traced replay. The simulated run's
    // span covers bind, the VM and the timing model; the functional run
    // of the same cell splits it: bind to sparsifier, the rest of the
    // functional run to ir, and what remains to sim.
    let mut layers = tracer.layer_self_s(roots);
    let (mut bind_t, mut func_t) = (0.0, 0.0);
    for s in stats.iter().filter(|s| !s.sim_run.is_empty()) {
        let n = s.sim_run.len() as f64;
        bind_t += median(&s.bind) * n;
        func_t += median(&s.functional) * n;
    }
    *layers.entry("sparsifier").or_insert(0.0) += bind_t;
    *layers.entry("ir").or_insert(0.0) += func_t - bind_t;
    *layers.entry("sim").or_insert(0.0) -= func_t;
    values.set_layers(&layers, tracer, roots, "bench");

    let untraced = sum_med(&|s| &s.wall);
    let traced = sum_med(&|s| &s.root);
    values.set("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
    values.set(
        "bench.cell_residual_s",
        stats
            .iter()
            .map(|s| median(&s.wall) - median(&s.covered))
            .sum::<f64>(),
    );

    let (mut csr, mut nnz) = (0.0, 0.0);
    let mut per_pair: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    let (mut functional, mut timing, mut instr) = (0.0, 0.0, 0u64);
    for (i, s) in stats.iter().enumerate().filter(|(i, _)| single(*i)) {
        let c = &plan.cells[i];
        csr += median(&s.csr_build);
        nnz += inputs[c.matrix].reference.nnz() as f64;
        let e = per_pair.entry(c.pair()).or_default();
        e.0.push(median(&s.bind));
        e.1.push(median(&s.functional) - median(&s.bind));
        functional += median(&s.functional);
        timing += median(&s.sim_run) - median(&s.functional);
        instr += s.instructions;
    }
    values.set("tensor.csr_build_ns_per_nnz", csr / nnz * 1e9);
    for (pair, (b, k)) in &per_pair {
        values.set(format!("sparsifier.bind_ms.{pair}"), median(b) * 1e3);
        values.set(format!("ir.kernel_ms.{pair}"), median(k) * 1e3);
    }
    let compile: Vec<f64> = stats
        .iter()
        .flat_map(|s| s.compile.iter().copied())
        .collect();
    values.set("core.compile_hit_us", median(&compile) * 1e6);
    values.set("ir.functional_s", functional);
    values.set("ir.instructions", instr as f64);
    values.set("sim.timing_s", timing);
    let accesses = values.get("sim.accesses").unwrap_or(0.0);
    if accesses > 0.0 {
        values.set("sim.ns_per_access", timing / accesses * 1e9);
    }
    // Buffer bytes the largest bind installs, summed from its buffers.
    let bytes = stats.iter().map(|s| s.bind_bytes).max().unwrap_or(0);
    values.set("sparsifier.bind_bytes", bytes as f64);
}
