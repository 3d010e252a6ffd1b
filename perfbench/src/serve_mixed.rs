//! `serve_mixed`: the serving path. An in-process `asap_serve::Server`
//! with two workers, driven closed-loop by two client threads through
//! `asap_serve::client`, one connection at a time each. Three tenants
//! send zipf(1.1) SpMV reads over a pool of small resident `gen:`
//! matrices, and every twentieth request uploads a never-seen
//! matrix inline. All requests are SpMV under asap, as `asap_loadgen`
//! sends by default.

use crate::metrics::Values;
use crate::oracle::{devalue_binary, service_x, RefCsr};
use crate::spans::{Span, Tracer};
use crate::stats::{median, percentile, tail_percentile};
use crate::{derive, Args, Outcome, Tally};
use asap_core::{cache_stats_full, checksum_f64, fingerprint64};
use asap_matrices::{gen, read_matrix_market, write_matrix_market, Rng64, Triplets};
use asap_obs::{Json, ObjWriter};
use asap_serve::{exchange_with_headers, ServeConfig, Server};
use asap_tensor::{Format, SparseTensor};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
const POOL: usize = 8;
const POOL_N: usize = 4096;
const POOL_DEG: usize = 4;
const ZIPF_S: f64 = 1.1;
/// Every `UPLOAD_EVERY`-th request of a client is an inline upload.
const UPLOAD_EVERY: usize = 20;
const UPLOAD_BASES: usize = 16;
const UPLOAD_N: usize = 2048;
const UPLOAD_DEG: usize = 4;
/// Resident store ceiling. The store splits it evenly over its eight
/// shards; at 2 MiB a shard keeps its share of the pool resident while
/// the never-seen uploads fill it within seconds and force eviction.
const STORE_BYTES: u64 = 16 << 20;
/// Every `CONNECT_EVERY`-th request a client also times a bare connect.
const CONNECT_EVERY: usize = 25;
const STAGES: [&str; 6] = ["parse", "quota", "queue_wait", "store", "compile", "exec"];
const SPAN_STAGES: [&str; 6] = [
    "serve.parse",
    "serve.quota",
    "serve.queue_wait",
    "serve.store",
    "serve.compile",
    "serve.exec",
];

struct Plan {
    /// Row counts of the resident pool, in zipf rank order.
    pool: Vec<usize>,
    /// Generator seeds of the upload matrices.
    uploads: Vec<u64>,
}

/// The seed draws distinct pool sizes within a narrow band (so every
/// seed offers the same work per request) and the upload matrices.
fn plan(seed: u64) -> Plan {
    let mut rng = Rng64::seed_from_u64(derive(seed, 21));
    let mut pool: Vec<usize> = Vec::new();
    while pool.len() < POOL {
        let n = POOL_N + rng.usize_below(64);
        if !pool.contains(&n) {
            pool.push(n);
        }
    }
    let uploads = (0..UPLOAD_BASES as u64)
        .map(|j| derive(seed, 100 + j))
        .collect();
    Plan { pool, uploads }
}

pub fn input_digest(seed: u64) -> u64 {
    let p = plan(seed);
    fingerprint64(format!("{:?}{:?}", p.pool, p.uploads).as_bytes())
}

fn gen_spec(n: usize) -> String {
    format!("gen:er:{n}:{POOL_DEG}")
}

/// The checksum the server must answer for SpMV of a matrix.
fn expected(t: &Triplets) -> u64 {
    let r = RefCsr::from_triplets(t);
    checksum_f64(&r.spmv(&service_x(r.ncols)))
}

struct Upload {
    tri: Triplets,
    /// MatrixMarket text, without the per-request comment line.
    text: String,
}

fn make_uploads(plan: &Plan) -> Result<Vec<Upload>, String> {
    plan.uploads
        .iter()
        .map(|&s| {
            let mut tri = gen::erdos_renyi(UPLOAD_N, UPLOAD_DEG, s);
            devalue_binary(&mut tri);
            let mut buf = Vec::new();
            write_matrix_market(&tri, &mut buf).map_err(|e| e.to_string())?;
            let text = String::from_utf8(buf).map_err(|e| e.to_string())?;
            Ok(Upload { tri, text })
        })
        .collect()
}

fn start_server() -> Result<Server, String> {
    Server::start(ServeConfig {
        workers: WORKERS,
        store_bytes: STORE_BYTES,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))
}

fn body(matrix: Option<&str>, mtx: Option<&str>) -> String {
    let mut w = ObjWriter::new();
    w.str("kernel", "spmv");
    if let Some(m) = matrix {
        w.str("matrix", m);
    }
    if let Some(t) = mtx {
        w.str("mtx", t);
    }
    w.str("strategy", "asap");
    w.finish()
}

fn post(addr: SocketAddr, tenant: &str, body: &str) -> Result<asap_serve::HttpReply, String> {
    exchange_with_headers(
        addr,
        "POST",
        "/v1/run",
        &[("X-Asap-Tenant", tenant)],
        body,
        Duration::from_secs(30),
    )
    .map_err(|e| format!("exchange: {e}"))
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    ok: u64,
    nnz_ok: u64,
    read_ms: Vec<f64>,
    upload_ms: Vec<f64>,
    /// Server-reported stage durations of every 200, in µs.
    stages_us: [Vec<f64>; 6],
    residual_us: Vec<f64>,
    connect_us: Vec<f64>,
    store_hits: u64,
    status_429: u64,
    status_504: u64,
    status_5xx: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    roots: Vec<usize>,
    tracer: Option<Tracer>,
    end: Option<Instant>,
}

struct Shared<'a> {
    addr: SocketAddr,
    plan: &'a Plan,
    uploads: &'a [Upload],
    pool_expect: &'a [u64],
    upload_expect: &'a [u64],
    zipf_cdf: Vec<f64>,
    seed: u64,
    deadline: Instant,
    trace: bool,
    epoch: Instant,
}

fn client(id: usize, sh: &Shared) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tracer = Tracer::new(sh.epoch);
    let mut rng = Rng64::seed_from_u64(derive(sh.seed, 200 + id as u64));
    // Uploads come on a fixed beat whose phase the seed draws, so every
    // run carries the same share of costly requests; tenants and pool
    // matrices are drawn per request.
    let upload_phase = rng.usize_below(UPLOAD_EVERY);
    let mut seq = 0usize;
    while Instant::now() < sh.deadline {
        seq += 1;
        let tenant = TENANTS[rng.usize_below(TENANTS.len())];
        let upload = seq % UPLOAD_EVERY == upload_phase;
        let (req, expect) = if upload {
            let b = rng.usize_below(UPLOAD_BASES);
            // A comment line unique to this request makes the content
            // digest, and so the store key, never seen before.
            let text = sh.uploads[b].text.replacen(
                '\n',
                &format!("\n% perfbench upload {} {id} {seq}\n", sh.seed),
                1,
            );
            (body(None, Some(&text)), sh.upload_expect[b])
        } else {
            let u = rng.gen_f64();
            let j = sh.zipf_cdf.iter().position(|&c| u < c).unwrap_or(POOL - 1);
            (
                body(Some(&gen_spec(sh.plan.pool[j])), None),
                sh.pool_expect[j],
            )
        };
        if seq.is_multiple_of(CONNECT_EVERY) {
            let t0 = Instant::now();
            if let Ok(s) = TcpStream::connect(sh.addr) {
                log.connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
                drop(s);
            }
        }
        let traced = sh.trace && seq.is_multiple_of(2);
        let t0 = tracer.now_ns();
        let start = Instant::now();
        let reply = post(sh.addr, tenant, &req);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let t1 = t0 + (ms * 1e6) as u64;
        let ok = reply.and_then(|r| {
            match r.status {
                200 => {}
                429 => log.status_429 += 1,
                504 => log.status_504 += 1,
                s if s >= 500 => log.status_5xx += 1,
                _ => {}
            }
            if r.status != 200 {
                return Err(format!("status {}: {}", r.status, r.body));
            }
            let v = asap_obs::parse_json(&r.body).map_err(|e| e.to_string())?;
            let sum = v
                .get("checksum")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or("no checksum in the reply")?;
            if sum != expect {
                return Err(format!("checksum {sum:016x}, reference {expect:016x}"));
            }
            let stage_ns: Vec<u64> = STAGES
                .iter()
                .map(|s| {
                    v.get("stage_ns")
                        .and_then(|o| o.get(s))
                        .and_then(Json::as_u64)
                })
                .collect::<Option<_>>()
                .ok_or("no stage_ns in the reply")?;
            let nnz = v
                .get("nnz")
                .and_then(Json::as_u64)
                .ok_or("no nnz in the reply")?;
            if v.get("store_hit").and_then(Json::as_bool) == Some(true) {
                log.store_hits += 1;
            }
            Ok((stage_ns, nnz))
        });
        let ok = ok.map(|(stage_ns, nnz)| {
            log.ok += 1;
            log.nnz_ok += nnz;
            if upload {
                log.upload_ms.push(ms);
            } else {
                log.read_ms.push(ms);
                if traced {
                    &mut log.traced_ms
                } else {
                    &mut log.untraced_ms
                }
                .push(ms);
            }
            let server: u64 = stage_ns.iter().sum();
            for (k, ns) in stage_ns.iter().enumerate() {
                log.stages_us[k].push(*ns as f64 * 1e-3);
            }
            log.residual_us.push(ms * 1e3 - server as f64 * 1e-3);
            if traced {
                // The request as the client saw it, with the server's
                // stages laid end to end inside it (durations are all
                // the server reports).
                let root = tracer.record(Span {
                    name: "client.request",
                    group: (id as u64) << 32 | seq as u64,
                    parent: None,
                    start_ns: t0,
                    end_ns: t1,
                    synthetic: false,
                });
                let mut at = t0;
                for (name, ns) in SPAN_STAGES.iter().zip(&stage_ns) {
                    tracer.record(Span {
                        name,
                        group: (id as u64) << 32 | seq as u64,
                        parent: Some(root),
                        start_ns: at,
                        end_ns: at + ns,
                        synthetic: true,
                    });
                    at += ns;
                }
                log.roots.push(root);
            }
        });
        log.tally.check(ok);
    }
    log.end = Some(Instant::now());
    if sh.trace {
        log.tracer = Some(tracer);
    }
    log
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = plan(args.seed);
    eprintln!(
        "perfbench: serve_mixed seed {} input digest {:016x}",
        args.seed,
        input_digest(args.seed)
    );
    let mut values = Values::default();

    // The oracle's view of every matrix the traffic can name.
    let pool_expect: Vec<u64> = plan
        .pool
        .iter()
        .map(|&n| {
            let mut t = gen::erdos_renyi(n, POOL_DEG, 1);
            devalue_binary(&mut t);
            expected(&t)
        })
        .collect();

    // Set-up: generate the upload matrices, start the server, and make
    // every pool matrix resident with its kernel compiled. Each
    // earlier rep's server is drained and joined before the next rep.
    let (mut gen_s, mut setup) = (Vec::new(), Vec::new());
    let mut last: Option<(Server, Vec<Upload>)> = None;
    for _ in 0..crate::SETUP_REPS {
        if let Some((old, _)) = last.take() {
            old.join();
        }
        let t0 = Instant::now();
        let uploads = make_uploads(&plan)?;
        gen_s.push(t0.elapsed().as_secs_f64());
        let server = start_server()?;
        for (j, &n) in plan.pool.iter().enumerate() {
            let tenant = TENANTS[j % TENANTS.len()];
            let r = post(server.addr(), tenant, &body(Some(&gen_spec(n)), None))?;
            if r.status != 200 {
                return Err(format!("warm-up request: status {}: {}", r.status, r.body));
            }
        }
        setup.push(t0.elapsed().as_secs_f64());
        last = Some((server, uploads));
    }
    let (server, uploads) = last.expect("SETUP_REPS > 0");
    values.set("setup_s", median(&setup));
    values.set("matrices.gen_s", median(&gen_s));
    let upload_expect: Vec<u64> = uploads.iter().map(|u| expected(&u.tri)).collect();

    let weights: Vec<f64> = (0..POOL)
        .map(|j| 1.0 / ((j + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let zipf_cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    let hits0 = cache_stats_full();
    let hist0 = write_histogram();
    let start = Instant::now();
    let shared = Shared {
        addr: server.addr(),
        plan: &plan,
        uploads: &uploads,
        pool_expect: &pool_expect,
        upload_expect: &upload_expect,
        zipf_cdf,
        seed: args.seed,
        deadline: start + Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        epoch: start,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let sh = &shared;
                s.spawn(move || client(id, sh))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = logs
        .iter()
        .filter_map(|l| l.end)
        .max()
        .map_or(0.0, |e| (e - start).as_secs_f64());
    let hits1 = cache_stats_full();
    let hist1 = write_histogram();
    server.join();

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(start);
    let mut roots = Vec::new();
    let mut all = ClientLog::default();
    for mut l in logs {
        tally.attempted += l.tally.attempted;
        tally.failed += l.tally.failed;
        if tally.first_failure.is_none() {
            tally.first_failure = l.tally.first_failure.take();
        }
        all.ok += l.ok;
        all.nnz_ok += l.nnz_ok;
        all.read_ms.append(&mut l.read_ms);
        all.upload_ms.append(&mut l.upload_ms);
        for k in 0..STAGES.len() {
            all.stages_us[k].append(&mut l.stages_us[k]);
        }
        all.residual_us.append(&mut l.residual_us);
        all.connect_us.append(&mut l.connect_us);
        all.store_hits += l.store_hits;
        all.status_429 += l.status_429;
        all.status_504 += l.status_504;
        all.status_5xx += l.status_5xx;
        all.traced_ms.append(&mut l.traced_ms);
        all.untraced_ms.append(&mut l.untraced_ms);
        if let Some(t) = l.tracer.take() {
            let off = tracer.spans().len();
            roots.extend(l.roots.iter().map(|r| r + off));
            tracer.absorb(t);
        }
    }

    values.set("nnz_per_s", all.nnz_ok as f64 / wall);
    // Every request of this workload runs ASaP-compiled kernels.
    values.set("asap_nnz_per_s", all.nnz_ok as f64 / wall);
    values.set("ops_per_s", all.ok as f64 / wall);
    values.set("serve_ok_per_s", all.ok as f64 / wall);
    values.set("op_p50_ms", median(&all.read_ms));
    values.set("serve_read_p50_ms", median(&all.read_ms));
    values.set("serve_upload_p50_ms", median(&all.upload_ms));

    for (k, st) in STAGES.iter().enumerate() {
        values.set(
            format!("serve.{st}_us.p50"),
            percentile(&all.stages_us[k], 50.0),
        );
        values.set(
            format!("serve.{st}_us.p99"),
            percentile(&all.stages_us[k], 99.0),
        );
    }
    // The write stage is not in 200 bodies (they are rendered before
    // the write); the server's own per-stage histogram has it, at
    // power-of-two resolution.
    let write: Vec<u64> = hist1
        .iter()
        .enumerate()
        .map(|(b, n)| n - hist0.get(b).copied().unwrap_or(0))
        .collect();
    values.set("serve.write_us.p50", log2_percentile(&write, 50.0) * 1e-3);
    values.set("serve.write_us.p99", log2_percentile(&write, 99.0) * 1e-3);
    values.set(
        "serve.store_hit_ratio",
        all.store_hits as f64 / all.ok.max(1) as f64,
    );
    values.set("serve.status_429", all.status_429 as f64);
    values.set("serve.status_504", all.status_504 as f64);
    values.set("serve.status_5xx", all.status_5xx as f64);
    values.set("client.connect_us", median(&all.connect_us));
    for p in [50.0, 90.0, 99.0] {
        values.set(
            format!("client.residual_us.p{p}"),
            percentile(&all.residual_us, p),
        );
    }
    for (kind, v) in [("read", &all.read_ms), ("upload", &all.upload_ms)] {
        // p99 when ten samples lie beyond it, else the highest
        // percentile that has ten.
        let p = tail_percentile(v.len()).map_or(50.0, |(p, _)| p);
        values.set(format!("client.{kind}_p99_ms"), percentile(v, p));
        values.set(format!("client.{kind}_tail_pct"), p);
        values.set(format!("client.{kind}_samples"), v.len() as f64);
    }
    values.set("core.compile_hit_us", median(&all.stages_us[4]));
    values.set_cache(&hits0, &hits1);

    if args.trace {
        values.set_layers(&tracer.layer_self_s(&roots), &tracer, &roots, "client");
        let (t, u) = (median(&all.traced_ms), median(&all.untraced_ms));
        values.set("trace.overhead_pct", (t - u) / u * 100.0);
        // The upload path's parse and CSR build, timed on the same
        // bodies with the parser and builder the server uses.
        let (mut parse_us, mut build, mut nnz) = (Vec::new(), 0.0, 0.0);
        for u in &uploads {
            let t0 = Instant::now();
            let tri = read_matrix_market(u.text.as_bytes()).map_err(|e| e.to_string())?;
            parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let coo = tri.try_to_coo_f64().map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            SparseTensor::try_from_coo(&coo, Format::csr()).map_err(|e| e.to_string())?;
            build += t0.elapsed().as_secs_f64();
            nnz += tri.nnz() as f64;
        }
        values.set("matrices.mmio_parse_us", median(&parse_us));
        values.set("tensor.csr_build_ns_per_nnz", build / nnz * 1e9);
    }
    Ok(Outcome {
        values,
        tally,
        tracer: args.trace.then_some(tracer),
    })
}

/// The server's write-stage histogram buckets summed over tenants.
fn write_histogram() -> Vec<u64> {
    let snap = asap_obs::labeled_snapshot();
    let mut sum: Vec<u64> = Vec::new();
    for (name, h) in &snap.histograms {
        if name.starts_with("serve.stage_ns{stage=\"write\"") {
            sum.resize(h.buckets.len(), 0);
            for (s, b) in sum.iter_mut().zip(h.buckets.iter()) {
                *s += b;
            }
        }
    }
    sum
}

/// Upper bound (ns) of the log2 bucket holding nearest-rank percentile
/// `p`; bucket `b` holds values below `2^b`.
fn log2_percentile(buckets: &[u64], p: f64) -> f64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let rank = crate::stats::rank(n as usize, p) as u64;
    let mut seen = 0;
    for (b, c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return 2f64.powi(b as i32);
        }
    }
    0.0
}
