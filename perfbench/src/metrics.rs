//! Every metric the benchmark prints: its name, unit, and whether it is
//! an end-to-end metric (printed by untraced runs) or a per-layer one
//! (printed by traced runs). `BENCHMARK.json` at the repository root
//! lists the same names; a test keeps the two in step.

use crate::spans::Tracer;
use asap_core::CacheStats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// (kernel, strategy) pairs with a per-pair layer metric.
pub const PAIRS: [&str; 5] = [
    "spmv.baseline",
    "spmv.asap",
    "spmv.aj",
    "spmm.baseline",
    "spmm.asap",
];

const STAGES: [&str; 7] = [
    "parse",
    "quota",
    "queue_wait",
    "store",
    "compile",
    "exec",
    "write",
];

pub const LAYERS: [&str; 9] = [
    "matrices",
    "tensor",
    "sparsifier",
    "core",
    "ir",
    "sim",
    "bench",
    "serve",
    "client",
];

/// The whole table, in print order.
pub fn table() -> Vec<(String, &'static str, Kind)> {
    use Kind::*;
    let mut t: Vec<(String, &'static str, Kind)> = Vec::new();
    let mut add = |name: String, unit: &'static str, kind: Kind| t.push((name, unit, kind));
    for (name, unit) in [
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("nnz_per_s", "nnz/s"),
        ("asap_nnz_per_s", "nnz/s"),
        ("ops_per_s", "1/s"),
        ("op_p50_ms", "ms"),
    ] {
        add(name.into(), unit, EndToEnd);
    }
    // The per-workload headline figures, under the names the workload
    // definitions use (see WORKLOADS.md for why they are not end-to-end).
    for (name, unit) in [
        ("failed_ratio", "ratio"),
        ("sim_nnz_per_s", "nnz/s"),
        ("spmv_nnz_per_s.baseline", "nnz/s"),
        ("spmv_nnz_per_s.asap", "nnz/s"),
        ("spmv_nnz_per_s.aj", "nnz/s"),
        ("spmm_nnz_per_s.baseline", "nnz/s"),
        ("spmm_nnz_per_s.asap", "nnz/s"),
        ("serve_ok_per_s", "1/s"),
        ("serve_read_p50_ms", "ms"),
        ("serve_upload_p50_ms", "ms"),
    ] {
        add(name.into(), unit, Layer);
    }
    for layer in LAYERS {
        add(format!("self_s.{layer}"), "s", Layer);
    }
    for (name, unit) in [
        ("layers.e2e_s", "s"),
        ("layers.residual_s", "s"),
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
        ("matrices.gen_s", "s"),
        ("matrices.mmio_parse_us", "us"),
        ("tensor.csr_build_ns_per_nnz", "ns/nnz"),
        ("sparsifier.bind_bytes", "B"),
    ] {
        add(name.into(), unit, Layer);
    }
    for p in PAIRS {
        add(format!("sparsifier.bind_ms.{p}"), "ms", Layer);
    }
    for p in PAIRS {
        add(format!("core.compile_cold_ms.{p}"), "ms", Layer);
    }
    for (name, unit) in [
        ("core.compile_hit_us", "us"),
        ("core.cache_hit_ratio", "ratio"),
        ("core.cache_lookups", "count"),
    ] {
        add(name.into(), unit, Layer);
    }
    for (metric, unit) in [
        ("ir.kernel_ms", "ms"),
        ("ir.tier2_share", "ratio"),
        ("ir.ref_ratio", "ratio"),
        ("ir.bw_fraction", "ratio"),
    ] {
        for p in PAIRS {
            add(format!("{metric}.{p}"), unit, Layer);
        }
    }
    for (name, unit) in [
        ("ir.asap_speedup.spmv", "ratio"),
        ("ir.asap_speedup.spmm", "ratio"),
        ("ir.probe_gb_per_s", "GB/s"),
        ("ir.functional_s", "s"),
        ("ir.instructions", "count"),
        ("sim.timing_s", "s"),
        ("sim.ns_per_access", "ns"),
        ("sim.mc_wall_s", "s"),
        ("sim.mc_cycles_spread", "cycles"),
        ("sim.accesses", "count"),
        ("sim.l1_hits", "count"),
        ("sim.l2_hits", "count"),
        ("sim.l3_hits", "count"),
        ("sim.dram_hits", "count"),
        ("sim.sw_pf_issued", "count"),
        ("sim.sw_pf_dropped", "count"),
        ("sim.hw_pf_issued", "count"),
        ("bench.cell_residual_s", "s"),
    ] {
        add(name.into(), unit, Layer);
    }
    for st in STAGES {
        for q in ["p50", "p99"] {
            add(format!("serve.{st}_us.{q}"), "us", Layer);
        }
    }
    for (name, unit) in [
        ("serve.store_hit_ratio", "ratio"),
        ("serve.status_429", "count"),
        ("serve.status_504", "count"),
        ("serve.status_5xx", "count"),
        ("client.connect_us", "us"),
        ("client.residual_us.p50", "us"),
        ("client.residual_us.p90", "us"),
        ("client.residual_us.p99", "us"),
        ("client.read_p99_ms", "ms"),
        ("client.read_tail_pct", "%"),
        ("client.read_samples", "count"),
        ("client.upload_p99_ms", "ms"),
        ("client.upload_tail_pct", "%"),
        ("client.upload_samples", "count"),
    ] {
        add(name.into(), unit, Layer);
    }
    t
}

/// Metric values one workload produced. Layers a workload does not
/// exercise are printed as 0 (see WORKLOADS.md).
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        debug_assert!(
            table().iter().any(|(n, _, _)| *n == name),
            "metric {name} is not in the table"
        );
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `core.cache_hit_ratio` and its base, `core.cache_lookups`, from
    /// the compile-cache counters before and after the timed phase.
    pub fn set_cache(&mut self, before: &CacheStats, after: &CacheStats) {
        let lookups = (after.hits + after.misses) - (before.hits + before.misses);
        self.set("core.cache_lookups", lookups as f64);
        if lookups > 0 {
            let hits = after.hits - before.hits;
            self.set("core.cache_hit_ratio", hits as f64 / lookups as f64);
        }
    }

    /// Per-layer self times, the traced operations' total they add up
    /// to, and the self time of the root spans' own layer.
    pub fn set_layers(
        &mut self,
        layers: &BTreeMap<&'static str, f64>,
        tracer: &Tracer,
        roots: &[usize],
        root_layer: &str,
    ) {
        for (layer, t) in layers {
            self.set(format!("self_s.{layer}"), *t);
        }
        let e2e: f64 = roots
            .iter()
            .map(|&r| tracer.get(r).duration_ns() as f64 * 1e-9)
            .sum();
        self.set("layers.e2e_s", e2e);
        self.set(
            "layers.residual_s",
            layers.get(root_layer).copied().unwrap_or(0.0),
        );
    }

    /// The result object for a run printing metrics of `kind`. Errors
    /// if an end-to-end metric is missing or not finite.
    pub fn render(
        &self,
        kind: Kind,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit, k) in table() {
            if k != kind {
                continue;
            }
            let v = match (self.get(&name), kind) {
                (Some(v), _) => v,
                (None, Kind::Layer) => 0.0,
                (None, Kind::EndToEnd) => return Err(format!("end-to-end metric {name} missing")),
            };
            if !valid_name(&name) {
                return Err(format!("metric name {name:?} is malformed"));
            }
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(v)
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

/// A number with all its digits (shortest round-trip form), never in a
/// form JSON rejects.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// Metric names may hold only letters, digits, `_`, `.` and `-`, start
/// with a letter or digit, and run to at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_obs::Json;

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let t = table();
        assert!(t.len() <= 128 + 16);
        let mut seen = std::collections::HashSet::new();
        for (name, unit, _) in &t {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name.clone()), "duplicate metric {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".dot"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = asap_obs::parse_json(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let ours: Vec<(String, String)> = table()
                .into_iter()
                .filter(|(_, _, k)| *k == kind)
                .map(|(n, u, _)| (n, u.to_string()))
                .collect();
            assert_eq!(listed(key), ours, "{key} differs from the metric table");
        }
    }

    #[test]
    fn rendered_result_is_one_json_object_with_every_metric() {
        let mut v = Values::default();
        assert!(v.render(Kind::EndToEnd, true, 1, 0).is_err());
        for (name, _, kind) in table() {
            if kind == Kind::EndToEnd {
                v.set(name, 1.25);
            }
        }
        v.set("sim.accesses", 123456789.0);
        for kind in [Kind::EndToEnd, Kind::Layer] {
            let line = v.render(kind, true, 3, 0).unwrap();
            let doc = asap_obs::parse_json(&line).unwrap();
            let Some(Json::Obj(m)) = doc.get("metrics") else {
                panic!("no metrics object");
            };
            let want = table().iter().filter(|(_, _, k)| *k == kind).count();
            assert_eq!(m.len(), want);
            for (name, _) in m {
                assert!(valid_name(name));
            }
        }
    }
}
