//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_cells|native_large|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds its inputs from the seed, sets up (several times,
//! reporting the median), measures for about `--seconds`, checks every
//! operation against the benchmark's own oracle, and prints one JSON
//! object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Traced runs
//! also write their spans to `perfbench/out/spans-<workload>-<seed>.jsonl`.
//! WORKLOADS.md explains the workloads and every metric.

mod metrics;
mod native_large;
mod oracle;
mod serve_mixed;
mod sim_cells;
mod spans;
mod stats;

use metrics::{Kind, Values};
use spans::Tracer;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["sim_cells", "native_large", "serve_mixed"];

/// Times each workload sets itself up; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag or workload: {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed. Every operation's result is checked
/// once, and a failure is never retried away.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation; `Err` carries why it failed.
    pub fn check(&mut self, ok: Result<(), String>) -> bool {
        self.attempted += 1;
        match ok {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(why);
                }
                false
            }
        }
    }
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub values: Values,
    pub tally: Tally,
    pub tracer: Option<Tracer>,
}

/// Run `f` `SETUP_REPS` times, dropping each result before the next
/// rep so peak memory is one set-up's. Returns the last result and the
/// rep times in seconds.
pub fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Derive an independent 64-bit stream value from the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory of this process, from the kernel's own account
/// of it (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn write_spans(tracer: &Tracer, args: &Args) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    tracer
        .write_jsonl(&mut w)
        .and_then(|()| std::io::Write::flush(&mut w))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn real_main() -> Result<String, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let mut out = match args.workload.as_str() {
        "sim_cells" => sim_cells::run(&args)?,
        "native_large" => native_large::run(&args)?,
        _ => serve_mixed::run(&args)?,
    };
    let t = &out.tally;
    if let Some(why) = &t.first_failure {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {why}",
            t.failed, t.attempted
        );
    }
    if t.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    out.values
        .set("failed_ratio", t.failed as f64 / t.attempted as f64);
    out.values.set("peak_rss_mb", peak_rss_mb()?);
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    if let Some(tracer) = &out.tracer {
        out.values.set("trace.spans", tracer.spans().len() as f64);
        write_spans(tracer, &args)?;
    }
    for (name, unit, k) in metrics::table() {
        if k == kind {
            if let Some(v) = out.values.get(&name) {
                eprintln!("  {name:<34} {v:>18.6} {unit}");
            }
        }
    }
    out.values
        .render(kind, t.failed == 0, t.attempted, t.failed)
}

fn main() {
    match real_main() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload sim_cells --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload sim_cells --seconds 1").is_err());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for (name, digest) in [
            ("sim_cells", sim_cells::input_digest as fn(u64) -> u64),
            ("native_large", native_large::input_digest),
            ("serve_mixed", serve_mixed::input_digest),
        ] {
            assert_eq!(digest(1), digest(1), "{name}");
            assert_ne!(digest(1), digest(2), "{name}");
        }
    }
}
