//! The benchmark's own span buffer for traced runs.
//!
//! Spans are recorded from the benchmark's files, around each call it
//! makes into a crate of the workspace; nothing inside the program is
//! instrumented, so consolidating the program's own telemetry cannot
//! move this instrument. Every span carries a name whose prefix up to
//! the first `.` is its layer (`tensor.csr_build` belongs to `tensor`),
//! its start and end in nanoseconds since the tracer was created, its
//! parent, and a group id shared by all spans of one cell, call or
//! request.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Reconstructed from durations another process reported (server
    /// stages), not clocked here.
    pub synthetic: bool,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span. Returns `f`'s value and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns: start_ns,
            synthetic: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Record a span whose times were measured elsewhere.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Append another tracer's spans (e.g. a client thread's), keeping
    /// parent links valid. Both tracers must share one epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let off = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + off);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover (overlapping children count
    /// once, and a child is clipped to its parent).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Self time summed per layer over every span below one of the
    /// given roots (the roots included), in seconds.
    pub fn layer_self_s(&self, roots: &[usize]) -> BTreeMap<&'static str, f64> {
        let selfs = self.self_times_ns();
        let mut inside = vec![false; self.spans.len()];
        for &r in roots {
            inside[r] = true;
        }
        // Parents precede children in the buffer, so one forward pass
        // marks every descendant.
        for i in 0..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                if inside[p] {
                    inside[i] = true;
                }
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                *out.entry(s.layer()).or_insert(0.0) += selfs[i] as f64 * 1e-9;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"synthetic\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns, s.synthetic
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            group: 7,
            parent,
            start_ns,
            end_ns,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record(span("bench.cell", None, 0, 100));
        let a = t.record(span("tensor.csr_build", Some(root), 10, 40));
        // Overlaps `a` by 10 ns and runs past the root's end.
        let b = t.record(span("sim.run", Some(root), 30, 120));
        let c = t.record(span("ir.kernel", Some(b), 50, 60));
        let selfs = t.self_times_ns();
        // Children cover 10..100 of the root (b clipped at 100).
        assert_eq!(selfs[root], 10);
        assert_eq!(selfs[a], 30);
        assert_eq!(selfs[b], 80);
        assert_eq!(selfs[c], 10);
        let layers = t.layer_self_s(&[root]);
        let total: f64 = layers.values().sum();
        // Self times partition the root's 100 ns only when children
        // neither overlap nor outrun their parent: here a and b overlap
        // by 10 ns and b runs 20 ns past the root.
        assert!((total - 130e-9).abs() < 1e-15);
        assert!((layers["bench"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_link_parents_and_layers() {
        let mut t = Tracer::new(Instant::now());
        let ((), root) = t.span("bench.call", 3, |t| {
            t.span("core.compile", 3, |_| ());
            t.span("ir.kernel", 3, |_| ());
        });
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.get(1).parent, Some(root));
        assert_eq!(t.get(2).parent, Some(root));
        assert_eq!(t.get(2).layer(), "ir");
        assert!(t.spans().iter().all(|s| s.group == 3));
        let mut other = Tracer::new(Instant::now());
        other.record(span("client.request", None, 0, 5));
        other.record(span("serve.exec", Some(0), 1, 2));
        t.absorb(other);
        assert_eq!(t.get(4).parent, Some(3));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            asap_obs::parse_json(line).unwrap();
        }
    }
}
