//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! A span has a name, start and end (ns since the recorder started), the
//! index of the span that caused it, and the run id every span of one
//! benchmark run shares. Spans stay in memory and are written out as JSON
//! lines when the run ends. Nothing here reaches inside the program: each
//! span wraps one public call.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    run_id: u64,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            run_id,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// For every span called `name`: the share of its duration its child
    /// spans cover, and its uncovered remainder in ms. Children of one span
    /// run one after another, so their durations add without overlap.
    pub fn coverage(&self, name: &str) -> Vec<(f64, f64)> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let covered: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(Span::ms)
                    .sum();
                (covered / s.ms(), s.ms() - covered)
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_parent() {
        let mut t = Tracer::new(1);
        let p = t.open("pipeline", None);
        t.span("a", Some(p), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", Some(p), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(p);
        let [(share, rest)] = t.coverage("pipeline")[..] else {
            panic!("one pipeline span")
        };
        assert!(share > 0.5 && share <= 1.0, "{share}");
        assert!(rest >= 0.0);
        assert_eq!(t.durations("a").len(), 1);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }
}
