//! In-memory span recorder for the traced repeats.
//!
//! Spans are recorded from the harness only, around its calls into the
//! `mtnet-*` crates (`parse`, `build`, `run`, `fingerprint`, each layer
//! replay); nothing inside the simulator is instrumented. They stay in
//! memory until the workload ends and are then written as one JSON
//! object per line.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`repeat`, `parse`, `build`, `run`, `fingerprint`,
    /// `replay:<metric>`).
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Records spans for one workload.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new(workload: &str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (the handle [`Tracer::end`]
    /// and child spans take).
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: 0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans to `path`, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{}\"}}",
                s.name, s.start_ns, s.end_ns, self.workload
            )?;
        }
        out.flush()
    }
}

/// A tracer that may be off: untraced repeats pass `None` and pay one
/// branch per boundary.
pub type MaybeTracer<'a> = Option<&'a mut Tracer>;

/// Runs `f` inside a span when tracing is on.
pub fn span<T>(
    tracer: &mut MaybeTracer<'_>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    let id = tracer.as_mut().map(|t| t.begin(name, parent));
    let out = f();
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.end(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut t = Tracer::new("w");
        let root = t.begin("repeat", None);
        let child = t.begin("run", Some(root));
        t.end(child);
        t.end(root);
        let s = t.spans();
        assert_eq!(s[child].parent, Some(root));
        assert!(s[root].start_ns <= s[child].start_ns);
        assert!(s[child].end_ns <= s[root].end_ns);
    }
}
