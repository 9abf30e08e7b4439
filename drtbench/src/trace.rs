//! In-memory span recorder for traced runs, the per-layer aggregation over
//! its spans, and the Chrome trace-event export.
//!
//! Spans are opened by the benchmark around its own calls into each
//! layer's public functions; a root span (`op`, `setup`, `probe`) encloses
//! them. A span's layer is the part of its name before the first `.`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span; `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans while on; every call is a no-op while off, so the
/// untraced phase pays one branch per layer call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now();
        let idx = self.open.pop().expect("end without begin");
        self.spans[idx].end_ns = end_ns;
    }

    /// Ends the innermost span under a name chosen after the call (a
    /// federation tick is classified by the events it emitted).
    pub fn end_as(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = *self.open.last().expect("end without begin");
        self.spans[idx].name = name;
        self.end();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span in Chrome trace-event format.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(0, |p| p + 1);
            writeln!(
                w,
                "{}{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i + 1,
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

/// Durations of one span name, with its time net of child spans.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    pub durs_ns: Vec<u64>,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name statistics of the spans in `spans[from..]` whose root span is
/// named `root`. `from` must sit on a root boundary.
pub fn aggregate(spans: &[Span], from: usize, root: &str) -> BTreeMap<&'static str, SpanStats> {
    let spans = &spans[from..];
    let mut child_ns = vec![0u64; spans.len()];
    let mut root_of = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => {
                let p = p - from;
                child_ns[p] += s.dur_ns();
                root_of[i] = root_of[p];
            }
            None => root_of[i] = i,
        }
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name != root {
            continue;
        }
        let st = out.entry(s.name).or_default();
        st.durs_ns.push(s.dur_ns());
        st.total_ns += s.dur_ns();
        st.self_ns += s.dur_ns() - child_ns[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_filter() {
        let spans = vec![
            Span {
                name: "setup",
                start_ns: 0,
                end_ns: 5,
                parent: None,
            },
            Span {
                name: "op",
                start_ns: 10,
                end_ns: 30,
                parent: None,
            },
            Span {
                name: "drcr.process",
                start_ns: 12,
                end_ns: 22,
                parent: Some(1),
            },
            Span {
                name: "kernel.run_for",
                start_ns: 14,
                end_ns: 18,
                parent: Some(2),
            },
        ];
        let agg = aggregate(&spans, 0, "op");
        assert_eq!(agg["op"].self_ns, 10);
        assert_eq!(agg["drcr.process"].self_ns, 6);
        assert_eq!(agg["kernel.run_for"].self_ns, 4);
        assert!(!agg.contains_key("setup"));
        assert_eq!(aggregate(&spans, 1, "op")["op"].total_ns, 20);
    }
}
