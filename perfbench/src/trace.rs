//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end and parent; the spans of one report or
//! query share a trace id. Spans stay in memory and are written out
//! once, when the run ends. A disabled tracer records nothing and costs
//! one branch per call, which is what the untraced baseline of the
//! overhead comparison runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based id (0 means "no span").
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one report or query.
    pub trace: u64,
    /// Layer-qualified name, e.g. `cwx-monitor.encode`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// Self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the parts covered by child spans.
    pub self_ns: u64,
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (0 when disabled).
    pub fn begin(&mut self, name: &'static str, parent: u64, trace: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Close span `id` (no-op for 0).
    pub fn end(&mut self, id: u64) {
        if id == 0 {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, trace);
        let r = f();
        self.end(id);
        r
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name. Spans of one tracer come from one
    /// thread, so children never overlap and their durations add.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "  {{\"id\": {}, \"parent\": {}, \"trace\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.id,
                s.parent,
                s.trace,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 0, 7);
        t.span("child", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let st = t.self_times();
        let (r, c) = (st["root"], st["child"]);
        assert_eq!(r.count, 1);
        assert_eq!(r.total_ns, r.self_ns + c.total_ns);
        assert!(c.self_ns >= 2_000_000);
        assert!(t.spans().iter().all(|s| s.trace == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, 1);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.spans().is_empty());
    }
}
