//! Span-based phase profiling on the monotonic clock.

use std::time::Instant;

/// One completed (or still-open) profiling span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Phase name.
    pub name: String,
    /// Index of the enclosing span in [`Profiler::spans`], `None` for
    /// roots.
    pub parent: Option<usize>,
    /// Wall time between enter and exit, nanoseconds (0 while open).
    pub ns: u64,
}

/// A stack-shaped profiler over [`Instant`] (monotonic, never goes
/// backwards).
///
/// Invariant, by construction: a parent span's `ns` is at least the
/// sum of its children's `ns` (children run strictly inside the parent
/// on the same clock, and nanosecond truncation only ever shrinks the
/// children), so [`self_ns`](Profiler::self_ns) never underflows and
/// phase breakdowns always sum to the measured total.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    spans: Vec<Span>,
    stack: Vec<(usize, Instant)>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Opens a span nested under the currently open one (if any) and
    /// returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().map(|&(i, _)| i),
            ns: 0,
        });
        self.stack.push((idx, Instant::now()));
        idx
    }

    /// Closes the most recently opened span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        let (idx, start) = self.stack.pop().expect("Profiler::exit with no open span");
        self.spans[idx].ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Records an externally measured, already-completed span of `ns`
    /// nanoseconds as a child of the currently open span (or as a root)
    /// and returns its index.
    ///
    /// Intended for durations measured on other threads (e.g. per-shard
    /// wall times of a PPSFP run). Because such spans may
    /// overlap in wall time, the parent-covers-children invariant does
    /// *not* extend to them; [`self_ns`](Profiler::self_ns) saturates
    /// to zero rather than underflow.
    pub fn record(&mut self, name: &str, ns: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.stack.last().map(|&(i, _)| i),
            ns,
        });
        idx
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Profiler) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// All spans, in enter order (parents before children).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `true` when every entered span has been exited.
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Sum of the direct children's times of span `idx`.
    pub fn children_ns(&self, idx: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.ns)
            .sum()
    }

    /// Time spent in span `idx` itself, excluding children.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self.spans[idx].ns.saturating_sub(self.children_ns(idx))
    }

    /// Sum of the root spans' times — the profiled total.
    pub fn total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ns)
            .sum()
    }

    /// Nesting depth of span `idx` (roots are 0).
    pub fn depth(&self, idx: usize) -> usize {
        let mut d = 0;
        let mut cur = self.spans[idx].parent;
        while let Some(p) = cur {
            d += 1;
            cur = self.spans[p].parent;
        }
        d
    }

    /// Renders an indented tree with per-span milliseconds and percent
    /// of the profiled total.
    pub fn report(&self) -> String {
        let total = self.total_ns().max(1);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let pct = 100.0 * s.ns as f64 / total as f64;
            out.push_str(&format!(
                "{:indent$}{:<width$} {:>10.3} ms {:>6.1}%\n",
                "",
                s.name,
                s.ns as f64 / 1e6,
                pct,
                indent = 2 * self.depth(i),
                width = 28usize.saturating_sub(2 * self.depth(i)),
            ));
        }
        out
    }

    /// Renders the spans as a JSON array (enter order), indented by
    /// `indent` two-space levels. Wall-clock values — deliberately kept
    /// out of the deterministic metrics object.
    pub fn to_json_array(&self, indent: usize) -> String {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        if self.spans.is_empty() {
            return "[]".to_owned();
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&inner);
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"parent\": {}, \"ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.parent.map_or(-1i64, |p| p as i64),
                s.ns,
                self.self_ns(i),
            ));
        }
        out.push('\n');
        out.push_str(&pad);
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_invariant() {
        let mut p = Profiler::new();
        p.enter("flow");
        p.scope("a", |p| {
            p.scope("a1", |_| std::hint::black_box(1 + 1));
        });
        p.scope("b", |_| ());
        p.exit();
        assert!(p.is_balanced());
        assert_eq!(p.spans().len(), 4);
        assert_eq!(p.spans()[1].parent, Some(0));
        assert_eq!(p.spans()[2].parent, Some(1));
        // Parent covers its children; self time never underflows.
        assert!(p.spans()[0].ns >= p.children_ns(0));
        assert_eq!(p.spans()[0].ns, p.self_ns(0) + p.children_ns(0));
        assert_eq!(p.total_ns(), p.spans()[0].ns);
        let json = p.to_json_array(0);
        assert!(json.contains("\"name\": \"a1\""));
    }
}
