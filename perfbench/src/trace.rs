//! In-memory span recorder for the traced pass.
//!
//! Every call the benchmark makes into a layer goes through
//! [`Tracer::span`], which always measures the call's wall time (the
//! untraced pass needs it for the end-to-end metrics) and, when tracing
//! is on, also records a [`Span`] with its parent, the run id and the
//! process CPU time spent inside it. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `gate.atpg.random`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Process CPU time (all threads) consumed between start and end.
    pub cpu_ns: u64,
    /// `true` for the extra calls that exist only to split a layer's
    /// time into stages (they are not part of the workload).
    pub derived: bool,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Span recorder. Disabled, it only times calls.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer for one run; `enabled` selects the traced pass.
    pub fn new(run_id: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            run_id: run_id.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced pass follows the untraced
    /// one in the same process).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` as a call of the workload and returns its result and
    /// wall time.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        self.record(name, false, f)
    }

    /// Like [`Tracer::span`], for a call made only to derive a stage
    /// breakdown.
    pub fn derived<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        self.record(name, true, f)
    }

    fn record<R>(
        &mut self,
        name: &str,
        derived: bool,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed());
        }
        let idx = self.spans.len();
        let cpu0 = process_cpu_ns();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.ns_since_epoch(start),
            end_ns: 0,
            parent: self.stack.last().copied(),
            cpu_ns: 0,
            derived,
        });
        self.stack.push(idx);
        let r = f(self);
        let wall = start.elapsed();
        let cpu1 = process_cpu_ns();
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.end_ns = span.start_ns + wall.as_nanos() as u64;
        span.cpu_ns = cpu1.saturating_sub(cpu0);
        (r, wall)
    }

    /// Adds a span measured elsewhere (a serve request timed on a client
    /// thread) under the currently open span.
    pub fn push_measured(&mut self, name: &str, start: Instant, dur: Duration, cpu_ns: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.ns_since_epoch(start);
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns + dur.as_nanos() as u64,
            parent: self.stack.last().copied(),
            cpu_ns,
            derived: false,
        });
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover. Children of one parent may overlap (serve
    /// clients run concurrently), so their union is subtracted, not
    /// their sum.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Self time summed per layer, largest first.
    pub fn self_by_layer(&self) -> Vec<(String, u64)> {
        let own = self.self_ns();
        let mut by: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by.entry(s.layer()).or_default() += ns;
        }
        let mut v: Vec<(String, u64)> = by.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"cpu_ns\":{},\"derived\":{}}}",
                self.run_id,
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.cpu_ns,
                s.derived
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (0 where the clock is unavailable).
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); `clock_gettime` writes only through the
    // pointer and reads nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by this process (unavailable off Linux).
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tr = Tracer::new("t", true);
        tr.span("a.outer", |tr| {
            tr.span("b.inner", |_| std::thread::sleep(Duration::from_millis(5)));
            let t = Instant::now();
            // Two overlapping measured children cover one interval once.
            tr.push_measured("c.x", t, Duration::from_millis(4), 0);
            tr.push_measured("c.y", t, Duration::from_millis(4), 0);
            std::thread::sleep(Duration::from_millis(5));
        });
        let own = tr.self_ns();
        let outer = &tr.spans()[0];
        let kids: u64 = tr.spans()[1].dur_ns() + 4_000_000;
        assert_eq!(own[0], outer.dur_ns() - kids);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }
}
