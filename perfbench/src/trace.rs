//! Host-time spans recorded from the benchmark's own code.
//!
//! The program's `Tracer` stamps simulated time; this recorder stamps
//! host time around the benchmark's calls into each crate. Spans stay in
//! memory and are written out as Chrome trace-event JSON (open it in
//! Perfetto or `chrome://tracing`) once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `storage.verify`; names without a dot belong to
    /// the benchmark itself (layer `bench`).
    pub name: &'static str,
    /// Host nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or `None` for a root.
    pub parent: Option<usize>,
    /// Shared by every span of one trial; 0 for a pass's root span.
    pub trial: u64,
}

impl Span {
    /// The layer a span is charged to: the part of its name before the
    /// first dot, or `bench` for the benchmark's own spans.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }

    /// Host seconds the span covers.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span, returned by [`Spans::enter`].
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Spans::exit"]
pub struct Open(usize);

/// The in-memory span list. When off, `enter`/`exit` do nothing.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans only if `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Is the recorder keeping spans?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between passes.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with a span open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, trial: u64) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            trial,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("exit without a matching enter");
        assert_eq!(top, open.0, "spans must close innermost first");
        self.spans[top].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, trial: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, trial);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index the next span will get; with [`Spans::since`] it selects the
    /// spans of one pass.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Chrome trace-event JSON of every span (complete `X` events in µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"trial\":{}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.trial,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Host seconds per span name over `spans` (summed).
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.secs();
    }
    out
}

/// Self time per layer over `spans`: each span's duration minus the part
/// its direct children cover. `spans` must hold whole subtrees (a slice
/// from [`Spans::since`] taken between passes does).
pub fn self_time_by_layer(spans: &[Span], base: usize) -> BTreeMap<&'static str, f64> {
    let mut child_secs = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p >= base {
                child_secs[p - base] += s.secs();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_secs) {
        *out.entry(s.layer()).or_insert(0.0) += s.secs() - children;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_keeps_parents() {
        let spans = vec![
            Span {
                name: "pass",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                trial: 0,
            },
            Span {
                name: "sim.run",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                trial: 1,
            },
            Span {
                name: "storage.verify",
                start_ns: 50,
                end_ns: 80,
                parent: Some(0),
                trial: 1,
            },
        ];
        let by_layer = self_time_by_layer(&spans, 0);
        assert!((by_layer["bench"] - 30e-9).abs() < 1e-15);
        assert!((by_layer["sim"] - 40e-9).abs() < 1e-15);
        assert!((by_layer["storage"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn off_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let v = s.time("sim.run", 3, || 7);
        assert_eq!(v, 7);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents_and_export() {
        let mut s = Spans::new(true);
        let outer = s.enter("drill", 9);
        s.time("sim.run", 9, || ());
        s.exit(outer);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].trial, 9);
        let json = s.chrome_json();
        assert!(json.contains("\"name\":\"sim.run\",\"cat\":\"sim\""));
        assert!(json.contains("\"parent\":0"));
    }
}
