//! Harness-side spans: name, start, end, parent. Kept in memory and
//! written out when the child ends; recorded only around calls into the
//! program's public API (spans inside the program are a later change).

use std::time::Instant;

/// One closed (or still open) span, times in nanoseconds since the
/// log's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `slice.7`.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (equals `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of span `id`: its duration minus the part its direct
/// children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(children)
}

/// Share of span `id` that its direct children cover, in `[0, 1]`.
pub fn coverage(spans: &[Span], id: usize) -> f64 {
    let total = spans[id].duration_ns();
    if total == 0 {
        return 1.0;
    }
    1.0 - self_ns(spans, id) as f64 / total as f64
}

/// Duration in seconds of the first span called `name` (0 if absent).
pub fn seconds_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// Starts a log; the origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        let t = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: enter/exit calls are unbalanced.
    pub fn exit(&mut self) -> f64 {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, f64) {
        self.enter(name);
        let r = f();
        (r, self.exit())
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("child", 0, 1_000, None),
            span("setup", 10, 210, Some(0)),
            span("bootstrap", 50, 150, Some(1)),
            span("run", 210, 900, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 1_000 - 200 - 690);
        assert_eq!(
            self_ns(&spans, 1),
            100,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(self_ns(&spans, 2), 100);
        assert!((coverage(&spans, 0) - 0.89).abs() < 1e-12);
        assert_eq!(seconds_of(&spans, "run"), 690e-9);
        assert_eq!(seconds_of(&spans, "absent"), 0.0);
    }

    #[test]
    fn log_nests_and_orders() {
        let mut log = SpanLog::new();
        log.enter("a");
        let ((), inner) = log.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = log.exit();
        let spans = log.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(inner >= 0.002 && outer >= inner);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
