//! Event-loop profiling counters: per-event-type dispatch counts, wall
//! time and queue depth.
//!
//! The simulator keeps one [`HandlerCounter`] per event kind in a fixed
//! array. Every dispatch bumps its kind's count and queue-depth sums;
//! [`HandlerCounter::dispatch`] says whether to time this one as well.
//! A sampled counter, the request path's, reads the clock on one
//! dispatch in 16 of its own, because a clock pair costs about as much
//! as the handler it times; the counter of a rare, slow handler times
//! each one. The array becomes a [`LoopProfile`] once, at the end of
//! the run, where each timed sum is scaled by `count / timed`, so
//! `total_ns / count` is the mean of the timed dispatches. A sampled
//! counter always times its first dispatch, so a row with few
//! dispatches leans toward that cold call, and its `max_ns` is the
//! slowest of the timed dispatches only. Counts and depths are exact.
//! Wall-clock numbers never enter the event log or report JSON, keeping
//! seeded runs byte-identical.

use std::collections::BTreeMap;
use std::fmt;

/// A sampled counter reads the clock on one dispatch in this many.
const SAMPLE_STRIDE: u64 = 16;

/// Accumulated statistics for one event-loop handler label.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HandlerStats {
    /// Number of events dispatched with this label.
    pub count: u64,
    /// Total wall time spent in the handler (nanoseconds), extrapolated
    /// from the timed dispatches for a sampled handler.
    pub total_ns: u64,
    /// Slowest timed dispatch (nanoseconds).
    pub max_ns: u64,
    /// Sum of queue depths observed at dispatch (for the mean).
    pub depth_sum: u64,
    /// Deepest queue observed at dispatch.
    pub depth_max: u32,
}

impl HandlerStats {
    /// Mean wall time per dispatch, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean queue depth at dispatch.
    pub fn mean_depth(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.count as f64
        }
    }
}

/// The running counters of one handler, as the event loop bumps them.
///
/// All accumulation is saturating: a clock step backwards (seen under
/// VM suspend/resume) surfaces as a pinned counter, never a panic.
#[derive(Debug, Clone, Copy)]
pub struct HandlerCounter {
    count: u64,
    timed: u64,
    timed_ns: u64,
    max_ns: u64,
    depth_sum: u64,
    depth_max: u32,
    /// `SAMPLE_STRIDE - 1` when sampled, 0 when every dispatch is timed.
    stride_mask: u64,
}

impl HandlerCounter {
    /// A counter that times one dispatch in 16, starting with the first,
    /// when `sampled`, and every dispatch otherwise.
    pub const fn new(sampled: bool) -> Self {
        Self {
            count: 0,
            timed: 0,
            timed_ns: 0,
            max_ns: 0,
            depth_sum: 0,
            depth_max: 0,
            stride_mask: if sampled { SAMPLE_STRIDE - 1 } else { 0 },
        }
    }

    /// Counts one dispatch at queue depth `depth` (the depth after the
    /// event was popped). Returns whether this dispatch is to be timed
    /// and its wall time passed to [`record`](Self::record).
    #[inline]
    pub fn dispatch(&mut self, depth: u32) -> bool {
        let timed = self.count & self.stride_mask == 0;
        self.count = self.count.saturating_add(1);
        self.depth_sum = self.depth_sum.saturating_add(u64::from(depth));
        self.depth_max = self.depth_max.max(depth);
        timed
    }

    /// Records the wall time of a dispatch [`dispatch`](Self::dispatch)
    /// chose to time.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.timed = self.timed.saturating_add(1);
        self.timed_ns = self.timed_ns.saturating_add(nanos);
        self.max_ns = self.max_ns.max(nanos);
    }

    /// The counter's row: the timed sum scaled to all dispatches
    /// (`timed_ns × count / timed`, saturating), the slowest timed
    /// dispatch, and the exact count and depths.
    pub fn stats(&self) -> HandlerStats {
        let total_ns = if self.timed == 0 {
            0
        } else {
            let scaled =
                u128::from(self.timed_ns) * u128::from(self.count) / u128::from(self.timed);
            u64::try_from(scaled).unwrap_or(u64::MAX)
        };
        HandlerStats {
            count: self.count,
            total_ns,
            max_ns: self.max_ns,
            depth_sum: self.depth_sum,
            depth_max: self.depth_max,
        }
    }
}

/// Per-event-type wall-time and queue-depth profile of one run's event
/// loop, collected from `(label, counter)` pairs: counters that saw no
/// dispatch are left out, and rows come out in label order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopProfile {
    rows: BTreeMap<&'static str, HandlerStats>,
}

impl FromIterator<(&'static str, HandlerCounter)> for LoopProfile {
    fn from_iter<I: IntoIterator<Item = (&'static str, HandlerCounter)>>(counters: I) -> Self {
        let rows = counters
            .into_iter()
            .filter(|(_, c)| c.count > 0)
            .map(|(label, c)| (label, c.stats()))
            .collect();
        Self { rows }
    }
}

impl LoopProfile {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(label, stats)` rows in label order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &HandlerStats)> {
        self.rows.iter().map(|(label, stats)| (*label, stats))
    }

    /// Looks up the stats for one label.
    pub fn get(&self, label: &str) -> Option<&HandlerStats> {
        self.rows.get(label)
    }

    /// Total dispatches across all labels.
    pub fn total_events(&self) -> u64 {
        self.rows
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.count))
    }

    /// Total wall time across all labels, in nanoseconds (saturating,
    /// like the counters).
    pub fn total_ns(&self) -> u64 {
        self.rows
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.total_ns))
    }
}

/// Human-readable duration formatting.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl fmt::Display for LoopProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "event-loop profile")?;
        writeln!(
            f,
            "  {:<18} {:>9} {:>11} {:>11} {:>9} {:>7}",
            "handler", "count", "mean", "max", "mean qd", "max qd"
        )?;
        if self.rows.is_empty() {
            writeln!(f, "  (no events dispatched)")?;
            return Ok(());
        }
        for (label, s) in &self.rows {
            writeln!(
                f,
                "  {:<18} {:>9} {:>11} {:>11} {:>9.1} {:>7}",
                label,
                s.count,
                fmt_ns(s.mean_ns()),
                fmt_ns(s.max_ns as f64),
                s.mean_depth(),
                s.depth_max
            )?;
        }
        writeln!(
            f,
            "  total: {} events, {} wall time in handlers",
            self.total_events(),
            fmt_ns(self.total_ns() as f64)
        )?;
        write!(
            f,
            "  request-path times and maxima sampled 1 in {SAMPLE_STRIDE}; counts and depths exact"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter fed `nanos` on every dispatch it chooses to time, over
    /// `depths.len()` dispatches.
    fn fed(mut c: HandlerCounter, depths: &[u32], nanos: impl Fn(usize) -> u64) -> HandlerCounter {
        for (i, &depth) in depths.iter().enumerate() {
            if c.dispatch(depth) {
                c.record(nanos(i));
            }
        }
        c
    }

    #[test]
    fn every_dispatch_row_reports_the_exact_sum() {
        let c = fed(HandlerCounter::new(false), &[2, 4, 3], |i| {
            [100, 300, 200][i]
        });
        let r = c.stats();
        assert_eq!(r.count, 3);
        assert_eq!(r.total_ns, 600);
        assert_eq!(r.max_ns, 300);
        assert!((r.mean_ns() - 200.0).abs() < 1e-9);
        assert!((r.mean_depth() - 3.0).abs() < 1e-9);
        assert_eq!(r.depth_max, 4);
    }

    #[test]
    fn sampled_row_scales_the_timed_sum_by_count_over_timed() {
        // 40 dispatches time the 1st, 17th and 33rd: k = 3 of n = 40.
        let depths: Vec<u32> = (0..40).collect();
        let mut timed = Vec::new();
        let mut c = HandlerCounter::new(true);
        for (i, &depth) in depths.iter().enumerate() {
            if c.dispatch(depth) {
                timed.push(i);
                c.record(100 + i as u64);
            }
        }
        assert_eq!(timed, vec![0, 16, 32]);
        let sampled_sum: u64 = 100 + 116 + 132;
        let r = c.stats();
        assert_eq!(r.count, 40);
        assert_eq!(r.total_ns, sampled_sum * 40 / 3);
        assert_eq!(r.max_ns, 132);
        // Counts and depths cover every dispatch, timed or not.
        assert_eq!(r.depth_sum, (0..40).sum::<u64>());
        assert_eq!(r.depth_max, 39);
    }

    #[test]
    fn record_saturates_instead_of_panicking() {
        // A clock step backwards can hand the profiler a nonsense
        // elapsed value near u64::MAX; accumulation must pin, not
        // overflow.
        let exact = fed(HandlerCounter::new(false), &[u32::MAX; 2], |_| u64::MAX);
        let r = exact.stats();
        assert_eq!(r.count, 2);
        assert_eq!(r.total_ns, u64::MAX);
        assert_eq!(r.max_ns, u64::MAX);
        assert_eq!(r.depth_sum, u64::from(u32::MAX) * 2);
        assert_eq!(r.depth_max, u32::MAX);
        // Scaling a large sampled sum by count / timed pins too.
        let sampled = fed(HandlerCounter::new(true), &[0; 32], |_| u64::MAX / 2);
        assert_eq!(sampled.stats().total_ns, u64::MAX);
        // total_ns() sums across labels; it must saturate as well.
        let p: LoopProfile = [("redirect", exact), ("placement", exact)]
            .into_iter()
            .collect();
        assert_eq!(p.total_ns(), u64::MAX);
    }

    #[test]
    fn rows_iterate_in_label_order_and_skip_idle_counters() {
        let p: LoopProfile = [
            (
                "zeta",
                fed(HandlerCounter::new(false), &[2, 4], |i| [100, 300][i]),
            ),
            ("idle", HandlerCounter::new(true)),
            ("alpha", fed(HandlerCounter::new(false), &[1], |_| 5_000)),
        ]
        .into_iter()
        .collect();
        let labels: Vec<&str> = p.rows().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["alpha", "zeta"]);
        assert!(p.get("idle").is_none());
        assert_eq!(p.total_events(), 3);
        // total_ns() sums the rows' totals across labels.
        assert_eq!(p.total_ns(), 5_400);
    }

    #[test]
    fn render_is_aligned_and_handles_empty() {
        let empty = LoopProfile::default();
        assert!(empty.to_string().contains("no events dispatched"));
        let p: LoopProfile = [
            ("arrival", fed(HandlerCounter::new(true), &[3], |_| 1_500)),
            (
                "placement",
                fed(HandlerCounter::new(false), &[10], |_| 2_000_000),
            ),
        ]
        .into_iter()
        .collect();
        let table = p.to_string();
        assert!(table.contains("arrival"), "{table}");
        assert!(table.contains("1.50 us"), "{table}");
        assert!(table.contains("2.00 ms"), "{table}");
        assert!(table.contains("total: 2 events"), "{table}");
        assert!(
            table.ends_with(
                "request-path times and maxima sampled 1 in 16; counts and depths exact"
            ),
            "{table}"
        );
    }
}
