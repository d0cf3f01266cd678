//! Per-shard telemetry for the parallel event loop: stall attribution,
//! hand-off latency histograms, and barrier accounting.
//!
//! The sharded loop (`radar-sim`'s `simulate --shards N`) splits work
//! between a sequencer thread and `N` decision workers. When profiling
//! is enabled, every thread keeps a [`LaneProfile`]: monotonic-clock
//! span accounting partitioned into the five [`SpanKind`] categories
//! (busy / channel-wait / barrier-drain / reunite-resplit / idle) and a
//! count of items processed. The sequencer additionally keeps
//! log2-bucketed [`Log2Histogram`]s of per-decision hand-off latency
//! and per-message batch size, and counts epoch barriers by
//! [`BarrierCause`]. Everything is fixed-size — no allocation on the
//! hot path — and none of it enters the deterministic event stream:
//! wall-clock numbers live only in the profile section of the report.
//!
//! Span accounting uses a *cursor* discipline: each thread remembers
//! the instant its current span started, and every state transition
//! charges `now - cursor` to exactly one category before advancing the
//! cursor. One `Instant::now()` per transition, no gaps — which is why
//! a healthy profile attributes ≥ 95 % of each lane's wall-clock to
//! named categories (the `radar perf --check-coverage` contract).

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::profile::fmt_ns;

/// What a sharded-loop thread was doing during a span of wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Doing simulation work: dispatching events, computing decisions.
    Busy = 0,
    /// Blocked on a channel: the sequencer waiting for a worker's
    /// answer to the front-of-queue decision.
    ChannelWait = 1,
    /// Flushing in-flight decisions at an epoch barrier.
    BarrierDrain = 2,
    /// Reuniting shard state into the master copy, or re-splitting it
    /// back out after a barrier.
    Reunite = 3,
    /// A worker parked with nothing to decide.
    Idle = 4,
}

impl SpanKind {
    /// Number of span categories (size of [`LaneProfile::spans_ns`]).
    pub const COUNT: usize = 5;

    /// Every category, in `spans_ns` index order.
    pub const ALL: [SpanKind; Self::COUNT] = [
        SpanKind::Busy,
        SpanKind::ChannelWait,
        SpanKind::BarrierDrain,
        SpanKind::Reunite,
        SpanKind::Idle,
    ];

    /// Stable kebab-case name used in JSON and rendered tables.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Busy => "busy",
            SpanKind::ChannelWait => "channel-wait",
            SpanKind::BarrierDrain => "barrier-drain",
            SpanKind::Reunite => "reunite",
            SpanKind::Idle => "idle",
        }
    }

    /// Parses the `as_str` form back (for `radar perf` reading JSON).
    pub fn from_str_opt(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// Why the sharded loop forced an epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierCause {
    /// A placement round (replication policy runs on reunited state).
    Placement = 0,
    /// A provider DNS/update step.
    ProviderUpdate = 1,
    /// A declare-dead sweep.
    DeclareDead = 2,
    /// A fault transition (host/link down or up).
    Fault = 3,
}

impl BarrierCause {
    /// Number of barrier causes (size of [`ShardProfile::barriers`]).
    pub const COUNT: usize = 4;

    /// Every cause, in `barriers` index order.
    pub const ALL: [BarrierCause; Self::COUNT] = [
        BarrierCause::Placement,
        BarrierCause::ProviderUpdate,
        BarrierCause::DeclareDead,
        BarrierCause::Fault,
    ];

    /// Stable kebab-case name used in JSON and rendered tables.
    pub fn as_str(self) -> &'static str {
        match self {
            BarrierCause::Placement => "placement",
            BarrierCause::ProviderUpdate => "provider-update",
            BarrierCause::DeclareDead => "declare-dead",
            BarrierCause::Fault => "fault",
        }
    }
}

/// Number of buckets in a [`Log2Histogram`] — bucket `i` holds values
/// whose bit length is `i`, so 40 buckets cover `0` through
/// `2^39 - 1` ns ≈ 9 minutes, ample for per-decision latencies.
pub const LOG2_BUCKETS: usize = 40;

/// Fixed-size log2-bucketed histogram: value `v` lands in bucket
/// `bit_length(v)` (0 for `v == 0`), clamped to the last bucket.
///
/// Recording is allocation-free and saturating. Percentiles are
/// approximate — the reported value is the inclusive upper bound of
/// the bucket containing the rank, capped at the exact observed max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros() as usize).min(LOG2_BUCKETS - 1)
    }

    /// Records one value (saturating, allocation-free).
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.buckets[b] = self.buckets[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts, in bit-length order.
    pub fn buckets(&self) -> &[u64; LOG2_BUCKETS] {
        &self.buckets
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Approximate percentile (`p` in `0.0..=1.0`): the upper bound of
    /// the bucket holding the rank, capped at the observed max.
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                // Bucket i holds values of bit length i: upper bound
                // 2^i - 1 (bucket 0 holds only zero).
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Rebuilds a histogram from parsed JSON parts (used by
    /// `radar perf`). Buckets beyond the provided slice stay zero.
    pub fn from_parts(count: u64, sum: u64, max: u64, buckets: &[u64]) -> Self {
        let mut h = Self {
            count,
            sum,
            max,
            ..Self::default()
        };
        for (dst, src) in h.buckets.iter_mut().zip(buckets.iter()) {
            *dst = *src;
        }
        h
    }
}

/// Span accounting for one sharded-loop thread (the sequencer or one
/// worker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneProfile {
    /// Nanoseconds attributed to each [`SpanKind`], indexed by the
    /// enum's discriminant order ([`SpanKind::ALL`]).
    pub spans_ns: [u64; SpanKind::COUNT],
    /// Work items processed by this lane (decisions for workers,
    /// dispatched events for the sequencer).
    pub items: u64,
}

impl LaneProfile {
    /// Charges `nanos` to one span category (saturating).
    pub fn add_span(&mut self, kind: SpanKind, nanos: u64) {
        let slot = &mut self.spans_ns[kind as usize];
        *slot = slot.saturating_add(nanos);
    }

    /// Nanoseconds attributed to one category.
    pub fn span_ns(&self, kind: SpanKind) -> u64 {
        self.spans_ns[kind as usize]
    }

    /// Total attributed nanoseconds across all categories.
    pub fn total_ns(&self) -> u64 {
        self.spans_ns
            .iter()
            .fold(0u64, |acc, ns| acc.saturating_add(*ns))
    }

    /// Folds another lane into this one (used when a worker restarts
    /// across barriers and for whole-run aggregation).
    pub fn merge(&mut self, other: &LaneProfile) {
        for (dst, src) in self.spans_ns.iter_mut().zip(other.spans_ns.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.items = self.items.saturating_add(other.items);
    }
}

/// Whole-run telemetry of one sharded simulation: one [`LaneProfile`]
/// per thread, sequencer-side histograms, and barrier counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardProfile {
    /// Worker shard count the run was launched with.
    pub shards: usize,
    /// Wall-clock duration of the run, sequencer-side, in nanoseconds.
    pub wall_ns: u64,
    /// The sequencer thread's lane.
    pub sequencer: LaneProfile,
    /// One lane per worker shard, in shard order.
    pub workers: Vec<LaneProfile>,
    /// Per-decision hand-off latency: defer on the sequencer to
    /// committed answer, in nanoseconds.
    pub handoff_ns: Log2Histogram,
    /// Work items per batched reply message: each worker answers a
    /// whole `Batch` with a single `Outcomes` message, so this is the
    /// hand-off amortization factor (a p50 of 1 means the transport
    /// degenerated to one message per decision).
    pub batch_items: Log2Histogram,
    /// Epoch barriers by [`BarrierCause`], indexed by discriminant
    /// order ([`BarrierCause::ALL`]).
    pub barriers: [u64; BarrierCause::COUNT],
}

impl ShardProfile {
    /// Iterates `(label, lane)` pairs: the sequencer first, then each
    /// worker. Labels are stable (`sequencer`, `worker-0`, …) and also
    /// used in the JSON section.
    pub fn lanes(&self) -> impl Iterator<Item = (String, &LaneProfile)> {
        std::iter::once(("sequencer".to_string(), &self.sequencer)).chain(
            self.workers
                .iter()
                .enumerate()
                .map(|(i, lane)| (format!("worker-{i}"), lane)),
        )
    }

    /// Fraction of the run's wall-clock this lane attributed to named
    /// categories, in `0.0..=1.0`. The `radar perf --check-coverage`
    /// gate asserts this stays ≥ 0.95 for every lane.
    pub fn coverage(&self, lane: &LaneProfile) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            lane.total_ns() as f64 / self.wall_ns as f64
        }
    }

    /// The worst lane coverage across sequencer and workers.
    pub fn min_coverage(&self) -> f64 {
        self.lanes()
            .map(|(_, lane)| self.coverage(lane))
            .fold(f64::INFINITY, f64::min)
    }

    /// Total barriers across all causes.
    pub fn total_barriers(&self) -> u64 {
        self.barriers
            .iter()
            .fold(0u64, |acc, n| acc.saturating_add(*n))
    }

    /// Renders the utilization table plus a top-stalls breakdown —
    /// shared by `radar perf` and `radar simulate --profile` text
    /// output. `top` caps the number of stall rows.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "shard profile — {} worker shard(s), wall {}\n",
            self.shards,
            fmt_ns(self.wall_ns as f64)
        ));
        out.push_str(&format!(
            "  {:<10} {:>7} {:>12} {:>13} {:>9} {:>9} {:>9} {:>9}\n",
            "lane", "busy", "chan-wait", "barrier-drain", "reunite", "idle", "coverage", "items"
        ));
        for (label, lane) in self.lanes() {
            let pct = |k: SpanKind| {
                if self.wall_ns == 0 {
                    0.0
                } else {
                    100.0 * lane.span_ns(k) as f64 / self.wall_ns as f64
                }
            };
            out.push_str(&format!(
                "  {:<10} {:>6.1}% {:>11.1}% {:>12.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>9}\n",
                label,
                pct(SpanKind::Busy),
                pct(SpanKind::ChannelWait),
                pct(SpanKind::BarrierDrain),
                pct(SpanKind::Reunite),
                pct(SpanKind::Idle),
                100.0 * self.coverage(lane),
                lane.items
            ));
        }
        // Top stalls: every non-busy span on every lane, largest first.
        let mut stalls: Vec<(String, SpanKind, u64)> = Vec::new();
        for (label, lane) in self.lanes() {
            for kind in SpanKind::ALL {
                if kind == SpanKind::Busy {
                    continue;
                }
                let ns = lane.span_ns(kind);
                if ns > 0 {
                    stalls.push((label.clone(), kind, ns));
                }
            }
        }
        stalls.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        out.push_str("top stalls:\n");
        if stalls.is_empty() {
            out.push_str("  (none recorded)\n");
        }
        for (i, (label, kind, ns)) in stalls.iter().take(top.max(1)).enumerate() {
            let share = if self.wall_ns == 0 {
                0.0
            } else {
                100.0 * *ns as f64 / self.wall_ns as f64
            };
            out.push_str(&format!(
                "  {:>2}. {:<10} {:<14} {:>10}  ({share:.1}% of wall)\n",
                i + 1,
                label,
                kind.as_str(),
                fmt_ns(*ns as f64)
            ));
        }
        let hist = |h: &Log2Histogram| {
            if h.count() == 0 {
                "(empty)".to_string()
            } else {
                format!(
                    "count {} · mean {} · p50 ≤{} · p99 ≤{} · max {}",
                    h.count(),
                    fmt_ns(h.mean()),
                    fmt_ns(h.percentile(0.50).unwrap_or(0) as f64),
                    fmt_ns(h.percentile(0.99).unwrap_or(0) as f64),
                    fmt_ns(h.max() as f64)
                )
            }
        };
        out.push_str(&format!("hand-off latency: {}\n", hist(&self.handoff_ns)));
        if self.batch_items.count() == 0 {
            out.push_str("batch size: (empty)\n");
        } else {
            out.push_str(&format!(
                "batch size: count {} · mean {:.2} items/message · p50 ≤{} · p99 ≤{} · max {}\n",
                self.batch_items.count(),
                self.batch_items.mean(),
                self.batch_items.percentile(0.50).unwrap_or(0),
                self.batch_items.percentile(0.99).unwrap_or(0),
                self.batch_items.max()
            ));
        }
        let barrier_parts: Vec<String> = BarrierCause::ALL
            .iter()
            .map(|c| format!("{} {}", c.as_str(), self.barriers[*c as usize]))
            .collect();
        out.push_str(&format!(
            "barriers: {} ({} total)\n",
            barrier_parts.join(" · "),
            self.total_barriers()
        ));
        out
    }
}

impl fmt::Display for ShardProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render(8).trim_end())
    }
}

/// Handle for publishing in-progress [`ShardProfile`] snapshots to a
/// live consumer (the `--dashboard` renderer). The sequencer publishes
/// at each epoch barrier; readers take cheap clones.
#[derive(Debug, Clone, Default)]
pub struct SharedShardProfile {
    inner: Arc<Mutex<Option<ShardProfile>>>,
}

impl SharedShardProfile {
    /// Creates an empty handle (no snapshot published yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the published snapshot.
    pub fn publish(&self, profile: ShardProfile) {
        *self.inner.lock().expect("shard profile poisoned") = Some(profile);
    }

    /// Clones the latest snapshot, if any was published.
    pub fn snapshot(&self) -> Option<ShardProfile> {
        self.inner.lock().expect("shard profile poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_histogram_buckets_by_bit_length() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[3], 1); // 4
        assert_eq!(h.buckets()[10], 1); // 1000
        assert_eq!(h.buckets()[LOG2_BUCKETS - 1], 1); // clamped
    }

    #[test]
    fn log2_histogram_percentiles_are_bucket_upper_bounds() {
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket 7, upper bound 127
        }
        h.record(1 << 20);
        assert_eq!(h.percentile(0.50), Some(127));
        assert_eq!(h.percentile(0.99), Some(127));
        assert_eq!(h.percentile(1.0), Some(1 << 20));
        assert!(Log2Histogram::new().percentile(0.5).is_none());
    }

    #[test]
    fn log2_histogram_merge_and_saturation() {
        let mut a = Log2Histogram::new();
        a.record(u64::MAX);
        let mut b = Log2Histogram::new();
        b.record(u64::MAX);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), u64::MAX, "sum saturates");
        assert_eq!(a.buckets()[LOG2_BUCKETS - 1], 2);
    }

    #[test]
    fn lane_profile_spans_and_merge() {
        let mut lane = LaneProfile::default();
        lane.add_span(SpanKind::Busy, 100);
        lane.add_span(SpanKind::ChannelWait, 900);
        lane.items = 5;
        assert_eq!(lane.total_ns(), 1000);
        let mut sum = LaneProfile::default();
        sum.merge(&lane);
        sum.merge(&lane);
        assert_eq!(sum.span_ns(SpanKind::ChannelWait), 1800);
        assert_eq!(sum.items, 10);
    }

    #[test]
    fn coverage_and_render() {
        let mut p = ShardProfile {
            shards: 2,
            wall_ns: 1_000_000,
            ..Default::default()
        };
        p.sequencer.add_span(SpanKind::Busy, 200_000);
        p.sequencer.add_span(SpanKind::ChannelWait, 780_000);
        let mut w = LaneProfile::default();
        w.add_span(SpanKind::Idle, 900_000);
        w.add_span(SpanKind::Busy, 80_000);
        p.workers = vec![w, w];
        p.handoff_ns.record(58_000);
        p.batch_items.record(1);
        p.barriers[BarrierCause::Placement as usize] = 6;
        assert!((p.coverage(&p.sequencer) - 0.98).abs() < 1e-9);
        assert!((p.min_coverage() - 0.98).abs() < 1e-9);
        let text = p.render(3);
        assert!(text.contains("sequencer"), "{text}");
        assert!(text.contains("worker-1"), "{text}");
        assert!(text.contains("channel-wait"), "{text}");
        assert!(text.contains("placement 6"), "{text}");
        assert!(text.contains("hand-off latency"), "{text}");
        assert!(
            text.contains("items/message · p50 ≤1"),
            "batch line should carry percentiles: {text}"
        );
        // Stalls rank by attributed time: the workers' 900 µs idle
        // outranks the sequencer's 780 µs channel-wait.
        let stall_pos = text.find("top stalls").unwrap();
        let stalls: Vec<&str> = text[stall_pos..].lines().skip(1).take(3).collect();
        assert!(
            stalls[0].contains("worker-0") && stalls[0].contains("idle"),
            "{text}"
        );
        assert!(
            stalls[2].contains("sequencer") && stalls[2].contains("channel-wait"),
            "{text}"
        );
    }

    #[test]
    fn span_kind_round_trips_through_names() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_str_opt(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::from_str_opt("nope"), None);
    }

    #[test]
    fn shared_snapshot_publishes_latest() {
        let shared = SharedShardProfile::new();
        assert!(shared.snapshot().is_none());
        let p = ShardProfile {
            shards: 4,
            ..Default::default()
        };
        shared.publish(p.clone());
        assert_eq!(shared.snapshot().unwrap().shards, 4);
    }
}
