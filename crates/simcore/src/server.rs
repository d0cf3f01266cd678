//! First-come-first-serve server with busy-until arithmetic.

use crate::{SimDuration, SimTime};

/// What happened to a request offered to a [`FifoServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// When service began (arrival time, or later if the queue was busy).
    pub start: SimTime,
    /// When service finished and the response left the server.
    pub completion: SimTime,
}

impl ServiceOutcome {
    /// Time the request spent waiting before service began.
    pub fn queueing_delay(&self, arrival: SimTime) -> SimDuration {
        self.start.saturating_since(arrival)
    }

    /// Total time at the server (queueing + service).
    pub fn sojourn(&self, arrival: SimTime) -> SimDuration {
        self.completion.saturating_since(arrival)
    }
}

/// A single-queue FIFO server with deterministic per-request service time.
///
/// The paper's host model: "Each node services requests one by one in
/// first-come-first-serve order" at a fixed capacity (200 req/s ⇒ a 5 ms
/// service time). Because service is FIFO and non-preemptive, the queue
/// never needs to be materialized: a request arriving at `t` starts at
/// `max(t, busy_until)` and the server's `busy_until` advances by one
/// service time. This keeps the simulator at O(1) per request.
///
/// # Examples
///
/// ```
/// use radar_simcore::{FifoServer, SimDuration, SimTime};
/// let mut host = FifoServer::new(SimDuration::from_millis(5.0));
/// let a = host.offer(SimTime::from_secs(0.0));
/// let b = host.offer(SimTime::from_secs(0.0)); // queues behind `a`
/// assert_eq!(a.completion.as_secs(), 0.005);
/// assert_eq!(b.start.as_secs(), 0.005);
/// assert_eq!(b.completion.as_secs(), 0.010);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoServer {
    service_time: SimDuration,
    busy_until: SimTime,
}

impl FifoServer {
    /// Creates a server with the given fixed service time per request.
    ///
    /// # Panics
    ///
    /// Panics if `service_time` is zero (an infinite-capacity server hides
    /// configuration errors; model one explicitly if needed).
    pub fn new(service_time: SimDuration) -> Self {
        assert!(
            !service_time.is_zero(),
            "service time must be positive; an infinite-capacity server is almost always a config bug"
        );
        Self {
            service_time,
            busy_until: SimTime::ZERO,
        }
    }

    /// Creates a server from a capacity in requests/second.
    ///
    /// # Panics
    ///
    /// Panics if `requests_per_sec` is not strictly positive and finite.
    pub fn with_capacity(requests_per_sec: f64) -> Self {
        assert!(
            requests_per_sec.is_finite() && requests_per_sec > 0.0,
            "capacity must be positive and finite, got {requests_per_sec}"
        );
        Self::new(SimDuration::from_secs(1.0 / requests_per_sec))
    }

    /// The fixed per-request service time.
    pub fn service_time(&self) -> SimDuration {
        self.service_time
    }

    /// Accepts a request arriving at `arrival` and returns when it starts
    /// and completes service.
    ///
    /// Arrivals may be offered in any order relative to `busy_until`, but
    /// within a simulation they should be offered in non-decreasing
    /// arrival order for the FIFO discipline to be meaningful.
    pub fn offer(&mut self, arrival: SimTime) -> ServiceOutcome {
        let start = self.busy_until.max(arrival);
        let completion = start + self.service_time;
        self.busy_until = completion;
        ServiceOutcome { start, completion }
    }

    /// The time at which the server will next be idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Number of requests in (or through) the queue whose service has not
    /// completed by `now` — the instantaneous backlog, including the one
    /// in service.
    pub fn backlog_at(&self, now: SimTime) -> u64 {
        let remaining = self.busy_until.saturating_since(now);
        // Ceiling division: a partially served request still counts.
        let st = self.service_time.as_micros();
        remaining.as_micros().div_ceil(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: f64) -> SimTime {
        SimTime::from_secs(v)
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = FifoServer::new(ms(5.0));
        let out = s.offer(at(1.0));
        assert_eq!(out.start, at(1.0));
        assert_eq!(out.completion.as_secs(), 1.005);
        assert_eq!(out.queueing_delay(at(1.0)), SimDuration::ZERO);
        assert_eq!(out.sojourn(at(1.0)), ms(5.0));
    }

    #[test]
    fn busy_server_queues() {
        let mut s = FifoServer::new(ms(10.0));
        s.offer(at(0.0));
        let out = s.offer(at(0.001));
        assert_eq!(out.start.as_secs(), 0.010);
        assert_eq!(out.completion.as_secs(), 0.020);
        assert_eq!(out.queueing_delay(at(0.001)).as_secs(), 0.009);
    }

    #[test]
    fn queue_drains_when_arrivals_slow() {
        let mut s = FifoServer::new(ms(5.0));
        s.offer(at(0.0));
        // Next arrival long after the first completes: no queueing.
        let out = s.offer(at(1.0));
        assert_eq!(out.start, at(1.0));
    }

    #[test]
    fn with_capacity_sets_service_time() {
        let s = FifoServer::with_capacity(200.0);
        assert_eq!(s.service_time(), ms(5.0));
    }

    #[test]
    fn backlog_counts_queued_and_in_service() {
        let mut s = FifoServer::new(ms(10.0));
        for _ in 0..5 {
            s.offer(at(0.0));
        }
        assert_eq!(s.backlog_at(at(0.0)), 5);
        assert_eq!(s.backlog_at(at(0.015)), 4); // one done, one half-served
        assert_eq!(s.backlog_at(at(0.050)), 0);
    }

    #[test]
    #[should_panic(expected = "service time must be positive")]
    fn zero_service_time_rejected() {
        let _ = FifoServer::new(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn bad_capacity_rejected() {
        let _ = FifoServer::with_capacity(0.0);
    }
}
