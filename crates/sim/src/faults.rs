//! Fault injection: scheduled host crashes, link partitions, and link
//! latency degradation.
//!
//! A [`FaultSpec`] is a declarative schedule of fault windows applied to
//! a [`Scenario`](crate::Scenario). Each fault opens at `from` seconds
//! and closes at `until` (or never, when `until` is `None`):
//!
//! * **Host crash** — the host stops serving; queued work is lost, the
//!   redirector routes around it, and if it stays down past the
//!   declare-dead timeout its replicas are purged and re-replicated
//!   elsewhere.
//! * **Link partition** — the link carries no traffic; routing
//!   recomputes reachability over the surviving links.
//! * **Link degradation** — the link's propagation delay is multiplied
//!   by `factor` (> 1).
//!
//! Overlapping windows on the same element compose: a host is up only
//! when *no* crash window covers the current time, and concurrent
//! degradations multiply their factors.
//!
//! The textual format (one directive per line, `#` comments) is shared
//! by the CLI's `--faults` flag and `docs/simulation-manual.md`:
//!
//! ```text
//! # policy knobs
//! min-replicas 2
//! declare-dead-after 60
//! # windows: <from> [<until>]  (omit <until> for "never repaired")
//! host-down 7 100 400
//! link-down 3 12 200 600
//! link-slow 3 12 4.0 200 600
//! ```

use crate::trace::content_of;
use std::collections::BTreeMap;
use std::fmt;

/// One fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Host `host` is crashed for `[from, until)`.
    HostDown {
        /// The crashed host (node index).
        host: u16,
        /// Crash time (seconds).
        from: f64,
        /// Recovery time (seconds), or `None` if it never recovers.
        until: Option<f64>,
    },
    /// The link between `a` and `b` is partitioned for `[from, until)`.
    LinkDown {
        /// One endpoint (node index).
        a: u16,
        /// The other endpoint (node index).
        b: u16,
        /// Partition time (seconds).
        from: f64,
        /// Heal time (seconds), or `None` if it never heals.
        until: Option<f64>,
    },
    /// The link between `a` and `b` has its propagation delay multiplied
    /// by `factor` for `[from, until)`.
    LinkSlow {
        /// One endpoint (node index).
        a: u16,
        /// The other endpoint (node index).
        b: u16,
        /// Delay multiplier (> 1).
        factor: f64,
        /// Degradation start (seconds).
        from: f64,
        /// Restoration time (seconds), or `None` if never restored.
        until: Option<f64>,
    },
}

impl Fault {
    pub(crate) fn window(&self) -> (f64, Option<f64>) {
        match *self {
            Fault::HostDown { from, until, .. }
            | Fault::LinkDown { from, until, .. }
            | Fault::LinkSlow { from, until, .. } => (from, until),
        }
    }
}

/// Errors from building, parsing, or validating a [`FaultSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A line of the textual format did not parse.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A fault window is empty or has non-finite/negative times.
    BadWindow {
        /// Position of the fault in [`FaultSpec::faults`].
        index: usize,
        /// Window start.
        from: f64,
        /// Window end, when given.
        until: Option<f64>,
    },
    /// A degradation factor was not finite and > 1.
    BadFactor(
        /// Position of the fault in [`FaultSpec::faults`].
        usize,
        /// The offending factor.
        f64,
    ),
    /// A fault referenced a host outside the topology.
    UnknownHost(
        /// Position of the fault in [`FaultSpec::faults`].
        usize,
        /// The offending node index.
        u16,
    ),
    /// A fault referenced a link that is not in the topology.
    UnknownLink(
        /// Position of the fault in [`FaultSpec::faults`].
        usize,
        /// The offending endpoint pair.
        u16,
        /// Second endpoint.
        u16,
    ),
    /// A policy knob had a nonsensical value.
    BadPolicy(
        /// Description of the problem.
        String,
    ),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Malformed { line, content } => {
                write!(f, "fault spec line {line} is malformed: {content:?}")
            }
            FaultError::BadWindow { from, until, .. } => {
                write!(f, "bad fault window: from={from} until={until:?}")
            }
            FaultError::BadFactor(_, v) => {
                write!(f, "degradation factor must be finite and > 1, got {v}")
            }
            FaultError::UnknownHost(_, h) => write!(f, "fault references unknown host {h}"),
            FaultError::UnknownLink(_, a, b) => {
                write!(f, "fault references unknown link {a}-{b}")
            }
            FaultError::BadPolicy(msg) => write!(f, "bad fault policy: {msg}"),
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultError {
    /// The error as a message naming the 1-based line of `text` — the
    /// text the spec was parsed from — that holds the offending fault.
    pub fn located_in(&self, text: &str) -> String {
        let index = match *self {
            FaultError::BadWindow { index, .. }
            | FaultError::BadFactor(index, _)
            | FaultError::UnknownHost(index, _)
            | FaultError::UnknownLink(index, ..) => index,
            FaultError::Malformed { .. } | FaultError::BadPolicy(_) => return self.to_string(),
        };
        // Fault directives, in order; comments, blanks and policy knobs
        // hold no fault but count as lines.
        let line = text
            .lines()
            .enumerate()
            .filter(|(_, raw)| {
                let directive = content_of(raw).split_whitespace().next();
                matches!(directive, Some("host-down" | "link-down" | "link-slow"))
            })
            .nth(index)
            .map_or(0, |(i, _)| i + 1);
        format!("line {line}: {self}")
    }
}

/// One compiled, timestamped fault transition: the window of `fault`
/// opens (`opens`) or closes at `t`. Its [`Display`](fmt::Display) is
/// the text of the flight recorder's `fault` event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultTransition {
    /// When the transition fires (seconds).
    pub(crate) t: f64,
    /// The fault whose window opens or closes.
    pub(crate) fault: Fault,
    /// `true` at the window's start, `false` at its end.
    pub(crate) opens: bool,
}

impl fmt::Display for FaultTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = |open, close| if self.opens { open } else { close };
        match self.fault {
            Fault::HostDown { host, .. } => write!(f, "host-{} {host}", verb("crash", "recover")),
            Fault::LinkDown { a, b, .. } => write!(f, "link-{} {a}-{b}", verb("fail", "heal")),
            Fault::LinkSlow { a, b, factor, .. } => {
                write!(f, "link-{} {a}-{b} x{factor}", verb("degrade", "restore"))
            }
        }
    }
}

/// A declarative schedule of faults plus the recovery-policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    faults: Vec<Fault>,
    /// Seconds a host may stay crashed before the platform declares it
    /// dead, purges its replicas, and re-replicates (default 60).
    declare_dead_after: f64,
    /// Replica floor the re-replication sweep restores objects to
    /// (default 1).
    min_replicas: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultSpec {
    /// An empty spec: no faults, declare-dead after 60 s, replica floor 1.
    pub fn new() -> Self {
        Self {
            faults: Vec::new(),
            declare_dead_after: 60.0,
            min_replicas: 1,
        }
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled fault windows, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Seconds a crashed host may stay down before it is declared dead.
    pub fn declare_dead_after(&self) -> f64 {
        self.declare_dead_after
    }

    /// The replica floor the re-replication sweep maintains.
    pub fn min_replicas(&self) -> u32 {
        self.min_replicas
    }

    /// Sets the declare-dead timeout.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not strictly positive and finite.
    pub fn with_declare_dead_after(mut self, secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs > 0.0,
            "declare-dead timeout must be positive and finite, got {secs}"
        );
        self.declare_dead_after = secs;
        self
    }

    /// Sets the replica floor.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_min_replicas(mut self, n: u32) -> Self {
        assert!(n >= 1, "minimum replica count must be at least 1");
        self.min_replicas = n;
        self
    }

    /// Schedules a host crash over `[from, until)` (`None` = forever).
    pub fn host_down(mut self, host: u16, from: f64, until: Option<f64>) -> Self {
        self.faults.push(Fault::HostDown { host, from, until });
        self
    }

    /// Schedules a link partition over `[from, until)` (`None` = forever).
    pub fn link_down(mut self, a: u16, b: u16, from: f64, until: Option<f64>) -> Self {
        self.faults.push(Fault::LinkDown { a, b, from, until });
        self
    }

    /// Schedules a link delay degradation by `factor` over `[from, until)`.
    pub fn link_slow(mut self, a: u16, b: u16, factor: f64, from: f64, until: Option<f64>) -> Self {
        self.faults.push(Fault::LinkSlow {
            a,
            b,
            factor,
            from,
            until,
        });
        self
    }

    /// Checks every window, factor, and topology reference.
    ///
    /// `links` are the topology's undirected edges (either endpoint
    /// order); `num_nodes` bounds host indices and the replica floor.
    pub fn validate(&self, num_nodes: usize, links: &[(u16, u16)]) -> Result<(), FaultError> {
        if !(self.declare_dead_after.is_finite() && self.declare_dead_after > 0.0) {
            return Err(FaultError::BadPolicy(format!(
                "declare-dead-after must be positive and finite, got {}",
                self.declare_dead_after
            )));
        }
        if self.min_replicas == 0 {
            return Err(FaultError::BadPolicy(
                "min-replicas must be at least 1".into(),
            ));
        }
        if self.min_replicas as usize > num_nodes {
            return Err(FaultError::BadPolicy(format!(
                "min-replicas {} exceeds the topology's {num_nodes} nodes",
                self.min_replicas
            )));
        }
        let has_link = |a: u16, b: u16| {
            links
                .iter()
                .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        };
        for (index, fault) in self.faults.iter().enumerate() {
            let (from, until) = fault.window();
            let ok_from = from.is_finite() && from >= 0.0;
            let ok_until = match until {
                None => true,
                Some(u) => u.is_finite() && u > from,
            };
            if !ok_from || !ok_until {
                return Err(FaultError::BadWindow { index, from, until });
            }
            match *fault {
                Fault::HostDown { host, .. } => {
                    if host as usize >= num_nodes {
                        return Err(FaultError::UnknownHost(index, host));
                    }
                }
                Fault::LinkDown { a, b, .. } => {
                    if !has_link(a, b) {
                        return Err(FaultError::UnknownLink(index, a, b));
                    }
                }
                Fault::LinkSlow { a, b, factor, .. } => {
                    if !(factor.is_finite() && factor > 1.0) {
                        return Err(FaultError::BadFactor(index, factor));
                    }
                    if !has_link(a, b) {
                        return Err(FaultError::UnknownLink(index, a, b));
                    }
                }
            }
        }
        Ok(())
    }

    /// Compiles the spec into a time-sorted transition schedule: one
    /// opening and one closing transition per (validated) window.
    ///
    /// Transitions at or after `horizon` are dropped (a recovery
    /// scheduled past the end of the run simply never happens — the
    /// element stays failed). Ties are broken by spec order, so the
    /// schedule — like everything else in the simulator — is a pure
    /// function of its inputs.
    pub(crate) fn transitions(&self, horizon: f64) -> Vec<FaultTransition> {
        let mut out = Vec::new();
        for &fault in &self.faults {
            let (from, until) = fault.window();
            let edges = std::iter::once((from, true)).chain(until.map(|u| (u, false)));
            for (t, opens) in edges.filter(|&(t, _)| t < horizon) {
                out.push(FaultTransition { t, fault, opens });
            }
        }
        // A stable sort: equal times keep spec order.
        out.sort_by(|x, y| x.t.partial_cmp(&y.t).expect("validated times are finite"));
        out
    }

    /// Parses the textual format (see the module docs).
    pub fn from_text(text: &str) -> Result<Self, FaultError> {
        let mut spec = FaultSpec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = content_of(raw);
            if content.is_empty() {
                continue;
            }
            let malformed = || FaultError::Malformed {
                line,
                content: raw.trim().to_string(),
            };
            let mut parts = content.split_whitespace();
            let directive = parts.next().ok_or_else(malformed)?;
            let rest: Vec<&str> = parts.collect();
            let f64_at = |i: usize| -> Result<f64, FaultError> {
                rest.get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(malformed)
            };
            let u16_at = |i: usize| -> Result<u16, FaultError> {
                rest.get(i)
                    .and_then(|s| s.parse::<u16>().ok())
                    .ok_or_else(malformed)
            };
            let until_at = |i: usize| -> Result<Option<f64>, FaultError> {
                match rest.get(i) {
                    None => Ok(None),
                    Some(s) => s.parse::<f64>().map(Some).map_err(|_| malformed()),
                }
            };
            match directive {
                "min-replicas" => {
                    let n = rest
                        .first()
                        .and_then(|s| s.parse::<u32>().ok())
                        .ok_or_else(malformed)?;
                    if rest.len() != 1 || n == 0 {
                        return Err(malformed());
                    }
                    spec.min_replicas = n;
                }
                "declare-dead-after" => {
                    let secs = f64_at(0)?;
                    if rest.len() != 1 || !(secs.is_finite() && secs > 0.0) {
                        return Err(malformed());
                    }
                    spec.declare_dead_after = secs;
                }
                "host-down" => {
                    if rest.len() < 2 || rest.len() > 3 {
                        return Err(malformed());
                    }
                    spec = spec.host_down(u16_at(0)?, f64_at(1)?, until_at(2)?);
                }
                "link-down" => {
                    if rest.len() < 3 || rest.len() > 4 {
                        return Err(malformed());
                    }
                    spec = spec.link_down(u16_at(0)?, u16_at(1)?, f64_at(2)?, until_at(3)?);
                }
                "link-slow" => {
                    if rest.len() < 4 || rest.len() > 5 {
                        return Err(malformed());
                    }
                    spec = spec.link_slow(
                        u16_at(0)?,
                        u16_at(1)?,
                        f64_at(2)?,
                        f64_at(3)?,
                        until_at(4)?,
                    );
                }
                _ => return Err(malformed()),
            }
        }
        Ok(spec)
    }

    /// Serializes to the [`from_text`](Self::from_text) line format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("min-replicas {}\n", self.min_replicas));
        out.push_str(&format!("declare-dead-after {}\n", self.declare_dead_after));
        for fault in &self.faults {
            let until = |u: Option<f64>| u.map(|v| format!(" {v}")).unwrap_or_default();
            match *fault {
                Fault::HostDown {
                    host,
                    from,
                    until: u,
                } => {
                    out.push_str(&format!("host-down {host} {from}{}\n", until(u)));
                }
                Fault::LinkDown {
                    a,
                    b,
                    from,
                    until: u,
                } => {
                    out.push_str(&format!("link-down {a} {b} {from}{}\n", until(u)));
                }
                Fault::LinkSlow {
                    a,
                    b,
                    factor,
                    from,
                    until: u,
                } => {
                    out.push_str(&format!("link-slow {a} {b} {factor} {from}{}\n", until(u)));
                }
            }
        }
        out
    }
}

/// Live fault state derived by replaying compiled transitions:
/// reference-counted down states (overlapping windows compose) and
/// multiplicative per-link delay factors. The three `num_*` counts are
/// kept current by [`apply`](Self::apply), so the per-request questions
/// ([`all_up`](Self::all_up), [`any_link_degraded`](Self::any_link_degraded))
/// are O(1) reads instead of map walks.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    host_down: Vec<u32>,
    link_down: BTreeMap<(u16, u16), u32>,
    link_factor: BTreeMap<(u16, u16), Vec<f64>>,
    /// Hosts with a non-zero down count.
    num_hosts_down: u32,
    /// Links with a non-zero down count.
    num_links_down: u32,
    /// Links with a non-empty factor stack.
    num_links_degraded: u32,
}

/// Steps the reference count of an element's overlapping down windows
/// and `faulted`, the number of elements with a non-zero count. Returns
/// `true` when the element flipped between clear and faulted; an
/// unpaired close saturates at zero.
fn step(count: &mut u32, faulted: &mut u32, opens: bool) -> bool {
    let flipped = if opens {
        *count += 1;
        *count == 1
    } else {
        let last = *count == 1;
        *count = count.saturating_sub(1);
        last
    };
    if flipped {
        if opens {
            *faulted += 1;
        } else {
            *faulted -= 1;
        }
    }
    flipped
}

fn norm(a: u16, b: u16) -> (u16, u16) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FaultState {
    pub(crate) fn new(num_nodes: usize) -> Self {
        Self {
            host_down: vec![0; num_nodes],
            link_down: BTreeMap::new(),
            link_factor: BTreeMap::new(),
            num_hosts_down: 0,
            num_links_down: 0,
            num_links_degraded: 0,
        }
    }

    /// Applies one transition. Returns `true` when link availability
    /// changed (the caller must update routing).
    pub(crate) fn apply(&mut self, transition: FaultTransition) -> bool {
        let opens = transition.opens;
        match transition.fault {
            Fault::HostDown { host, .. } => {
                step(
                    &mut self.host_down[host as usize],
                    &mut self.num_hosts_down,
                    opens,
                );
                false
            }
            Fault::LinkDown { a, b, .. } => step(
                self.link_down.entry(norm(a, b)).or_insert(0),
                &mut self.num_links_down,
                opens,
            ),
            Fault::LinkSlow { a, b, factor, .. } => {
                let stack = self.link_factor.entry(norm(a, b)).or_default();
                if opens {
                    self.num_links_degraded += u32::from(stack.is_empty());
                    stack.push(factor);
                } else if let Some(pos) = stack.iter().position(|&f| f == factor) {
                    stack.remove(pos);
                    self.num_links_degraded -= u32::from(stack.is_empty());
                }
                false
            }
        }
    }

    pub(crate) fn host_up(&self, host: u16) -> bool {
        self.host_down[host as usize] == 0
    }

    /// Combined delay multiplier on a link (1.0 when undegraded).
    pub(crate) fn link_factor(&self, a: u16, b: u16) -> f64 {
        self.link_factor
            .get(&norm(a, b))
            .map(|stack| stack.iter().product())
            .unwrap_or(1.0)
    }

    /// `true` when any link currently carries a degradation factor.
    pub(crate) fn any_link_degraded(&self) -> bool {
        self.num_links_degraded > 0
    }

    /// `true` when every host and every link is up. Topologies are
    /// validated connected, so every replica is then usable from
    /// everywhere and the redirect layer skips its per-replica filter.
    pub(crate) fn all_up(&self) -> bool {
        self.num_hosts_down == 0 && self.num_links_down == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(host: u16) -> Fault {
        Fault::HostDown {
            host,
            from: 0.0,
            until: None,
        }
    }

    fn link(a: u16, b: u16) -> Fault {
        Fault::LinkDown {
            a,
            b,
            from: 0.0,
            until: None,
        }
    }

    fn slow(a: u16, b: u16, factor: f64) -> Fault {
        Fault::LinkSlow {
            a,
            b,
            factor,
            from: 0.0,
            until: None,
        }
    }

    fn open(fault: Fault) -> FaultTransition {
        FaultTransition {
            t: 0.0,
            fault,
            opens: true,
        }
    }

    fn close(fault: Fault) -> FaultTransition {
        FaultTransition {
            opens: false,
            ..open(fault)
        }
    }

    #[test]
    fn transition_texts_are_the_fault_event_texts() {
        let texts: Vec<String> = [
            open(host(7)),
            close(host(7)),
            open(link(3, 12)),
            close(link(3, 12)),
            open(slow(3, 12, 4.0)),
            close(slow(3, 12, 4.0)),
            open(slow(0, 1, 2.5)),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            texts,
            [
                "host-crash 7",
                "host-recover 7",
                "link-fail 3-12",
                "link-heal 3-12",
                "link-degrade 3-12 x4",
                "link-restore 3-12 x4",
                "link-degrade 0-1 x2.5",
            ]
        );
    }

    #[test]
    fn empty_spec_has_no_transitions() {
        let spec = FaultSpec::new();
        assert!(spec.is_empty());
        assert!(spec.transitions(1_000.0).is_empty());
        assert_eq!(spec.validate(10, &[]), Ok(()));
    }

    #[test]
    fn transitions_are_sorted_and_clamped() {
        let spec = FaultSpec::new()
            .host_down(1, 50.0, Some(150.0))
            .link_down(0, 1, 10.0, Some(2_000.0)) // heal beyond horizon
            .host_down(2, 10.0, None); // never recovers
        let ts = spec.transitions(1_000.0);
        let times: Vec<f64> = ts.iter().map(|t| t.t).collect();
        assert_eq!(times, vec![10.0, 10.0, 50.0, 150.0]);
        // Equal times keep spec order: the link fault precedes host 2.
        assert_eq!(
            (ts[0].fault, ts[0].opens),
            (spec.faults()[1], true),
            "link-fail 0-1"
        );
        assert_eq!((ts[1].fault, ts[1].opens), (spec.faults()[2], true));
        assert_eq!((ts[3].fault, ts[3].opens), (spec.faults()[0], false));
        // The heal at t=2000 and the missing recoveries are absent.
        assert!(ts
            .iter()
            .all(|t| t.opens || !matches!(t.fault, Fault::LinkDown { .. })));
    }

    #[test]
    fn crash_at_time_zero_is_allowed() {
        let spec = FaultSpec::new().host_down(0, 0.0, Some(10.0));
        assert_eq!(spec.validate(1, &[]), Ok(()));
        let ts = spec.transitions(100.0);
        assert_eq!(ts[0].t, 0.0);
        assert_eq!(ts[0].to_string(), "host-crash 0");
    }

    #[test]
    fn recover_after_end_means_never_recovers() {
        let spec = FaultSpec::new().host_down(3, 10.0, Some(500.0));
        let ts = spec.transitions(200.0);
        assert_eq!(ts.len(), 1, "only the crash is within the horizon");
        let mut state = FaultState::new(4);
        for &t in &ts {
            state.apply(t);
        }
        assert!(!state.host_up(3));
    }

    #[test]
    fn overlapping_host_windows_compose() {
        let spec = FaultSpec::new()
            .host_down(0, 10.0, Some(100.0))
            .host_down(0, 50.0, Some(200.0));
        let mut state = FaultState::new(1);
        // Walk the schedule, checking liveness between transitions.
        for t in spec.transitions(1_000.0) {
            state.apply(t);
            let expect_up = t.t >= 200.0;
            assert_eq!(state.host_up(0), expect_up, "at t={}", t.t);
        }
        assert!(state.host_up(0));
    }

    #[test]
    fn overlapping_degradations_multiply_and_unwind() {
        let mut state = FaultState::new(2);
        state.apply(open(slow(0, 1, 2.0)));
        state.apply(open(slow(1, 0, 3.0))); // either order
        assert_eq!(state.link_factor(0, 1), 6.0);
        state.apply(close(slow(0, 1, 2.0)));
        assert_eq!(state.link_factor(0, 1), 3.0);
        state.apply(close(slow(0, 1, 3.0)));
        assert_eq!(state.link_factor(0, 1), 1.0);
        assert!(!state.any_link_degraded());
    }

    #[test]
    fn live_counts_return_to_clear_after_repeated_windows() {
        // Two links, each degraded and restored twice (with overlap on
        // the first), interleaved with a host and a link outage: the
        // O(1) flags must agree with a walk of the maps at every step,
        // and `link_factor` must read as before.
        let walk_degraded = |s: &FaultState| s.link_factor.values().any(|stack| !stack.is_empty());
        let walk_all_up = |s: &FaultState| {
            s.host_down.iter().all(|&c| c == 0) && s.link_down.values().all(|&c| c == 0)
        };
        let mut state = FaultState::new(4);
        let steps = [
            (open(slow(0, 1, 2.0)), 2.0, 1.0),
            (open(slow(1, 0, 3.0)), 6.0, 1.0),
            (open(slow(2, 3, 4.0)), 6.0, 4.0),
            (open(host(2)), 6.0, 4.0),
            (close(slow(0, 1, 2.0)), 3.0, 4.0),
            (close(slow(0, 1, 3.0)), 1.0, 4.0),
            (open(link(0, 1)), 1.0, 4.0),
            (close(slow(2, 3, 4.0)), 1.0, 1.0),
            (close(host(2)), 1.0, 1.0),
            (close(link(0, 1)), 1.0, 1.0),
            (open(slow(0, 1, 5.0)), 5.0, 1.0),
            (open(slow(3, 2, 1.5)), 5.0, 1.5),
            (close(slow(1, 0, 5.0)), 1.0, 1.5),
            (close(slow(2, 3, 9.0)), 1.0, 1.5), // no such factor: no-op
            (close(slow(2, 3, 1.5)), 1.0, 1.0),
        ];
        for (transition, f01, f23) in steps {
            state.apply(transition);
            assert_eq!(state.link_factor(0, 1), f01, "after {transition}");
            assert_eq!(state.link_factor(2, 3), f23, "after {transition}");
            assert_eq!(
                state.any_link_degraded(),
                walk_degraded(&state),
                "{transition}"
            );
            assert_eq!(state.all_up(), walk_all_up(&state), "after {transition}");
        }
        assert_eq!(
            (
                state.num_hosts_down,
                state.num_links_down,
                state.num_links_degraded
            ),
            (0, 0, 0)
        );
        // Unpaired recoveries saturate instead of underflowing.
        state.apply(close(host(1)));
        state.apply(close(link(0, 1)));
        assert!(state.all_up() && !state.any_link_degraded());
    }

    #[test]
    fn link_state_counts_overlaps() {
        let mut state = FaultState::new(3);
        // The only link: `all_up` reads its state.
        assert!(state.apply(open(link(2, 1))));
        assert!(!state.all_up());
        // Second overlapping failure: no availability change.
        assert!(!state.apply(open(link(1, 2))));
        // First heal: still down.
        assert!(!state.apply(close(link(1, 2))));
        assert!(!state.all_up());
        // Second heal: back up — availability changed.
        assert!(state.apply(close(link(2, 1))));
        assert!(state.all_up());
    }

    #[test]
    fn validation_rejects_bad_references_and_windows() {
        let links = [(0u16, 1u16)];
        let bad_host = FaultSpec::new().host_down(9, 0.0, None);
        assert_eq!(
            bad_host.validate(3, &links),
            Err(FaultError::UnknownHost(0, 9))
        );
        let bad_link = FaultSpec::new().link_down(0, 2, 0.0, None);
        assert_eq!(
            bad_link.validate(3, &links),
            Err(FaultError::UnknownLink(0, 0, 2))
        );
        let empty_window = FaultSpec::new().host_down(0, 50.0, Some(50.0));
        assert_eq!(
            empty_window.validate(3, &links),
            Err(FaultError::BadWindow {
                index: 0,
                from: 50.0,
                until: Some(50.0)
            })
        );
        let bad_factor = FaultSpec::new().link_slow(0, 1, 0.5, 0.0, None);
        assert_eq!(
            bad_factor.validate(3, &links),
            Err(FaultError::BadFactor(0, 0.5))
        );
        let floor = FaultSpec::new().with_min_replicas(3);
        assert_eq!(floor.validate(3, &links), Ok(()), "a copy on every node");
        assert_eq!(
            floor.validate(2, &links),
            Err(FaultError::BadPolicy(
                "min-replicas 3 exceeds the topology's 2 nodes".into()
            ))
        );
    }

    #[test]
    fn text_round_trip() {
        let spec = FaultSpec::new()
            .with_min_replicas(2)
            .with_declare_dead_after(45.0)
            .host_down(7, 100.0, Some(400.0))
            .link_down(3, 12, 200.0, None)
            .link_slow(3, 12, 4.0, 200.0, Some(600.0));
        let parsed = FaultSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn parser_accepts_comments_and_rejects_junk() {
        let spec =
            FaultSpec::from_text("# schedule\nmin-replicas 2\nhost-down 1 10 20  # flaky host\n\n")
                .unwrap();
        assert_eq!(spec.min_replicas(), 2);
        assert_eq!(spec.faults().len(), 1);

        for bad in [
            "host-down",
            "host-down x 10",
            "link-down 1 2",
            "link-slow 1 2 10",
            "warp-core-breach 1",
            "min-replicas 0",
            "declare-dead-after -3",
        ] {
            assert!(
                matches!(FaultSpec::from_text(bad), Err(FaultError::Malformed { .. })),
                "{bad:?} should be rejected"
            );
        }
    }
}
