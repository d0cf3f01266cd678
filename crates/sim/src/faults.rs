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
//! The textual format (one directive per line, read by
//! [`radar_simnet::text::lines`]) is shared by the CLI's `--faults` flag
//! and `docs/simulation-manual.md`:
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

use radar_simnet::text::{self, LineError};
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

/// What is wrong with a directive of a [`FaultSpec`]; [`FaultError`]
/// adds its line.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultErrorKind {
    /// The line did not parse; holds it without its comment.
    Malformed(String),
    /// A fault window is empty or has non-finite/negative times.
    BadWindow {
        /// Window start.
        from: f64,
        /// Window end, when given.
        until: Option<f64>,
    },
    /// A degradation factor was not finite and > 1.
    BadFactor(f64),
    /// A fault referenced a host outside the topology.
    UnknownHost(u16),
    /// A fault referenced a link that is not in the topology.
    UnknownLink(u16, u16),
    /// A policy knob had a nonsensical value.
    BadPolicy(String),
    /// A policy knob was given a second time.
    Repeated {
        /// The knob's directive.
        knob: &'static str,
        /// The line that gave it first.
        first: usize,
    },
}

impl fmt::Display for FaultErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultErrorKind::Malformed(content) => write!(f, "malformed directive {content:?}"),
            FaultErrorKind::BadWindow { from, until } => {
                write!(f, "bad fault window: from={from} until={until:?}")
            }
            FaultErrorKind::BadFactor(v) => {
                write!(f, "degradation factor must be finite and > 1, got {v}")
            }
            FaultErrorKind::UnknownHost(h) => write!(f, "fault references unknown host {h}"),
            FaultErrorKind::UnknownLink(a, b) => {
                write!(f, "fault references unknown link {a}-{b}")
            }
            FaultErrorKind::BadPolicy(msg) => write!(f, "bad fault policy: {msg}"),
            FaultErrorKind::Repeated { knob, first } => {
                write!(f, "{knob} given twice (first on line {first})")
            }
        }
    }
}

/// An error in a [`FaultSpec`], on the line of the offending directive:
/// its line in the parsed text or, for a directive set in code, the
/// line [`FaultSpec::to_text`] writes it on.
pub type FaultError = LineError<FaultErrorKind>;

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
///
/// Each directive keeps the line it came from, for [`FaultError`]s: its
/// line in the text [`from_text`](Self::from_text) parsed or, when set
/// in code, the line [`to_text`](Self::to_text) writes it on
/// (`min-replicas` 1, `declare-dead-after` 2, fault `i` at `i + 3`), so
/// a spec built in code equals its own text read back.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    faults: Vec<Fault>,
    /// The line of each fault, beside it.
    fault_lines: Vec<usize>,
    /// Seconds a host may stay crashed before the platform declares it
    /// dead, purges its replicas, and re-replicates (default 60).
    declare_dead_after: f64,
    /// Replica floor the re-replication sweep restores objects to
    /// (default 1).
    min_replicas: u32,
    /// The lines of `min-replicas` and `declare-dead-after`.
    knob_lines: [usize; 2],
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
            fault_lines: Vec::new(),
            declare_dead_after: 60.0,
            min_replicas: 1,
            knob_lines: [1, 2],
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

    /// Sets the declare-dead timeout; [`validate`](Self::validate)
    /// requires it positive and finite.
    pub fn with_declare_dead_after(mut self, secs: f64) -> Self {
        self.declare_dead_after = secs;
        self.knob_lines[1] = 2;
        self
    }

    /// Sets the replica floor; [`validate`](Self::validate) requires it
    /// between 1 and the topology's node count.
    pub fn with_min_replicas(mut self, n: u32) -> Self {
        self.min_replicas = n;
        self.knob_lines[0] = 1;
        self
    }

    /// Schedules `fault` on the line [`to_text`](Self::to_text) writes
    /// it on.
    fn with(mut self, fault: Fault) -> Self {
        self.fault_lines.push(self.faults.len() + 3);
        self.faults.push(fault);
        self
    }

    /// Schedules a host crash over `[from, until)` (`None` = forever).
    pub fn host_down(self, host: u16, from: f64, until: Option<f64>) -> Self {
        self.with(Fault::HostDown { host, from, until })
    }

    /// Schedules a link partition over `[from, until)` (`None` = forever).
    pub fn link_down(self, a: u16, b: u16, from: f64, until: Option<f64>) -> Self {
        self.with(Fault::LinkDown { a, b, from, until })
    }

    /// Schedules a link delay degradation by `factor` over `[from, until)`.
    pub fn link_slow(self, a: u16, b: u16, factor: f64, from: f64, until: Option<f64>) -> Self {
        self.with(Fault::LinkSlow {
            a,
            b,
            factor,
            from,
            until,
        })
    }

    /// Checks both knobs and every window, factor, and topology
    /// reference; this is the one place each rule is checked.
    ///
    /// `links` are the topology's undirected edges (either endpoint
    /// order); `num_nodes` bounds host indices and the replica floor.
    ///
    /// # Errors
    ///
    /// Returns the first violation, on its directive's line.
    pub fn validate(&self, num_nodes: usize, links: &[(u16, u16)]) -> Result<(), FaultError> {
        let (floor, dead) = (self.min_replicas, self.declare_dead_after);
        // The knob at fault, as an index into `knob_lines`, and why.
        let knob = if !(dead.is_finite() && dead > 0.0) {
            Some((
                1,
                format!("declare-dead-after must be positive and finite, got {dead}"),
            ))
        } else if floor == 0 {
            Some((0, "min-replicas must be at least 1".to_string()))
        } else if floor as usize > num_nodes {
            Some((
                0,
                format!("min-replicas {floor} exceeds the topology's {num_nodes} nodes"),
            ))
        } else {
            None
        };
        if let Some((knob, why)) = knob {
            let kind = FaultErrorKind::BadPolicy(why);
            return Err(LineError {
                line: self.knob_lines[knob],
                kind,
            });
        }
        let has_link = |a: u16, b: u16| {
            links
                .iter()
                .any(|&(x, y)| (x, y) == (a, b) || (x, y) == (b, a))
        };
        for (fault, &line) in self.faults.iter().zip(&self.fault_lines) {
            let (from, until) = fault.window();
            let ok_from = from.is_finite() && from >= 0.0;
            let ok_until = match until {
                None => true,
                Some(u) => u.is_finite() && u > from,
            };
            let kind = if !ok_from || !ok_until {
                FaultErrorKind::BadWindow { from, until }
            } else {
                match *fault {
                    Fault::HostDown { host, .. } if host as usize >= num_nodes => {
                        FaultErrorKind::UnknownHost(host)
                    }
                    Fault::LinkSlow { factor, .. } if !(factor.is_finite() && factor > 1.0) => {
                        FaultErrorKind::BadFactor(factor)
                    }
                    Fault::LinkDown { a, b, .. } | Fault::LinkSlow { a, b, .. }
                        if !has_link(a, b) =>
                    {
                        FaultErrorKind::UnknownLink(a, b)
                    }
                    _ => continue,
                }
            };
            return Err(LineError { line, kind });
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

    /// Parses the textual format (see the module docs). Values are
    /// checked by [`validate`](Self::validate), against the topology.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultErrorKind::Malformed`] error naming the first
    /// line that is not a directive, or [`FaultErrorKind::Repeated`] on
    /// the second line to give a knob.
    pub fn from_text(text: &str) -> Result<Self, FaultError> {
        const KNOBS: [&str; 2] = ["min-replicas", "declare-dead-after"];
        let mut spec = FaultSpec::new();
        // The line each knob was first given on, in `knob_lines` order.
        let mut given = [None; 2];
        for line in text::lines(text) {
            let words: Vec<&str> = line.words().collect();
            spec.read(&words, line.number)
                .ok_or_else(|| line.error(FaultErrorKind::Malformed(line.content.to_string())))?;
            if let Some(k) = KNOBS.iter().position(|&knob| knob == words[0]) {
                if let Some(first) = given[k].replace(line.number) {
                    let knob = KNOBS[k];
                    return Err(line.error(FaultErrorKind::Repeated { knob, first }));
                }
            }
        }
        Ok(spec)
    }

    /// Applies the directive `words` from `line`; `None` when they are
    /// not one.
    fn read(&mut self, words: &[&str], line: usize) -> Option<()> {
        let num = |i: usize| words.get(i)?.parse::<f64>().ok();
        let node = |i: usize| words.get(i)?.parse::<u16>().ok();
        // `<from> [<until>]`, the line's last words from word `i` on.
        let window = |i: usize| match words.len().checked_sub(i)? {
            1 => Some((num(i)?, None)),
            2 => Some((num(i)?, Some(num(i + 1)?))),
            _ => None,
        };
        let fault = match words[0] {
            "min-replicas" if words.len() == 2 => {
                self.min_replicas = words[1].parse().ok()?;
                self.knob_lines[0] = line;
                return Some(());
            }
            "declare-dead-after" if words.len() == 2 => {
                self.declare_dead_after = num(1)?;
                self.knob_lines[1] = line;
                return Some(());
            }
            "host-down" => {
                let (from, until) = window(2)?;
                Fault::HostDown {
                    host: node(1)?,
                    from,
                    until,
                }
            }
            "link-down" => {
                let (from, until) = window(3)?;
                let (a, b) = (node(1)?, node(2)?);
                Fault::LinkDown { a, b, from, until }
            }
            "link-slow" => {
                let (from, until) = window(4)?;
                let (a, b, factor) = (node(1)?, node(2)?, num(3)?);
                Fault::LinkSlow {
                    a,
                    b,
                    factor,
                    from,
                    until,
                }
            }
            _ => return None,
        };
        self.faults.push(fault);
        self.fault_lines.push(line);
        Some(())
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
        // Built in code, a fault sits on the line `to_text` writes it on:
        // the first one on line 3, after the two knobs.
        let at = |line, kind| Err(FaultError { line, kind });
        let bad_host = FaultSpec::new().host_down(9, 0.0, None);
        assert_eq!(
            bad_host.validate(3, &links),
            at(3, FaultErrorKind::UnknownHost(9))
        );
        let bad_link = FaultSpec::new()
            .host_down(0, 0.0, None)
            .link_down(0, 2, 0.0, None);
        assert_eq!(
            bad_link.validate(3, &links),
            at(4, FaultErrorKind::UnknownLink(0, 2))
        );
        let empty_window = FaultSpec::new().host_down(0, 50.0, Some(50.0));
        assert_eq!(
            empty_window.validate(3, &links),
            at(
                3,
                FaultErrorKind::BadWindow {
                    from: 50.0,
                    until: Some(50.0)
                }
            )
        );
        let bad_factor = FaultSpec::new().link_slow(0, 1, 0.5, 0.0, None);
        assert_eq!(
            bad_factor.validate(3, &links),
            at(3, FaultErrorKind::BadFactor(0.5))
        );
        let floor = FaultSpec::new().with_min_replicas(3);
        assert_eq!(floor.validate(3, &links), Ok(()), "a copy on every node");
        assert_eq!(
            floor.validate(2, &links),
            at(
                1,
                FaultErrorKind::BadPolicy("min-replicas 3 exceeds the topology's 2 nodes".into())
            )
        );
        // Parsed, a knob's error names its line; the parser leaves the
        // values to this check.
        for (text, line) in [
            ("min-replicas 0", 1),
            ("# floor\n\ndeclare-dead-after -3", 3),
        ] {
            let err = FaultSpec::from_text(text).unwrap().validate(3, &links);
            assert!(
                matches!(err, Err(FaultError { line: l, kind: FaultErrorKind::BadPolicy(_) }) if l == line),
                "{text:?} should be rejected on line {line}: {err:?}"
            );
        }
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
        ] {
            assert!(
                matches!(
                    FaultSpec::from_text(bad),
                    Err(FaultError {
                        line: 1,
                        kind: FaultErrorKind::Malformed(_)
                    })
                ),
                "{bad:?} should be rejected"
            );
        }
        for (text, message) in [
            (
                "min-replicas 2\nhost-down x 10  # bad\n",
                "line 2: malformed directive \"host-down x 10\"",
            ),
            (
                "min-replicas 2\nmin-replicas 53\n",
                "line 2: min-replicas given twice (first on line 1)",
            ),
            (
                "declare-dead-after 5\n# again\ndeclare-dead-after 9\n",
                "line 3: declare-dead-after given twice (first on line 1)",
            ),
        ] {
            let err = FaultSpec::from_text(text).unwrap_err();
            assert_eq!(err.to_string(), message);
        }
    }
}
