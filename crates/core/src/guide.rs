//! # A guided tour of the protocol
//!
//! This documentation-only module walks through one object's life under
//! the protocol, connecting the paper's algorithms to this crate's
//! types. Nothing here is code you call; it is the map.
//!
//! ## The cast
//!
//! A hosting platform is a set of backbone nodes, each a router plus a
//! hosting server ([`HostState`]). Requests enter at *gateways* and are
//! steered by a *redirector* ([`Redirector`]) that knows, per object,
//! which hosts currently hold replicas. All tunables live in [`Params`];
//! the paper's Table 1 values are `Params::paper()`.
//!
//! ## Serving a request (Fig. 2)
//!
//! When a request for object `x` arrives from gateway `g`, the
//! redirector runs [`Redirector::choose_replica`]. It considers exactly
//! two candidates:
//!
//! * `p` — the replica *closest* to `g` (hop count from the routing
//!   database), and
//! * `q` — the replica with the smallest *unit request count*
//!   `rcnt/aff`, where `rcnt` counts how often the redirector has picked
//!   that replica and `aff` is its affinity.
//!
//! `p` serves the request unless its unit count exceeds
//! `distribution_constant` (2) times `q`'s — proximity wins until a
//! replica has soaked up twice its fair share, at which point the
//! least-used replica takes over. The beauty of the rule is what it
//! does **not** need: nobody measures server load, yet an overloaded
//! replica sheds exactly a bounded fraction of its traffic
//! ([`bounds`], Theorems 1–4), and those bounds are what make
//! autonomous placement possible.
//!
//! *Affinity* deserves a word: a host holding "three replicas" of `x`
//! really holds one copy with `aff = 3`, which simply triples its fair
//! share in the unit-count arithmetic. Affinity is how the protocol
//! expresses "this replica should carry more of the load" without
//! moving bytes.
//!
//! ## Watching demand (§4.1)
//!
//! Every response from host `s` to gateway `g` travels the *preference
//! path* — the router path between them. The paper's access count
//! `cnt(p, x)` counts the request for **every** node `p` on that path:
//! each was a place that would have served it with less backbone
//! traffic. Since the path depends only on `g` until a link changes,
//! host `s` counts the request once, against its route
//! ([`HostState::record_access`]), and the per-node counts are summed
//! from the routes when placement reads them
//! ([`HostState::counts`]). Meanwhile
//! [`HostState::record_serviced`] feeds the load measurement — the
//! serviced-request rate over 20-second intervals (§2.1).
//!
//! ## Deciding placement (Fig. 3, [`placement::run_placement`])
//!
//! Every `placement_period` (100 s) the host walks its objects:
//!
//! 1. **Drop** an affinity unit whose unit access rate fell below the
//!    deletion threshold `u` — the redirector refuses to let the last
//!    replica die ([`Directory::request_drop`]).
//! 2. **Geo-migrate** when some other node sat on more than
//!    `MIGR_RATIO` (60%) of the object's preference paths: most of this
//!    object's traffic would rather be served from over there. The
//!    host offers the object to the farthest such candidate
//!    (`CreateObj("MIGRATE")`, [`placement::handle_create_obj`]).
//! 3. **Geo-replicate** hot objects (unit access rate above `m = 6u`)
//!    toward any node on more than `REPL_RATIO` (1/6) of paths.
//! 4. **Offload** (Fig. 5): if the host's load exceeds the high
//!    watermark, it sheds objects *in bulk* to one under-loaded
//!    recipient — and here the Theorem bounds earn their keep. After
//!    each transfer the host lowers its own load estimate by the
//!    maximal possible decrease and raises the recipient's by the
//!    maximal possible increase ([`LoadEstimator`]), so it can move
//!    many objects on one decision without waiting 20 seconds between
//!    moves to observe what actually happened.
//!
//! The candidate always runs its own admission test: refuse above the
//! low watermark, and refuse migrations whose Theorem-4 bound could
//! breach the high watermark. Replications may overshoot temporarily —
//! the paper allows it deliberately, to bootstrap replication out of a
//! hot spot.
//!
//! ## Why it doesn't oscillate
//!
//! Three mechanisms conspire:
//!
//! * **Theorem 5**: with `4u < m` (checked by [`Params::check`]), a
//!   replica created because demand exceeded `m` cannot immediately
//!   fall below `u` — replicate→delete cycles are impossible under
//!   steady demand.
//! * **Watermark hysteresis**: offloading engages above `hw` and
//!   disengages below `lw < hw`.
//! * **Partial-window exemption**: a replica acquired mid-period is not
//!   judged until it has lived one full period (see
//!   [`placement`]'s module docs for why the literal pseudocode needs
//!   this repair).
//!
//! ## Consistency (§5, [`Catalog`])
//!
//! Objects updated only by their provider replicate freely (primary
//! copy, asynchronous propagation). Objects whose per-access updates
//! do not commute carry a replica cap ([`ObjectKind::NonCommuting`]) —
//! at cap 1 they are migrate-only. The placement algorithm consults the
//! cap through [`placement::PlacementEnv::may_replicate`].
//!
//! ## Driving it
//!
//! Everything above is sans-I/O: [`HostState`] and [`Redirector`] are
//! plain state machines, and a [`placement::PlacementEnv`]
//! implementation supplies the platform (candidate hosts, redirector
//! notifications, load reports, routing distances). The `radar-sim`
//! crate is one such environment — a discrete-event simulation of the
//! paper's testbed — and the crate's test suites are another.
//!
//! [`HostState`]: crate::HostState
//! [`Redirector`]: crate::Redirector
//! [`Redirector::choose_replica`]: crate::Redirector::choose_replica
//! [`Directory::request_drop`]: crate::Directory::request_drop
//! [`HostState::record_access`]: crate::HostState::record_access
//! [`HostState::counts`]: crate::HostState::counts
//! [`HostState::record_serviced`]: crate::HostState::record_serviced
//! [`Params`]: crate::Params
//! [`Params::check`]: crate::Params::check
//! [`LoadEstimator`]: crate::LoadEstimator
//! [`Catalog`]: crate::Catalog
//! [`ObjectKind::NonCommuting`]: crate::ObjectKind::NonCommuting
//! [`bounds`]: crate::bounds
//! [`placement`]: crate::placement
//! [`placement::run_placement`]: crate::placement::run_placement
//! [`placement::handle_create_obj`]: crate::placement::handle_create_obj
//! [`placement::PlacementEnv`]: crate::placement::PlacementEnv
//! [`placement::PlacementEnv::may_replicate`]: crate::placement::PlacementEnv::may_replicate
