//! The object catalog: sizes, consistency classes, and primary copies
//! (paper §5).

use radar_simnet::NodeId;

use crate::ObjectId;

/// The paper's §5 consistency taxonomy of hosted objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// Type 1: "objects that do not change as the result of user
    /// accesses" — static pages or read-only dynamic services. Updated
    /// only by the content provider via the primary copy; replicate
    /// freely. The paper cites studies putting 80–95% of Web accesses in
    /// this class.
    Immutable,
    /// Type 2: per-access modifications commute (e.g. hit counters whose
    /// values may be merged). Replicate freely provided statistics are
    /// merged out of band.
    CommutingUpdates,
    /// Type 3: non-commuting per-access updates. "In general, can only be
    /// migrated"; when the application tolerates some inconsistency, a
    /// bounded number of replicas is allowed.
    NonCommuting {
        /// Maximum number of simultaneous physical replicas (≥ 1).
        /// 1 reproduces the strict migrate-only regime.
        max_replicas: u32,
    },
}

impl ObjectKind {
    /// Whether an object of this kind, currently on `replica_count`
    /// distinct hosts, may gain a replica on a *new* host.
    pub fn may_add_replica(self, replica_count: usize) -> bool {
        match self {
            ObjectKind::Immutable | ObjectKind::CommutingUpdates => true,
            ObjectKind::NonCommuting { max_replicas } => replica_count < max_replicas as usize,
        }
    }
}

/// A named mix of §5 consistency classes for catalog construction —
/// the simulator's `--consistency` knob. Kinds are assigned to objects
/// deterministically by object index, so the same mix name always
/// yields the same catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyMix {
    /// Every object is type-1 ([`ObjectKind::Immutable`]) — the paper's
    /// simulated configuration and this simulator's default.
    ReadOnly,
    /// 80% type-1, 15% type-2, 5% type-3 (migrate-only, cap 1) — the
    /// low end of the paper's "80–95% of Web accesses" estimate for
    /// type-1 content.
    Mixed,
    /// 50% type-1, 30% type-2, 20% type-3 (half capped at 2 replicas,
    /// half strict migrate-only) — a stress mix for update propagation
    /// and replica-cap enforcement.
    WriteHeavy,
}

impl ConsistencyMix {
    /// Every named mix, in CLI listing order.
    pub const ALL: &'static [ConsistencyMix] = &[
        ConsistencyMix::ReadOnly,
        ConsistencyMix::Mixed,
        ConsistencyMix::WriteHeavy,
    ];

    /// Stable name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            ConsistencyMix::ReadOnly => "read-only",
            ConsistencyMix::Mixed => "mixed",
            ConsistencyMix::WriteHeavy => "write-heavy",
        }
    }

    /// Parses a mix name; `None` for unknown names (callers list
    /// [`ALL`](Self::ALL) in their error message).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// The consistency kind this mix assigns to object `index`.
    pub fn kind_of(self, index: u32) -> ObjectKind {
        match self {
            ConsistencyMix::ReadOnly => ObjectKind::Immutable,
            ConsistencyMix::Mixed => match index % 20 {
                0..=15 => ObjectKind::Immutable,
                16..=18 => ObjectKind::CommutingUpdates,
                _ => ObjectKind::NonCommuting { max_replicas: 1 },
            },
            ConsistencyMix::WriteHeavy => match index % 10 {
                0..=4 => ObjectKind::Immutable,
                5..=7 => ObjectKind::CommutingUpdates,
                8 => ObjectKind::NonCommuting { max_replicas: 2 },
                _ => ObjectKind::NonCommuting { max_replicas: 1 },
            },
        }
    }
}

impl std::fmt::Display for ConsistencyMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of every hosted object: uniform size (the paper
/// simulates 12 KB pages), consistency kind, and the node holding the
/// *primary copy* used for provider-update propagation.
///
/// # Examples
///
/// ```
/// use radar_core::{Catalog, ObjectId, ObjectKind};
/// use radar_simnet::NodeId;
///
/// // 100 immutable objects of 12 KB, primaries round-robin over 4 nodes.
/// let catalog = Catalog::uniform(100, 12 * 1024, 4);
/// assert_eq!(catalog.primary(ObjectId::new(5)), NodeId::new(1));
/// assert!(catalog.kind(ObjectId::new(0)).may_add_replica(10));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    kinds: Vec<ObjectKind>,
    size_bytes: u64,
    primaries: Vec<NodeId>,
}

impl Catalog {
    /// A catalog of `num_objects` immutable objects of `size_bytes` each,
    /// with primaries assigned round-robin over `num_nodes` nodes — the
    /// paper's initial configuration ("object i is assigned to node
    /// i mod 53").
    ///
    /// # Panics
    ///
    /// Panics if `num_objects` or `num_nodes` is zero, or `num_nodes`
    /// exceeds `u16::MAX`.
    pub fn uniform(num_objects: u32, size_bytes: u64, num_nodes: u16) -> Self {
        assert!(num_objects > 0, "catalog needs at least one object");
        assert!(num_nodes > 0, "catalog needs at least one node");
        let kinds = vec![ObjectKind::Immutable; num_objects as usize];
        let primaries = (0..num_objects)
            .map(|i| NodeId::new((i % num_nodes as u32) as u16))
            .collect();
        Self {
            kinds,
            size_bytes,
            primaries,
        }
    }

    /// A catalog whose kinds follow a named [`ConsistencyMix`], with
    /// primaries assigned round-robin like [`uniform`](Self::uniform).
    /// `with_mix(n, s, k, ConsistencyMix::ReadOnly)` equals
    /// `uniform(n, s, k)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_objects` or `num_nodes` is zero.
    pub fn with_mix(
        num_objects: u32,
        size_bytes: u64,
        num_nodes: u16,
        mix: ConsistencyMix,
    ) -> Self {
        let mut catalog = Self::uniform(num_objects, size_bytes, num_nodes);
        for (i, kind) in catalog.kinds.iter_mut().enumerate() {
            *kind = mix.kind_of(i as u32);
        }
        catalog
    }

    /// A catalog with explicitly provided kinds and primaries.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` and `primaries` differ in length, are empty, or
    /// any `NonCommuting` cap is zero.
    pub fn from_parts(kinds: Vec<ObjectKind>, size_bytes: u64, primaries: Vec<NodeId>) -> Self {
        assert_eq!(
            kinds.len(),
            primaries.len(),
            "kinds and primaries must describe the same objects"
        );
        assert!(!kinds.is_empty(), "catalog needs at least one object");
        for (i, k) in kinds.iter().enumerate() {
            if let ObjectKind::NonCommuting { max_replicas } = k {
                assert!(
                    *max_replicas >= 1,
                    "object {i}: non-commuting replica cap must be at least 1"
                );
            }
        }
        Self {
            kinds,
            size_bytes,
            primaries,
        }
    }

    /// Number of objects described.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the catalog describes no objects: only the
    /// [`Default`] catalog, which a scenario builder resolves to the
    /// paper's uniform one.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// All object ids, ascending.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.kinds.len() as u32).map(ObjectId::new)
    }

    /// Uniform object size in bytes (12 KB in the paper's Table 1).
    pub fn object_size(&self) -> u64 {
        self.size_bytes
    }

    /// Consistency kind of `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn kind(&self, object: ObjectId) -> ObjectKind {
        self.kinds[object.index()]
    }

    /// The node holding the primary copy of `object`.
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn primary(&self, object: ObjectId) -> NodeId {
        self.primaries[object.index()]
    }

    /// Moves the primary copy of `object` to `node` (e.g. after the
    /// original host migrates the object away).
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of range.
    pub fn set_primary(&mut self, object: ObjectId, node: NodeId) {
        self.primaries[object.index()] = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_round_robin_primaries() {
        let c = Catalog::uniform(10, 12_288, 3);
        assert_eq!(c.len(), 10);
        assert!(!c.is_empty());
        assert_eq!(c.object_size(), 12_288);
        assert_eq!(c.primary(ObjectId::new(0)), NodeId::new(0));
        assert_eq!(c.primary(ObjectId::new(4)), NodeId::new(1));
        assert_eq!(c.primary(ObjectId::new(9)), NodeId::new(0));
        assert!(c.objects().all(|x| c.kind(x) == ObjectKind::Immutable));
    }

    #[test]
    fn replica_caps() {
        assert!(ObjectKind::Immutable.may_add_replica(1_000_000));
        assert!(ObjectKind::CommutingUpdates.may_add_replica(42));
        let capped = ObjectKind::NonCommuting { max_replicas: 3 };
        assert!(capped.may_add_replica(2));
        assert!(!capped.may_add_replica(3));
        let strict = ObjectKind::NonCommuting { max_replicas: 1 };
        assert!(!strict.may_add_replica(1));
    }

    #[test]
    fn mixes_parse_and_assign_deterministically() {
        for &mix in ConsistencyMix::ALL {
            assert_eq!(ConsistencyMix::parse(mix.name()), Some(mix));
            assert_eq!(mix.to_string(), mix.name());
        }
        assert_eq!(ConsistencyMix::parse("no-such-mix"), None);
        assert_eq!(
            Catalog::with_mix(40, 1024, 4, ConsistencyMix::ReadOnly),
            Catalog::uniform(40, 1024, 4)
        );
        // Mixed: 80/15/5 over every 20-object stripe.
        let c = Catalog::with_mix(40, 1024, 4, ConsistencyMix::Mixed);
        let count = |k: ObjectKind| c.objects().filter(|&x| c.kind(x) == k).count();
        assert_eq!(count(ObjectKind::Immutable), 32);
        assert_eq!(count(ObjectKind::CommutingUpdates), 6);
        assert_eq!(count(ObjectKind::NonCommuting { max_replicas: 1 }), 2);
        // Write-heavy includes both capped and migrate-only type-3.
        let w = Catalog::with_mix(20, 1024, 4, ConsistencyMix::WriteHeavy);
        let count = |k: ObjectKind| w.objects().filter(|&x| w.kind(x) == k).count();
        assert_eq!(count(ObjectKind::Immutable), 10);
        assert_eq!(count(ObjectKind::CommutingUpdates), 6);
        assert_eq!(count(ObjectKind::NonCommuting { max_replicas: 2 }), 2);
        assert_eq!(count(ObjectKind::NonCommuting { max_replicas: 1 }), 2);
    }

    #[test]
    fn from_parts_and_set_primary() {
        let mut c = Catalog::from_parts(
            vec![
                ObjectKind::Immutable,
                ObjectKind::NonCommuting { max_replicas: 2 },
            ],
            1024,
            vec![NodeId::new(0), NodeId::new(1)],
        );
        assert_eq!(
            c.kind(ObjectId::new(1)),
            ObjectKind::NonCommuting { max_replicas: 2 }
        );
        c.set_primary(ObjectId::new(0), NodeId::new(5));
        assert_eq!(c.primary(ObjectId::new(0)), NodeId::new(5));
    }

    #[test]
    #[should_panic(expected = "same objects")]
    fn mismatched_parts_rejected() {
        let _ = Catalog::from_parts(vec![ObjectKind::Immutable], 1, vec![]);
    }

    #[test]
    #[should_panic(expected = "cap must be at least 1")]
    fn zero_cap_rejected() {
        let _ = Catalog::from_parts(
            vec![ObjectKind::NonCommuting { max_replicas: 0 }],
            1,
            vec![NodeId::new(0)],
        );
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_uniform_rejected() {
        let _ = Catalog::uniform(0, 1, 1);
    }
}
