//! Shared protocol vocabulary: object ids and inter-host messages.

use std::fmt;

use radar_simnet::NodeId;

/// Identifier of a hosted Web object.
///
/// Object ids are dense indices (`0..num_objects`); the paper's initial
/// round-robin placement puts object `i` on node `i mod 53`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u32);

impl ObjectId {
    /// Creates an object id from a dense index.
    pub const fn new(index: u32) -> Self {
        ObjectId(index)
    }

    /// The dense index of this object.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Whether a `CreateObj` message proposes a migration or a replication
/// (paper Fig. 4: the candidate applies a stricter admission test to
/// migrations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelocationKind {
    /// Move the affinity unit: source sheds it after the copy succeeds.
    Migrate,
    /// Add an affinity unit at the target; the source keeps its replica.
    Replicate,
}

impl fmt::Display for RelocationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelocationKind::Migrate => f.write_str("MIGRATE"),
            RelocationKind::Replicate => f.write_str("REPLICATE"),
        }
    }
}

/// The `CreateObj` request a host sends to a placement candidate
/// (paper Fig. 4). Carries the per-affinity-unit load of the source
/// replica, which the candidate uses in its admission test and in its
/// upper-bound load estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreateObjRequest {
    /// Migration or replication.
    pub kind: RelocationKind,
    /// The object to copy.
    pub object: ObjectId,
    /// Source node (where the object is copied from).
    pub source: NodeId,
    /// `load(x_s)/aff(x_s)` at the source — the unit load of the replica.
    pub unit_load: f64,
}

/// The candidate's answer to a [`CreateObjRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateObjResponse {
    /// The candidate accepted and now holds the object; `new_copy` is
    /// `true` when actual object data had to be transferred (a brand-new
    /// replica) rather than just an affinity increment.
    Accepted {
        /// Whether a new physical copy was created (vs. affinity bump).
        new_copy: bool,
    },
    /// The candidate refused (its load admission test failed).
    Refused,
}

impl CreateObjResponse {
    /// `true` if the candidate accepted.
    pub fn is_accepted(self) -> bool {
        matches!(self, CreateObjResponse::Accepted { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_roundtrip_and_display() {
        let x = ObjectId::new(42);
        assert_eq!(x.index(), 42);
        assert_eq!(x.to_string(), "x42");
    }

    #[test]
    fn relocation_kind_display_matches_paper() {
        assert_eq!(RelocationKind::Migrate.to_string(), "MIGRATE");
        assert_eq!(RelocationKind::Replicate.to_string(), "REPLICATE");
    }

    #[test]
    fn response_acceptance() {
        assert!(CreateObjResponse::Accepted { new_copy: true }.is_accepted());
        assert!(!CreateObjResponse::Refused.is_accepted());
    }

    #[test]
    fn object_ids_order_by_index() {
        assert!(ObjectId::new(1) < ObjectId::new(2));
    }
}
