//! Property test: migrations under delayed notifications.
//!
//! The paper's directory invariant — "the redirector is notified of copy
//! creation *after* the fact and of deletion *before* the fact" — is
//! what keeps every object continuously servable while replicas move,
//! even when notification delays (a slow or faulted link delivering the
//! `notify_created` long after the copy exists) let the drop of one
//! migration arrive before the create of the next.
//!
//! The harness replays a random migration script against one
//! [`Directory`] and checks after every step:
//!
//! * every object keeps at least one replica (drop-of-last refused);
//! * a drop is only ever granted for a host the directory listed
//!   (deletion arbitration precedes the physical delete);
//! * the incremental `total_replicas()` and `notifications()` counters
//!   equal a recount.

use radar_core::{Directory, ObjectId};
use radar_simcore::SimRng;
use radar_simnet::NodeId;

const OBJECTS: u32 = 24;
const HOSTS: u16 = 8;
const STEPS: usize = 400;

/// One directory operation of a migration script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The copy exists; the notification arrives now (possibly long
    /// after a link fault delayed it).
    NotifyCreated(ObjectId, NodeId),
    /// The host asks to delete its copy; refusal means it must keep it.
    RequestDrop(ObjectId, NodeId),
}

/// Generates a migration-heavy script: each "migration" is a create on
/// a (usually different) host followed — after a random delay measured
/// in interleaved steps — by a drop request on the source host. Delays
/// model notification latency under link faults: the drop of one
/// migration can arrive before the create notification of the next.
fn script(rng: &mut SimRng) -> Vec<Op> {
    let mut ops = Vec::with_capacity(STEPS * 2);
    // Pending delayed ops: (remaining steps, op).
    let mut delayed: Vec<(usize, Op)> = Vec::new();
    for _ in 0..STEPS {
        // Deliver any delayed notifications that are due.
        let mut i = 0;
        while i < delayed.len() {
            if delayed[i].0 == 0 {
                ops.push(delayed.swap_remove(i).1);
            } else {
                delayed[i].0 -= 1;
                i += 1;
            }
        }
        let object = ObjectId::new(rng.index(OBJECTS as usize) as u32);
        let target = NodeId::new(rng.index(HOSTS as usize) as u16);
        let source = NodeId::new(rng.index(HOSTS as usize) as u16);
        // A migration: create at the target now; the create notification
        // and the source's drop request each suffer independent delays.
        let create_delay = rng.index(4);
        let drop_delay = create_delay + rng.index(6);
        delayed.push((create_delay, Op::NotifyCreated(object, target)));
        delayed.push((drop_delay, Op::RequestDrop(object, source)));
    }
    // Flush the tail in delay order so every create eventually lands.
    delayed.sort_by_key(|&(d, _)| d);
    ops.extend(delayed.into_iter().map(|(_, op)| op));
    ops
}

fn seeded_directory() -> Directory {
    let mut dir = Directory::new(OBJECTS);
    for i in 0..OBJECTS {
        dir.install(ObjectId::new(i), NodeId::new((i % u32::from(HOSTS)) as u16));
    }
    dir
}

/// Applies one op, asserting the invariants; returns how many
/// notifications the directory must have counted for it.
fn apply(dir: &mut Directory, op: Op) -> u64 {
    match op {
        Op::NotifyCreated(object, host) => {
            dir.notify_created(object, host);
            1
        }
        Op::RequestDrop(object, host) => {
            let listed = dir.replicas(object).iter().any(|r| r.host == host);
            let granted = dir.request_drop(object, host);
            assert!(
                !granted || listed,
                "drop granted for a replica the directory never listed"
            );
            u64::from(granted)
        }
    }
}

#[test]
fn migrations_preserve_the_notification_invariant() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0xD1CE ^ seed);
        let mut dir = seeded_directory();
        let mut notifications = 0;
        for op in script(&mut rng) {
            notifications += apply(&mut dir, op);
            let mut replicas = 0;
            for i in 0..OBJECTS {
                let count = dir.replica_count(ObjectId::new(i));
                assert!(count >= 1, "seed {seed}: object {i} lost its last replica");
                replicas += count as u64;
            }
            assert_eq!(dir.total_replicas(), replicas, "seed {seed}");
            assert_eq!(dir.notifications(), notifications, "seed {seed}");
        }
    }
}
