//! The observer thread and flight-recorder sequencing shared by every
//! simulation layer.
//!
//! Observers run on a thread of their own. The simulation thread moves
//! each emitted [`Event`] and each [`RequestRecord`] into a fixed-size
//! batch and sends full batches over a bounded channel; the observer
//! thread hands every item to the observers in attachment order, in
//! exactly the order the simulation emitted them, and sends the emptied
//! batch back for reuse. Nothing comes back on the hot path, and once the
//! batches have grown to their working size neither thread allocates for
//! the hand-off. The thread starts with the first attached observer, so
//! a run with no observers starts none.
//!
//! [`EventSink::barrier`] (the end of every `run_until`),
//! [`EventSink::close`] (`finish`) and dropping the sink (dropping a
//! `Simulation` mid-run) wait until the observer thread has folded
//! everything emitted so far, so a read of a fold between slices sees
//! the same state as when observers ran inline. An observer that panics
//! ends the observer thread; the simulation thread re-raises that panic
//! at its next hand-off, barrier or close, and panics with the same
//! message at every one after that.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use radar_obs::{CandidateSnapshot, DecisionEvent, Event, EventKind as ObsEventKind};

use crate::observer::{Observer, RequestRecord};

/// Items per hand-off batch.
const BATCH_ITEMS: usize = 256;
/// Batches in circulation: the one being filled plus those queued for
/// or being folded by the observer thread.
const BATCHES: usize = 4;

/// One entry of the observer feed.
enum Item {
    /// An observer joining the stream at this point.
    Attach {
        observer: Box<dyn Observer>,
        wants_events: bool,
    },
    Event(Event),
    /// A decision event whose candidate list is empty: its candidates
    /// are the next `.1` entries of the batch's `candidates`.
    Decision(Event, u32),
    Served(RequestRecord),
}

/// A run of the feed. Decisions' candidates travel in one flat buffer
/// per batch, so a traced redirect hands over its candidate list without
/// a heap block of its own.
#[derive(Default)]
struct Batch {
    items: Vec<Item>,
    candidates: Vec<CandidateSnapshot>,
}

impl Batch {
    fn new() -> Self {
        Batch {
            items: Vec::with_capacity(BATCH_ITEMS),
            candidates: Vec::new(),
        }
    }
}

/// The attached observers and the fold that feeds them a batch.
#[derive(Default)]
struct Observers {
    list: Vec<Box<dyn Observer>>,
    /// Indices into `list` of those that want the typed event feed.
    subscribers: Vec<usize>,
    /// The candidate list lent to each decision event in turn.
    candidates: Vec<CandidateSnapshot>,
}

impl Observers {
    /// Hands every item of `batch` to the observers, in order, and leaves
    /// the batch empty.
    fn fold(&mut self, batch: &mut Batch) {
        let mut next_candidate = 0;
        for item in batch.items.drain(..) {
            match item {
                Item::Attach {
                    observer,
                    wants_events,
                } => {
                    if wants_events {
                        self.subscribers.push(self.list.len());
                    }
                    self.list.push(observer);
                }
                Item::Event(event) => self.on_event(&event),
                Item::Decision(mut event, count) => {
                    let ObsEventKind::Decision(decision) = &mut event.kind else {
                        unreachable!("only decisions are fed as such");
                    };
                    let end = next_candidate + count as usize;
                    self.candidates.clear();
                    self.candidates
                        .extend_from_slice(&batch.candidates[next_candidate..end]);
                    next_candidate = end;
                    decision.candidates = std::mem::take(&mut self.candidates);
                    self.on_event(&event);
                    if let ObsEventKind::Decision(decision) = event.kind {
                        self.candidates = decision.candidates;
                    }
                }
                Item::Served(record) => {
                    for observer in &mut self.list {
                        observer.on_request_served(&record);
                    }
                }
            }
        }
        batch.candidates.clear();
    }

    fn on_event(&mut self, event: &Event) {
        for &i in &self.subscribers {
            self.list[i].on_event(event);
        }
    }
}

/// The simulation thread's end of the feed and of the observer thread.
struct Feed {
    /// The batch being filled.
    batch: Batch,
    /// Emptied batches ready to be filled.
    free: Vec<Batch>,
    /// Batches sent and not yet returned.
    in_flight: usize,
    to_observers: SyncSender<Batch>,
    returned: Receiver<Batch>,
    /// `None` once joined.
    handle: Option<JoinHandle<()>>,
    /// The message of the observer panic already re-raised, raised again
    /// by every later call.
    failure: Option<String>,
}

impl Feed {
    /// Starts the observer thread, with no observer yet: each joins the
    /// stream through an [`Item::Attach`].
    fn spawn() -> Self {
        let (to_observers, feed) = sync_channel(BATCHES);
        let (give_back, returned) = sync_channel(BATCHES);
        let handle = std::thread::Builder::new()
            .name("radar-observers".into())
            .spawn(move || {
                let mut observers = Observers::default();
                for mut batch in &feed {
                    observers.fold(&mut batch);
                    // The simulation keeps its end until this thread is
                    // joined.
                    let _ = give_back.send(batch);
                }
            })
            .expect("cannot start the observer thread");
        Feed {
            batch: Batch::new(),
            // The batch being filled is the first of those in circulation.
            free: (1..BATCHES).map(|_| Batch::new()).collect(),
            in_flight: 0,
            to_observers,
            returned,
            handle: Some(handle),
            failure: None,
        }
    }

    fn push(&mut self, item: Item) {
        self.batch.items.push(item);
        if self.batch.items.len() == BATCH_ITEMS {
            self.send();
        }
    }

    /// Hands the current batch to the observer thread and takes an
    /// emptied one, waiting for one to come back if none is free.
    fn send(&mut self) {
        let full = std::mem::take(&mut self.batch);
        if self.to_observers.send(full).is_err() {
            self.rethrow();
        }
        self.in_flight += 1;
        self.batch = match self.free.pop() {
            Some(batch) => batch,
            None => self.receive(),
        };
    }

    /// Waits for the observer thread to return one batch.
    fn receive(&mut self) -> Batch {
        let Ok(batch) = self.returned.recv() else {
            self.rethrow();
        };
        self.in_flight -= 1;
        batch
    }

    /// Returns once the observers have folded every item pushed so far.
    fn barrier(&mut self) {
        if self.handle.is_none() {
            self.rethrow();
        }
        if !self.batch.items.is_empty() {
            self.send();
        }
        while self.in_flight > 0 {
            let batch = self.receive();
            self.free.push(batch);
        }
    }

    /// The observer thread hung up, which it does only by panicking:
    /// joins it and re-raises its panic on this thread, and after that
    /// panics again with the same message.
    fn rethrow(&mut self) -> ! {
        let Some(handle) = self.handle.take() else {
            panic!("{}", self.failure.as_deref().unwrap_or_default());
        };
        let Err(panic) = handle.join() else {
            unreachable!("the observer thread runs until its feed closes");
        };
        self.failure = Some(message_of(&*panic));
        resume_unwind(panic)
    }

    /// Sends the last items, closes the feed and joins the thread, which
    /// drops the observers; returns how the fold ended.
    fn close(mut self) -> std::thread::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Err(Box::new(self.failure.unwrap_or_default()));
        };
        if !self.batch.items.is_empty() {
            let _ = self.to_observers.send(self.batch);
        }
        drop(self.to_observers);
        handle.join()
    }
}

/// The message a panic was raised with.
fn message_of(panic: &(dyn Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|message| (*message).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "an observer panicked".to_string())
}

/// The hand-off to the observer thread plus the flight-recorder sequence
/// counter. Kept as one separable struct so the placement environment
/// can emit events while the rest of the simulation is mutably
/// borrowed.
pub(crate) struct EventSink {
    /// `None` until the first observer is attached.
    feed: Option<Feed>,
    /// Monotonic flight-recorder sequence. Numbers are 1-based so that
    /// 0 can double as "no causal parent" in scheduled events.
    next_seq: u64,
    /// True when at least one attached observer wants the typed event
    /// feed; with no recorder attached, emission sites pay one branch.
    pub(crate) tracing: bool,
}

impl EventSink {
    pub(crate) fn new() -> Self {
        EventSink {
            feed: None,
            next_seq: 0,
            tracing: false,
        }
    }

    /// Adds an observer, which sees every item emitted from now on; one
    /// whose [`Observer::wants_events`] returns `true` subscribes to the
    /// event feed and switches tracing on.
    pub(crate) fn attach(&mut self, observer: Box<dyn Observer>) {
        let wants_events = observer.wants_events();
        self.tracing |= wants_events;
        self.feed
            .get_or_insert_with(Feed::spawn)
            .push(Item::Attach {
                observer,
                wants_events,
            });
    }

    /// Whether any observer is attached, so served requests are fed.
    pub(crate) fn observed(&self) -> bool {
        self.feed.is_some()
    }

    /// Feeds one served request to every observer.
    pub(crate) fn served(&mut self, record: RequestRecord) {
        if let Some(feed) = &mut self.feed {
            feed.push(Item::Served(record));
        }
    }

    /// Waits until every observer has seen everything emitted so far.
    pub(crate) fn barrier(&mut self) {
        if let Some(feed) = &mut self.feed {
            feed.barrier();
        }
    }

    /// Lets the observers fold everything emitted, then joins their
    /// thread and re-raises an observer's panic. The observers are
    /// dropped, so nothing is fed after this.
    pub(crate) fn close(&mut self) {
        if let Some(Err(panic)) = self.feed.take().map(Feed::close) {
            resume_unwind(panic);
        }
    }

    /// Advances and returns the sequence counter.
    fn next(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// The hand-off; tracing implies an attached observer.
    fn feed(&mut self) -> &mut Feed {
        self.feed
            .as_mut()
            .expect("tracing implies an attached observer")
    }

    /// Emits one flight-recorder event to every subscribed observer and
    /// returns its sequence number — or 0 without side effects when
    /// tracing is off. `cause` is the parent's sequence number (0 for
    /// none). Callers should guard [`radar_obs::EventKind`]
    /// construction behind [`tracing`](Self::tracing) so the disabled
    /// path allocates nothing.
    pub(crate) fn emit(&mut self, t: f64, queue_depth: u32, cause: u64, kind: ObsEventKind) -> u64 {
        if !self.tracing {
            return 0;
        }
        let seq = self.next();
        self.feed().push(Item::Event(Event {
            seq,
            parent: (cause != 0).then_some(cause),
            t,
            queue_depth,
            kind,
        }));
        seq
    }

    /// Emits one [`ObsEventKind::Decision`] the caller filled and keeps:
    /// its candidates are copied into the batch's flat candidate buffer
    /// and the rest travels as an event with an empty candidate list, so
    /// `decision` keeps its buffer for the next redirect. Returns the
    /// sequence number, or 0 without side effects when tracing is off.
    pub(crate) fn emit_decision(
        &mut self,
        t: f64,
        queue_depth: u32,
        cause: u64,
        decision: &DecisionEvent,
    ) -> u64 {
        if !self.tracing {
            return 0;
        }
        let seq = self.next();
        let event = Event {
            seq,
            parent: (cause != 0).then_some(cause),
            t,
            queue_depth,
            kind: ObsEventKind::Decision(DecisionEvent {
                candidates: Vec::new(),
                ..*decision
            }),
        };
        let feed = self.feed();
        // Into the batch the decision lands in: pushing it may send that
        // batch off, never before its candidates are in.
        feed.batch
            .candidates
            .extend_from_slice(&decision.candidates);
        feed.push(Item::Decision(event, decision.candidates.len() as u32));
        seq
    }
}

impl Drop for EventSink {
    /// Lets the observers fold everything emitted, then joins their
    /// thread. An observer's panic is not raised again here: its thread
    /// has reported it, and a panic in a drop can abort the process.
    fn drop(&mut self) {
        if let Some(feed) = self.feed.take() {
            let _ = feed.close();
        }
    }
}
