//! The discrete-event kernel: a deterministic event heap and the
//! order-stable priority queue of waiting requests.
//!
//! Both structures exist to make simulation cost independent of how much
//! work is in flight, without giving up bitwise determinism:
//!
//! - [`EventQueue`] replaces the old per-step O(n) rescan of every
//!   in-flight completion with an O(log n) binary heap. Heaps only break
//!   ties deterministically if the ordering key is total, so events order
//!   by `(time, kind, card, request id, shard id)` with
//!   `Arrival < Completion < StepComplete < Preemption < Warmed <
//!   ScaleCheck < CardDeath < CardDegrade < CardRevive` — never
//!   by insertion order, which is an implementation accident. The
//!   extension points ride *after* `Completion` on purpose: a completion
//!   at the same instant must drain first, so a step boundary sees every
//!   sibling shard that drained with it, a preemption check never
//!   evicts a job that was already done, a warm-up or scaling check
//!   never beats the event that made the capacity decision, and a fault
//!   never claims a job that finished at the same instant.
//!   `StepComplete` takes the slot right after `Completion`: it is
//!   pushed at a fan-in instant and must requeue the decode remnant
//!   before any same-instant preemption, scaling, or fault logic runs.
//! - [`PriorityQueue`] keeps the waiting set ordered by
//!   [`Request::rank_key`]: class rank first, then request id. It stores
//!   only small slots (id, row index, work key) — one sorted lane per
//!   class, consumed from the front through a `head` cursor — so queue
//!   membership costs no `Request` copies. Head-of-lane removal (the
//!   overwhelmingly common dispatch path) is a cursor bump; mid-lane
//!   removal (an SJF pick, a preemption remnant merge) shifts one lane.
//!   A queue serving a shortest-job-first policy also keeps a per-class
//!   ordered index keyed by (expected remaining work, request id), so
//!   the SJF pick is the head lane's first index entry instead of a
//!   rescan of the class.
//!   The property the determinism tests lean on survives the layout:
//!   iteration order is a pure function of the queue's *contents*. Order
//!   stability matters because two requests of equal priority must
//!   dispatch in one fixed order (arrival order, via the monotone id) no
//!   matter how arrivals interleaved with completions; an equal-key heap
//!   or hash map would let the interleaving leak into the schedule and
//!   break same-seed reproducibility.
//!
//! Policies see the queue through [`QueueView`], a by-value window that
//! resolves row indices against the simulator's request rows on access —
//! no materialized `Vec<Request>` per event batch.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap};

use crate::request::Request;
use swat_workloads::RequestClass;

/// One waiting lane per request class, in rank order.
const LANE_COUNT: usize = RequestClass::ALL.len();

/// What happens at an event's timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Request `index` (into the caller's arrival-sorted slice) arrives.
    Arrival {
        /// Index into the request slice handed to the simulator.
        index: usize,
        /// The request's id, the arrival's tie-break.
        id: u64,
    },
    /// One shard of a dispatched request drains from its card. The event
    /// time is the shard's finish; the simulator's fan-in table decides
    /// whether this was the request's last outstanding shard (request
    /// completes) or whether siblings are still running. A shard id that
    /// no longer matches a live in-flight slot is a tombstone — the stale
    /// timer of a preempted shard — and is dropped at delivery.
    Completion {
        /// Card the shard ran on.
        card: usize,
        /// Id of the request the shard belongs to.
        id: u64,
        /// Shard id, unique within the request's lifetime (a request
        /// served whole is its own single shard, id 0).
        shard: u32,
        /// The request's row in the simulator's flight table, so
        /// delivery needs no id-to-row lookup. A row is reused once its
        /// request finishes, so a stale timer can find its row holding
        /// another request; the simulator checks `id` before trusting the
        /// row. Not part of the ordering key: `id` already breaks the tie,
        /// so which row a request holds cannot reorder events.
        index: u32,
    },
    /// A non-final decode step of request `id` fanned in at this instant
    /// (its last shard's completion pushed this event at the same
    /// timestamp), and the next step re-enters service: through the
    /// dispatch queue under continuous batching, or re-admitted in place
    /// under whole-job queueing. Sorts right after `Completion` so every
    /// completion at the instant — including the one that produced it —
    /// drains before the remnant requeues, and before any same-instant
    /// preemption, scaling, or fault event can observe the request
    /// without either a shard in flight or a queue slot. At most one is
    /// pending per request (a request runs one step at a time), so its
    /// zero shard id in the tie-break can never collide.
    StepComplete {
        /// Card whose shard drained last (the fan-in card) — the card a
        /// whole-job run re-admits the next step on.
        card: usize,
        /// Id of the request whose step finished.
        id: u64,
        /// The request's row (as `Completion::index`). The row stays the
        /// request's until this event is handled: it is pushed at the
        /// fan-in instant, and the request is still live.
        index: u32,
    },
    /// A preemption check: the request with this id has waited past the
    /// dispatcher's patience threshold. The simulator decides at delivery
    /// time whether the request is still queued and whether a background
    /// job is in flight to checkpoint-and-requeue; the event itself
    /// carries no victim (choosing one early would race with completions).
    Preemption {
        /// Id of the waiting request that armed the timer.
        id: u64,
    },
    /// A powered-up card finishes warming and becomes dispatchable. The
    /// event carries no state change — the card's `available_at` already
    /// encodes it — but it forces a dispatch pass at exactly the warm-up
    /// boundary instead of at the next arrival or completion.
    Warmed {
        /// The card that just became dispatchable.
        card: usize,
    },
    /// An autoscaler wake-up: an idle card becomes park-eligible at this
    /// instant. Like `Warmed` it carries no state change — the
    /// controller re-reads fleet state when it runs — but without it a
    /// quiet gap between arrivals would defer the park to the next
    /// arrival, silently overcharging idle energy for the whole gap.
    ScaleCheck,
    /// Card `card` fails: every in-flight shard on it is lost and its
    /// unfinished jobs requeue through the preemption/remnant machinery.
    /// Sorts after `ScaleCheck` so a completion at the same instant
    /// drains first — a job finishing exactly as the card dies counts as
    /// completed, never as lost.
    CardDeath {
        /// The card that fails.
        card: usize,
    },
    /// Card `card`'s calibration shifts: every future admission on it is
    /// stretched by `factor` (≥ 1 — e.g. a memory module dropping to a
    /// degraded rank). The shared cost model re-snapshots so planners
    /// and admission keep charging identical floats.
    CardDegrade {
        /// The card whose calibration shifts.
        card: usize,
        /// Multiplier applied to the card's service times.
        factor: f64,
    },
    /// A dead card is replaced/repaired: it rejoins the fleet cold
    /// (weights lost) after a warm-up, exactly like an autoscaler wake.
    CardRevive {
        /// The card that recovers.
        card: usize,
        /// Seconds before the revived card is dispatchable.
        warmup_s: f64,
    },
}

impl Event {
    /// Number of event kinds (the length of [`Event::KIND_NAMES`] and of
    /// the kernel's per-kind counters).
    pub const KIND_COUNT: usize = 9;

    /// Stable kind labels, indexed by [`Event::kind_index`] — tie-break
    /// order, the same order the heap delivers equal-time events in.
    pub const KIND_NAMES: [&'static str; Event::KIND_COUNT] = [
        "arrival",
        "completion",
        "step_complete",
        "preemption",
        "warmed",
        "scale_check",
        "card_death",
        "card_degrade",
        "card_revive",
    ];

    /// This event's kind index (the heap's equal-time tie-break rank;
    /// also the [`KernelCounters`](crate::trace::KernelCounters) slot).
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Arrival { .. } => 0,
            Event::Completion { .. } => 1,
            Event::StepComplete { .. } => 2,
            Event::Preemption { .. } => 3,
            Event::Warmed { .. } => 4,
            Event::ScaleCheck => 5,
            Event::CardDeath { .. } => 6,
            Event::CardDegrade { .. } => 7,
            Event::CardRevive { .. } => 8,
        }
    }

    /// The equal-time tie-break `(kind, card, request id, shard id)`,
    /// each field 0 where the kind carries none. The shard id is the
    /// final tie-break: two shards of one request on one card (a
    /// dual-pipeline split) can finish at the same instant.
    fn tie_key(&self) -> (u8, usize, u64, u32) {
        let kind = self.kind_index() as u8;
        match *self {
            Event::Arrival { id, .. } | Event::Preemption { id } => (kind, 0, id, 0),
            Event::Completion {
                card, id, shard, ..
            } => (kind, card, id, shard),
            Event::StepComplete { card, id, .. } => (kind, card, id, 0),
            Event::Warmed { card }
            | Event::CardDeath { card }
            | Event::CardDegrade { card, .. }
            | Event::CardRevive { card, .. } => (kind, card, 0, 0),
            Event::ScaleCheck => (kind, 0, 0, 0),
        }
    }
}

/// One heap entry with its ordering key.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: f64,
    /// [`Event::tie_key`], computed once at push.
    key: (u8, usize, u64, u32),
    event: Event,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.key.cmp(&other.key))
    }
}

/// A deterministic min-heap of future events.
///
/// Pops in `(time, Arrival < Completion < StepComplete < Preemption <
/// Warmed < ScaleCheck < CardDeath < CardDegrade < CardRevive, card
/// index, request id, shard id)` order — the fixed
/// tie-breaking the simulator's determinism contract is stated against.
/// Times must be finite.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn push(&mut self, time: f64, event: Event) {
        assert!(time.is_finite(), "event times must be finite");
        self.heap.push(Reverse(HeapEntry {
            time,
            key: event.tie_key(),
            event,
        }));
    }

    /// The timestamp of the next event, if any.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pops the next `(time, event)` in deterministic order.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }
}

/// One waiting request in a class lane.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Request id — the lane's sort key.
    id: u64,
    /// The request's row in the simulator's flight table.
    index: u32,
    /// The request's [`work_key`] at push time, so removal can find its
    /// work-index entry; 0 in an unindexed queue.
    work: u64,
}

/// The work index's key for a request's
/// [`Request::expected_remaining_work`]: an integer that sorts exactly
/// like `f64::total_cmp`. The mapping is a bijection, so equal keys mean
/// bitwise-equal work and the index ties exactly where the linear scan
/// ties. Plain `to_bits` would do for the non-negative work a validated
/// decode plan yields, but `Simulation::run` does not validate plans,
/// and an exit probability above 2 makes the expectation negative.
fn work_key(work: f64) -> u64 {
    let bits = work.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// One class's waiting requests sorted by id, live from `head` onward.
/// The consumed prefix is reclaimed lazily so a steady-state dispatch is
/// a cursor bump, not a memmove.
#[derive(Debug, Default)]
struct Lane {
    slots: Vec<Slot>,
    head: usize,
}

impl Lane {
    /// The live (still-waiting) slice in id order.
    fn live(&self) -> &[Slot] {
        &self.slots[self.head..]
    }

    /// Position of `id` within the live slice.
    fn position(&self, id: u64) -> Result<usize, usize> {
        self.live().binary_search_by_key(&id, |s| s.id)
    }

    /// Removes the live entry at `pos`, reclaiming the dead prefix when
    /// it dominates the buffer.
    fn remove_at(&mut self, pos: usize) -> Slot {
        let entry = if pos == 0 {
            let entry = self.slots[self.head];
            self.head += 1;
            entry
        } else {
            self.slots.remove(self.head + pos)
        };
        if self.head == self.slots.len() {
            self.slots.clear();
            self.head = 0;
        } else if self.head >= 32 && self.head * 2 >= self.slots.len() {
            self.slots.drain(..self.head);
            self.head = 0;
        }
        entry
    }
}

/// The waiting-request queue, ordered by `(class rank, request id)`.
///
/// Stores row indices, not `Request` values: the simulator's flight
/// table owns the records (one row per queued or in-flight request,
/// recycled once the request finishes) and the queue only orders
/// membership. Policies receive the queue as a [`QueueView`] over those
/// rows, so higher classes always occupy the front and arrival order is
/// preserved within a class. See the module docs for why this order
/// *stability* is load-bearing for determinism.
///
/// A queue built by [`PriorityQueue::with_work_index`] also keeps, per
/// class, an ordered set of `(work key, request id)` — the key is
/// [`Request::expected_remaining_work`] mapped to an order-preserving
/// integer when the request is pushed — so
/// [`QueueView::shortest_in_head_class`] answers in O(log n) instead of
/// scanning the head class. Each push, take and removal pays one ordered
/// set update for it, so the simulator builds the index only for
/// policies that rank by remaining work
/// ([`DispatchPolicy::ranks_by_remaining_work`](crate::policy::DispatchPolicy::ranks_by_remaining_work)).
#[derive(Debug, Default)]
pub struct PriorityQueue {
    lanes: [Lane; LANE_COUNT],
    by_work: Option<[BTreeSet<(u64, u64)>; LANE_COUNT]>,
    len: usize,
}

impl PriorityQueue {
    /// An empty queue without the work index.
    pub fn new() -> PriorityQueue {
        PriorityQueue::default()
    }

    /// An empty queue that keeps the per-class work index behind
    /// [`QueueView::shortest_in_head_class`].
    pub fn with_work_index() -> PriorityQueue {
        PriorityQueue {
            by_work: Some(Default::default()),
            ..PriorityQueue::default()
        }
    }

    /// Waiting requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues the request stored at row `index`.
    ///
    /// Appends in O(1) for the common monotone-id arrival stream; a
    /// requeued preemption remnant (id below the lane tail) pays one
    /// in-lane shift to keep the lane sorted. On a work-indexed queue the
    /// request's current expected remaining work becomes its index key
    /// until it leaves the queue.
    ///
    /// # Panics
    ///
    /// Panics if a request with the same id and class is already queued
    /// (ids must be unique for the dispatch order to be total).
    pub fn push(&mut self, request: &Request, index: u32) {
        let class = request.class.rank() as usize;
        let lane = &mut self.lanes[class];
        let Err(pos) = lane.position(request.id) else {
            panic!("duplicate request id {} in the queue", request.id);
        };
        let work = match &mut self.by_work {
            Some(by_work) => {
                let work = work_key(request.expected_remaining_work());
                by_work[class].insert((work, request.id));
                work
            }
            None => 0,
        };
        lane.slots.insert(
            lane.head + pos,
            Slot {
                id: request.id,
                index,
                work,
            },
        );
        self.len += 1;
    }

    /// Whether a request with this [`Request::rank_key`] is still waiting
    /// — how the simulator decides if a preemption timer's request is
    /// still in the queue when the timer fires.
    pub fn contains(&self, key: (u8, u64)) -> bool {
        self.lanes[key.0 as usize].position(key.1).is_ok()
    }

    /// Removes the queued request with this [`Request::rank_key`] and
    /// returns its row, if present — how a second preempted shard
    /// of one request merges into its already-queued remnant instead of
    /// colliding with it.
    pub fn remove(&mut self, key: (u8, u64)) -> Option<u32> {
        let class = key.0 as usize;
        let pos = self.lanes[class].position(key.1).ok()?;
        Some(self.remove_at(class, pos))
    }

    /// Removes the request at `index` of the dispatch order (the order a
    /// [`QueueView`] iterates in) and returns its row.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn take(&mut self, index: usize) -> u32 {
        let mut at = index;
        for class in 0..LANE_COUNT {
            let live = self.lanes[class].live().len();
            if at < live {
                return self.remove_at(class, at);
            }
            at -= live;
        }
        panic!("queue index {index} out of range");
    }

    /// Removes the live entry at `pos` of lane `class`, with its
    /// work-index entry, and returns its row.
    fn remove_at(&mut self, class: usize, pos: usize) -> u32 {
        let slot = self.lanes[class].remove_at(pos);
        if let Some(by_work) = &mut self.by_work {
            let indexed = by_work[class].remove(&(slot.work, slot.id));
            debug_assert!(indexed, "request {} missing from the work index", slot.id);
        }
        self.len -= 1;
        slot.index
    }

    /// The queue in dispatch order as a by-value window over the request
    /// rows — no per-event materialization.
    pub fn view<'a>(&'a self, requests: &'a [Request]) -> QueueView<'a> {
        let lanes = std::array::from_fn(|i| self.lanes[i].live());
        QueueView {
            kind: ViewKind::Ranked {
                requests,
                lanes,
                by_work: self.by_work.as_ref(),
            },
            len: self.len,
        }
    }
}

/// A read-only, by-value window over the waiting queue in dispatch order
/// (class rank, then request id).
///
/// Policies index and iterate it like a slice; entries resolve to
/// `&Request` in the simulator's request rows. [`QueueView::flat`] wraps
/// a plain ordered slice — the form reference implementations and tests
/// use.
#[derive(Debug, Clone, Copy)]
pub struct QueueView<'a> {
    kind: ViewKind<'a>,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
enum ViewKind<'a> {
    /// Per-class lanes over the request rows, with the queue's work
    /// index when it keeps one.
    Ranked {
        requests: &'a [Request],
        lanes: [&'a [Slot]; LANE_COUNT],
        by_work: Option<&'a [BTreeSet<(u64, u64)>; LANE_COUNT]>,
    },
    /// A plain slice already in dispatch order.
    Flat(&'a [Request]),
}

impl<'a> QueueView<'a> {
    /// A view over a slice that is already in dispatch order.
    pub fn flat(requests: &'a [Request]) -> QueueView<'a> {
        QueueView {
            kind: ViewKind::Flat(requests),
            len: requests.len(),
        }
    }

    /// Waiting requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The request at `index` of the dispatch order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> &'a Request {
        match self.kind {
            ViewKind::Flat(requests) => &requests[index],
            ViewKind::Ranked {
                requests, lanes, ..
            } => {
                let mut at = index;
                for lane in lanes {
                    if at < lane.len() {
                        return &requests[lane[at].index as usize];
                    }
                    at -= lane.len();
                }
                panic!("queue index {index} out of range");
            }
        }
    }

    /// The head of the queue — the next request dispatched by an
    /// in-order policy.
    pub fn first(&self) -> Option<&'a Request> {
        (self.len > 0).then(|| self.get(0))
    }

    /// The shortest-job-first pick: the request with the smallest
    /// [`Request::expected_remaining_work`] within the highest waiting
    /// class, ties to the earliest in dispatch order, with its position
    /// in the view. `None` on an empty queue.
    ///
    /// A view of a work-indexed queue ([`PriorityQueue::with_work_index`])
    /// takes the head lane's smallest index entry and finds its position
    /// by binary search on id: O(log n). Any other view — a
    /// [`QueueView::flat`] slice or an unindexed queue — scans the head
    /// class, which is also the reference every indexed pick is checked
    /// against in debug builds.
    pub fn shortest_in_head_class(&self) -> Option<(usize, &'a Request)> {
        let ViewKind::Ranked {
            requests,
            lanes,
            by_work: Some(by_work),
        } = self.kind
        else {
            return self.scan_shortest_in_head_class();
        };
        // The head lane is the first non-empty one, so a position within
        // it is also its position in the view.
        let class = lanes.iter().position(|lane| !lane.is_empty())?;
        let &(_, id) = by_work[class]
            .first()
            .expect("every queued request is indexed");
        let pos = lanes[class]
            .binary_search_by_key(&id, |s| s.id)
            .expect("every indexed request is queued");
        let pick = &requests[lanes[class][pos].index as usize];
        debug_assert_eq!(
            self.scan_shortest_in_head_class().map(|(i, r)| (i, r.id)),
            Some((pos, pick.id)),
            "work index diverged from the head-class scan"
        );
        Some((pos, pick))
    }

    /// [`QueueView::shortest_in_head_class`] by linear scan: walks the
    /// head class, recomputing each entry's expected remaining work.
    fn scan_shortest_in_head_class(&self) -> Option<(usize, &'a Request)> {
        let head_class = self.first()?.class;
        self.iter()
            .enumerate()
            .take_while(|(_, r)| r.class == head_class)
            .min_by(|(i, a), (j, b)| {
                a.expected_remaining_work()
                    .total_cmp(&b.expected_remaining_work())
                    .then(i.cmp(j))
            })
    }

    /// Iterates the queue in dispatch order.
    pub fn iter(&self) -> QueueIter<'a> {
        QueueIter {
            view: *self,
            pos: 0,
        }
    }
}

impl<'a> IntoIterator for QueueView<'a> {
    type Item = &'a Request;
    type IntoIter = QueueIter<'a>;

    fn into_iter(self) -> QueueIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`QueueView`] in dispatch order.
#[derive(Debug, Clone)]
pub struct QueueIter<'a> {
    view: QueueView<'a>,
    pos: usize,
}

impl<'a> Iterator for QueueIter<'a> {
    type Item = &'a Request;

    fn next(&mut self) -> Option<&'a Request> {
        if self.pos >= self.view.len {
            return None;
        }
        let request = self.view.get(self.pos);
        self.pos += 1;
        Some(request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.view.len - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for QueueIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_workloads::{RequestClass, RequestShape};

    fn shape() -> RequestShape {
        RequestShape {
            seq_len: 512,
            heads: 8,
            layers: 6,
            batch: 1,
        }
    }

    /// A completion of request `id`'s shard `shard` on `card`, stored at
    /// arena index `id`.
    fn completion(card: usize, id: u64, shard: u32) -> Event {
        Event::Completion {
            card,
            id,
            shard,
            index: id as u32,
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, completion(0, 0, 0));
        q.push(1.0, Event::Arrival { index: 1, id: 1 });
        q.push(2.0, completion(1, 2, 0));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_arrival_then_card_then_id_then_shard() {
        let mut q = EventQueue::new();
        q.push(1.0, completion(1, 9, 0));
        q.push(1.0, completion(0, 4, 1));
        q.push(1.0, completion(0, 4, 0));
        q.push(1.0, completion(0, 2, 0));
        q.push(1.0, Event::Arrival { index: 7, id: 7 });
        assert_eq!(q.len(), 5);
        let order: Vec<(u8, usize, u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival { id, .. } => (0, 0, id, 0),
                Event::Completion {
                    card, id, shard, ..
                } => (1, card, id, shard),
                Event::StepComplete { card, id, .. } => (2, card, id, 0),
                Event::Preemption { id } => (3, 0, id, 0),
                Event::Warmed { card } => (4, card, 0, 0),
                Event::ScaleCheck => (5, 0, 0, 0),
                Event::CardDeath { card } => (6, card, 0, 0),
                Event::CardDegrade { card, .. } => (7, card, 0, 0),
                Event::CardRevive { card, .. } => (8, card, 0, 0),
            })
            .collect();
        assert_eq!(
            order,
            [
                (0, 0, 7, 0),
                (1, 0, 2, 0),
                (1, 0, 4, 0),
                (1, 0, 4, 1),
                (1, 1, 9, 0)
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn preemption_and_warmup_sort_after_completions() {
        // The first six kinds at one instant: arrivals first, then
        // completions, then step boundaries, then preemption checks,
        // then warm-ups, then scaling checks — so a step boundary sees
        // every sibling completion drained, a finished job is never
        // chosen as a preemption victim, and capacity controllers see
        // settled state.
        let mut q = EventQueue::new();
        q.push(1.0, Event::ScaleCheck);
        q.push(1.0, Event::Warmed { card: 3 });
        q.push(1.0, Event::Preemption { id: 9 });
        q.push(
            1.0,
            Event::StepComplete {
                card: 0,
                id: 5,
                index: 5,
            },
        );
        q.push(1.0, completion(0, 5, 0));
        q.push(1.0, Event::Arrival { index: 0, id: 2 });
        let kinds: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| e.kind_index())
            .collect();
        assert_eq!(kinds, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn faults_sort_after_every_other_kind_at_one_instant() {
        // A completion at the exact instant of a card death drains first
        // (a job finishing as the card dies counts as completed), and a
        // revival of another card orders after the death — so degraded-
        // mode dispatch always sees settled capacity.
        let mut q = EventQueue::new();
        q.push(
            1.0,
            Event::CardRevive {
                card: 2,
                warmup_s: 2.0,
            },
        );
        q.push(
            1.0,
            Event::CardDegrade {
                card: 1,
                factor: 1.5,
            },
        );
        q.push(1.0, Event::CardDeath { card: 0 });
        q.push(1.0, Event::ScaleCheck);
        q.push(1.0, completion(0, 5, 0));
        q.push(1.0, Event::Arrival { index: 0, id: 2 });
        let kinds: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| e.kind_index())
            .collect();
        assert_eq!(kinds, [0, 1, 5, 6, 7, 8]);
        // Equal-time deaths order by card index.
        let mut q = EventQueue::new();
        q.push(2.0, Event::CardDeath { card: 3 });
        q.push(2.0, Event::CardDeath { card: 1 });
        let cards: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::CardDeath { card } => card,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(cards, [1, 3]);
    }

    #[test]
    fn tie_order_is_independent_of_insertion_order() {
        let entries = [(2.0, 1usize, 3u64), (2.0, 0, 1), (2.0, 0, 2)];
        let drain = |order: &[usize]| -> Vec<u64> {
            let mut q = EventQueue::new();
            for &i in order {
                let (t, card, id) = entries[i];
                q.push(t, completion(card, id, 0));
            }
            std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::Completion { id, .. } => id,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(drain(&[0, 1, 2]), drain(&[2, 1, 0]));
        assert_eq!(drain(&[1, 2, 0]), vec![1, 2, 3]);
    }

    #[test]
    fn priority_queue_orders_class_then_arrival() {
        let requests = [
            Request::classed(0, 0.0, shape(), RequestClass::Background),
            Request::classed(1, 0.1, shape(), RequestClass::Interactive),
            Request::classed(2, 0.2, shape(), RequestClass::Batch),
            Request::classed(3, 0.3, shape(), RequestClass::Interactive),
        ];
        let mut q = PriorityQueue::new();
        for (i, r) in requests.iter().enumerate() {
            q.push(r, i as u32);
        }
        let ids: Vec<u64> = q.view(&requests).iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 3, 2, 0], "class rank first, id within class");
    }

    #[test]
    fn out_of_order_ids_keep_id_order_within_a_lane() {
        // A requeued preemption remnant re-enters its lane with an id
        // below later arrivals; the lane must stay id-sorted.
        let requests = [
            Request::classed(3, 0.3, shape(), RequestClass::Background),
            Request::classed(1, 0.1, shape(), RequestClass::Background),
            Request::classed(2, 0.2, shape(), RequestClass::Background),
        ];
        let mut q = PriorityQueue::new();
        for (i, r) in requests.iter().enumerate() {
            q.push(r, i as u32);
        }
        let ids: Vec<u64> = q.view(&requests).iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3]);
    }

    #[test]
    fn take_removes_by_view_index() {
        let requests = [
            Request::classed(0, 0.0, shape(), RequestClass::Batch),
            Request::classed(1, 0.0, shape(), RequestClass::Interactive),
            Request::classed(2, 0.0, shape(), RequestClass::Background),
        ];
        let mut q = PriorityQueue::new();
        q.push(&requests[0], 0);
        q.push(&requests[1], 1);
        // View order is [id 1 (interactive), id 0 (batch)].
        let taken = q.take(1);
        assert_eq!(taken, 0, "arena index of the batch request");
        assert_eq!(q.len(), 1);
        assert_eq!(q.view(&requests).get(0).id, 1);
        q.push(&requests[2], 2);
        let head = q.take(0);
        assert_eq!(head, 1, "arena index of the interactive head");
        assert_eq!(q.view(&requests).first().map(|r| r.id), Some(2));
    }

    #[test]
    fn remove_by_key_takes_the_exact_request() {
        let requests = [
            Request::classed(0, 0.0, shape(), RequestClass::Batch),
            Request::classed(1, 0.0, shape(), RequestClass::Interactive),
        ];
        let mut q = PriorityQueue::new();
        q.push(&requests[0], 0);
        q.push(&requests[1], 1);
        assert!(q.contains(requests[0].rank_key()));
        assert_eq!(q.remove(requests[0].rank_key()), Some(0));
        assert_eq!(q.remove(requests[0].rank_key()), None, "already gone");
        assert!(!q.contains(requests[0].rank_key()));
        assert_eq!(q.len(), 1);
        assert_eq!(q.view(&requests).get(0).id, 1);
    }

    #[test]
    fn head_reclamation_preserves_order() {
        // Drain enough heads to trigger lane compaction, interleaved
        // with fresh pushes; the dispatch order must stay id-sorted.
        let requests: Vec<Request> = (0..128)
            .map(|i| Request::new(i as u64, i as f64, shape()))
            .collect();
        let mut q = PriorityQueue::new();
        for (i, r) in requests.iter().enumerate().take(96) {
            q.push(r, i as u32);
        }
        for i in 0..64 {
            assert_eq!(q.take(0), i as u32);
        }
        for (i, r) in requests.iter().enumerate().skip(96) {
            q.push(r, i as u32);
        }
        let ids: Vec<u64> = q.view(&requests).iter().map(|r| r.id).collect();
        let expect: Vec<u64> = (64..128).collect();
        assert_eq!(ids, expect);
        assert_eq!(q.len(), 64);
    }

    #[test]
    #[should_panic(expected = "duplicate request id")]
    fn duplicate_ids_rejected() {
        let requests = [Request::new(5, 0.0, shape()), Request::new(5, 1.0, shape())];
        let mut q = PriorityQueue::new();
        q.push(&requests[0], 0);
        q.push(&requests[1], 1);
    }

    /// A request of `class` whose one-step work is `seq_len` tokens per
    /// job, running `steps` certain (no-exit) decode steps.
    fn decoding(id: u64, seq_len: usize, steps: u32, class: RequestClass) -> Request {
        Request::classed(id, 0.0, RequestShape { seq_len, ..shape() }, class).with_decode(
            swat_workloads::DecodePlan {
                steps,
                exit_prob: 0.0,
                exit_seed: id,
            },
        )
    }

    /// The SJF pick of `q` over `requests` as (view position, id).
    fn pick(q: &PriorityQueue, requests: &[Request]) -> Option<(usize, u64)> {
        q.view(requests)
            .shortest_in_head_class()
            .map(|(i, r)| (i, r.id))
    }

    #[test]
    fn work_index_ties_go_to_the_lowest_id() {
        // Three equal-work requests around a bigger one, pushed out of id
        // order: the pick is the lowest id, then the next lowest.
        let requests = [
            decoding(7, 512, 1, RequestClass::Interactive),
            decoding(3, 512, 1, RequestClass::Interactive),
            decoding(1, 2048, 1, RequestClass::Interactive),
            decoding(5, 512, 1, RequestClass::Interactive),
        ];
        let mut q = PriorityQueue::with_work_index();
        for (i, r) in requests.iter().enumerate() {
            q.push(r, i as u32);
        }
        // Dispatch order is ids [1, 3, 5, 7].
        assert_eq!(pick(&q, &requests), Some((1, 3)));
        assert_eq!(q.take(1), 1, "arena index of id 3");
        assert_eq!(pick(&q, &requests), Some((1, 5)));
        assert_eq!(q.take(1), 3, "arena index of id 5");
        assert_eq!(pick(&q, &requests), Some((1, 7)));
        assert_eq!(q.take(1), 0, "arena index of id 7");
        assert_eq!(pick(&q, &requests), Some((0, 1)), "the big one is last");
        q.take(0);
        assert_eq!(pick(&q, &requests), None);
    }

    #[test]
    fn requeued_decode_remnant_ranks_by_its_new_key() {
        // Ids 0 (one-shot, 1024 tokens/job), 2 (four 512-token steps) and
        // 4 (two 1024-token steps). Fresh, id 2 owes twice id 0's work.
        let mut requests = [
            decoding(0, 1024, 1, RequestClass::Interactive),
            decoding(2, 512, 4, RequestClass::Interactive),
            decoding(4, 1024, 2, RequestClass::Interactive),
        ];
        let mut q = PriorityQueue::with_work_index();
        for (i, r) in requests.iter().enumerate() {
            q.push(r, i as u32);
        }
        assert_eq!(pick(&q, &requests), Some((0, 0)));
        // Id 2 dispatches and runs three steps; its remnant re-enters
        // mid-lane owing one 512-token step — now the smallest.
        assert_eq!(q.take(1), 1);
        requests[1].steps_done = 3;
        q.push(&requests[1], 1);
        assert_eq!(pick(&q, &requests), Some((1, 2)));
        let flat = [requests[0], requests[1], requests[2]];
        assert_eq!(
            QueueView::flat(&flat)
                .shortest_in_head_class()
                .map(|(i, r)| (i, r.id)),
            Some((1, 2)),
            "the flat scan agrees"
        );
    }

    #[test]
    fn remove_by_rank_key_drops_the_index_entry() {
        let requests = [
            decoding(0, 2048, 1, RequestClass::Background),
            decoding(1, 512, 1, RequestClass::Background),
            decoding(2, 1024, 1, RequestClass::Background),
        ];
        let mut q = PriorityQueue::with_work_index();
        for (i, r) in requests.iter().enumerate() {
            q.push(r, i as u32);
        }
        assert_eq!(pick(&q, &requests), Some((1, 1)));
        // A preemption merge or card death pulls the queued remnant out
        // by key: the pick must move on, not name the departed request.
        assert_eq!(q.remove(requests[1].rank_key()), Some(1));
        assert_eq!(pick(&q, &requests), Some((1, 2)));
        // Re-pushing the merged remnant under the same id re-indexes it.
        q.push(&requests[1], 1);
        assert_eq!(pick(&q, &requests), Some((1, 1)));
        for r in &requests {
            assert!(q.remove(r.rank_key()).is_some());
        }
        assert_eq!(pick(&q, &requests), None, "an emptied queue picks nothing");
    }

    #[test]
    fn higher_class_arrival_switches_the_head_lane() {
        let requests = [
            decoding(0, 512, 1, RequestClass::Batch),
            decoding(1, 256, 1, RequestClass::Batch),
            decoding(2, 8192, 1, RequestClass::Interactive),
            decoding(3, 128, 1, RequestClass::Background),
        ];
        let mut q = PriorityQueue::with_work_index();
        q.push(&requests[3], 3);
        assert_eq!(pick(&q, &requests), Some((0, 3)));
        q.push(&requests[0], 0);
        q.push(&requests[1], 1);
        assert_eq!(
            pick(&q, &requests),
            Some((1, 1)),
            "batch outranks background"
        );
        // A big interactive arrival takes the head lane despite its size.
        q.push(&requests[2], 2);
        assert_eq!(pick(&q, &requests), Some((0, 2)));
        assert_eq!(q.take(0), 2);
        assert_eq!(pick(&q, &requests), Some((1, 1)), "back to the batch lane");
    }

    #[test]
    fn unindexed_queue_gives_the_same_pick() {
        let mut requests: Vec<Request> = (0..24u64)
            .map(|id| {
                let class = RequestClass::ALL[(id % 3) as usize];
                decoding(id, 256 << (id * 7 % 4), 1 + (id * 5 % 4) as u32, class)
            })
            .collect();
        let mut indexed = PriorityQueue::with_work_index();
        let mut plain = PriorityQueue::new();
        for (i, r) in requests.iter().enumerate() {
            indexed.push(r, i as u32);
            plain.push(r, i as u32);
        }
        // Dispatch every pick; every third one comes back as a remnant
        // one step further on.
        for round in 0..40 {
            let expect = pick(&plain, &requests);
            assert_eq!(pick(&indexed, &requests), expect, "round {round}");
            let Some((qi, _)) = expect else { break };
            let a = indexed.take(qi);
            assert_eq!(plain.take(qi), a);
            let r = &mut requests[a as usize];
            if round % 3 == 0 && r.steps_done + 1 < r.decode.steps {
                r.steps_done += 1;
                indexed.push(r, a);
                plain.push(r, a);
            }
        }
        assert!(plain.is_empty() && indexed.is_empty());
    }

    #[test]
    fn work_key_sorts_like_total_cmp() {
        let values = [0.0, 1.0, 1.5, 2.0, 1e300, f64::INFINITY, -0.0, -3.0];
        for a in values {
            for b in values {
                assert_eq!(work_key(a).cmp(&work_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }
}
