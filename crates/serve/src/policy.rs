//! Pluggable dispatch policies.
//!
//! The simulator calls [`DispatchPolicy::choose`] whenever queue or fleet
//! state changes; the policy picks which waiting request goes to which
//! pipelines next, or returns `None` to wait (it **must** return `None`
//! when no card has an idle pipeline — a policy never displaces running
//! work; only the simulator's [`PreemptionControl`](crate::sim::PreemptionControl)
//! does). Policies see only [`CardView`] snapshots, so they cannot depend
//! on simulator internals, and anything implementing the trait plugs into
//! [`Simulation::run`](crate::sim::Simulation::run) unchanged.
//!
//! The queue handed to a policy is **priority-ordered**: higher classes
//! first, arrival order within a class (see
//! [`crate::event::PriorityQueue`], viewed through
//! [`crate::event::QueueView`] — a by-value window over the
//! simulator's request rows, so no queue is materialized per decision).
//! A policy that serves `queue.get(0)` is
//! therefore automatically priority-aware. Since fleets may be
//! heterogeneous, every policy compares cards through
//! [`CardView::service_estimate`] — the calibrated per-card service-time
//! estimate — instead of assuming all cards are equally fast. On a
//! homogeneous fleet the estimates tie on every card and each policy
//! reduces exactly to its classic symmetric form.
//!
//! Every decision is a **plan**: because a request's
//! `batch × layers × heads` attention jobs are independent, a policy can
//! fan one request out across several idle pipelines — on one card or
//! spanning cards within one group — and the request completes when its
//! last shard drains. A one-entry plan is whole-request dispatch.
//! [`LeastLoaded`] and [`ShortestJobFirst`] carry a `max_shards` cap
//! (default 1, the whole-request form); `fifo` and `head-affinity` always
//! return one-entry plans (head-affinity's whole point is keeping a
//! family on one home card).
//!
//! Above one shard, plans are priced against the shared predictive
//! [`CostModel`]: by default the policy picks the fan-out **width** that
//! minimizes the plan's predicted fan-in time plus a queue-pressure term
//! ([`adaptive_shard_targets`]) instead of always fanning to
//! `max_shards`, so fan-out backs off automatically when the queue is
//! deep or the card's memory interface saturates. The `fixed`
//! constructors keep the always-fan-to-`max_shards` behaviour as a
//! baseline.

use crate::cost::CostModel;
use crate::event::QueueView;
use crate::request::Request;
use swat_workloads::RequestShape;

/// What a policy may observe about one card at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardView {
    /// Card index.
    pub card: usize,
    /// Index of the card's [`CardGroup`](crate::fleet::CardGroup).
    pub group: usize,
    /// Pipelines on this card.
    pub pipelines: usize,
    /// Pipelines idle right now.
    pub idle_pipelines: usize,
    /// Committed pipeline-seconds of work beyond now.
    pub backlog_seconds: f64,
    /// Shard dispatches to this card so far (equals requests served for
    /// whole-request policies; a split request counts once per shard).
    pub served: u64,
    /// Calibrated isolated service seconds per attended token on this
    /// card ([`Card::seconds_per_token`](crate::fleet::Card)): how
    /// policies rank cards of different groups.
    pub seconds_per_token: f64,
    /// The model family whose weights are resident on the card (`None`
    /// on a cold or freshly woken card). The [`CostModel`] uses it to
    /// price which shards of a plan pay a weight swap.
    pub resident: Option<(usize, usize)>,
}

impl CardView {
    /// Estimated isolated service time of `shape` on this card — the
    /// per-card number heterogeneous-aware policies minimize.
    pub fn service_estimate(&self, shape: &RequestShape) -> f64 {
        self.seconds_per_token * shape.work_tokens() as f64
    }
}

/// A dispatch decision: the queued request at the first index fans out
/// across the listed cards, one shard per entry (an entry may repeat a
/// card — two pipelines of a dual card; a one-entry plan is whole-request
/// dispatch). All entries must share one card group, so within one
/// dispatch every shard runs the same design and the fan-in is not
/// dominated by a slower-precision straggler. The invariant is per
/// *plan*, not per request lifetime: a preempted remnant may later resume
/// on a different group than its still-running siblings — capacity now
/// beats group affinity for work that already lost its slot once.
pub type ShardedDispatch = (usize, Vec<usize>);

/// Chooses the next dispatch plan.
pub trait DispatchPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Picks the next dispatch plan, or `None` to wait for state to
    /// change. `queue` is priority-ordered (class rank, then arrival);
    /// `cards` is indexed by card id; `cost` is the fleet's shared
    /// predictive [`CostModel`], which policies use to price candidate
    /// plans. The simulator enforces the [`ShardedDispatch`] contract:
    /// non-empty plan, one idle pipeline per entry, all entries in one
    /// card group. Plans longer than the request's remaining jobs are
    /// truncated (a shard carries at least one job).
    fn choose(
        &mut self,
        now: f64,
        queue: QueueView<'_>,
        cards: &[CardView],
        cost: &CostModel,
    ) -> Option<ShardedDispatch>;

    /// Whether the policy picks through
    /// [`QueueView::shortest_in_head_class`]. The simulator reads this
    /// once per run and keeps the waiting queue's work index only when it
    /// is `true` (see [`crate::event::PriorityQueue::with_work_index`]);
    /// any other policy would pay for index updates it never reads.
    fn ranks_by_remaining_work(&self) -> bool {
        false
    }
}

/// The total order "which idle card finishes `shape` soonest": smallest
/// committed backlog plus estimated service time, ties to the lowest
/// card index. The one comparator behind both [`soonest_idle`] and
/// [`shard_targets`], so the whole-request pick and the sharded plan's
/// first entry can never drift apart.
fn finish_rank(a: &CardView, b: &CardView, shape: &RequestShape) -> std::cmp::Ordering {
    (a.backlog_seconds + a.service_estimate(shape))
        .total_cmp(&(b.backlog_seconds + b.service_estimate(shape)))
        .then(a.card.cmp(&b.card))
}

/// The idle card that would finish `shape` soonest (by [`finish_rank`]),
/// or `None` if every pipeline is busy. On a homogeneous fleet the
/// estimate is the same on every card, so this reduces to classic
/// join-the-least-loaded-queue.
fn soonest_idle(cards: &[CardView], shape: &RequestShape) -> Option<usize> {
    cards
        .iter()
        .filter(|c| c.idle_pipelines > 0)
        .min_by(|a, b| finish_rank(a, b, shape))
        .map(|c| c.card)
}

/// Checks a fan-out cap; the sharded constructors panic with its `Err`.
///
/// # Errors
///
/// Returns a diagnostic if `max_shards` is zero.
pub fn check_shards(max_shards: usize) -> Result<(), String> {
    if max_shards == 0 {
        return Err("policy max_shards must be at least 1".to_string());
    }
    Ok(())
}

/// Up to `max_shards` idle pipelines for `shape`, soonest-finishing
/// first by the same backlog-plus-estimate rank whole-request dispatch
/// uses — the fixed-width shard plan. All entries stay within one card
/// group: the group of the soonest-finishing idle card, which is also
/// always the plan's first entry (the card whole-request dispatch would
/// have picked), so `max_shards == 1` is exactly that pick.
/// Returns `None` when every pipeline is busy.
pub fn shard_targets(
    cards: &[CardView],
    shape: &RequestShape,
    max_shards: usize,
) -> Option<Vec<usize>> {
    assert!(max_shards > 0, "a dispatch needs at least one shard");
    let mut idle: Vec<&CardView> = cards.iter().filter(|c| c.idle_pipelines > 0).collect();
    idle.sort_by(|a, b| finish_rank(a, b, shape));
    let group = idle.first()?.group;
    // Sized by what the group can fill, not by the cap, which may be far
    // past the fleet.
    let plan = idle
        .iter()
        .filter(|c| c.group == group)
        .flat_map(|c| std::iter::repeat_n(c.card, c.idle_pipelines))
        .take(max_shards)
        .collect();
    Some(plan)
}

/// The cost-aware shard plan: the [`shard_targets`] fill order,
/// truncated to the **width** that minimizes the plan's predicted price
/// under the shared [`CostModel`]:
///
/// ```text
/// score(w) = fan_in(w) + waiting × busy(w) / total_pipelines
/// ```
///
/// `fan_in(w)` is the predicted completion of the plan's slowest shard
/// (contention the plan itself induces, swap and restart stalls
/// included) and `busy(w)` the pipeline-seconds the plan consumes;
/// `waiting` is how many requests remain queued behind this one, so the
/// second term prices the delay the plan imposes on each of them
/// (`busy / total_pipelines` fleet-seconds apiece). On an idle fleet the
/// pressure term vanishes and the plan fans as wide as it helps; under a
/// deep queue or a saturating memory interface, wide plans inflate
/// `busy(w)` (and eventually `fan_in(w)`) and the width backs off — the
/// contention-blind alternative always fanned to `max_shards`. Ties
/// break to the narrowest width (frees pipelines at no predicted cost).
///
/// The candidate widths are prefixes of the [`shard_targets`] fill
/// order, so the width-1 plan is exactly the whole-request pick.
/// Returns `None` when every pipeline is busy.
///
/// Because each decode step dispatches separately (a step boundary
/// requeues the remnant under continuous batching), the width is
/// re-chosen **per step**: a decode may fan wide while the fleet is
/// idle and narrow automatically as arrivals pile up mid-decode.
pub fn adaptive_shard_targets(
    cards: &[CardView],
    request: &Request,
    waiting: usize,
    max_shards: usize,
    cost: &CostModel,
    now: f64,
) -> Option<Vec<usize>> {
    let mut plan = shard_targets(cards, &request.shape, max_shards)?;
    let total_pipelines: usize = cards.iter().map(|c| c.pipelines).sum();
    let mut best = (1usize, f64::INFINITY);
    for w in 1..=plan.len() {
        let priced = cost.price_plan(request, &plan[..w], cards, now);
        if priced.width < w {
            // Capped by the remaining job count: wider candidates price
            // identically, so the search is done.
            break;
        }
        let score =
            (priced.fan_in - now) + waiting as f64 * priced.busy_seconds / total_pipelines as f64;
        if score < best.1 {
            best = (w, score);
        }
    }
    plan.truncate(best.0);
    Some(plan)
}

/// The plan for `request` under a `max_shards` cap, with `waiting`
/// requests queued behind it. A cap of 1 returns [`soonest_idle`] as a
/// one-entry plan without pricing any width — bitwise what
/// `shard_targets(.., 1)` and every adaptive search over it return, at a
/// fraction of the work on the common whole-request path. Wider caps
/// take [`adaptive_shard_targets`], or [`shard_targets`] when `adaptive`
/// is off.
fn capped_plan(
    cards: &[CardView],
    request: &Request,
    waiting: usize,
    max_shards: usize,
    adaptive: bool,
    cost: &CostModel,
    now: f64,
) -> Option<Vec<usize>> {
    if max_shards == 1 {
        Some(vec![soonest_idle(cards, &request.shape)?])
    } else if adaptive {
        adaptive_shard_targets(cards, request, waiting, max_shards, cost, now)
    } else {
        shard_targets(cards, &request.shape, max_shards)
    }
}

/// First come, first served, onto the fastest idle card (ties to the
/// lowest index — on a homogeneous fleet this is exactly "the first card
/// with a free pipeline"). The baseline every queueing intuition starts
/// from; head-of-line blocking under heavy-tailed request mixes is its
/// known failure mode. Always a one-entry plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl DispatchPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn choose(
        &mut self,
        _now: f64,
        queue: QueueView<'_>,
        cards: &[CardView],
        _cost: &CostModel,
    ) -> Option<ShardedDispatch> {
        if queue.is_empty() {
            return None;
        }
        let card = cards
            .iter()
            .filter(|c| c.idle_pipelines > 0)
            .min_by(|a, b| {
                a.seconds_per_token
                    .total_cmp(&b.seconds_per_token)
                    .then(a.card.cmp(&b.card))
            })?
            .card;
        Some((0, vec![card]))
    }
}

/// First come, first served, onto the idle card with the smallest
/// backlog-plus-service estimate — classic join-the-least-loaded-queue,
/// generalized to fleets where cards differ in speed.
///
/// With `max_shards` above 1 the head request's independent attention
/// jobs split across up to that many idle pipelines of one card group
/// (soonest-finishing pipelines first), completing at its last shard.
/// The width is **adaptive** by default — [`adaptive_shard_targets`]
/// fans only as wide as the predicted price justifies;
/// [`LeastLoaded::fixed`] keeps the contention-blind
/// always-fan-to-`max_shards` baseline. The default cap of 1 is
/// whole-request dispatch and reports as `least-loaded`; wider caps
/// report as `least-loaded-sharded` (adaptive) or
/// `least-loaded-sharded-fixed`.
#[derive(Debug, Clone, Copy)]
pub struct LeastLoaded {
    /// Most pipelines one request may fan out across (at least 1).
    pub max_shards: usize,
    /// Whether a width above 1 is chosen by predicted cost (the default)
    /// or always fanned to `max_shards`.
    pub adaptive: bool,
}

impl Default for LeastLoaded {
    /// Whole-request dispatch: `max_shards = 1`.
    fn default() -> LeastLoaded {
        LeastLoaded::new(1)
    }
}

impl LeastLoaded {
    /// Least-loaded dispatch fanning out up to `max_shards`, choosing
    /// each dispatch's width by predicted cost.
    ///
    /// # Panics
    ///
    /// Panics if `max_shards` is zero.
    pub fn new(max_shards: usize) -> LeastLoaded {
        check_shards(max_shards).unwrap_or_else(|e| panic!("{e}"));
        LeastLoaded {
            max_shards,
            adaptive: true,
        }
    }

    /// The fixed-width baseline: always fan to `max_shards` (or as many
    /// idle pipelines as the group has), however deep the queue or
    /// saturated the memory interface.
    ///
    /// # Panics
    ///
    /// Panics if `max_shards` is zero.
    pub fn fixed(max_shards: usize) -> LeastLoaded {
        LeastLoaded {
            adaptive: false,
            ..LeastLoaded::new(max_shards)
        }
    }
}

impl DispatchPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        match (self.max_shards, self.adaptive) {
            (1, _) => "least-loaded",
            (_, true) => "least-loaded-sharded",
            (_, false) => "least-loaded-sharded-fixed",
        }
    }

    fn choose(
        &mut self,
        now: f64,
        queue: QueueView<'_>,
        cards: &[CardView],
        cost: &CostModel,
    ) -> Option<ShardedDispatch> {
        let request = queue.first()?;
        let waiting = queue.len() - 1;
        let plan = capped_plan(
            cards,
            request,
            waiting,
            self.max_shards,
            self.adaptive,
            cost,
            now,
        )?;
        Some((0, plan))
    }
}

/// Serves the smallest waiting request first (by expected remaining
/// decode work — attended tokens per step times early-exit-weighted
/// remaining steps, a card-independent work proxy), onto the card that
/// would finish it soonest. Minimizes mean latency at the cost of starving large
/// documents under pressure — the classic SJF trade, visible directly in
/// the p99/p50 gap. Only reorders *within* the highest waiting class, so
/// a tiny background job never jumps an interactive one.
///
/// "Small" is *predicted remaining decode work*
/// ([`Request::expected_remaining_work`]): remaining steps weighted by
/// the early-exit survival curve, times the per-step token grid. For
/// one-shot requests that value is exactly `work_tokens() as f64`, so
/// the classic ranking is preserved bitwise; for decode remnants
/// requeued at a step boundary it lets a short fresh request overtake a
/// long decode mid-flight — the reordering continuous batching needs to
/// win on interactive p99. Ties go to the earliest request in dispatch
/// order.
///
/// The pick is [`QueueView::shortest_in_head_class`]: O(log n) in the
/// simulator, whose queue keeps a work index for this policy
/// ([`DispatchPolicy::ranks_by_remaining_work`]), and a scan of the head
/// class over a [`QueueView::flat`] slice. With no idle pipeline the
/// policy returns `None` before picking.
///
/// `max_shards` and `adaptive` fan the pick out exactly as they do for
/// [`LeastLoaded`]; the default cap of 1 reports as
/// `shortest-job-first`, wider caps as `shortest-job-first-sharded` or
/// `shortest-job-first-sharded-fixed`.
#[derive(Debug, Clone, Copy)]
pub struct ShortestJobFirst {
    /// Most pipelines one request may fan out across (at least 1).
    pub max_shards: usize,
    /// Whether a width above 1 is chosen by predicted cost (the default)
    /// or always fanned to `max_shards`.
    pub adaptive: bool,
}

impl Default for ShortestJobFirst {
    /// Whole-request dispatch: `max_shards = 1`.
    fn default() -> ShortestJobFirst {
        ShortestJobFirst::new(1)
    }
}

impl ShortestJobFirst {
    /// SJF dispatch fanning out up to `max_shards`, choosing each
    /// dispatch's width by predicted cost.
    ///
    /// # Panics
    ///
    /// Panics if `max_shards` is zero.
    pub fn new(max_shards: usize) -> ShortestJobFirst {
        check_shards(max_shards).unwrap_or_else(|e| panic!("{e}"));
        ShortestJobFirst {
            max_shards,
            adaptive: true,
        }
    }

    /// The fixed-width baseline: always fan to `max_shards`.
    ///
    /// # Panics
    ///
    /// Panics if `max_shards` is zero.
    pub fn fixed(max_shards: usize) -> ShortestJobFirst {
        ShortestJobFirst {
            adaptive: false,
            ..ShortestJobFirst::new(max_shards)
        }
    }
}

impl DispatchPolicy for ShortestJobFirst {
    fn name(&self) -> &'static str {
        match (self.max_shards, self.adaptive) {
            (1, _) => "shortest-job-first",
            (_, true) => "shortest-job-first-sharded",
            (_, false) => "shortest-job-first-sharded-fixed",
        }
    }

    fn choose(
        &mut self,
        now: f64,
        queue: QueueView<'_>,
        cards: &[CardView],
        cost: &CostModel,
    ) -> Option<ShardedDispatch> {
        // No idle pipeline: skip the pick, so a dispatch round's closing,
        // failing call costs one pass over the cards.
        if cards.iter().all(|c| c.idle_pipelines == 0) {
            return None;
        }
        let (qi, request) = queue.shortest_in_head_class()?;
        let waiting = queue.len() - 1;
        let plan = capped_plan(
            cards,
            request,
            waiting,
            self.max_shards,
            self.adaptive,
            cost,
            now,
        )?;
        Some((qi, plan))
    }

    fn ranks_by_remaining_work(&self) -> bool {
        true
    }
}

/// Routes each (heads, layers) model family to a preferred home card —
/// standing in for weight/KV-cache residency, where scattering one model
/// across all cards wastes on-card memory — and falls back to the card
/// that would finish soonest when the home is busy. Always a one-entry
/// plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeadAffinity;

impl HeadAffinity {
    /// The home card for a model family.
    pub fn home_card(heads: usize, layers: usize, cards: usize) -> usize {
        // SplitMix64-style finalizer over the family key: spreads the
        // handful of (heads, layers) pairs evenly over any fleet size.
        let mut z = (heads as u64) << 32 | layers as u64;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % cards as u64) as usize
    }
}

impl DispatchPolicy for HeadAffinity {
    fn name(&self) -> &'static str {
        "head-affinity"
    }

    fn choose(
        &mut self,
        _now: f64,
        queue: QueueView<'_>,
        cards: &[CardView],
        _cost: &CostModel,
    ) -> Option<ShardedDispatch> {
        let request = queue.first()?;
        let home = HeadAffinity::home_card(request.shape.heads, request.shape.layers, cards.len());
        if cards[home].idle_pipelines > 0 {
            return Some((0, vec![home]));
        }
        Some((0, vec![soonest_idle(cards, &request.shape)?]))
    }
}

/// How much slower the home card's priced single-shard finish may be
/// (relative to the best idle card's) before [`SessionAffinity`] gives up
/// stickiness and defects. 1.5 keeps a conversation home through ordinary
/// load imbalance — residency is worth a moderately later finish — but
/// lets a turn escape a card that a degrade or a cold weight swap has
/// made substantially worse.
const DEFECTION_MARGIN: f64 = 1.5;

/// Sticky session→card residency: the first turn of a conversation binds
/// the session to the card that would finish it soonest, and later turns
/// go home while the home card has an idle pipeline — standing in for
/// per-conversation KV/context residency, where every defection pays a
/// context re-stream. Three pressures can move a session:
///
/// - **home busy** (no idle pipeline, which includes a dead card — the
///   simulator zeroes a dead card's idle pipelines): the turn falls back
///   to the soonest-finishing idle card and the binding migrates with it;
/// - **priced defection**: the shared [`CostModel`] prices the turn on
///   the home card against the best idle card — swap stalls and degrade
///   factors included — and the turn defects when home costs more than
///   `DEFECTION_MARGIN` (1.5)× the alternative;
/// - **capacity pressure**: each card holds at most `capacity_per_card`
///   bindings; binding one more evicts the card's least-recently-used
///   session (its next turn re-binds wherever dispatch sends it).
///
/// Sessionless requests (`session == 0`) take the whole-request
/// [`LeastLoaded`] path bit-for-bit, so this policy over an untagged
/// trace reproduces `least-loaded` exactly (modulo the report's policy
/// name) — the reduction the chaos suite pins. Always a one-entry plan.
/// Deliberately not in [`all_policies`]: it only differs from
/// `least-loaded` on session-tagged traffic, which the standard sweeps do
/// not carry.
#[derive(Debug, Clone)]
pub struct SessionAffinity {
    /// Most sessions one card keeps resident state for (≥ 1).
    pub capacity_per_card: usize,
    /// `(session, card, last-use sequence)`, sorted by session id.
    bindings: Vec<(u64, usize, u64)>,
    /// Monotone use counter driving the LRU eviction order.
    seq: u64,
}

impl SessionAffinity {
    /// An affinity policy keeping up to `capacity_per_card` sessions
    /// resident per card.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_per_card` is zero.
    pub fn new(capacity_per_card: usize) -> SessionAffinity {
        SessionAffinity::check_capacity(capacity_per_card).unwrap_or_else(|e| panic!("{e}"));
        SessionAffinity {
            capacity_per_card,
            bindings: Vec::new(),
            seq: 0,
        }
    }

    /// Checks a per-card session capacity; [`new`](SessionAffinity::new)
    /// panics with its `Err`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if `capacity_per_card` is zero.
    pub fn check_capacity(capacity_per_card: usize) -> Result<(), String> {
        if capacity_per_card == 0 {
            return Err("policy capacity_per_card must be at least 1".to_string());
        }
        Ok(())
    }

    /// The card `session` is currently bound to, if any.
    pub fn home(&self, session: u64) -> Option<usize> {
        self.bindings
            .binary_search_by_key(&session, |b| b.0)
            .ok()
            .map(|i| self.bindings[i].1)
    }

    /// Sessions currently bound (across all cards).
    pub fn bound_sessions(&self) -> usize {
        self.bindings.len()
    }

    /// Records that `session` was just served on `card`, migrating or
    /// creating its binding and evicting the card's least-recently-used
    /// session beyond capacity.
    fn bind(&mut self, session: u64, card: usize) {
        self.seq += 1;
        match self.bindings.binary_search_by_key(&session, |b| b.0) {
            Ok(i) => {
                self.bindings[i].1 = card;
                self.bindings[i].2 = self.seq;
            }
            Err(i) => {
                self.bindings.insert(i, (session, card, self.seq));
                let on_card = self.bindings.iter().filter(|b| b.1 == card).count();
                if on_card > self.capacity_per_card {
                    let lru = self
                        .bindings
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| b.1 == card)
                        .min_by_key(|(_, b)| b.2)
                        .map(|(j, _)| j)
                        .expect("the card holds at least the new binding");
                    self.bindings.remove(lru);
                }
            }
        }
    }
}

impl DispatchPolicy for SessionAffinity {
    fn name(&self) -> &'static str {
        "session-affinity"
    }

    fn choose(
        &mut self,
        now: f64,
        queue: QueueView<'_>,
        cards: &[CardView],
        cost: &CostModel,
    ) -> Option<ShardedDispatch> {
        let request = *queue.first()?;
        let fallback = soonest_idle(cards, &request.shape)?;
        if request.session == 0 {
            return Some((0, vec![fallback]));
        }
        let pick = match self.home(request.session) {
            Some(home) if cards[home].idle_pipelines > 0 && home != fallback => {
                let home_cost = cost.price_plan(&request, &[home], cards, now).fan_in - now;
                let fall_cost = cost.price_plan(&request, &[fallback], cards, now).fan_in - now;
                if home_cost <= DEFECTION_MARGIN * fall_cost {
                    home
                } else {
                    fallback
                }
            }
            Some(home) if cards[home].idle_pipelines > 0 => home,
            _ => fallback,
        };
        self.bind(request.session, pick);
        Some((0, vec![pick]))
    }
}

/// Every built-in policy in its whole-request form, boxed, for sweeps.
pub fn all_policies() -> Vec<Box<dyn DispatchPolicy>> {
    vec![
        Box::new(Fifo),
        Box::new(LeastLoaded::default()),
        Box::new(ShortestJobFirst::default()),
        Box::new(HeadAffinity),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_workloads::RequestClass;

    fn view(card: usize, idle: usize, backlog: f64) -> CardView {
        CardView {
            card,
            group: 0,
            pipelines: 2,
            idle_pipelines: idle,
            backlog_seconds: backlog,
            served: 0,
            seconds_per_token: 1e-6,
            resident: None,
        }
    }

    /// A cost model over `cards` standard dual-pipeline HBM2 cards —
    /// enough structure for plan pricing against the synthetic views.
    fn model(cards: usize) -> CostModel {
        CostModel::for_fleet(&crate::fleet::FleetConfig::standard(cards).build().unwrap())
    }

    /// A single dual-pipeline card on a memory interface that one
    /// pipeline fits but two oversubscribe (~1.4× stretch), so plan
    /// prices actually feel co-location.
    fn starved_model() -> CostModel {
        let cfg = crate::fleet::FleetConfig {
            groups: vec![crate::fleet::CardGroup::new(
                1,
                swat::SwatConfig::bigbird_dual_fp16(),
                swat_hw::MemoryInterface::new(1.6e9),
            )],
            host_link: swat_hw::MemoryInterface::pcie4_x16(),
        };
        CostModel::for_fleet(&cfg.build().unwrap())
    }

    fn request(id: u64, seq_len: usize) -> Request {
        Request::new(
            id,
            0.0,
            RequestShape {
                seq_len,
                heads: 8,
                layers: 2,
                batch: 1,
            },
        )
    }

    #[test]
    fn all_policies_wait_when_fleet_is_full() {
        let queue = [request(0, 1024)];
        let cards = [view(0, 0, 5.0), view(1, 0, 1.0)];
        let cost = model(2);
        let mut policies = all_policies();
        policies.push(Box::new(LeastLoaded::new(3)));
        policies.push(Box::new(ShortestJobFirst::fixed(3)));
        for mut p in policies {
            assert_eq!(
                p.choose(0.0, QueueView::flat(&queue), &cards, &cost),
                None,
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn all_policies_wait_on_empty_queue() {
        let cards = [view(0, 2, 0.0)];
        let cost = model(1);
        let mut policies = all_policies();
        policies.push(Box::new(LeastLoaded::fixed(3)));
        policies.push(Box::new(ShortestJobFirst::new(3)));
        for mut p in policies {
            assert_eq!(
                p.choose(0.0, QueueView::flat(&[]), &cards, &cost),
                None,
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn fifo_takes_first_free_card() {
        let queue = [request(0, 1024), request(1, 512)];
        let cards = [view(0, 0, 0.1), view(1, 1, 9.0), view(2, 2, 0.0)];
        assert_eq!(
            Fifo.choose(0.0, QueueView::flat(&queue), &cards, &model(3)),
            Some((0, vec![1]))
        );
    }

    #[test]
    fn fifo_prefers_the_faster_card_on_mixed_fleets() {
        // Card 1 is FP32-slow, card 2 FP16-fast: FIFO routes to the fast
        // one even though the slow card has the lower index.
        let queue = [request(0, 1024)];
        let mut slow = view(1, 1, 0.0);
        slow.seconds_per_token = 2e-6;
        let cards = [view(0, 0, 0.0), slow, view(2, 1, 4.0)];
        assert_eq!(
            Fifo.choose(0.0, QueueView::flat(&queue), &cards, &model(3)),
            Some((0, vec![2]))
        );
    }

    #[test]
    fn least_loaded_balances() {
        let queue = [request(0, 1024)];
        let cards = [view(0, 1, 3.0), view(1, 1, 1.0), view(2, 1, 2.0)];
        assert_eq!(
            LeastLoaded::default().choose(0.0, QueueView::flat(&queue), &cards, &model(3)),
            Some((0, vec![1]))
        );
    }

    #[test]
    fn least_loaded_weighs_card_speed() {
        // An empty slow card loses to a lightly-loaded fast card once the
        // service-time difference outweighs the backlog difference.
        let r = request(0, 8192); // 16 jobs × 8192 tokens = 131072 work tokens
        let work = r.shape.work_tokens() as f64;
        let mut slow = view(0, 1, 0.0);
        slow.seconds_per_token = 5e-6; // estimate 5e-6 × work
        let mut fast = view(1, 1, 0.0);
        fast.seconds_per_token = 1e-6;
        fast.backlog_seconds = 1e-6 * work; // backlog + estimate still smaller
        assert_eq!(
            LeastLoaded::default().choose(0.0, QueueView::flat(&[r]), &[slow, fast], &model(2)),
            Some((0, vec![1]))
        );
    }

    #[test]
    fn sjf_reorders_the_queue() {
        let queue = [request(0, 8192), request(1, 512), request(2, 2048)];
        let cards = [view(0, 1, 0.0)];
        assert_eq!(
            ShortestJobFirst::default().choose(0.0, QueueView::flat(&queue), &cards, &model(1)),
            Some((1, vec![0]))
        );
        // Sharded SJF keeps the within-class reorder; the fixed baseline
        // always fans to the cap, the adaptive one prices the widths but
        // its plan is a prefix of the same fill order.
        let queue = [request(0, 8192), request(1, 512)];
        let cards = [view(0, 1, 3.0), view(1, 1, 1.0)];
        let cost = model(2);
        assert_eq!(
            ShortestJobFirst::fixed(2).choose(0.0, QueueView::flat(&queue), &cards, &cost),
            Some((1, vec![1, 0]))
        );
        let (qi, plan) = ShortestJobFirst::new(2)
            .choose(0.0, QueueView::flat(&queue), &cards, &cost)
            .unwrap();
        assert_eq!(qi, 1);
        assert!(plan == vec![1] || plan == vec![1, 0]);
    }

    #[test]
    fn sjf_ranks_by_expected_remaining_decode_work() {
        use swat_workloads::DecodePlan;
        // A small shape with a deep decode plan owes more predicted work
        // than a bigger one-shot request — SJF must look past the
        // per-step grid. 512 × 16 jobs ≈ tiny per step, but 8 certain
        // steps outweigh one 2048-token step.
        let deep = request(0, 512).with_decode(DecodePlan {
            steps: 8,
            exit_prob: 0.0,
            exit_seed: 0,
        });
        let one_shot = request(1, 2048);
        let cards = [view(0, 1, 0.0)];
        let cost = model(1);
        let mut sjf = ShortestJobFirst::default();
        assert_eq!(
            sjf.choose(0.0, QueueView::flat(&[deep, one_shot]), &cards, &cost),
            Some((1, vec![0])),
            "expected remaining steps dominate the per-step size"
        );
        // A near-certain early exit collapses the expectation back down.
        let exiting = Request {
            decode: DecodePlan {
                exit_prob: 0.99,
                ..deep.decode
            },
            ..deep
        };
        assert_eq!(
            sjf.choose(
                0.0,
                QueueView::flat(&[exiting, request(1, 2048)]),
                &cards,
                &cost
            ),
            Some((0, vec![0])),
            "early exit discounts future steps"
        );
    }

    #[test]
    fn sjf_never_crosses_a_class_boundary() {
        // Queue is priority-ordered: a big interactive request ahead of a
        // tiny background one. SJF must stay within the interactive prefix.
        let big = request(0, 8192);
        let tiny = Request::classed(
            1,
            0.0,
            RequestShape {
                seq_len: 512,
                heads: 8,
                layers: 2,
                batch: 1,
            },
            RequestClass::Background,
        );
        let cards = [view(0, 1, 0.0)];
        assert_eq!(
            ShortestJobFirst::default().choose(
                0.0,
                QueueView::flat(&[big, tiny]),
                &cards,
                &model(1)
            ),
            Some((0, vec![0])),
            "background work must not jump the interactive class"
        );
    }

    #[test]
    fn affinity_prefers_home_then_falls_back() {
        let r = request(0, 1024);
        let queue = [r];
        let cost = model(3);
        let home = HeadAffinity::home_card(r.shape.heads, r.shape.layers, 3);
        let mut cards = vec![view(0, 1, 0.0), view(1, 1, 0.0), view(2, 1, 0.0)];
        assert_eq!(
            HeadAffinity.choose(0.0, QueueView::flat(&queue), &cards, &cost),
            Some((0, vec![home]))
        );
        // Home busy: fall back to the soonest-finishing idle card.
        cards[home].idle_pipelines = 0;
        cards[(home + 1) % 3].backlog_seconds = 5.0;
        let expect = (home + 2) % 3;
        assert_eq!(
            HeadAffinity.choose(0.0, QueueView::flat(&queue), &cards, &cost),
            Some((0, vec![expect]))
        );
    }

    #[test]
    fn shard_targets_fill_soonest_pipelines_within_one_group() {
        let r = request(0, 1024);
        // Card 1 is least loaded, card 0 next; card 2 is another group.
        let mut other_group = view(2, 2, 0.0);
        other_group.group = 1;
        let cards = [view(0, 2, 1.0), view(1, 1, 0.0), other_group];
        let plan = shard_targets(&cards, &r.shape, 4).unwrap();
        assert_eq!(plan, [1, 0, 0], "soonest first, never across groups");
        // max_shards caps the fan-out; 1 reduces to whole-request.
        assert_eq!(shard_targets(&cards, &r.shape, 2).unwrap(), [1, 0]);
        assert_eq!(shard_targets(&cards, &r.shape, 1).unwrap(), [1]);
        // Full fleet: no plan.
        let busy = [view(0, 0, 1.0)];
        assert_eq!(shard_targets(&busy, &r.shape, 3), None);
    }

    #[test]
    fn sharded_policies_reduce_to_their_whole_request_forms() {
        use crate::scenario::{FleetSpec, PolicySpec, ScenarioSpec};
        // 1. Every spec builds a policy reporting the name it always has;
        //    a one-shard cap reports the whole-request name.
        let sharded = |max_shards, adaptive| {
            [
                PolicySpec::ShardedLeastLoaded {
                    max_shards,
                    adaptive,
                },
                PolicySpec::ShardedShortestJobFirst {
                    max_shards,
                    adaptive,
                },
            ]
        };
        let names: Vec<(PolicySpec, &str)> = vec![
            (PolicySpec::Fifo, "fifo"),
            (PolicySpec::LeastLoaded, "least-loaded"),
            (PolicySpec::ShortestJobFirst, "shortest-job-first"),
            (PolicySpec::HeadAffinity, "head-affinity"),
            (sharded(4, true)[0], "least-loaded-sharded"),
            (sharded(4, false)[0], "least-loaded-sharded-fixed"),
            (sharded(4, true)[1], "shortest-job-first-sharded"),
            (sharded(4, false)[1], "shortest-job-first-sharded-fixed"),
            (sharded(1, true)[0], "least-loaded"),
            (sharded(1, false)[0], "least-loaded"),
            (sharded(1, true)[1], "shortest-job-first"),
            (sharded(1, false)[1], "shortest-job-first"),
            (
                PolicySpec::SessionAffinity {
                    capacity_per_card: 4,
                },
                "session-affinity",
            ),
        ];
        for (spec, name) in names {
            assert_eq!(spec.build().name(), name, "{spec:?}");
        }

        // 2. `new(1)`, `fixed(1)` and the default plan identically: one
        //    entry, the soonest-finishing idle card, in queue order (LL)
        //    or in SJF order.
        let queue = [request(0, 8192), request(1, 512)];
        let cost = model(3);
        for cards in [
            [view(0, 1, 3.0), view(1, 1, 1.0), view(2, 2, 2.0)],
            [view(0, 2, 0.0), view(1, 0, 0.0), view(2, 1, 0.5)],
            [view(0, 0, 0.0), view(1, 0, 0.0), view(2, 0, 0.0)],
        ] {
            let expect = soonest_idle(&cards, &queue[0].shape).map(|c| (0, vec![c]));
            for mut p in [
                LeastLoaded::default(),
                LeastLoaded::new(1),
                LeastLoaded::fixed(1),
            ] {
                assert_eq!(
                    p.choose(0.0, QueueView::flat(&queue), &cards, &cost),
                    expect
                );
            }
            let expect = soonest_idle(&cards, &queue[1].shape).map(|c| (1, vec![c]));
            for mut p in [
                ShortestJobFirst::default(),
                ShortestJobFirst::new(1),
                ShortestJobFirst::fixed(1),
            ] {
                assert_eq!(
                    p.choose(0.0, QueueView::flat(&queue), &cards, &cost),
                    expect
                );
            }
        }

        // 3. A one-shard sharded spec's report is byte-identical to the
        //    whole-request spec's, policy name included, on a loaded
        //    fleet where dispatch decisions actually compete.
        let run = |policy| {
            ScenarioSpec {
                fleet: FleetSpec::standard(3),
                arrivals: crate::arrival::ArrivalProcess::poisson(300.0),
                policy,
                seed: 7,
                requests: 250,
                ..ScenarioSpec::default()
            }
            .run()
            .expect("valid spec")
            .to_json()
            .pretty()
        };
        let least_loaded = run(PolicySpec::LeastLoaded);
        let sjf = run(PolicySpec::ShortestJobFirst);
        for adaptive in [true, false] {
            let [ll_one, sjf_one] = sharded(1, adaptive);
            assert_eq!(run(ll_one), least_loaded);
            assert_eq!(run(sjf_one), sjf);
        }
    }

    #[test]
    fn adaptive_width_backs_off_under_queue_pressure_and_contention() {
        let cost = starved_model();
        let cards = [view(0, 2, 0.0)];
        let r = request(0, 8192);
        // Empty queue: fan-in rules. Co-locating both pipelines pays the
        // ~1.4× contention stretch but still halves the job chain.
        assert_eq!(
            adaptive_shard_targets(&cards, &r, 0, 2, &cost, 0.0).unwrap(),
            [0, 0]
        );
        // Deep queue: the stretched pipeline-seconds the wide plan burns
        // delay everyone waiting — width backs off to 1. The fixed plan
        // builder stays contention-blind by construction.
        assert_eq!(
            adaptive_shard_targets(&cards, &r, 64, 2, &cost, 0.0).unwrap(),
            [0]
        );
        assert_eq!(shard_targets(&cards, &r.shape, 2).unwrap(), [0, 0]);
        // On an uncontended fleet the pressure term never penalizes
        // within-card fan-out (same busy seconds), so width stays wide
        // even under pressure.
        let hbm = model(1);
        assert_eq!(
            adaptive_shard_targets(&cards, &r, 64, 2, &hbm, 0.0).unwrap(),
            [0, 0]
        );
    }

    #[test]
    fn adaptive_width_stops_spanning_cold_cards_when_swaps_dominate() {
        // The request's family is resident on card 0 but not on card 1,
        // and its weight stack is heavy next to its compute: spanning to
        // the cold card stalls the far shards behind a swap longer than
        // the fan-in it buys. The planner keeps the fan-out on the warm
        // card.
        let cost = model(2);
        let r = Request::new(
            0,
            0.0,
            RequestShape {
                seq_len: 512,
                heads: 16, // heavy weights (∝ heads²), light compute
                layers: 2,
                batch: 1,
            },
        );
        let swap = cost.card(1).swap_seconds(&r.shape);
        let half = cost.card(0).job_seconds(&r.shape, 2) * (r.shape.jobs() / 4) as f64;
        assert!(swap > half, "premise: the swap outweighs the fan-in gain");
        let mut cards = [view(0, 2, 0.0), view(1, 2, 0.0)];
        cards[0].resident = Some(r.shape.family());
        let plan = adaptive_shard_targets(&cards, &r, 0, 4, &cost, 0.0).unwrap();
        assert_eq!(plan, [0, 0], "the cold second card is not worth a swap");
        // With the family resident everywhere, the swap objection
        // vanishes and the plan spans.
        cards[1].resident = Some(r.shape.family());
        let plan = adaptive_shard_targets(&cards, &r, 0, 4, &cost, 0.0).unwrap();
        assert_eq!(plan, [0, 0, 1, 1]);
    }

    #[test]
    fn home_cards_spread_across_fleet() {
        let homes: std::collections::BTreeSet<usize> =
            [(8, 6), (8, 12), (12, 6), (12, 12), (16, 24)]
                .iter()
                .map(|&(h, l)| HeadAffinity::home_card(h, l, 4))
                .collect();
        assert!(
            homes.len() >= 2,
            "families must not all share one card: {homes:?}"
        );
    }

    #[test]
    fn session_affinity_reduces_to_least_loaded_on_sessionless_traffic() {
        // Untagged requests must take the least-loaded path pick-for-pick
        // — the reduction the chaos suite pins at the report level.
        let cost = model(3);
        for backlogs in [[0.0, 3.0, 1.0], [5.0, 0.5, 2.0], [1.0, 1.0, 1.0]] {
            let queue = [request(0, 2048), request(1, 512)];
            let cards = [
                view(0, 1, backlogs[0]),
                view(1, 2, backlogs[1]),
                view(2, 1, backlogs[2]),
            ];
            let mut affinity = SessionAffinity::new(4);
            assert_eq!(
                affinity.choose(0.0, QueueView::flat(&queue), &cards, &cost),
                LeastLoaded::default().choose(0.0, QueueView::flat(&queue), &cards, &cost)
            );
            assert_eq!(affinity.bound_sessions(), 0, "session 0 never binds");
        }
    }

    #[test]
    fn session_affinity_sticks_to_home_while_it_has_an_idle_pipeline() {
        let mut p = SessionAffinity::new(4);
        // First turn: no binding yet, lands on the soonest card (1, the
        // lighter backlog) and binds there.
        let turn = [request(0, 1024).with_session(7)];
        let cost = model(2);
        let cards = [view(0, 2, 4.0), view(1, 2, 1.0)];
        assert_eq!(
            p.choose(0.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![1]))
        );
        assert_eq!(p.home(7), Some(1));
        // Later turn: card 0 is now the lighter card, but home still has
        // an idle pipeline and nothing prices it past the defection
        // margin (homogeneous cards, cold or warm alike), so the session
        // stays put.
        let mut cards = [view(0, 2, 0.0), view(1, 1, 6.0)];
        assert_eq!(
            p.choose(9.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![1]))
        );
        assert_eq!(p.home(7), Some(1));
        cards[0].resident = Some(turn[0].shape.family());
        cards[1].resident = Some(turn[0].shape.family());
        assert_eq!(
            p.choose(9.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![1]))
        );
    }

    #[test]
    fn session_affinity_migrates_when_home_is_busy_or_dead() {
        let mut p = SessionAffinity::new(4);
        let turn = [request(0, 1024).with_session(3)];
        let cost = model(2);
        let cards = [view(0, 2, 2.0), view(1, 2, 0.0)];
        assert_eq!(
            p.choose(0.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![1]))
        );
        // Home (card 1) loses its pipelines — a saturated or dead card
        // looks the same to the policy: zero idle pipelines. The turn
        // falls back to the soonest idle card and the binding follows.
        let cards = [view(0, 2, 2.0), view(1, 0, 0.0)];
        assert_eq!(
            p.choose(5.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![0]))
        );
        assert_eq!(p.home(3), Some(0), "the binding migrates with the turn");
        // Whole fleet full: the policy waits rather than inventing a slot.
        let cards = [view(0, 0, 2.0), view(1, 0, 0.0)];
        assert_eq!(p.choose(6.0, QueueView::flat(&turn), &cards, &cost), None);
    }

    #[test]
    fn session_affinity_evicts_the_lru_binding_under_capacity_pressure() {
        let mut p = SessionAffinity::new(2);
        let cards = [view(0, 2, 0.0)];
        let cost = model(1);
        let serve = |p: &mut SessionAffinity, id, session, now| {
            let turn = [request(id, 512).with_session(session)];
            p.choose(now, QueueView::flat(&turn), &cards, &cost)
        };
        for session in 1..=3u64 {
            assert_eq!(serve(&mut p, session, session, 0.0), Some((0, vec![0])));
        }
        // Capacity 2 on the only card: binding session 3 evicted the
        // least-recently-used session (1); 2 and 3 remain resident.
        assert_eq!(p.bound_sessions(), 2);
        assert_eq!(p.home(1), None, "LRU session evicted");
        assert_eq!(p.home(2), Some(0));
        assert_eq!(p.home(3), Some(0));
        // Re-touching session 2 before a new arrival protects it: now 3
        // is the LRU and gets evicted instead.
        assert_eq!(serve(&mut p, 9, 2, 1.0), Some((0, vec![0])));
        assert_eq!(serve(&mut p, 10, 4, 2.0), Some((0, vec![0])));
        assert_eq!(p.home(3), None);
        assert_eq!(p.home(2), Some(0));
        assert_eq!(p.home(4), Some(0));
    }

    #[test]
    fn session_affinity_defects_when_the_home_swap_dominates() {
        // Heavy weights next to light compute (as in the adaptive-width
        // cold-card test): serving the turn on the cold home card pays a
        // swap that prices it past the defection margin, while the warm
        // fallback serves immediately. The priced path defects and the
        // binding migrates.
        let cost = model(2);
        let r = Request::new(
            0,
            0.0,
            RequestShape {
                seq_len: 128, // light compute next to heads² weights
                heads: 16,
                layers: 2,
                batch: 1,
            },
        )
        .with_session(11);
        let swap = cost.card(1).swap_seconds(&r.shape);
        let service = cost.card(0).job_seconds(&r.shape, 1) * r.shape.jobs() as f64;
        assert!(
            swap > (super::DEFECTION_MARGIN - 1.0) * service,
            "premise: the swap prices the cold home past the margin"
        );
        let mut p = SessionAffinity::new(4);
        // Bind the session to card 1 while card 0 is saturated.
        let turn = [r];
        let cards = [view(0, 0, 0.0), view(1, 2, 0.0)];
        assert_eq!(
            p.choose(0.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![1]))
        );
        // Next turn: both cards idle, the family resident only on card 0.
        // Home (1) is cold — the swap-burdened price defects the turn.
        let mut cards = [view(0, 2, 0.0), view(1, 2, 0.0)];
        cards[0].resident = Some(r.shape.family());
        assert_eq!(
            p.choose(4.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![0]))
        );
        assert_eq!(p.home(11), Some(0), "defection migrates the binding");
        // Warm the home back up and the defection objection vanishes.
        cards[1].resident = Some(r.shape.family());
        let turn = [r.with_session(12)];
        let busy = [view(0, 0, 0.0), view(1, 2, 0.0)];
        assert_eq!(
            p.choose(5.0, QueueView::flat(&turn), &busy, &cost),
            Some((0, vec![1]))
        );
        assert_eq!(
            p.choose(6.0, QueueView::flat(&turn), &cards, &cost),
            Some((0, vec![1])),
            "a warm home within the margin keeps the session"
        );
    }
}
