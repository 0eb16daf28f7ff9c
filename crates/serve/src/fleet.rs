//! The fleet: groups of SWAT cards × P pipelines each, with shared-memory
//! backpressure.
//!
//! A fleet is a list of [`CardGroup`]s — `count` identical cards sharing
//! one [`SwatConfig`] and one off-chip [`MemoryInterface`] — so mixed
//! deployments (FP16 next to FP32, dual-pipeline next to single, HBM next
//! to DDR) are first-class. Card indices are assigned group by group in
//! declaration order, which keeps every downstream tie-break (dispatch,
//! event ordering, reports) deterministic.

use crate::cost::CardCostModel;
use crate::request::Request;
use swat::config::ConfigError;
use swat::schedule::PipelineAgenda;
use swat::{SwatAccelerator, SwatConfig};
use swat_hw::MemoryInterface;
use swat_workloads::RequestShape;

/// `count` identical cards: one SWAT design on one memory interface.
#[derive(Debug, Clone, PartialEq)]
pub struct CardGroup {
    /// Cards in this group.
    pub count: usize,
    /// The design each of them instantiates.
    pub card: SwatConfig,
    /// Off-chip interface shared by one card's pipelines.
    pub memory: MemoryInterface,
}

impl CardGroup {
    /// A group of `count` cards of `design` on `memory`.
    pub fn new(count: usize, card: SwatConfig, memory: MemoryInterface) -> CardGroup {
        CardGroup {
            count,
            card,
            memory,
        }
    }

    /// Human-readable design label for tables and JSON.
    pub fn design(&self) -> String {
        format!(
            "{}x {} {}p w{} g{} r{}",
            self.count,
            self.card.precision,
            self.card.pipelines,
            self.card.window_tokens,
            self.card.global_tokens,
            self.card.random_tokens
        )
    }
}

/// Configuration of a serving fleet: heterogeneous card groups plus the
/// host link weights cross when a card switches model families.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Card groups; indices are assigned group by group in this order.
    pub groups: Vec<CardGroup>,
    /// Host link weights cross when a card switches model families.
    pub host_link: MemoryInterface,
}

impl FleetConfig {
    /// A homogeneous fleet of `cards` dual-pipeline BigBird FP16 cards on
    /// HBM2 — the highest-throughput design point in the paper's Table 2.
    pub fn standard(cards: usize) -> FleetConfig {
        FleetConfig {
            groups: vec![CardGroup::new(
                cards,
                SwatConfig::bigbird_dual_fp16(),
                MemoryInterface::hbm2(),
            )],
            host_link: MemoryInterface::pcie4_x16(),
        }
    }

    /// A mixed-precision fleet: `fp16_dual` dual-pipeline FP16 cards next
    /// to `fp32_single` single-pipeline FP32 cards (both BigBird on HBM2)
    /// — the heterogeneous deployment the ROADMAP calls for, where a
    /// latency-optimized pool absorbs interactive traffic and slower
    /// accuracy-tier cards soak up the rest.
    ///
    /// # Examples
    ///
    /// ```
    /// use swat_serve::fleet::FleetConfig;
    ///
    /// let fleet = FleetConfig::mixed_precision(4, 2);
    /// assert_eq!(fleet.cards(), 6);
    /// assert_eq!(fleet.total_pipelines(), 4 * 2 + 2); // duals + singles
    /// let built = fleet.build().unwrap();
    /// // Card indices run group by group; the FP16 pool calibrates faster.
    /// assert_eq!(built.cards()[0].group(), 0);
    /// assert_eq!(built.cards()[5].group(), 1);
    /// assert!(built.cards()[0].seconds_per_token() < built.cards()[5].seconds_per_token());
    /// ```
    pub fn mixed_precision(fp16_dual: usize, fp32_single: usize) -> FleetConfig {
        let fp32 = SwatConfig {
            precision: swat::config::Precision::Fp32,
            pipelines: 1,
            ..SwatConfig::bigbird_dual_fp16()
        };
        FleetConfig {
            groups: vec![
                CardGroup::new(
                    fp16_dual,
                    SwatConfig::bigbird_dual_fp16(),
                    MemoryInterface::hbm2(),
                ),
                CardGroup::new(fp32_single, fp32, MemoryInterface::hbm2()),
            ],
            host_link: MemoryInterface::pcie4_x16(),
        }
    }

    /// Total cards across all groups.
    pub fn cards(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Total pipelines across all groups.
    pub fn total_pipelines(&self) -> usize {
        self.groups.iter().map(|g| g.count * g.card.pipelines).sum()
    }

    /// Builds the runtime fleet state. Card indices run group by group:
    /// group 0's cards first, then group 1's, and so on.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any card design is invalid or the fleet
    /// has no cards.
    pub fn build(&self) -> Result<Fleet, ConfigError> {
        if self.cards() == 0 {
            return Err(ConfigError::new("a fleet needs at least one card"));
        }
        let mut cards = Vec::with_capacity(self.cards());
        for (group, g) in self.groups.iter().enumerate() {
            let accel = SwatAccelerator::new(g.card.clone())?;
            for _ in 0..g.count {
                cards.push(Card::new(accel.clone(), group, g.memory, self.host_link));
            }
        }
        Ok(Fleet { cards })
    }
}

/// What one [`Card::admit_jobs`] committed to: where the request runs, when it
/// drains, and the timing terms the simulator needs later to checkpoint
/// the request if it gets preempted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Admission {
    /// Pipeline the request occupies until it drains or is preempted.
    pub pipeline: usize,
    /// When the last admitted job ends.
    pub finish: f64,
    /// Seconds per attention job at this admission's contention level.
    pub per_job_seconds: f64,
    /// One-off stall riding the first job: weight swap plus (for resumed
    /// requests) the restart penalty.
    pub stall_seconds: f64,
    /// The weight-swap share of the stall (0 when the family was already
    /// resident). Preemption needs it separately: evicting a request
    /// before its swap completed must un-count the swap and drop the
    /// torn residency.
    pub swap_seconds: f64,
}

/// One card's runtime state.
#[derive(Debug, Clone)]
pub struct Card {
    /// The card's timing terms — the same model the planner-facing
    /// [`CostModel`](crate::cost::CostModel) clones, so admission
    /// charges exactly what planning priced.
    cost: CardCostModel,
    /// Index of the [`CardGroup`] this card belongs to.
    group: usize,
    agenda: PipelineAgenda,
    /// The model family whose weights are resident on the card.
    resident: Option<(usize, usize)>,
    /// Times the card had to swap families in.
    weight_swaps: u64,
    /// Pipeline-seconds of committed service.
    busy_seconds: f64,
    /// Active-service energy.
    energy_joules: f64,
    /// Shard dispatches to this card (equals requests served for
    /// whole-request policies; a split request counts once per shard).
    served: u64,
    /// Requests checkpointed-and-requeued off this card by preemption.
    preempted: u64,
    /// Whether the card is currently powered (autoscaling parks cards).
    powered: bool,
    /// Whether the card is dead: it failed ([`Card::fail`]) and has not
    /// been revived. Dead cards are never dispatchable and the
    /// autoscaler skips them when waking capacity.
    dead: bool,
    /// End of the current warm-up; the card dispatches only once `now`
    /// reaches it.
    available_at: f64,
    /// Start of the current powered interval.
    powered_since: f64,
    /// Closed powered intervals, wall seconds.
    powered_seconds: f64,
}

impl Card {
    fn new(
        accel: SwatAccelerator,
        group: usize,
        memory: MemoryInterface,
        host_link: MemoryInterface,
    ) -> Card {
        let pipelines = accel.config().pipelines;
        Card {
            cost: CardCostModel::new(accel, memory, host_link),
            group,
            agenda: PipelineAgenda::new(pipelines),
            resident: None,
            weight_swaps: 0,
            busy_seconds: 0.0,
            energy_joules: 0.0,
            served: 0,
            preempted: 0,
            powered: true,
            dead: false,
            available_at: 0.0,
            powered_since: 0.0,
            powered_seconds: 0.0,
        }
    }

    /// The accelerator model this card runs.
    pub fn accelerator(&self) -> &SwatAccelerator {
        self.cost.accelerator()
    }

    /// The card's timing terms, shared with the planner's
    /// [`CostModel`](crate::cost::CostModel).
    pub fn cost_model(&self) -> &CardCostModel {
        &self.cost
    }

    /// Index of the [`CardGroup`] this card belongs to.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Pipelines on this card.
    pub fn pipelines(&self) -> usize {
        self.agenda.pipelines()
    }

    /// Pipelines idle at `now`.
    pub fn idle_pipelines(&self, now: f64) -> usize {
        self.agenda.idle_pipelines(now)
    }

    /// Committed work beyond `now`, pipeline-seconds.
    pub fn backlog_seconds(&self, now: f64) -> f64 {
        self.agenda.backlog_seconds(now)
    }

    /// Shard dispatches so far (equals requests served for whole-request
    /// policies).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The model family currently resident.
    pub fn resident_family(&self) -> Option<(usize, usize)> {
        self.resident
    }

    /// Weight swap-ins so far.
    pub fn weight_swaps(&self) -> u64 {
        self.weight_swaps
    }

    /// Requests preemption has checkpointed-and-requeued off this card.
    pub fn preempted(&self) -> u64 {
        self.preempted
    }

    /// Whether the card is powered (possibly still warming up).
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Whether the card is dead: failed and not yet revived.
    pub fn dead(&self) -> bool {
        self.dead
    }

    /// Whether the card can take work at `now`: powered, not dead, and
    /// past the end of its warm-up. The simulator zeroes the
    /// [`CardView`](crate::policy::CardView) pipeline count of
    /// non-dispatchable cards, so no policy ever routes to a parked or
    /// dead card.
    pub fn dispatchable(&self, now: f64) -> bool {
        self.powered && !self.dead && now >= self.available_at
    }

    /// How long the card has been dispatchable with *all* pipelines idle,
    /// as of `now` — the scale-down signal. Zero while parked, warming,
    /// or serving anything.
    pub fn idle_for(&self, now: f64) -> f64 {
        if !self.dispatchable(now) || self.agenda.horizon() > now {
            return 0.0;
        }
        now - self
            .agenda
            .horizon()
            .max(self.available_at)
            .max(self.powered_since)
    }

    /// Closed powered time so far, wall seconds. The simulator closes the
    /// final powered interval at the last event, so after a run this
    /// covers the whole span.
    pub fn powered_seconds(&self) -> f64 {
        self.powered_seconds
    }

    /// Idle power draw: the accelerator's static floor, paid whenever the
    /// card is powered, serving or not.
    pub fn idle_power_watts(&self) -> f64 {
        self.accelerator().idle_power_watts()
    }

    /// Idle energy so far: idle power × powered pipeline-seconds not spent
    /// serving. Active service already accounts the card's full power
    /// prorated per pipeline, so idle energy covers exactly the remainder
    /// — a parked card pays nothing, an always-on card pays for every
    /// pipeline-second it sat warm and empty. Never negative: busy time
    /// only accrues while powered.
    pub fn idle_energy_joules(&self) -> f64 {
        let idle_pipeline_seconds =
            self.powered_seconds - self.busy_seconds / self.pipelines() as f64;
        self.idle_power_watts() * idle_pipeline_seconds.max(0.0)
    }

    /// (Re)starts the powered clock at `t0` or parks the card before the
    /// run begins — how the simulator aligns cards with the first arrival
    /// and applies an autoscaler's initial fleet size.
    pub(crate) fn set_initial_power(&mut self, on: bool, t0: f64) {
        self.powered = on;
        self.powered_since = t0;
        self.available_at = t0;
        self.powered_seconds = 0.0;
    }

    /// Powers a parked card back up at `now`; it becomes dispatchable at
    /// `now + warmup_s` (weights stream in, clocks stabilize).
    ///
    /// # Panics
    ///
    /// Panics if the card is already powered.
    pub(crate) fn power_on(&mut self, now: f64, warmup_s: f64) {
        assert!(!self.powered, "card is already powered");
        self.powered = true;
        self.powered_since = now;
        self.available_at = now + warmup_s;
        // Cold weights after a park: the next admission swaps back in.
        self.resident = None;
    }

    /// Parks an idle card at `now`, closing its powered interval.
    ///
    /// # Panics
    ///
    /// Panics if the card is not powered or still has committed work.
    pub(crate) fn power_off(&mut self, now: f64) {
        assert!(self.powered, "card is already parked");
        assert!(
            self.agenda.horizon() <= now,
            "cannot park a card with in-flight work"
        );
        self.powered_seconds += now - self.powered_since;
        self.powered = false;
    }

    /// Closes the current powered interval at `end` (run teardown), so
    /// [`Card::powered_seconds`] and [`Card::idle_energy_joules`] cover
    /// the whole run.
    pub(crate) fn close_power_clock(&mut self, end: f64) {
        if self.powered && end > self.powered_since {
            self.powered_seconds += end - self.powered_since;
            self.powered_since = end;
        }
    }

    /// Seconds to stream this shape's family weights over the host link —
    /// the stall paid when the card's resident family differs.
    pub fn swap_seconds(&self, shape: &RequestShape) -> f64 {
        self.cost.swap_seconds(shape)
    }

    /// Pipeline-seconds of service committed so far.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Active-service energy so far, joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy_joules
    }

    /// Calibrated isolated service seconds per attended token on this
    /// card: [`Card::service_seconds`] at a fixed mid-sized reference
    /// shape, divided by that shape's work tokens. This is the number a
    /// dispatch policy may use to compare cards of *different* groups
    /// (FP16 vs FP32, single vs dual pipeline) without reaching into the
    /// timing model.
    pub fn seconds_per_token(&self) -> f64 {
        self.cost.seconds_per_token()
    }

    /// Seconds one pipeline needs for one of the request's jobs, including
    /// memory contention: with `streams` pipelines of this card streaming
    /// concurrently, the shared interface stretches service once their
    /// aggregate Q/K/V/Z demand saturates it.
    pub fn job_seconds(&self, shape: &RequestShape, streams: usize) -> f64 {
        self.cost.job_seconds(shape, streams)
    }

    /// Isolated (contention-free) single-pipeline service time for a whole
    /// request: its jobs run back to back on one pipeline.
    pub fn service_seconds(&self, shape: &RequestShape) -> f64 {
        self.cost.service_seconds(shape)
    }

    /// The restart penalty a preempted request pays when it resumes on
    /// this card: one sequence-length's worth of the calibrated per-token
    /// service time — the interrupted job's Q/K/V context has to stream
    /// through the pipeline again before new work lands. Faster cards pay
    /// a smaller penalty, which is exactly the calibration
    /// [`Card::seconds_per_token`] exists to express.
    pub fn restart_seconds(&self, shape: &RequestShape) -> f64 {
        self.cost.restart_seconds(shape)
    }

    /// Admits a request at `now` onto this card's earliest-free pipeline.
    /// Only the request's [`remaining_jobs`](Request::remaining_jobs) are
    /// scheduled — a resumed request skips its checkpointed prefix but
    /// pays [`Card::restart_seconds`] on top of any weight swap. The
    /// whole-fragment special case of [`Card::admit_jobs`]; the simulator
    /// dispatches through the sharded form, so this wrapper survives as
    /// the test-suite vocabulary.
    #[cfg(test)]
    pub(crate) fn admit(&mut self, request: &Request, now: f64) -> Admission {
        let streams = self.pipelines() - self.idle_pipelines(now) + 1;
        self.admit_jobs(
            request,
            request.jobs_done,
            request.remaining_jobs(),
            streams,
            now,
        )
    }

    /// Admits one **shard** of a request at `now` onto this card's
    /// earliest-free pipeline: `count` jobs starting at enumeration
    /// offset `skip` in the `batch × layers × heads` grid (the test-only
    /// `Card::admit` is the whole-fragment special case). Each shard pays
    /// the weight swap if the family is not yet resident on *this* card
    /// (the first shard streams it in; later shards on the same card find
    /// it resident); a request with a [pending
    /// restart](Request::pending_restart) pays the restart penalty (the
    /// simulator flags exactly one admission per preemption — the
    /// resumed remnant's first).
    ///
    /// `planned_streams` is the contention every job of this shard is
    /// charged: the pipelines of this card the *whole dispatch plan*
    /// will have streaming concurrently — those already busy plus every
    /// sibling shard the plan lands here, this one included. Passing the
    /// plan's count (rather than recomputing from the card's own state)
    /// is what makes realized admissions charge the same contention the
    /// planner priced: under the old per-admission count, the first
    /// sibling missed the shards about to join it.
    ///
    /// Every job of the shard lands back-to-back on one pipeline, so the
    /// whole shard is one [`PipelineAgenda::admit_run`]: the same
    /// sequential addition chain job-by-job admission performs, without a
    /// placement per job.
    pub(crate) fn admit_jobs(
        &mut self,
        request: &Request,
        skip: usize,
        count: usize,
        planned_streams: usize,
        now: f64,
    ) -> Admission {
        let shape = &request.shape;
        assert!(count > 0, "a shard must carry at least one job");
        assert!(
            skip + count <= shape.jobs(),
            "job range {skip}..{} outside the {}-job grid",
            skip + count,
            shape.jobs()
        );
        // The plan must cover at least everything already streaming on
        // this card plus this shard itself.
        assert!(
            planned_streams > self.pipelines() - self.idle_pipelines(now),
            "planned streams {planned_streams} below the busy-pipeline floor"
        );
        let per_job = self.cost.job_seconds(shape, planned_streams);
        let (pipeline, _) = self.agenda.earliest_free();

        // Cold weights: the pipeline stalls while the family streams in
        // over the host link. The stall rides on the first job's slot,
        // together with the restart penalty for a resumed remnant.
        let swap = if self.resident == Some(shape.family()) {
            0.0
        } else {
            self.resident = Some(shape.family());
            self.weight_swaps += 1;
            self.cost.swap_seconds(shape)
        };
        let restart = if request.pending_restart {
            self.cost.restart_seconds(shape)
        } else {
            0.0
        };
        let stall = swap + restart;

        let finish = self
            .agenda
            .admit_run(pipeline, now, stall + per_job, per_job, count);

        let duration = finish - now;
        self.busy_seconds += duration;
        // Static + dynamic power of a fully-busy card is amortized over
        // its pipelines; powered-but-idle time is accounted separately in
        // [`Card::idle_energy_joules`].
        self.energy_joules += self.accelerator().power_watts() / self.pipelines() as f64 * duration;
        self.served += 1;
        Admission {
            pipeline,
            finish,
            per_job_seconds: per_job,
            stall_seconds: stall,
            swap_seconds: swap,
        }
    }

    /// Checkpoints and evicts an in-flight request at `now`, releasing the
    /// pipeline capacity its unfinished jobs had reserved. Returns how
    /// many *additional* whole jobs drained before `now` — the checkpoint
    /// the requeued request carries forward. The partially-run job is
    /// lost: checkpoint granularity is one attention job, the unit the
    /// paper's pipeline streams atomically.
    ///
    /// `dispatched` and `admission` must be the values [`Card::admit_jobs`]
    /// returned for this request; `now` must lie inside the admission's
    /// service window.
    pub(crate) fn preempt(&mut self, admission: &Admission, dispatched: f64, now: f64) -> usize {
        self.preempted += 1;
        self.release(admission, dispatched, now)
    }

    /// Evicts an in-flight shard because the card failed at `now`: the
    /// same checkpoint-and-release arithmetic as [`Card::preempt`], but
    /// the eviction is charged to the run's fault counters, not the
    /// card's preemption counter — a death is not a scheduling decision.
    pub(crate) fn fail_evict(&mut self, admission: &Admission, dispatched: f64, now: f64) -> usize {
        self.release(admission, dispatched, now)
    }

    /// Releases one in-flight shard at `now`, refunding the never-run
    /// tail, and returns how many *additional* whole jobs drained before
    /// `now` — the checkpoint the requeued request carries forward. The
    /// partially-run job is lost: checkpoint granularity is one attention
    /// job, the unit the paper's pipeline streams atomically.
    fn release(&mut self, admission: &Admission, dispatched: f64, now: f64) -> usize {
        let released = admission.finish - now;
        assert!(
            released > 0.0 && now >= dispatched,
            "eviction time {now} outside service window [{dispatched}, {}]",
            admission.finish
        );
        self.agenda.release_after(admission.pipeline, now);
        // Give back the never-run tail: the card was never busy past `now`.
        self.busy_seconds -= released;
        self.energy_joules -= self.accelerator().power_watts() / self.pipelines() as f64 * released;
        self.served -= 1;

        // Evicted mid-swap: the family never finished streaming in, so
        // the card's weights are torn — not resident — and the swap-in
        // `admit` counted up front never completed. (With one resident
        // family per card this is conservative if another admission
        // already re-swapped meanwhile: the next dispatch re-streams.)
        if admission.swap_seconds > 0.0 && now < dispatched + admission.swap_seconds {
            self.resident = None;
            self.weight_swaps -= 1;
        }

        let progressed = now - dispatched - admission.stall_seconds;
        if progressed <= 0.0 {
            0
        } else {
            (progressed / admission.per_job_seconds).floor() as usize
        }
    }

    /// Kills the card at `now`. Every in-flight shard must already have
    /// been evicted through [`Card::fail_evict`]; the powered clock
    /// closes (a dead card draws nothing), the residency tears, and the
    /// card refuses dispatch until [`Card::revive`]. Parked cards can
    /// die too — they just skip the clock arithmetic.
    pub(crate) fn fail(&mut self, now: f64) {
        assert!(
            self.agenda.horizon() <= now,
            "cannot kill a card before evicting its in-flight work"
        );
        if self.powered {
            self.powered_seconds += now - self.powered_since;
            self.powered = false;
        }
        self.resident = None;
        self.dead = true;
    }

    /// Returns a dead card to service at `now`: it powers back up cold
    /// (residency lost in the failure) and becomes dispatchable after
    /// `warmup_s`, exactly like an autoscaler wake.
    ///
    /// # Panics
    ///
    /// Panics if the card is not dead.
    pub(crate) fn revive(&mut self, now: f64, warmup_s: f64) {
        assert!(self.dead, "only a dead card can be revived");
        self.dead = false;
        self.power_on(now, warmup_s);
    }

    /// Shifts the card's calibration: service times stretch by `factor`
    /// (≥ 1, absolute not cumulative) from the next admission on. The
    /// simulator re-snapshots the fleet's shared
    /// [`CostModel`](crate::cost::CostModel) right after, so planning
    /// keeps pricing exactly what admission charges.
    pub(crate) fn degrade_by(&mut self, factor: f64) {
        self.cost.set_degrade(factor);
    }
}

/// Runtime state of the whole fleet.
#[derive(Debug, Clone)]
pub struct Fleet {
    cards: Vec<Card>,
}

impl Fleet {
    /// The cards, ordered group by group.
    pub fn cards(&self) -> &[Card] {
        &self.cards
    }

    /// Mutable card access for the simulator.
    pub(crate) fn card_mut(&mut self, i: usize) -> &mut Card {
        &mut self.cards[i]
    }

    /// Total pipelines across the fleet.
    pub fn total_pipelines(&self) -> usize {
        self.cards.iter().map(Card::pipelines).sum()
    }

    /// Cards currently powered — the fleet size for a static fleet, fewer
    /// when an autoscaler parked some (the "powered cards" gauge the
    /// trace sinks chart).
    pub fn powered_cards(&self) -> usize {
        self.cards.iter().filter(|c| c.powered()).count()
    }

    /// Cumulative active-service energy across the fleet so far, joules
    /// (the monotone counter behind the trace sinks' energy track; idle
    /// energy is accounted separately, per card).
    pub fn active_energy_joules(&self) -> f64 {
        self.cards.iter().map(Card::energy_joules).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> RequestShape {
        RequestShape {
            seq_len: 1024,
            heads: 4,
            layers: 2,
            batch: 1,
        }
    }

    #[test]
    fn standard_fleet_builds() {
        let fleet = FleetConfig::standard(4).build().unwrap();
        assert_eq!(fleet.cards().len(), 4);
        assert_eq!(fleet.total_pipelines(), 8); // dual-pipeline cards
        assert!(fleet.cards().iter().all(|c| c.group() == 0));
    }

    #[test]
    fn mixed_fleet_orders_cards_group_by_group() {
        let cfg = FleetConfig::mixed_precision(2, 3);
        assert_eq!(cfg.cards(), 5);
        assert_eq!(cfg.total_pipelines(), 2 * 2 + 3);
        let fleet = cfg.build().unwrap();
        let groups: Vec<usize> = fleet.cards().iter().map(Card::group).collect();
        assert_eq!(groups, [0, 0, 1, 1, 1]);
        assert_eq!(fleet.cards()[0].pipelines(), 2);
        assert_eq!(fleet.cards()[2].pipelines(), 1);
    }

    #[test]
    fn fp16_cards_calibrate_faster_than_fp32() {
        let fleet = FleetConfig::mixed_precision(1, 1).build().unwrap();
        let fp16 = &fleet.cards()[0];
        let fp32 = &fleet.cards()[1];
        assert!(fp16.seconds_per_token() > 0.0);
        assert!(
            fp16.seconds_per_token() < fp32.seconds_per_token(),
            "FP16 {} vs FP32 {}",
            fp16.seconds_per_token(),
            fp32.seconds_per_token()
        );
        // The estimate tracks the real service time across shapes.
        let s = shape();
        assert!(fp16.service_seconds(&s) < fp32.service_seconds(&s));
    }

    #[test]
    fn empty_fleet_rejected() {
        assert!(FleetConfig::standard(0).build().is_err());
        assert!(FleetConfig {
            groups: Vec::new(),
            host_link: MemoryInterface::pcie4_x16(),
        }
        .build()
        .is_err());
    }

    #[test]
    fn service_time_composes_job_times() {
        let fleet = FleetConfig::standard(1).build().unwrap();
        let card = &fleet.cards()[0];
        let s = shape();
        let per_job = card.accelerator().latency_seconds(s.seq_len);
        // HBM2 never contends at paper scale, so service = jobs × per-job.
        assert!((card.service_seconds(&s) - 8.0 * per_job).abs() < 1e-12);
    }

    #[test]
    fn ddr_fleet_feels_backpressure() {
        // Starve the card: a single DDR4 channel cannot feed two pipelines
        // streaming 16 K-token heads, so service stretches.
        let cfg = FleetConfig {
            groups: vec![CardGroup::new(
                1,
                SwatConfig::bigbird_dual_fp16(),
                MemoryInterface::ddr4_channel(),
            )],
            host_link: MemoryInterface::pcie4_x16(),
        };
        let hbm = FleetConfig::standard(1).build().unwrap();
        let ddr = cfg.build().unwrap();
        let s = RequestShape {
            seq_len: 16384,
            ..shape()
        };
        let lone = ddr.cards()[0].job_seconds(&s, 1);
        let contended = ddr.cards()[0].job_seconds(&s, 64);
        assert!(contended > lone, "64 streams must stretch service on DDR4");
        assert_eq!(
            hbm.cards()[0].job_seconds(&s, 2),
            hbm.cards()[0].job_seconds(&s, 1),
            "HBM2 absorbs both pipelines"
        );
    }

    fn request(id: u64, shape: RequestShape) -> Request {
        Request::new(id, 0.0, shape)
    }

    #[test]
    fn admit_advances_state() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let a0 = fleet.card_mut(0).admit(&request(0, shape()), 0.0);
        // All 8 jobs run back to back behind the stall.
        assert!((a0.finish - (a0.stall_seconds + 8.0 * a0.per_job_seconds)).abs() < 1e-12);
        assert!(a0.finish > 0.0);
        // The first admission pays the cold-weight swap; the second finds
        // the family resident, lands on the other pipeline, and finishes
        // exactly one swap earlier.
        let swap = fleet.cards()[0].swap_seconds(&shape());
        assert!(swap > 0.0);
        assert!((a0.stall_seconds - swap).abs() < 1e-15);
        let a1 = fleet.card_mut(0).admit(&request(1, shape()), 0.0);
        assert_ne!(a0.pipeline, a1.pipeline);
        assert!((a0.finish - a1.finish - swap).abs() < 1e-12);
        assert_eq!(a1.stall_seconds, 0.0);
        let card = &fleet.cards()[0];
        assert_eq!(card.served(), 2);
        assert_eq!(card.weight_swaps(), 1);
        assert_eq!(card.resident_family(), Some((4, 2)));
        assert!(card.energy_joules() > 0.0);
        assert!((card.busy_seconds() - (a0.finish + a1.finish)).abs() < 1e-9);
    }

    #[test]
    fn sharded_admission_splits_the_job_grid() {
        // 8 jobs split 5 + 3 across the card's two pipelines: each shard
        // lands on its own pipeline and is charged exactly its own jobs,
        // and each shard beats the whole-request twin.
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let mut whole_fleet = FleetConfig::standard(1).build().unwrap();
        let r = request(0, shape());
        let whole = whole_fleet.card_mut(0).admit(&r, 0.0);
        let a = fleet.card_mut(0).admit_jobs(&r, 0, 5, 2, 0.0);
        let b = fleet.card_mut(0).admit_jobs(&r, 5, 3, 2, 0.0);
        assert_ne!(a.pipeline, b.pipeline);
        assert!((a.finish - (a.stall_seconds + 5.0 * a.per_job_seconds)).abs() < 1e-12);
        assert!((b.finish - 3.0 * b.per_job_seconds).abs() < 1e-12);
        // The first shard pays the swap; the co-resident second does not.
        assert!(a.stall_seconds > 0.0);
        assert_eq!(b.stall_seconds, 0.0);
        // Fan-in beats the serial whole-request admission.
        assert!(a.finish < whole.finish && b.finish < whole.finish);
        assert_eq!(fleet.cards()[0].served(), 2, "one count per shard");
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn sharded_admission_rejects_ranges_past_the_grid() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let r = request(0, shape()); // 8 jobs
        let _ = fleet.card_mut(0).admit_jobs(&r, 6, 3, 1, 0.0);
    }

    #[test]
    fn sibling_shards_are_charged_the_contention_they_induce() {
        // Regression: a 2-shard plan on one dual-pipeline card must
        // charge *both* shards the 2-stream contention factor. Before
        // the planned-streams parameter, each admission recomputed the
        // stream count from the card's own state, so the first sibling
        // was billed `streams = 1` — blind to the shard about to join
        // it — and sharded service was systematically underestimated.
        let cfg = FleetConfig {
            groups: vec![CardGroup::new(
                1,
                SwatConfig::bigbird_dual_fp16(),
                // Starved interface: two streams oversubscribe it.
                MemoryInterface::new(1.0e9),
            )],
            host_link: MemoryInterface::pcie4_x16(),
        };
        let mut fleet = cfg.build().unwrap();
        let s = shape(); // 8 jobs
        let contended = fleet.cards()[0].job_seconds(&s, 2);
        assert!(
            contended > fleet.cards()[0].job_seconds(&s, 1),
            "the starved interface must stretch 2-stream service"
        );
        let r = request(0, s);
        let a = fleet.card_mut(0).admit_jobs(&r, 0, 4, 2, 0.0);
        let b = fleet.card_mut(0).admit_jobs(&r, 4, 4, 2, 0.0);
        assert_eq!(
            a.per_job_seconds, contended,
            "the first sibling must see the plan's 2-stream rate"
        );
        assert_eq!(a.per_job_seconds, b.per_job_seconds);
        // Fan-in (the swapless sibling) lands exactly at 4 contended jobs.
        assert!((b.finish - 4.0 * contended).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "busy-pipeline floor")]
    fn understated_planned_streams_are_rejected() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let r = request(0, shape());
        let _ = fleet.card_mut(0).admit_jobs(&r, 0, 4, 1, 0.0);
        // One pipeline is now busy: a plan claiming a single stream
        // cannot cover it plus the new shard.
        let _ = fleet.card_mut(0).admit_jobs(&r, 4, 4, 1, 0.0);
    }

    #[test]
    fn preempt_checkpoints_whole_jobs_and_rolls_back_accounting() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let r = request(0, shape()); // 8 jobs
        let a = fleet.card_mut(0).admit(&r, 0.0);
        let busy_before = fleet.cards()[0].busy_seconds();
        let energy_before = fleet.cards()[0].energy_joules();
        // Preempt mid-service: 3.5 jobs past the stall → 3 checkpointed.
        let now = a.stall_seconds + 3.5 * a.per_job_seconds;
        let done = fleet.card_mut(0).preempt(&a, 0.0, now);
        assert_eq!(done, 3);
        let card = &fleet.cards()[0];
        assert_eq!(card.preempted(), 1);
        assert_eq!(card.served(), 0);
        assert_eq!(card.idle_pipelines(now), 2, "capacity is released");
        assert!((card.busy_seconds() - (busy_before - (a.finish - now))).abs() < 1e-12);
        assert!(card.energy_joules() < energy_before);
        // Preemption during the swap stall checkpoints nothing, and the
        // half-streamed weights are not left marked resident: the
        // aborted swap is un-counted and the next admission re-swaps.
        let mut fleet2 = FleetConfig::standard(1).build().unwrap();
        let a2 = fleet2.card_mut(0).admit(&r, 0.0);
        assert!(a2.swap_seconds > 0.0);
        assert_eq!(fleet2.cards()[0].weight_swaps(), 1);
        assert_eq!(
            fleet2.card_mut(0).preempt(&a2, 0.0, a2.swap_seconds * 0.5),
            0
        );
        assert_eq!(fleet2.cards()[0].resident_family(), None);
        assert_eq!(fleet2.cards()[0].weight_swaps(), 0);
        let a3 = fleet2.card_mut(0).admit(&r, 1.0);
        assert!(a3.swap_seconds > 0.0, "the torn family must re-stream");
        // Preemption *after* the swap completed keeps the residency.
        let mut fleet3 = FleetConfig::standard(1).build().unwrap();
        let a4 = fleet3.card_mut(0).admit(&r, 0.0);
        fleet3
            .card_mut(0)
            .preempt(&a4, 0.0, a4.swap_seconds + 1.5 * a4.per_job_seconds);
        assert_eq!(fleet3.cards()[0].resident_family(), Some((4, 2)));
        assert_eq!(fleet3.cards()[0].weight_swaps(), 1);
    }

    #[test]
    fn resumed_requests_skip_the_checkpoint_and_pay_restart() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let fresh = request(0, shape());
        let a = fleet.card_mut(0).admit(&fresh, 0.0);
        let jobs = shape().jobs();
        let swap = fleet.cards()[0].swap_seconds(&shape());
        assert!((a.finish - (swap + jobs as f64 * a.per_job_seconds)).abs() < 1e-12);
        // Resume with 3 of 8 jobs checkpointed, on a card with the family
        // already resident: 5 jobs plus the restart penalty.
        let resumed = Request {
            jobs_done: 3,
            preemptions: 1,
            pending_restart: true,
            id: 1,
            ..fresh
        };
        let b = fleet.card_mut(0).admit(&resumed, 0.0);
        let restart = fleet.cards()[0].restart_seconds(&shape());
        assert!(restart > 0.0);
        assert!((b.stall_seconds - restart).abs() < 1e-15);
        let expected = restart + (jobs - 3) as f64 * b.per_job_seconds;
        assert!((b.finish - expected).abs() < 1e-12);
    }

    #[test]
    fn restart_penalty_is_scoped_to_the_flagged_admission() {
        // Regression: the restart penalty used to be billed whenever
        // `preemptions > 0`, so every future shard of a once-preempted
        // request paid the full re-stream penalty forever. It is now
        // keyed on `pending_restart`, which the simulator sets per
        // preemption and clears after the remnant's first admission.
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let fresh = request(0, shape());
        // Make the family resident, then wait for the card to drain so
        // the stalls below are pure restart penalties.
        let drained = fleet.card_mut(0).admit(&fresh, 0.0).finish;
        let restart = fleet.cards()[0].restart_seconds(&shape());

        // The remnant's first shard carries the pending flag and pays.
        let first = Request {
            jobs_done: 2,
            preemptions: 1,
            pending_restart: true,
            id: 1,
            ..fresh
        };
        let a = fleet.card_mut(0).admit_jobs(&first, 2, 3, 2, drained);
        assert!((a.stall_seconds - restart).abs() < 1e-15);

        // Its sibling shard in the same plan — and any later admission
        // of the once-preempted request — has the flag cleared and pays
        // nothing, despite `preemptions > 0`.
        let second = Request {
            pending_restart: false,
            ..first
        };
        let b = fleet.card_mut(0).admit_jobs(&second, 5, 3, 2, drained);
        assert_eq!(b.stall_seconds, 0.0, "preemptions > 0 alone must not bill");
        assert!((a.finish - b.finish - restart).abs() < 1e-12);
    }

    #[test]
    fn death_and_revival_cycle_accounts_like_preemption() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let r = request(0, shape());
        let a = fleet.card_mut(0).admit(&r, 0.0);
        // The card dies 2.5 jobs past the stall: 2 whole jobs checkpoint,
        // the eviction refunds the tail like a preemption would, but the
        // preemption counter stays untouched — a death is not a
        // scheduling decision.
        let now = a.stall_seconds + 2.5 * a.per_job_seconds;
        let done = fleet.card_mut(0).fail_evict(&a, 0.0, now);
        assert_eq!(done, 2);
        fleet.card_mut(0).fail(now);
        let card = &fleet.cards()[0];
        assert!(card.dead());
        assert_eq!(card.preempted(), 0, "fault evictions are not preemptions");
        assert!(!card.dispatchable(now));
        assert_eq!(card.served(), 0);
        assert_eq!(card.resident_family(), None, "death tears the residency");
        assert!(
            (card.powered_seconds() - now).abs() < 1e-12,
            "a dead card stops accruing powered time"
        );
        // Revival powers the card back up cold, after a warm-up.
        fleet.card_mut(0).revive(now + 5.0, 2.0);
        let card = &fleet.cards()[0];
        assert!(!card.dead());
        assert!(!card.dispatchable(now + 6.0), "still warming");
        assert!(card.dispatchable(now + 7.0));
    }

    #[test]
    #[should_panic(expected = "before evicting")]
    fn killing_a_busy_card_without_eviction_is_rejected() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let a = fleet.card_mut(0).admit(&request(0, shape()), 0.0);
        fleet.card_mut(0).fail(a.finish * 0.5);
    }

    #[test]
    fn degrade_delegates_to_the_cost_model() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let before = fleet.cards()[0].job_seconds(&shape(), 1);
        fleet.card_mut(0).degrade_by(2.0);
        let card = &fleet.cards()[0];
        assert_eq!(card.cost_model().degrade_factor(), 2.0);
        assert_eq!(card.job_seconds(&shape(), 1), 2.0 * before);
    }

    #[test]
    fn power_cycle_accounts_idle_energy() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let card = fleet.card_mut(0);
        card.set_initial_power(true, 0.0);
        assert!(card.dispatchable(0.0));
        assert_eq!(card.idle_for(4.0), 4.0);
        // Park at t=4, power back up at t=10 with a 2 s warm-up.
        card.power_off(4.0);
        assert!(!card.dispatchable(5.0));
        assert_eq!(card.idle_for(5.0), 0.0);
        card.power_on(10.0, 2.0);
        assert!(!card.dispatchable(11.0), "still warming");
        assert!(card.dispatchable(12.0));
        assert_eq!(card.idle_for(15.0), 3.0, "idle clock starts after warm-up");
        card.close_power_clock(15.0);
        // Powered 4 s + 5 s = 9 s, never busy: idle energy is the static
        // floor over the whole powered span.
        assert!((card.powered_seconds() - 9.0).abs() < 1e-12);
        let expected = card.idle_power_watts() * 9.0;
        assert!((card.idle_energy_joules() - expected).abs() < 1e-9);
        assert!(card.idle_power_watts() < card.accelerator().power_watts());
    }

    #[test]
    fn parked_cards_pay_a_weight_swap_on_resume() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let r = request(0, shape());
        fleet.card_mut(0).admit(&r, 0.0);
        assert_eq!(fleet.cards()[0].resident_family(), Some((4, 2)));
        let card = fleet.card_mut(0);
        card.power_off(100.0);
        card.power_on(200.0, 1.0);
        assert_eq!(
            card.resident_family(),
            None,
            "parking drops resident weights"
        );
        let a = card.admit(&request(1, shape()), 201.0);
        assert!(a.stall_seconds > 0.0, "resume swaps the family back in");
    }

    #[test]
    #[should_panic(expected = "in-flight work")]
    fn parking_a_busy_card_is_rejected() {
        let mut fleet = FleetConfig::standard(1).build().unwrap();
        let a = fleet.card_mut(0).admit(&request(0, shape()), 0.0);
        fleet.card_mut(0).power_off(a.finish * 0.5);
    }
}
