//! The discrete-event simulation loop.
//!
//! Nine event kinds drive time forward: a request **arrives** (enters
//! the priority queue — or is shed by admission control), a pipeline
//! **drains** (capacity frees), a decode **step completes** (the last
//! shard of a step fanned in and more steps are owed), a **preemption
//! check** fires (a waiting interactive request's patience ran out), a
//! **warm-up** completes (an autoscaled card becomes dispatchable), a
//! **scaling check** wakes the autoscaler when an idle card reaches park
//! eligibility inside a quiet gap, and three seeded **fault** kinds — a
//! card **dies** (its in-flight shards requeue as remnants; see
//! [`crate::fault::FaultPlan`]), a card **degrades** (its calibration
//! stretches and the shared cost model re-snapshots), a dead card
//! **revives** (cold, after a warm-up). A **dispatch** follows every
//! event batch: the policy assigns queued requests to cards whenever both
//! a request and an idle pipeline exist. Every decision is a plan of one
//! or more **shards** ([`DispatchPolicy::choose`]) — because a request's
//! `batch × layers × heads` attention jobs are independent, a plan may
//! fan them out across several idle pipelines of one card group, and the
//! request completes when its *last* shard drains (fan-in). Whole-request
//! dispatch is the one-shard plan. Service times come from the card's
//! calibrated timing model stretched by shared-memory contention (see
//! [`crate::fleet::Card::job_seconds`]). Under a [`PreemptionControl`]
//! the dispatcher may checkpoint-and-requeue one in-flight background
//! **shard** (the youngest, or the cheapest to evict) to make room for
//! interactive work: only that shard's unfinished jobs requeue (merging
//! with any remnant of the same request already waiting), while its
//! sibling shards keep running.
//!
//! A run's state lives in a private `Kernel`: [`Simulation::run`] checks
//! the trace, builds one, pops every event due at one instant from the
//! [`crate::event::EventQueue`] heap (O(log n) in the in-flight shards)
//! and hands each to the kernel's handler for its kind, then runs the
//! kernel's **dispatch round** (refresh stale card views, dispatch while
//! the policy returns plans) and **settle** (autoscaler feedback, queue
//! and gauge samples). Two transitions have one home each: `start_shard`
//! admits every shard — each entry of a plan, and a whole-job decode
//! step re-admitted in place — and `requeue_remnant` handles every
//! eviction, preempted or lost with its card. The state is
//! **arena-backed** and sized to the work in flight: arrivals are read
//! from the caller's trace, and a request holds a row of the flight table
//! (its working copy plus a flat `FlightMeta` fan-in record: no tree, no
//! per-dispatch allocation) only while it is queued or in flight. Rows
//! recycle through a free list, so memory follows the peak of queued plus
//! in-flight requests, not the trace length. Shard slots live in a
//! free-list slab threaded per request in dispatch order, and the waiting
//! queue and every completion event carry row indices. [`CardView`]
//! snapshots are maintained **incrementally**: only cards marked dirty by
//! an event (completion, eviction, warm-up, scaling) or carrying decaying
//! backlog are recomputed per batch, with a debug-build cross-check
//! against the full recompute. Determinism is
//! structural: events order by `(time, kind, card, id, shard)` with
//! kinds ordered `Arrival < Completion < StepComplete < Preemption <
//! Warmed < ScaleCheck < CardDeath < CardDegrade < CardRevive`, the
//! waiting queue orders by `(class rank, id)`, and all randomness lives
//! in the seeded generators upstream. Preempted completions are handled
//! by tombstoning: the stale completion timer stays in the heap and is
//! dropped at delivery when its row now holds another request (ids are
//! unique per trace) or its shard id no longer matches a live slot in the
//! row's shard chain.

use crate::arrival::ArrivalProcess;
use crate::cost::CostModel;
use crate::event::{Event, EventQueue, PriorityQueue};
use crate::fault::{FaultKind, FaultPlan};
use crate::fleet::{Admission, Card, Fleet, FleetConfig};
use crate::metrics::{
    CardSummary, CostPrediction, FaultSummary, PreemptionRecord, QueueSample, QueueSummary,
    ReportAccum, ServeReport,
};
use crate::policy::{CardView, DispatchPolicy};
use crate::request::{CompletedRequest, Request};
use crate::scale::{Autoscaler, AutoscalerConfig};
use crate::trace::{GaugeSample, KernelCounters, NullSink, TelemetryMode, TraceSink};
use swat_numeric::SplitMix64;
use swat_workloads::{RequestClass, RequestMix};

/// A traffic specification: arrivals × shape mix × seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// When requests arrive.
    pub arrivals: ArrivalProcess,
    /// What they look like.
    pub mix: RequestMix,
    /// Master seed; arrival times and shapes use decorrelated substreams.
    pub seed: u64,
}

impl TrafficSpec {
    /// The first `n` requests of this traffic stream.
    pub fn requests(&self, n: usize) -> Vec<Request> {
        let times = self.arrivals.times(n, self.seed);
        self.with_shapes(times)
    }

    /// All requests arriving within `[0, horizon)` seconds.
    pub fn requests_in(&self, horizon: f64) -> Vec<Request> {
        let times = self.arrivals.times_in(horizon, self.seed);
        self.with_shapes(times)
    }

    fn with_shapes(&self, times: Vec<f64>) -> Vec<Request> {
        let mut rng = SplitMix64::new(self.seed ^ 0x005E_A9E5);
        times
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let (shape, class) = self.mix.sample_classed(&mut rng);
                Request::classed(i as u64, t, shape, class)
            })
            .collect()
    }

    /// The first `n` requests with decode plans sampled from `decode`.
    ///
    /// Plans draw from their own decorrelated substream
    /// (`seed ^ 0xDEC0_DE00`), so arrival times and shapes are
    /// byte-identical to [`TrafficSpec::requests`] — attaching a decode
    /// mix never perturbs the base traffic. A one-shot `decode`
    /// ([`DecodeMix::one_shot`](swat_workloads::DecodeMix::one_shot))
    /// still consumes the same two draws per request but produces inert
    /// plans, keeping A/B sweeps aligned. An invalid `decode` panics with
    /// [`DecodeMix::validate`](swat_workloads::DecodeMix::validate)'s
    /// diagnostic.
    pub fn decode_requests(&self, n: usize, decode: &swat_workloads::DecodeMix) -> Vec<Request> {
        decode.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut rng = SplitMix64::new(self.seed ^ 0xDEC0_DE00);
        self.requests(n)
            .into_iter()
            .map(|r| {
                let plan = decode.sample_plan(&mut rng);
                r.with_decode(plan)
            })
            .collect()
    }
}

/// The overload valve: whether (and when) the fleet refuses work instead
/// of queueing it.
///
/// Each priority class carries its own **admission budget**: an arriving
/// request of class `c` is rejected when the queue already holds
/// `queue_caps[c.rank()]` or more requests (of any class). Tighter caps
/// on lower classes keep best-effort filler from burying
/// latency-sensitive traffic during overload while interactive work stays
/// admitted; an uncapped class (`None`) is always admitted.
///
/// # Examples
///
/// ```
/// use swat_serve::sim::AdmissionControl;
/// use swat_workloads::RequestClass;
///
/// // Shed background at depth 16, batch at 64, never shed interactive.
/// let admission = AdmissionControl::admit_all()
///     .with_cap(RequestClass::Batch, 64)
///     .with_cap(RequestClass::Background, 16);
/// assert!(admission.admits(RequestClass::Interactive, 1_000));
/// assert!(admission.admits(RequestClass::Batch, 63));
/// assert!(!admission.admits(RequestClass::Background, 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionControl {
    /// Per-class queue-depth caps, indexed by [`RequestClass::rank`]
    /// (`None` = that class is always admitted).
    pub queue_caps: [Option<usize>; RequestClass::ALL.len()],
}

impl AdmissionControl {
    /// Admit everything (the default).
    pub fn admit_all() -> AdmissionControl {
        AdmissionControl {
            queue_caps: [None; RequestClass::ALL.len()],
        }
    }

    /// Caps `class` arrivals at queue depth `cap`, leaving other budgets
    /// unchanged.
    pub fn with_cap(mut self, class: RequestClass, cap: usize) -> AdmissionControl {
        self.queue_caps[class.rank() as usize] = Some(cap);
        self
    }

    /// Whether an arrival of `class` is admitted at `queue_depth`.
    pub fn admits(&self, class: RequestClass, queue_depth: usize) -> bool {
        match self.queue_caps[class.rank() as usize] {
            Some(cap) => queue_depth < cap,
            None => true,
        }
    }
}

/// The dispatcher's patience: how long an interactive request may wait
/// before an in-flight background job is checkpointed off its card to
/// make room.
///
/// When enabled, every admitted interactive arrival arms a timer. If the
/// request is still queued when the timer fires, the dispatcher evicts
/// one in-flight background shard, checkpoints its completed jobs, and
/// requeues it; the freed pipeline is dispatched in the same event batch,
/// so the waiting interactive request (or whatever else now heads the
/// queue) runs immediately. The victim resumes later with its checkpoint
/// plus a restart penalty ([`crate::fleet::Card::restart_seconds`]).
/// While the request keeps waiting *and* a future firing could still
/// find a victim (one was just evicted, or background work remains in
/// flight), the timer re-arms every threshold.
///
/// **Victim selection**: [`PreemptionControl::after_wait`] keeps the
/// original rule — the youngest background shard (highest request id,
/// highest shard id: the one that has banked the least work), which also
/// keeps its schedules bitwise identical to earlier releases.
/// [`PreemptionControl::cost_aware`] instead asks the shared
/// [`CostModel`] to price every candidate eviction (work thrown away +
/// restart penalty + forfeited weight swap;
/// [`CostModel::preemption_cost`]) and takes the cheapest, so a shard
/// that just finished streaming a family in, or that sits mid-way
/// through a job, is spared in favour of one whose eviction wastes less.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreemptionControl {
    /// Seconds an interactive request may wait before background work is
    /// preempted (`None` = never preempt, the default).
    pub wait_threshold_s: Option<f64>,
    /// Whether victims are selected by minimum predicted eviction cost
    /// instead of youngest-first.
    pub cost_aware_victims: bool,
}

impl PreemptionControl {
    /// Never preempt (the default): service is run-to-completion.
    pub fn disabled() -> PreemptionControl {
        PreemptionControl {
            wait_threshold_s: None,
            cost_aware_victims: false,
        }
    }

    /// Preempt background work once an interactive request has waited
    /// `threshold_s`, evicting the youngest in-flight background shard.
    ///
    /// # Panics
    ///
    /// Panics with [`validate`](PreemptionControl::validate)'s diagnostic.
    pub fn after_wait(threshold_s: f64) -> PreemptionControl {
        let control = PreemptionControl {
            wait_threshold_s: Some(threshold_s),
            cost_aware_victims: false,
        };
        control.validate().unwrap_or_else(|e| panic!("{e}"));
        control
    }

    /// Like [`PreemptionControl::after_wait`], but victims are selected
    /// by minimum predicted eviction cost under the fleet's
    /// [`CostModel`] (ties fall back to youngest-first, so selection
    /// stays deterministic).
    ///
    /// # Panics
    ///
    /// As [`after_wait`](PreemptionControl::after_wait).
    pub fn cost_aware(threshold_s: f64) -> PreemptionControl {
        PreemptionControl {
            cost_aware_victims: true,
            ..PreemptionControl::after_wait(threshold_s)
        }
    }

    /// Checks the threshold, if any, is positive and finite.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the threshold.
    pub fn validate(&self) -> Result<(), String> {
        match self.wait_threshold_s {
            Some(t) if !(t.is_finite() && t > 0.0) => Err(format!(
                "preemption threshold must be positive and finite, got {t}"
            )),
            _ => Ok(()),
        }
    }
}

/// Queue-timeline samples kept per run; beyond this the timeline stays
/// truncated (max/mean remain exact) so 10⁵-request sweeps stay small.
const TIMELINE_CAP: usize = 4096;

/// A configured simulation: a fleet plus run options (the report's
/// arrivals label, admission control, preemption, autoscaling, faults,
/// telemetry and decode batching), each set by one builder method and
/// inert by default.
///
/// # Examples
///
/// ```
/// use swat_serve::fleet::FleetConfig;
/// use swat_serve::policy::LeastLoaded;
/// use swat_serve::sim::{AdmissionControl, Simulation, TrafficSpec};
/// use swat_serve::arrival::ArrivalProcess;
/// use swat_workloads::{RequestClass, RequestMix};
///
/// let spec = TrafficSpec {
///     arrivals: ArrivalProcess::poisson(30.0),
///     mix: RequestMix::Production,
///     seed: 1,
/// };
/// let report = Simulation::new(&FleetConfig::standard(2))
///     .arrivals_label("poisson/production")
///     .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 64))
///     .run(&mut LeastLoaded::default(), &spec.requests(200));
/// assert_eq!(report.arrivals, "poisson/production");
/// assert_eq!(report.offered, 200);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    fleet: &'a FleetConfig,
    arrivals_label: String,
    admission: AdmissionControl,
    preemption: PreemptionControl,
    autoscale: Option<AutoscalerConfig>,
    telemetry: TelemetryMode,
    faults: FaultPlan,
    decode_batching: DecodeBatching,
}

/// How a multi-step decode request re-enters the fleet at each step
/// boundary. Irrelevant for one-shot traffic (no step boundaries exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodeBatching {
    /// **Continuous batching** (the default): a finished step releases
    /// its pipelines and the remnant goes back through the dispatch
    /// queue, interleaving with new arrivals. Short fresh requests can
    /// overtake a long decode between its steps — the behaviour that
    /// wins on interactive tail latency — and each step's fan-out width
    /// is re-planned by the policy.
    #[default]
    Continuous,
    /// **Whole-job queueing**: the next step re-admits immediately on
    /// the card the previous step fanned in on, holding the request's
    /// claim until the plan runs out (or exits early). Arrivals wait;
    /// this is the classic run-to-completion baseline. If the card
    /// cannot take the step (died or was parked at the same instant),
    /// the remnant falls back to the dispatch queue.
    WholeJob,
}

impl DecodeBatching {
    /// Both modes, the default first.
    pub const ALL: [DecodeBatching; 2] = [DecodeBatching::Continuous, DecodeBatching::WholeJob];

    /// Sweep-facing label.
    pub fn name(&self) -> &'static str {
        match self {
            DecodeBatching::Continuous => "continuous",
            DecodeBatching::WholeJob => "whole-job",
        }
    }
}

impl<'a> Simulation<'a> {
    /// A simulation of `fleet` with default options: label `"trace"`,
    /// admit everything, never preempt, no autoscaler (every card powered
    /// for the whole run).
    pub fn new(fleet: &'a FleetConfig) -> Simulation<'a> {
        Simulation {
            fleet,
            arrivals_label: "trace".to_string(),
            admission: AdmissionControl::admit_all(),
            preemption: PreemptionControl::disabled(),
            autoscale: None,
            telemetry: TelemetryMode::Exact,
            faults: FaultPlan::none(),
            decode_batching: DecodeBatching::Continuous,
        }
    }

    /// Sets the report's `arrivals` label (what generated the trace).
    pub fn arrivals_label(mut self, label: impl Into<String>) -> Simulation<'a> {
        self.arrivals_label = label.into();
        self
    }

    /// Sets the admission-control knob.
    pub fn admission(mut self, admission: AdmissionControl) -> Simulation<'a> {
        self.admission = admission;
        self
    }

    /// Sets the preemption knob.
    pub fn preemption(mut self, preemption: PreemptionControl) -> Simulation<'a> {
        self.preemption = preemption;
        self
    }

    /// Runs the fleet under an [`Autoscaler`] applying `config`: the first
    /// `min_cards` cards start powered, the rest parked, and capacity
    /// follows queue depth from there.
    pub fn autoscale(mut self, config: AutoscalerConfig) -> Simulation<'a> {
        self.autoscale = Some(config);
        self
    }

    /// Injects a seeded [`FaultPlan`]: card deaths, calibration
    /// degradation, revivals. Faults are delivered as kernel events from
    /// the same deterministic heap as everything else (ordered after
    /// completions at an equal instant), so a faulted run is exactly as
    /// reproducible as a healthy one. Fault times earlier than the first
    /// arrival are clamped to it — a fault cannot precede the trace —
    /// and faults scheduled past the natural drain never fire. The empty
    /// plan is bitwise identical to not calling this at all.
    pub fn faults(mut self, plan: FaultPlan) -> Simulation<'a> {
        self.faults = plan;
        self
    }

    /// Sets how the report holds its latency distributions. One
    /// accumulator folds every completion as it fans in, in either mode.
    /// [`TelemetryMode::Exact`] (the default) keeps one `f64` per sample
    /// per distribution and computes exact percentiles;
    /// [`TelemetryMode::Streaming`] holds memory independent of trace
    /// length — a log-bucketed histogram behind every p50/p95/p99 field
    /// (the `decode` block's included), each percentile within
    /// 2⁻⁷ ≈ 0.78 % of the exact one, plus a bounded time-bucketed gauge
    /// series attached as [`ServeReport::telemetry`] — and omits the
    /// exact-only [`ServeReport::sessions`] block. The *schedule* is
    /// bitwise identical either way; only the report's percentiles are
    /// approximated.
    pub fn telemetry(mut self, mode: TelemetryMode) -> Simulation<'a> {
        self.telemetry = mode;
        self
    }

    /// Sets how decode remnants re-enter the fleet at step boundaries
    /// (default [`DecodeBatching::Continuous`]). A no-op for one-shot
    /// traffic: both modes are bitwise identical when no request owes a
    /// second step.
    pub fn decode_batching(mut self, mode: DecodeBatching) -> Simulation<'a> {
        self.decode_batching = mode;
        self
    }

    /// Runs `requests` (sorted by arrival) through the fleet under
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty, holds a non-finite arrival, is not
    /// sorted by arrival time, or contains duplicate ids (ids must be
    /// unique — the dispatch queue and the event heap break ties by id,
    /// so duplicates would make the schedule ambiguous); with the
    /// diagnostic of [`PreemptionControl::validate`] (whose public fields
    /// can hold a threshold its constructors reject),
    /// [`AutoscalerConfig::validate`] or [`FaultPlan::validate`]; or if
    /// the fleet configuration is invalid. A trace shed in its entirety
    /// by admission control is fine: the report comes back with zero
    /// completions and finite metrics.
    pub fn run(&self, policy: &mut dyn DispatchPolicy, requests: &[Request]) -> ServeReport {
        self.run_traced(policy, requests, &mut NullSink)
    }

    /// Like [`Simulation::run`], with a [`TraceSink`] observing every
    /// schedule decision (arrivals, sheds, dispatches, shard
    /// start/finish, fan-ins, preemptions, warm-ups, scaling, gauges).
    /// Sinks cannot feed back into the schedule: the returned report is
    /// bitwise identical to [`Simulation::run`]'s (the trace-neutrality
    /// proptest pins this).
    ///
    /// # Panics
    ///
    /// As [`Simulation::run`].
    pub fn run_traced(
        &self,
        policy: &mut dyn DispatchPolicy,
        requests: &[Request],
        sink: &mut dyn TraceSink,
    ) -> ServeReport {
        let mut counters = KernelCounters::default();
        self.run_inner(policy, requests, sink, &mut counters)
    }

    /// Like [`Simulation::run`], additionally returning the kernel's
    /// self-profiling [`KernelCounters`] — event counts by kind,
    /// tombstones, peak heap/queue sizes. The counters are sim-domain and
    /// deterministic (`serve_sweep` writes each cell's to
    /// `BENCH_kernel.json`); divide [`KernelCounters::events_total`] by a
    /// wall-clock measurement of this call to get events/sec.
    ///
    /// # Panics
    ///
    /// As [`Simulation::run`].
    pub fn run_profiled(
        &self,
        policy: &mut dyn DispatchPolicy,
        requests: &[Request],
    ) -> (ServeReport, KernelCounters) {
        let mut counters = KernelCounters::default();
        let report = self.run_inner(policy, requests, &mut NullSink, &mut counters);
        (report, counters)
    }

    fn run_inner(
        &self,
        policy: &mut dyn DispatchPolicy,
        requests: &[Request],
        sink: &mut dyn TraceSink,
        counters: &mut KernelCounters,
    ) -> ServeReport {
        check_trace(requests)
            .and_then(|()| self.preemption.validate())
            .and_then(|()| self.faults.validate(self.fleet.cards()))
            .unwrap_or_else(|e| panic!("{e}"));
        let mut k = Kernel::new(self, policy, requests, sink, counters);
        while let Some((now, first)) = k.events.pop() {
            // +1 for the entry just popped: the heap's peak population
            // includes the event being delivered.
            k.counters.peak_event_heap = k.counters.peak_event_heap.max(k.events.len() + 1);
            k.depth_integral += k.queue.len() as f64 * (now - k.last_event);
            k.last_event = now;
            // Deliver this event and every other event due at exactly
            // `now` (the heap orders ties by kind, then card, id and
            // shard) before dispatching.
            let mut next = Some(first);
            while let Some(event) = next {
                k.counters.events_by_kind[event.kind_index()] += 1;
                match event {
                    Event::Arrival { index, .. } => k.arrival(now, index),
                    Event::Completion {
                        id, shard, index, ..
                    } => k.completion(now, id, shard, index),
                    Event::StepComplete { card, id, index } => {
                        k.step_complete(now, card, id, index)
                    }
                    Event::Preemption { id } => k.preemption(now, id),
                    Event::Warmed { card } => k.warmed(now, card),
                    // No state change: an idle card reached park
                    // eligibility, and the settle below must see it now.
                    Event::ScaleCheck => {}
                    Event::CardDeath { card } => k.card_death(now, card),
                    Event::CardDegrade { card, factor } => k.card_degrade(now, card, factor),
                    Event::CardRevive { card, warmup_s } => k.card_revive(now, card, warmup_s),
                }
                next = (k.events.next_time() == Some(now))
                    .then(|| k.events.pop().expect("peeked event must pop").1);
            }
            k.dispatch_round(now);
            k.settle(now);
            // Stop once the outcome is final: every arrival delivered,
            // nothing queued, nothing in flight. The heap may still hold
            // stale preemption timers and warm-up markers — all no-ops
            // from here — and letting them tick would push `last_event`
            // past the last completion, silently charging phantom
            // powered/idle time to the energy accounting.
            if k.arrivals_done && k.queue.is_empty() && k.table.live.is_empty() {
                break;
            }
        }
        k.finish()
    }
}

/// Checks that `requests` is a non-empty trace of finite, arrival-sorted
/// times with unique ids (see [`Simulation::run`]; `ScenarioSpec::run`
/// checks the trace it generates with it too), naming the first broken rule.
pub(crate) fn check_trace(requests: &[Request]) -> Result<(), String> {
    if requests.is_empty() {
        return Err("cannot simulate zero requests".to_string());
    }
    let n = requests.len();
    let mut last = requests[0].arrival;
    let mut positional = true;
    for (i, r) in requests.iter().enumerate() {
        if !r.arrival.is_finite() {
            return Err(format!("arrival {i} of {n} resolves to a non-finite time"));
        }
        if r.arrival < last {
            return Err("requests must be sorted by arrival".to_string());
        }
        last = r.arrival;
        positional &= r.id == i as u64;
    }
    // Id uniqueness. Every traffic generator numbers requests by arrival
    // position, and ids equal to positions are unique, so generated traces
    // allocate nothing here; any other numbering is sorted and checked for
    // equal neighbours.
    if positional {
        return Ok(());
    }
    let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(
            "request ids must be unique (the kernel's tie-breaking orders by id)".to_string(),
        );
    }
    Ok(())
}

/// One run's mutable state, with one handler per event kind (from
/// [`Kernel::arrival`] to [`Kernel::card_revive`]).
///
/// [`Simulation::run_inner`] pops each same-instant event batch, hands
/// every event to its handler, then runs [`Kernel::dispatch_round`] and
/// [`Kernel::settle`]; [`Kernel::finish`] builds the report. Each
/// transition the handlers share has one home: every shard starts
/// through [`Kernel::start_shard`], and every evicted shard, preempted or
/// lost with its card, requeues through [`Kernel::requeue_remnant`].
struct Kernel<'k> {
    sim: &'k Simulation<'k>,
    policy: &'k mut dyn DispatchPolicy,
    sink: &'k mut dyn TraceSink,
    counters: &'k mut KernelCounters,
    /// Whether hooks fire at all: the default [`NullSink`] opts out, so
    /// the untraced path pays nothing beyond this one bool.
    traced: bool,
    fleet: Fleet,
    /// The shared predictive cost model: the same per-card timing the
    /// cards charge, snapshotted for the planner (policies price shard
    /// plans against it, cost-aware preemption prices victims). A
    /// degrade fault re-snapshots it, so planning keeps charging exactly
    /// what admission charges.
    cost: CostModel,
    scaler: Option<Autoscaler>,
    /// The caller's trace, read one arrival at a time; the kernel keeps no
    /// copy of it.
    trace: &'k [Request],
    events: EventQueue,
    arrivals_done: bool,
    queue: PriorityQueue,
    /// The arena: a row (working copy plus fan-in record) for each queued
    /// or in-flight request, and the shard-slot slab. Every lookup is a
    /// row index carried by the event itself; a completion whose row now
    /// holds another request, or whose shard id no longer matches a live
    /// slot, is a tombstone and is dropped at delivery.
    table: FlightTable,
    /// One snapshot per card, maintained incrementally. A card is
    /// recomputed only when an event marked it `stale` or its last
    /// snapshot still carried backlog (backlog decays with time; a
    /// zero-backlog card cannot change without an event naming it —
    /// every admission, completion, eviction, warm-up, and scaling
    /// decision marks its card).
    views: Vec<CardView>,
    stale: Vec<bool>,
    /// Shards currently executing — maintained incrementally so gauge
    /// samples never scan the fan-in table.
    live_shards: usize,
    /// Per-card planned stream counts for the plan being admitted (the
    /// contention each admission is charged) — no allocation per
    /// dispatch.
    stream_scratch: Vec<(usize, usize)>,
    /// Predicted-vs-realized fan-in error over multi-shard plans: the
    /// live audit that admission charges what the planner priced.
    priced_plans: usize,
    prediction_abs_error: f64,
    prediction_max_error: f64,
    accum: ReportAccum,
    preemptions: Vec<PreemptionRecord>,
    /// Delivered-fault tallies for the report's `faults` block (`failed`
    /// is filled in by [`Kernel::finish`]).
    faults: FaultSummary,
    /// Queue-depth integral for the time-weighted mean, up to
    /// `last_event`. The timeline caps at [`TIMELINE_CAP`] samples;
    /// `samples_total` keeps counting so the report can tell a capped
    /// timeline from a complete one.
    depth_integral: f64,
    last_event: f64,
    timeline: Vec<QueueSample>,
    samples_total: usize,
}

impl<'k> Kernel<'k> {
    fn new(
        sim: &'k Simulation<'k>,
        policy: &'k mut dyn DispatchPolicy,
        trace: &'k [Request],
        sink: &'k mut dyn TraceSink,
        counters: &'k mut KernelCounters,
    ) -> Kernel<'k> {
        let mut fleet: Fleet = sim.fleet.build().expect("invalid fleet configuration");
        let t0 = trace[0].arrival;
        let mut scaler = sim.autoscale.map(Autoscaler::new);
        match scaler.as_mut() {
            Some(s) => s.begin(&mut fleet, t0),
            None => {
                for i in 0..fleet.cards().len() {
                    fleet.card_mut(i).set_initial_power(true, t0);
                }
            }
        }
        // Arrivals feed the heap lazily — popping arrival i schedules
        // arrival i+1 — so the heap never holds more than (in-flight + 1)
        // entries plus armed timers. The whole fault plan is scheduled
        // up-front: fault times are fixed by the plan, not by simulation
        // state. Times before the first arrival clamp to it (a fault
        // cannot precede the trace).
        let mut events = EventQueue::new();
        let id = trace[0].id;
        events.push(t0, Event::Arrival { index: 0, id });
        for f in sim.faults.events() {
            let card = f.card;
            let event = match f.kind {
                FaultKind::Kill => Event::CardDeath { card },
                FaultKind::Degrade { factor } => Event::CardDegrade { card, factor },
                FaultKind::Revive { warmup_s } => Event::CardRevive { card, warmup_s },
            };
            events.push(f.time.max(t0), event);
        }
        Kernel {
            traced: sink.enabled(),
            cost: CostModel::for_fleet(&fleet),
            // Read once: a policy that ranks by remaining work gets the
            // queue's work index (O(log n) picks); every other policy
            // skips the index's per-push and per-take upkeep.
            queue: if policy.ranks_by_remaining_work() {
                PriorityQueue::with_work_index()
            } else {
                PriorityQueue::new()
            },
            accum: ReportAccum::new(sim.telemetry, policy.name(), &sim.arrivals_label),
            table: FlightTable::new(fleet.total_pipelines()),
            views: fleet
                .cards()
                .iter()
                .enumerate()
                .map(|(i, c)| card_view(i, c, t0))
                .collect(),
            stale: vec![false; fleet.cards().len()],
            sim,
            policy,
            sink,
            counters,
            fleet,
            scaler,
            trace,
            events,
            arrivals_done: false,
            live_shards: 0,
            stream_scratch: Vec::new(),
            priced_plans: 0,
            prediction_abs_error: 0.0,
            prediction_max_error: 0.0,
            preemptions: Vec::new(),
            faults: FaultSummary::default(),
            depth_integral: 0.0,
            last_event: t0,
            timeline: Vec::new(),
            samples_total: 0,
        }
    }

    /// Request `index` of the trace arrives: the next arrival is
    /// scheduled, then the request takes a flight row and is queued
    /// (arming its preemption timer if it is interactive), or is shed by
    /// admission control without taking a row.
    fn arrival(&mut self, now: f64, index: usize) {
        match self.trace.get(index + 1) {
            Some(r) => {
                let (index, id) = (index + 1, r.id);
                self.events.push(r.arrival, Event::Arrival { index, id });
            }
            None => self.arrivals_done = true,
        }
        let request = &self.trace[index];
        if self.traced {
            self.sink.arrival(now, request);
        }
        if !self.sim.admission.admits(request.class, self.queue.len()) {
            if self.traced {
                self.sink.shed(now, request);
            }
            self.accum.reject(request);
            return;
        }
        let row = self.table.open(request);
        self.queue.push(request, row);
        match self.sim.preemption.wait_threshold_s {
            Some(threshold) if request.class == RequestClass::Interactive => {
                self.events
                    .push(now + threshold, Event::Preemption { id: request.id });
            }
            _ => {}
        }
    }

    /// A shard drained. A timer whose row now holds another request, or
    /// whose shard id has no live slot, is the stale timer of an evicted
    /// shard — dropped. The request's last outstanding shard fans in its
    /// decode step: the request completes and frees its row, or, with
    /// more steps owed, a [`Event::StepComplete`] at `now` re-enters it.
    fn completion(&mut self, now: f64, id: u64, shard: u32, index: u32) {
        let fi = index as usize;
        // An evicted shard's timer can outlive its request. Its row may
        // then hold a later request, whose shard ids also start at 0, so
        // the id check comes first (ids are unique per trace).
        let slot = if self.table.requests[fi].id == id {
            self.table.unlink_shard(fi, shard)
        } else {
            None
        };
        let Some(slot) = slot else {
            self.counters.tombstoned_completions += 1;
            return;
        };
        // Every completion is pushed at its admission's finish, so a
        // timer delivered to the wrong shard shows here.
        debug_assert_eq!(
            slot.admission.finish, now,
            "completion reached the wrong shard"
        );
        self.live_shards -= 1;
        self.stale[slot.card] = true;
        if self.traced {
            self.sink
                .shard_finish(now, id, slot.shard, slot.card, slot.pipeline);
        }
        let meta = &mut self.table.flights[fi];
        if meta.shard_count > 0 || meta.queued_jobs > 0 {
            return;
        }
        let request = &mut self.table.requests[fi];
        request.steps_done += 1;
        if request.steps_done == 1 {
            meta.first_step_finish = now;
        }
        // `exits_after` never draws for a zero-probability plan, so
        // one-shot traffic touches no RNG here.
        let finished_naturally = request.steps_done >= request.decode.steps;
        if !finished_naturally && !request.decode.exits_after(request.steps_done - 1) {
            // More steps owed. The step boundary is delivered after every
            // completion at `now` and before any preemption, scaling or
            // fault; the flight stays live with an empty shard chain,
            // keeping the termination check honest.
            let card = slot.card;
            self.events
                .push(now, Event::StepComplete { card, id, index });
            return;
        }
        let record = CompletedRequest {
            request: *request,
            dispatched: meta.dispatched,
            finished: now,
            first_step_finished: meta.first_step_finish,
            card: slot.card,
            pipeline: slot.pipeline,
            shards: meta.max_width,
        };
        self.table.close(index);
        if self.traced {
            self.sink.fan_in(now, &record);
        }
        self.accum.complete(&record);
    }

    /// A non-final decode step fanned in on `card`: the job cursor
    /// rewinds to the full attention grid and the next step re-enters
    /// service — re-admitted in place on `card` under
    /// [`DecodeBatching::WholeJob`] while the card can take it, otherwise
    /// through the dispatch queue, where the policy re-plans its width.
    fn step_complete(&mut self, now: f64, card: usize, id: u64, index: u32) {
        let fi = index as usize;
        debug_assert_eq!(self.table.requests[fi].id, id);
        debug_assert!(
            self.table.flights[fi].live && self.table.flights[fi].shard_count == 0,
            "a step boundary found shards still in flight"
        );
        let request = &mut self.table.requests[fi];
        let jobs = request.shape.jobs();
        request.jobs_done = 0;
        request.jobs_end = jobs;
        if self.traced {
            self.sink.step_complete(now, id, request.steps_done, card);
        }
        // Kind ordering delivers this event before any fault or scaling
        // decision at `now`, so the pipeline the step just freed is still
        // free; a dead or parked card falls through to the queue.
        let c = &self.fleet.cards()[card];
        if self.sim.decode_batching == DecodeBatching::WholeJob
            && c.dispatchable(now)
            && c.idle_pipelines(now) > 0
        {
            let streams = c.pipelines() - c.idle_pipelines(now) + 1;
            self.counters.dispatches += 1;
            self.counters.shards_dispatched += 1;
            if self.traced {
                self.sink
                    .dispatch(now, &self.table.requests[fi], &[card], None);
            }
            self.table.flights[fi].dispatched = now;
            self.start_shard(now, fi, card, 0, jobs, streams);
        } else {
            self.table.flights[fi].queued_jobs = jobs;
            self.queue.push(&self.table.requests[fi], index);
        }
    }

    /// Interactive request `waiting` outwaited the dispatcher's patience.
    /// If it is still queued (dispatched or shed means the timer outlived
    /// its request), one in-flight background shard is checkpointed and
    /// requeued; the freed pipeline is dispatched in this batch.
    fn preemption(&mut self, now: f64, waiting: u64) {
        let key = (RequestClass::Interactive.rank(), waiting);
        if !self.queue.contains(key) {
            return;
        }
        let victim = self.pick_victim(now);
        if let Some((fi, shard, victim_cost)) = victim {
            let (slot, done) = self.requeue_remnant(now, fi, shard, true);
            self.counters.preemption_evictions += 1;
            let record = PreemptionRecord {
                time: now,
                preempted: self.table.requests[fi].id,
                waiting,
                card: slot.card,
                jobs_checkpointed: done,
            };
            if self.traced {
                self.sink
                    .preempted(now, &record, slot.shard, slot.pipeline, victim_cost);
            }
            self.preemptions.push(record);
        }
        // Re-arm only while a future firing could still find a victim:
        // after an eviction, or while background work remains in flight.
        // With priority-ordered dispatch no *new* background job can start
        // while this request waits, so a no-victim firing with nothing in
        // flight would re-fire as a no-op every threshold forever.
        let background_in_flight = self.table.live.iter().any(|&i| {
            self.table.requests[i as usize].class == RequestClass::lowest()
                && self.table.flights[i as usize].shard_count > 0
        });
        if victim.is_some() || background_in_flight {
            let threshold = self
                .sim
                .preemption
                .wait_threshold_s
                .expect("preemption events only exist when enabled");
            self.events
                .push(now + threshold, Event::Preemption { id: waiting });
        }
    }

    /// The in-flight background shard a preemption evicts — flight row,
    /// shard id, and its eviction price under
    /// [`PreemptionControl::cost_aware`] — or `None` when there is none.
    ///
    /// The cheapest eviction wins ([`CostModel::preemption_cost`]: work
    /// thrown away + restart + forfeited swap), ties going to the
    /// youngest (highest request id, then highest shard id: the one that
    /// has banked the least work). [`PreemptionControl::after_wait`]'s
    /// youngest-first rule is this scan with every price equal.
    fn pick_victim(&self, now: f64) -> Option<(usize, u32, Option<f64>)> {
        let priced = self.sim.preemption.cost_aware_victims;
        let mut best: Option<(f64, u64, u32, usize)> = None;
        for &fi in &self.table.live {
            let request = &self.table.requests[fi as usize];
            if request.class != RequestClass::lowest() {
                continue;
            }
            for slot in self.table.shards_of(fi as usize) {
                let a = &slot.admission;
                let price = if priced {
                    // The re-swap term applies only when eviction would
                    // tear a swap still streaming in — the same condition
                    // under which `Card::preempt` drops the residency.
                    self.cost.preemption_cost(
                        slot.card,
                        &request.shape,
                        now - slot.dispatched,
                        a.stall_seconds,
                        a.per_job_seconds,
                        slot.jobs,
                        a.swap_seconds > 0.0 && now < slot.dispatched + a.swap_seconds,
                    )
                } else {
                    0.0
                };
                let better = best.is_none_or(|(b, id, shard, _)| {
                    let younger = (id, shard).cmp(&(request.id, slot.shard));
                    price.total_cmp(&b).then(younger).is_lt()
                });
                if better {
                    best = Some((price, request.id, slot.shard, fi as usize));
                }
            }
        }
        best.map(|(price, _, shard, fi)| (fi, shard, priced.then_some(price)))
    }

    fn warmed(&mut self, now: f64, card: usize) {
        // The card's `available_at` just passed: its view flips from zero
        // idle pipelines to dispatchable.
        self.stale[card] = true;
        if self.traced {
            self.sink.warmed(now, card);
        }
    }

    /// A card dies. Every live shard on it is lost: its checkpointed
    /// jobs survive (checkpoints live off-card — the same durability
    /// preemption assumes) and its unfinished tail requeues through the
    /// release path preemption uses, except that nothing is charged to
    /// the preemption counters: a death is not a scheduling decision.
    /// Killing an already-dead card is an uncounted no-op (a storm may
    /// schedule overlapping deaths).
    fn card_death(&mut self, now: f64, card: usize) {
        if self.fleet.cards()[card].dead() {
            return;
        }
        // `table.live` is id-sorted and evictions leave it unchanged, so
        // the eviction order is deterministic.
        let mut lost = 0;
        for pos in 0..self.table.live.len() {
            let fi = self.table.live[pos] as usize;
            loop {
                let on_card = self.table.shards_of(fi).find(|s| s.card == card);
                let Some(shard) = on_card.map(|s| s.shard) else {
                    break;
                };
                self.requeue_remnant(now, fi, shard, false);
                lost += 1;
            }
        }
        self.fleet.card_mut(card).fail(now);
        self.stale[card] = true;
        self.faults.card_deaths += 1;
        self.faults.shards_lost += lost as u64;
        if self.traced {
            self.sink.card_death(now, card, lost);
        }
    }

    fn card_degrade(&mut self, now: f64, card: usize, factor: f64) {
        self.fleet.card_mut(card).degrade_by(factor);
        // Re-snapshot the shared planner model so shard pricing and
        // cost-aware preemption keep charging the same floats admission
        // now does.
        self.cost = CostModel::for_fleet(&self.fleet);
        self.stale[card] = true;
        self.faults.degrades += 1;
        if self.traced {
            self.sink.card_degrade(now, card, factor);
        }
    }

    /// Revives a dead card (cold, after a warm-up); reviving a live card
    /// is an uncounted no-op.
    fn card_revive(&mut self, now: f64, card: usize, warmup_s: f64) {
        if !self.fleet.cards()[card].dead() {
            return;
        }
        self.fleet.card_mut(card).revive(now, warmup_s);
        self.events.push(now + warmup_s, Event::Warmed { card });
        self.stale[card] = true;
        self.faults.revivals += 1;
        if self.traced {
            self.sink.card_revive(now, card);
        }
    }

    /// Dispatches while the policy finds work and capacity, after the
    /// views refresh incrementally: only cards an event marked stale, or
    /// whose last snapshot still carried backlog (backlog decays with
    /// wall time, so the snapshot is out of date by construction). A card
    /// with zero backlog has every pipeline free past `next_free`, so
    /// nothing about it changes until an event names it — and every such
    /// event marks it stale.
    fn dispatch_round(&mut self, now: f64) {
        for c in 0..self.views.len() {
            if self.stale[c] || self.views[c].backlog_seconds > 0.0 {
                self.views[c] = card_view(c, &self.fleet.cards()[c], now);
                self.stale[c] = false;
            }
        }
        // Debug cross-check: the incremental views must be
        // indistinguishable from a full recompute.
        #[cfg(debug_assertions)]
        for (c, v) in self.views.iter().enumerate() {
            debug_assert_eq!(
                *v,
                card_view(c, &self.fleet.cards()[c], now),
                "dirty-card view diverged on card {c}"
            );
        }
        while let Some((qi, plan)) = self.policy.choose(
            now,
            self.queue.view(&self.table.requests),
            &self.views,
            &self.cost,
        ) {
            self.dispatch(now, qi, &plan);
        }
    }

    /// Runs one policy decision: takes queue entry `qi` and fans its jobs
    /// out across `plan`, one shard per entry, as evenly as the grid
    /// divides (the first `total % width` shards carry one extra job).
    fn dispatch(&mut self, now: f64, qi: usize, plan: &[usize]) {
        let name = self.policy.name();
        assert!(
            !plan.is_empty(),
            "policy {name} returned an empty shard plan"
        );
        let group = self.views[plan[0]].group;
        assert!(
            plan.iter().all(|&c| self.views[c].group == group),
            "policy {name} sharded one request across card groups"
        );
        // Planned streams past a card's pipeline count mean the plan
        // claimed more pipelines than the card had idle.
        let streams = &mut self.stream_scratch;
        crate::cost::plan_stream_counts_into(plan, &self.views, streams);
        assert!(
            streams.iter().all(|&(c, s)| s <= self.views[c].pipelines),
            "policy {name} dispatched to a busy card"
        );
        let fi = self.queue.take(qi) as usize;
        // A shard carries at least one job: cap the fan-out at the
        // fragment's remaining job count.
        let total = self.table.requests[fi].remaining_jobs();
        let width = plan.len().min(total);
        if width < plan.len() {
            crate::cost::plan_stream_counts_into(&plan[..width], &self.views, streams);
        }
        let plan = &plan[..width];
        // Price the realized plan before admission mutates any card, so
        // the predicted-vs-realized audit sees exactly the state the
        // planner saw.
        let request = &self.table.requests[fi];
        let predicted = (width > 1).then(|| self.cost.price_plan(request, plan, &self.views, now));
        self.counters.dispatches += 1;
        self.counters.shards_dispatched += width as u64;
        if self.traced {
            self.sink
                .dispatch(now, request, plan, predicted.as_ref().map(|p| p.fan_in));
        }
        // A requeued remnant rejoins its live fan-in record.
        debug_assert!(
            self.table.flights[fi].queued_jobs == 0 || self.table.flights[fi].queued_jobs == total,
            "queued remnant out of sync with the fan-in table"
        );
        if !self.table.flights[fi].live {
            self.table.flights[fi].live = true;
            self.table.insert_live(fi as u32);
        }
        self.table.flights[fi].queued_jobs = 0;
        self.table.flights[fi].dispatched = now;
        let (base, extra) = crate::cost::job_split(total, width);
        let mut first_job = self.table.requests[fi].jobs_done;
        let mut realized = now;
        for (i, &card) in plan.iter().enumerate() {
            let jobs = base + usize::from(i < extra);
            let streams = self.stream_scratch[self
                .stream_scratch
                .binary_search_by_key(&card, |e| e.0)
                .expect("every plan card was counted")]
            .1;
            realized = realized.max(self.start_shard(now, fi, card, first_job, jobs, streams));
            first_job += jobs;
        }
        let meta = &mut self.table.flights[fi];
        meta.max_width = meta.max_width.max(meta.shard_count);
        if let Some(p) = predicted {
            let error = (realized - p.fan_in).abs();
            self.priced_plans += 1;
            self.prediction_abs_error += error;
            self.prediction_max_error = self.prediction_max_error.max(error);
        }
    }

    /// Admits `jobs` jobs of flight `fi`, from `first_job` on, as one new
    /// shard on `card`, charged `streams` concurrent streams, and returns
    /// its finish. The one place a shard starts: plan dispatch and
    /// whole-job step re-admission both come here.
    fn start_shard(
        &mut self,
        now: f64,
        fi: usize,
        card: usize,
        first_job: usize,
        jobs: usize,
        streams: usize,
    ) -> f64 {
        let request = &mut self.table.requests[fi];
        let admission = self
            .fleet
            .card_mut(card)
            .admit_jobs(request, first_job, jobs, streams, now);
        // Each eviction is paid for exactly once: the remnant's first
        // shard carried any pending restart, its siblings (and later
        // admissions) must not.
        request.pending_restart = false;
        let id = request.id;
        let meta = &mut self.table.flights[fi];
        let shard = meta.next_shard;
        meta.next_shard += 1;
        let pipeline = admission.pipeline;
        self.table.append_shard(
            fi,
            ShardSlot {
                shard,
                card,
                pipeline,
                dispatched: now,
                first_job,
                jobs,
                admission,
            },
        );
        self.live_shards += 1;
        if self.traced {
            self.sink
                .shard_start(now, id, shard, card, pipeline, jobs, admission.finish);
        }
        let index = fi as u32;
        self.events.push(
            admission.finish,
            Event::Completion {
                card,
                id,
                shard,
                index,
            },
        );
        // Only the admitting card's state changed.
        self.views[card] = card_view(card, &self.fleet.cards()[card], now);
        admission.finish
    }

    /// Evicts live shard `shard` of flight `fi` at `now` — a preemption
    /// when `preempted`, else its card's death — and requeues the
    /// unfinished tail. Returns the evicted slot and the jobs it
    /// checkpointed.
    ///
    /// The flight row's record becomes the remnant in place: while a remnant
    /// waits in the queue the record holds exactly its job range
    /// (dispatch restores last-dispatched state), and it owes one restart
    /// penalty that its first admission pays. If a remnant of the same
    /// request is already waiting (an earlier shard was evicted too), the
    /// two merge: the merged entry keeps the exact job *count*, anchored
    /// at the lower offset, though after a merge of disjoint ranges the
    /// enumeration offsets are approximate (evicted shards already re-run
    /// lost partial jobs, so job identity there is best-effort by
    /// design). Sibling shards keep running; the fan-in table joins them
    /// back up with the remnant when it re-dispatches.
    fn requeue_remnant(
        &mut self,
        now: f64,
        fi: usize,
        shard: u32,
        preempted: bool,
    ) -> (ShardSlot, usize) {
        let slot = self
            .table
            .unlink_shard(fi, shard)
            .expect("evicted shard is live");
        self.live_shards -= 1;
        self.stale[slot.card] = true;
        let card = self.fleet.card_mut(slot.card);
        let drained = if preempted {
            card.preempt(&slot.admission, slot.dispatched, now)
        } else {
            card.fail_evict(&slot.admission, slot.dispatched, now)
        };
        // `floor` keeps the checkpoint strictly below the shard's job
        // count; the min guards the float edge where the division lands
        // exactly on it.
        let done = drained.min(slot.jobs - 1);
        let (a, b) = (slot.first_job + done, slot.first_job + slot.jobs);
        let r = &mut self.table.requests[fi];
        // A death leaves `Request::preemptions` alone, keeping the
        // per-card preemption invariants exact under faults.
        r.preemptions += u32::from(preempted);
        r.pending_restart = true;
        (r.jobs_done, r.jobs_end) = if self.queue.remove(r.rank_key()).is_some() {
            // The queued remnant's range is read before it is overwritten;
            // the ranges are disjoint, so the sum never walks off the grid.
            let jd = r.jobs_done.min(a);
            (jd, jd + r.remaining_jobs() + (b - a))
        } else {
            (a, b)
        };
        self.table.flights[fi].queued_jobs = r.remaining_jobs();
        self.queue.push(&self.table.requests[fi], fi as u32);
        (slot, done)
    }

    /// Settles the batch after dispatch: autoscaler feedback, the queue
    /// sample, and the gauge sample.
    fn settle(&mut self, now: f64) {
        // The sink sees fresh scaling decisions by diffing the
        // controller's log around the call. Power flips change a card's
        // view (idle pipelines, dispatchability) without any backlog to
        // betray it.
        if let Some(s) = self.scaler.as_mut() {
            let logged = s.log().len();
            s.evaluate(now, self.queue.len(), &mut self.fleet, &mut self.events);
            for e in &s.log()[logged..] {
                self.stale[e.card] = true;
                if self.traced {
                    self.sink.scaled(e);
                }
            }
        }
        let depth = self.queue.len();
        self.counters.peak_queue_depth = self.counters.peak_queue_depth.max(depth);
        self.samples_total += 1;
        if self.timeline.len() < TIMELINE_CAP {
            self.timeline.push(QueueSample { time: now, depth });
        }
        // The O(cards) fleet scan is skipped entirely on the default
        // (NullSink, Exact) path.
        if self.traced || self.sim.telemetry == TelemetryMode::Streaming {
            let gauges = GaugeSample {
                queue_depth: depth,
                in_flight_shards: self.live_shards,
                powered_cards: self.fleet.powered_cards(),
                utilization: self.live_shards as f64 / self.fleet.total_pipelines() as f64,
                active_energy_joules: self.fleet.active_energy_joules(),
            };
            if self.traced {
                self.sink.gauges(now, &gauges);
            }
            self.accum.gauges(now, &gauges);
        }
    }

    /// Fails what a dead fleet stranded, closes the power clocks and
    /// builds the report.
    fn finish(mut self) -> ServeReport {
        // A drained run leaves nothing queued — unless faults killed the
        // entire fleet, in which case the heap exhausts with work still
        // waiting and no card to run it. Those requests fail: a terminal
        // state distinct from rejection (they were admitted) that keeps
        // the conservation law exact.
        while !self.queue.is_empty() {
            assert!(
                self.fleet.cards().iter().all(Card::dead),
                "drained simulation left requests queued"
            );
            let row = self.queue.take(0);
            let request = &self.table.requests[row as usize];
            if self.traced {
                self.sink.failed(self.last_event, request);
            }
            self.accum.fail(request);
            // A remnant whose sibling shards died too leaves the live
            // index here.
            self.table.close(row);
        }
        assert!(
            self.table.live.is_empty(),
            "drained simulation left work in flight"
        );
        debug_assert_eq!(
            self.table.free.len(),
            self.table.requests.len(),
            "every flight row is returned"
        );
        assert_eq!(
            self.accum.offered(),
            self.trace.len(),
            "every request completes, is shed, or fails"
        );
        self.counters.sim_span_s = self.last_event - self.trace[0].arrival;
        // Close every card's powered clock at the last event — with the
        // early stop, the last completion — so powered/idle accounting
        // covers exactly the reported span.
        for i in 0..self.fleet.cards().len() {
            self.fleet.card_mut(i).close_power_clock(self.last_event);
        }
        // The faults block exists exactly when a plan was injected, so
        // fault-free reports keep their bytes.
        let faults = (!self.sim.faults.is_empty()).then(|| FaultSummary {
            failed: self.accum.failed(),
            ..self.faults
        });
        let span = self.accum.span(self.trace[0].arrival);
        let cards = self
            .fleet
            .cards()
            .iter()
            .enumerate()
            .map(|(i, c)| card_summary(i, c, span))
            .collect();
        let priced = self.priced_plans;
        self.accum.into_report(
            QueueSummary {
                max_depth: self.counters.peak_queue_depth,
                mean_depth: if span > 0.0 {
                    self.depth_integral / span
                } else {
                    0.0
                },
                timeline: self.timeline,
                total_samples: self.samples_total,
            },
            cards,
            self.preemptions,
            self.scaler.map_or_else(Vec::new, Autoscaler::into_log),
            (priced > 0).then_some(CostPrediction {
                plans: priced,
                mean_abs_error_s: self.prediction_abs_error / priced as f64,
                max_error_s: self.prediction_max_error,
            }),
            faults,
        )
    }
}

/// Null arena index: the end of a shard chain, the empty free list.
const NIL: u32 = u32::MAX;

/// The fan-in record of one queued or in-flight request: its live shard
/// chain, any preempted remnant waiting in the queue, and the dispatch
/// bookkeeping the eventual [`CompletedRequest`] reports. It starts empty
/// when the request takes its row at admission; the request completes
/// when the last shard drains *and* no remnant is queued, and the row is
/// freed then.
#[derive(Debug, Clone, Copy)]
struct FlightMeta {
    /// When a card most recently started executing a fragment of it.
    dispatched: f64,
    /// When the request's first decode step fanned in (0.0 until then —
    /// completions are strictly positive, so 0.0 cannot collide). The
    /// eventual [`CompletedRequest::first_step_finished`]; for one-shot
    /// requests it equals the completion instant.
    first_step_finish: f64,
    /// Jobs carried by a requeued preempted remnant currently waiting in
    /// the priority queue (0 when nothing is queued).
    queued_jobs: usize,
    /// Next shard id — unique within the request's lifetime, which is
    /// what lets stale completion timers tombstone per shard. A timer
    /// that outlives its request finds the row holding another request,
    /// whose ids restart at 0; [`Kernel::completion`] tells the two apart
    /// by request id.
    next_shard: u32,
    /// Peak concurrent shard width so far (what the report calls the
    /// request's shard count).
    max_width: u32,
    /// Live shards in the chain (kept so fan-in and victim scans never
    /// walk it just to count).
    shard_count: u32,
    /// First node of the shard chain in [`ShardArena`] (dispatch order).
    head: u32,
    /// Last node of the shard chain — O(1) append.
    tail: u32,
    /// Whether the request is dispatched-and-unfinished (has an entry in
    /// [`FlightTable::live`]).
    live: bool,
}

impl FlightMeta {
    const EMPTY: FlightMeta = FlightMeta {
        dispatched: 0.0,
        first_step_finish: 0.0,
        queued_jobs: 0,
        next_shard: 0,
        max_width: 0,
        shard_count: 0,
        head: NIL,
        tail: NIL,
        live: false,
    };
}

/// One slab node: a shard slot plus the intrusive next-pointer of either
/// its request's chain or the free list.
#[derive(Debug, Clone, Copy)]
struct ShardNode {
    slot: ShardSlot,
    next: u32,
}

/// The shard-slot slab: at most `total_pipelines` shards execute at once,
/// so the slab reaches steady state after the first burst and recycles
/// nodes through a free list — no allocation per dispatch.
#[derive(Debug)]
struct ShardArena {
    nodes: Vec<ShardNode>,
    free: u32,
}

impl ShardArena {
    fn with_capacity(capacity: usize) -> ShardArena {
        ShardArena {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
        }
    }

    fn alloc(&mut self, slot: ShardSlot) -> u32 {
        if self.free == NIL {
            self.nodes.push(ShardNode { slot, next: NIL });
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = ShardNode { slot, next: NIL };
            n
        }
    }

    fn free_node(&mut self, n: u32) {
        self.nodes[n as usize].next = self.free;
        self.free = n;
    }
}

/// The per-run arena: one row per queued or in-flight request (its
/// working copy in `requests` and its [`FlightMeta`] in `flights`, at the
/// row index every queue slot and completion event carries), the free
/// list that recycles rows, the shard slab, and the sorted index of live
/// flights. A request takes a row when admission control lets it in
/// ([`FlightTable::open`]) and gives it back when it completes or fails
/// ([`FlightTable::close`]); a shed request never takes one. The table
/// therefore grows to the peak of queued plus in-flight requests, not to
/// the trace length.
#[derive(Debug)]
struct FlightTable {
    /// Each row's working copy of its request. While a preempted remnant
    /// waits in the queue its record holds the remnant's job range;
    /// dispatch restores last-dispatched state. This is safe because a
    /// request is never queued twice and fan-in waits for
    /// `queued_jobs == 0`.
    requests: Vec<Request>,
    flights: Vec<FlightMeta>,
    /// Rows whose request has completed or failed, reused last-freed
    /// first.
    free: Vec<u32>,
    shards: ShardArena,
    /// Rows of live flights, sorted by request id — ascending
    /// iteration reproduces the replaced `BTreeMap`'s visit order, which
    /// victim selection depends on.
    live: Vec<u32>,
}

impl FlightTable {
    fn new(total_pipelines: usize) -> FlightTable {
        FlightTable {
            requests: Vec::new(),
            flights: Vec::new(),
            free: Vec::new(),
            shards: ShardArena::with_capacity(total_pipelines),
            live: Vec::new(),
        }
    }

    /// Copies an admitted `request` into a free row, or a new one, with
    /// an empty fan-in record, and returns the row.
    fn open(&mut self, request: &Request) -> u32 {
        match self.free.pop() {
            Some(row) => {
                self.requests[row as usize] = *request;
                self.flights[row as usize] = FlightMeta::EMPTY;
                row
            }
            None => {
                self.requests.push(*request);
                self.flights.push(FlightMeta::EMPTY);
                (self.requests.len() - 1) as u32
            }
        }
    }

    /// Frees `row` once its request has completed or failed, taking it out
    /// of the live index if it was dispatched.
    fn close(&mut self, row: u32) {
        let meta = &mut self.flights[row as usize];
        debug_assert_eq!(meta.shard_count, 0, "a freed row has shards in flight");
        if std::mem::replace(&mut meta.live, false) {
            self.remove_live(row);
        }
        self.free.push(row);
    }

    fn insert_live(&mut self, fi: u32) {
        let id = self.requests[fi as usize].id;
        let pos = self
            .live
            .binary_search_by(|&j| self.requests[j as usize].id.cmp(&id))
            .unwrap_err();
        self.live.insert(pos, fi);
    }

    fn remove_live(&mut self, fi: u32) {
        let id = self.requests[fi as usize].id;
        let pos = self
            .live
            .binary_search_by(|&j| self.requests[j as usize].id.cmp(&id))
            .expect("flight was live");
        self.live.remove(pos);
    }

    /// Appends a freshly dispatched shard to flight `fi`'s chain.
    fn append_shard(&mut self, fi: usize, slot: ShardSlot) {
        let node = self.shards.alloc(slot);
        let meta = &mut self.flights[fi];
        if meta.tail == NIL {
            meta.head = node;
        } else {
            self.shards.nodes[meta.tail as usize].next = node;
        }
        meta.tail = node;
        meta.shard_count += 1;
    }

    /// Flight `fi`'s live shards, in dispatch order.
    fn shards_of(&self, fi: usize) -> impl Iterator<Item = &ShardSlot> + '_ {
        let mut node = self.flights[fi].head;
        std::iter::from_fn(move || {
            (node != NIL).then(|| {
                let n = &self.shards.nodes[node as usize];
                node = n.next;
                &n.slot
            })
        })
    }

    /// Unlinks the slot with `shard` id from flight `fi`'s chain, or
    /// `None` when no live slot matches (a tombstoned completion).
    fn unlink_shard(&mut self, fi: usize, shard: u32) -> Option<ShardSlot> {
        let mut prev = NIL;
        let mut node = self.flights[fi].head;
        while node != NIL {
            let n = &self.shards.nodes[node as usize];
            if n.slot.shard == shard {
                let slot = n.slot;
                let next = n.next;
                if prev == NIL {
                    self.flights[fi].head = next;
                } else {
                    self.shards.nodes[prev as usize].next = next;
                }
                if self.flights[fi].tail == node {
                    self.flights[fi].tail = prev;
                }
                self.flights[fi].shard_count -= 1;
                self.shards.free_node(node);
                return Some(slot);
            }
            prev = node;
            node = n.next;
        }
        None
    }
}

/// One live shard: where it runs and the admission terms needed to
/// checkpoint it on preemption.
#[derive(Debug, Clone, Copy)]
struct ShardSlot {
    /// Shard id (see [`FlightMeta::next_shard`]).
    shard: u32,
    /// Card the shard occupies.
    card: usize,
    /// Pipeline within the card.
    pipeline: usize,
    /// When this shard was dispatched.
    dispatched: f64,
    /// First job (enumeration order) of the shard's range.
    first_job: usize,
    /// Jobs in the shard's range.
    jobs: usize,
    /// The card's admission terms for the shard.
    admission: Admission,
}

/// Snapshots one card for the policy. A card that is parked or still
/// warming up reports zero idle pipelines, so no policy can route to it.
pub(crate) fn card_view(index: usize, card: &Card, now: f64) -> CardView {
    CardView {
        card: index,
        group: card.group(),
        pipelines: card.pipelines(),
        idle_pipelines: if card.dispatchable(now) {
            card.idle_pipelines(now)
        } else {
            0
        },
        backlog_seconds: card.backlog_seconds(now),
        served: card.served(),
        seconds_per_token: card.seconds_per_token(),
        resident: card.resident_family(),
    }
}

/// Folds one card's end-of-run state into its report row. `span` is the
/// makespan (first arrival to last completion); the zero-span guard keeps
/// a single-instant trace from reporting NaN utilization, which the JSON
/// writer would reject.
fn card_summary(index: usize, card: &Card, span: f64) -> CardSummary {
    CardSummary {
        card: index,
        group: card.group(),
        served: card.served(),
        utilization: if span > 0.0 {
            card.busy_seconds() / (span * card.pipelines() as f64)
        } else {
            0.0
        },
        energy_joules: card.energy_joules(),
        weight_swaps: card.weight_swaps(),
        powered_seconds: card.powered_seconds(),
        idle_energy_joules: card.idle_energy_joules(),
        preempted: card.preempted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueueView;
    use crate::policy::{all_policies, Fifo, LeastLoaded, ShortestJobFirst};
    use crate::trace::{RecordingSink, TraceEvent};

    fn traffic(seed: u64) -> TrafficSpec {
        TrafficSpec {
            arrivals: ArrivalProcess::poisson(50.0),
            mix: RequestMix::Interactive,
            seed,
        }
    }

    #[test]
    fn every_request_completes_under_every_policy() {
        let fleet = FleetConfig::standard(2);
        for mut policy in all_policies() {
            let report = Simulation::new(&fleet).run(&mut *policy, &traffic(3).requests(300));
            assert_eq!(report.completed, 300, "{}", report.policy);
            assert!(report.latency.unwrap().p50 > 0.0);
            assert!(report.slo_violations <= report.completed);
            assert!(report.fleet_utilization() > 0.0 && report.fleet_utilization() <= 1.0);
        }
    }

    #[test]
    fn reports_are_bitwise_deterministic() {
        let fleet = FleetConfig::standard(3);
        let a =
            Simulation::new(&fleet).run(&mut LeastLoaded::default(), &traffic(11).requests(400));
        let b =
            Simulation::new(&fleet).run(&mut LeastLoaded::default(), &traffic(11).requests(400));
        assert_eq!(a, b);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        let c =
            Simulation::new(&fleet).run(&mut LeastLoaded::default(), &traffic(12).requests(400));
        assert_ne!(a.latency, c.latency, "different seeds must differ");
    }

    /// The event-heap kernel must reproduce the original O(n)-rescan loop
    /// exactly. This reference implementation is a line-for-line port of
    /// the pre-kernel loop (arrival-ordered Vec queue, linear scans for
    /// due completions and the next event, one whole-request admission
    /// per decision); for single-class traffic the priority queue orders
    /// identically, so any divergence is a kernel bug, not a semantics
    /// change.
    fn reference_simulate(
        fleet_cfg: &FleetConfig,
        policy: &mut dyn DispatchPolicy,
        requests: &[Request],
    ) -> ServeReport {
        let mut fleet: Fleet = fleet_cfg.build().expect("invalid fleet configuration");
        let cost = CostModel::for_fleet(&fleet);
        for i in 0..fleet.cards().len() {
            fleet
                .card_mut(i)
                .set_initial_power(true, requests[0].arrival);
        }
        let mut queue: Vec<Request> = Vec::new();
        let mut completed: Vec<crate::request::CompletedRequest> = Vec::new();
        let mut in_flight: Vec<(f64, crate::request::CompletedRequest)> = Vec::new();

        let mut timeline: Vec<QueueSample> = Vec::new();
        let mut max_depth = 0usize;
        let mut depth_integral = 0.0f64;
        let mut last_event = requests[0].arrival;
        let mut next_arrival = 0usize;
        let mut now = requests[0].arrival;

        loop {
            depth_integral += queue.len() as f64 * (now - last_event);
            last_event = now;
            while next_arrival < requests.len() && requests[next_arrival].arrival <= now {
                queue.push(requests[next_arrival]);
                next_arrival += 1;
            }
            let mut i = 0;
            while i < in_flight.len() {
                if in_flight[i].0 <= now {
                    completed.push(in_flight.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
            loop {
                let views: Vec<CardView> = fleet
                    .cards()
                    .iter()
                    .enumerate()
                    .map(|(i, c)| card_view(i, c, now))
                    .collect();
                let Some((qi, plan)) = policy.choose(now, QueueView::flat(&queue), &views, &cost)
                else {
                    break;
                };
                let [card] = plan[..] else {
                    panic!("the reference admits whole requests only, got plan {plan:?}");
                };
                let request = queue.remove(qi);
                let admission = fleet.card_mut(card).admit(&request, now);
                in_flight.push((
                    admission.finish,
                    crate::request::CompletedRequest {
                        // Its one step fans in when it finishes.
                        request: Request {
                            steps_done: 1,
                            ..request
                        },
                        dispatched: now,
                        finished: admission.finish,
                        first_step_finished: admission.finish,
                        card,
                        pipeline: admission.pipeline,
                        shards: 1,
                    },
                ));
            }
            max_depth = max_depth.max(queue.len());
            if timeline.len() < TIMELINE_CAP {
                timeline.push(QueueSample {
                    time: now,
                    depth: queue.len(),
                });
            }
            let upcoming_arrival = requests.get(next_arrival).map(|r| r.arrival);
            let upcoming_completion = in_flight
                .iter()
                .map(|&(f, _)| f)
                .fold(None, |acc: Option<f64>, t| {
                    Some(acc.map_or(t, |a| a.min(t)))
                });
            now = match (upcoming_arrival, upcoming_completion) {
                (Some(a), Some(c)) => a.min(c),
                (Some(a), None) => a,
                (None, Some(c)) => c,
                (None, None) => break,
            };
        }
        let makespan_end = completed
            .iter()
            .map(|c| c.finished)
            .fold(requests[0].arrival, f64::max);
        let span = makespan_end - requests[0].arrival;
        // The heap kernel closes power clocks at the last event, which
        // for a static fleet is the last completion.
        for i in 0..fleet.cards().len() {
            fleet.card_mut(i).close_power_clock(last_event);
        }
        let cards: Vec<CardSummary> = fleet
            .cards()
            .iter()
            .enumerate()
            .map(|(i, c)| card_summary(i, c, span))
            .collect();
        let mut accum = ReportAccum::new(TelemetryMode::Exact, policy.name(), "trace");
        for c in &completed {
            accum.complete(c);
        }
        accum.into_report(
            QueueSummary {
                max_depth,
                mean_depth: depth_integral / span,
                total_samples: timeline.len(),
                timeline,
            },
            cards,
            Vec::new(),
            Vec::new(),
            None,
            None,
        )
    }

    #[test]
    fn event_kernel_matches_reference_loop() {
        // Single-class traffic (Interactive mix) on a homogeneous fleet:
        // the event-heap kernel and the original rescan loop must agree
        // bit for bit, under every policy.
        for seed in [3, 11, 29] {
            let requests = traffic(seed).requests(250);
            let fleet = FleetConfig::standard(3);
            for i in 0..all_policies().len() {
                let heap = Simulation::new(&fleet).run(&mut *all_policies().remove(i), &requests);
                let reference =
                    reference_simulate(&fleet, &mut *all_policies().remove(i), &requests);
                assert_eq!(heap, reference, "seed {seed}, policy {}", heap.policy);
            }
        }
    }

    #[test]
    fn queue_accounting_is_sane() {
        let fleet = FleetConfig::standard(1);
        // Overload one card so a queue must form.
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(2000.0),
            mix: RequestMix::Interactive,
            seed: 5,
        };
        let report = Simulation::new(&fleet).run(&mut Fifo, &spec.requests(200));
        assert!(report.queue.max_depth > 0);
        assert!(report.queue.mean_depth > 0.0);
        assert!(report.queue.mean_depth <= report.queue.max_depth as f64);
        assert!(!report.queue.timeline.is_empty());
        // Saturation shows up in latency and SLO accounting too.
        assert!(report.slo_violations > 0);
    }

    #[test]
    fn arrivals_label_is_settable() {
        let fleet = FleetConfig::standard(1);
        let requests = traffic(7).requests(20);
        let plain = Simulation::new(&fleet).run(&mut Fifo, &requests);
        assert_eq!(plain.arrivals, "trace", "default label unchanged");
        let labeled = Simulation::new(&fleet)
            .arrivals_label("replayed-capture")
            .run(&mut Fifo, &requests);
        assert_eq!(labeled.arrivals, "replayed-capture");
        assert_eq!(plain.latency, labeled.latency, "label must not change data");
    }

    #[test]
    fn priority_classes_jump_the_queue() {
        // One saturated card, production traffic: interactive requests
        // must wait less than background ones despite arriving uniformly.
        let fleet = FleetConfig::standard(1);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(300.0),
            mix: RequestMix::Production,
            seed: 17,
        };
        let report = Simulation::new(&fleet).run(&mut Fifo, &spec.requests(300));
        let interactive = report.class(RequestClass::Interactive).unwrap();
        let background = report.class(RequestClass::Background).unwrap();
        let (i_lat, b_lat) = (interactive.latency.unwrap(), background.latency.unwrap());
        assert!(
            i_lat.p50 < b_lat.p50,
            "interactive p50 {} must beat background p50 {}",
            i_lat.p50,
            b_lat.p50
        );
    }

    #[test]
    fn admission_control_sheds_only_background() {
        let fleet = FleetConfig::standard(1);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(500.0),
            mix: RequestMix::Production,
            seed: 9,
        };
        let requests = spec.requests(400);
        let open = Simulation::new(&fleet).run(&mut Fifo, &requests);
        assert_eq!(open.rejected, 0);

        let capped = Simulation::new(&fleet)
            .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 16))
            .run(&mut Fifo, &requests);
        assert!(capped.rejected > 0, "overload must trip the cap");
        assert_eq!(capped.offered, requests.len());
        assert_eq!(capped.completed + capped.rejected, requests.len());
        // Only the lowest class was shed.
        for class in [RequestClass::Interactive, RequestClass::Batch] {
            assert_eq!(capped.class(class).unwrap().rejected, 0, "{class:?}");
        }
        assert_eq!(
            capped.class(RequestClass::Background).unwrap().rejected,
            capped.rejected
        );
        // Shedding filler work cannot hurt the work that stays.
        assert!(capped.queue.max_depth <= open.queue.max_depth);
    }

    /// Sustained production-mix overload — the regime where admission
    /// budgets are forced.
    fn overload(seed: u64, n: usize) -> Vec<Request> {
        TrafficSpec {
            arrivals: ArrivalProcess::poisson(300.0),
            mix: RequestMix::Production,
            seed,
        }
        .requests(n)
    }

    /// The regime where preemption earns its keep: lulls where background
    /// work gets dispatched, punctuated by interactive bursts that arrive
    /// to find every pipeline occupied by it. (Under *sustained*
    /// overload the priority queue alone keeps background work parked, so
    /// there is never a victim in flight.)
    fn bursty_lulls(seed: u64, n: usize, base_rate: f64) -> Vec<Request> {
        TrafficSpec {
            arrivals: ArrivalProcess::bursty(base_rate),
            mix: RequestMix::Production,
            seed,
        }
        .requests(n)
    }

    #[test]
    fn preemption_fires_and_helps_interactive_latency() {
        let fleet = FleetConfig::standard(1);
        let requests = bursty_lulls(13, 250, 2.5);
        let patient = Simulation::new(&fleet).run(&mut Fifo, &requests);
        assert!(patient.preemptions.is_empty(), "off by default");
        let eager = Simulation::new(&fleet)
            .preemption(PreemptionControl::after_wait(0.05))
            .run(&mut Fifo, &requests);
        assert!(!eager.preemptions.is_empty(), "overload must trigger it");
        // Every offered request still completes: preemption requeues, it
        // never drops work.
        assert_eq!(eager.completed, requests.len());
        // Interactive tail latency improves; background pays for it.
        let i_eager = eager.class(RequestClass::Interactive).unwrap();
        let i_patient = patient.class(RequestClass::Interactive).unwrap();
        assert!(
            i_eager.latency.unwrap().p99 < i_patient.latency.unwrap().p99,
            "interactive p99 {} must beat non-preemptive {}",
            i_eager.latency.unwrap().p99,
            i_patient.latency.unwrap().p99
        );
        // The log is consistent: background victims only, time-ordered.
        let by_id: std::collections::BTreeMap<u64, &Request> =
            requests.iter().map(|r| (r.id, r)).collect();
        for p in &eager.preemptions {
            assert_eq!(by_id[&p.preempted].class, RequestClass::Background);
            assert_eq!(by_id[&p.waiting].class, RequestClass::Interactive);
        }
        assert!(eager.preemptions.windows(2).all(|w| w[0].time <= w[1].time));
        let preempted_on_cards: u64 = eager.cards.iter().map(|c| c.preempted).sum();
        assert_eq!(preempted_on_cards as usize, eager.preemptions.len());
    }

    #[test]
    fn cost_aware_preemption_picks_cheaper_victims_and_conserves_work() {
        // Same bursty-lull regime as the youngest-first test, with
        // victims selected by minimum predicted eviction cost. The
        // conservation guarantees are unchanged — everything offered
        // completes, only background is evicted — selection is bitwise
        // deterministic, and at least one firing picks a different
        // victim than youngest-first would (the two logs diverge).
        let fleet = FleetConfig::standard(2);
        let requests = bursty_lulls(13, 250, 2.5);
        let run = |control: PreemptionControl| {
            Simulation::new(&fleet)
                .preemption(control)
                .run(&mut LeastLoaded::default(), &requests)
        };
        let youngest = run(PreemptionControl::after_wait(0.05));
        let cheap = run(PreemptionControl::cost_aware(0.05));
        let cheap_again = run(PreemptionControl::cost_aware(0.05));
        assert_eq!(cheap, cheap_again, "cost-aware selection must be stable");
        assert_eq!(cheap.completed, requests.len());
        assert!(!cheap.preemptions.is_empty(), "bursts must trigger it");
        let by_id: std::collections::BTreeMap<u64, &Request> =
            requests.iter().map(|r| (r.id, r)).collect();
        for p in &cheap.preemptions {
            assert_eq!(by_id[&p.preempted].class, RequestClass::Background);
            assert_eq!(by_id[&p.waiting].class, RequestClass::Interactive);
        }
        let preempted_on_cards: u64 = cheap.cards.iter().map(|c| c.preempted).sum();
        assert_eq!(preempted_on_cards as usize, cheap.preemptions.len());
        assert!(!youngest.preemptions.is_empty());
        assert_ne!(
            youngest.preemptions, cheap.preemptions,
            "cost-aware selection must actually change a victim choice"
        );
        // Sparing expensive victims cannot make interactive service
        // collapse: the tail stays within sight of youngest-first.
        let (y99, c99) = (
            youngest
                .class(RequestClass::Interactive)
                .unwrap()
                .latency
                .unwrap()
                .p99,
            cheap
                .class(RequestClass::Interactive)
                .unwrap()
                .latency
                .unwrap()
                .p99,
        );
        assert!(
            c99 <= y99 * 1.5,
            "cost-aware interactive p99 {c99} vs youngest {y99}"
        );
    }

    #[test]
    fn cost_aware_preemption_log_is_pinned() {
        // Nothing else runs cost-aware preemption on a fixed schedule, so
        // this pins its prices and tie-breaks: per firing, (time, victim,
        // waiting, shard, card, jobs checkpointed, price).
        let fleet = FleetConfig::standard(2);
        let requests = bursty_lulls(13, 40, 2.5);
        let mut sink = RecordingSink::new();
        let report = Simulation::new(&fleet)
            .preemption(PreemptionControl::cost_aware(0.05))
            .run_traced(&mut LeastLoaded::new(4), &requests, &mut sink);
        let expected = [
            (2.2599274601170998, 7, 10, 3, 1, 53, 0.0026880590603996987),
            (2.28725698273049, 7, 12, 1, 0, 68, 0.0025466483404566406),
            (2.4439446772855558, 7, 13, 2, 1, 150, 0.009059907339966818),
            (2.5482857092211404, 7, 14, 0, 0, 207, 0.00901139260888479),
            (2.55613617392643, 7, 15, 4, 1, 49, 0.01171038275642109),
            (2.78366549175602, 8, 17, 0, 1, 109, 0.009744020478465766),
            (2.982705641023573, 7, 18, 5, 0, 225, 0.011613200140201625),
            (3.682495212202974, 7, 21, 6, 0, 352, 0.011463763961618197),
            (4.126708808376681, 8, 23, 1, 1, 492, 0.010728219305096938),
            (6.443561026864541, 8, 35, 2, 1, 532, 0.012071482203389945),
        ];
        let events: Vec<(u32, Option<f64>)> = sink
            .events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Preempted {
                    shard,
                    victim_cost_s,
                    ..
                } => Some((shard, victim_cost_s)),
                _ => None,
            })
            .collect();
        let actual: Vec<_> = report
            .preemptions
            .iter()
            .zip(&events)
            .map(|(p, &(shard, price))| {
                let price = price.expect("cost-aware selection prices its victim");
                let (t, id, waiting, card, jobs) =
                    (p.time, p.preempted, p.waiting, p.card, p.jobs_checkpointed);
                (t, id, waiting, shard, card, jobs, price)
            })
            .collect();
        assert_eq!(events.len(), report.preemptions.len());
        assert_eq!(actual, expected);
    }

    #[test]
    fn a_death_remnant_merges_into_a_queued_preemption_remnant() {
        // Two single-pipeline cards. A background request fans out as two
        // 4-job shards; an interactive arrival outwaits its patience and
        // evicts shard 1 (its remnant queues behind the interactive
        // request, which takes the freed pipeline); then card 0 dies
        // under shard 0, whose remnant must merge into the queued one.
        // The merged remnant must carry exactly the unfinished jobs of
        // both evicted shards, and the request must fan in once.
        let single = swat::SwatConfig {
            pipelines: 1,
            ..swat::SwatConfig::bigbird_dual_fp16()
        };
        let fleet = FleetConfig {
            groups: vec![crate::fleet::CardGroup::new(
                2,
                single,
                swat_hw::MemoryInterface::hbm2(),
            )],
            host_link: swat_hw::MemoryInterface::pcie4_x16(),
        };
        let shape = |heads, layers| swat_workloads::RequestShape {
            seq_len: 512,
            heads,
            layers,
            batch: 1,
        };
        let (wide, small) = (shape(4, 2), shape(1, 1));
        let built = fleet.build().unwrap();
        let swap = built.cards()[0].swap_seconds(&wide);
        let per_job = built.cards()[0].job_seconds(&wide, 1);
        // Both shards start at t0 and finish their first job at
        // t0 + swap + per_job: the eviction lands 1.5 jobs into shard 1,
        // the death 2.5 jobs into shard 0.
        let t0 = 1.0;
        let arrive = t0 + swap + 0.25 * per_job;
        let threshold = 1.25 * per_job;
        let death = t0 + swap + 2.5 * per_job;
        let requests = [
            Request::classed(0, t0, wide, RequestClass::Background),
            Request::classed(1, arrive, small, RequestClass::Interactive),
        ];
        let mut sink = RecordingSink::new();
        let report = Simulation::new(&fleet)
            .preemption(PreemptionControl::after_wait(threshold))
            .faults(crate::fault::FaultPlan::none().kill(death, 0))
            .run_traced(&mut LeastLoaded::fixed(2), &requests, &mut sink);
        assert_eq!(report.completed, 2);
        let starts = |from: f64, to: f64| -> Vec<(u32, usize, usize)> {
            (sink.events.iter())
                .filter_map(|e| match *e {
                    TraceEvent::ShardStart {
                        t,
                        id: 0,
                        shard,
                        card,
                        jobs,
                        ..
                    } if (from..to).contains(&t) => Some((shard, card, jobs)),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(starts(t0, death), [(0, 0, 4), (1, 1, 4)]);
        let [p] = &report.preemptions[..] else {
            panic!("one preemption expected: {:?}", report.preemptions);
        };
        assert_eq!(
            (p.preempted, p.waiting, p.card, p.jobs_checkpointed),
            (0, 1, 1, 1)
        );
        assert!(sink.events.iter().any(|e| matches!(
            *e,
            TraceEvent::CardDeath {
                card: 0,
                shards_lost: 1,
                ..
            }
        )));
        // Shard 1 left 4 - 1 jobs, shard 0 left 4 - 2.
        let resumed = starts(death, f64::INFINITY);
        assert_eq!(
            resumed.iter().map(|s| s.2).sum::<usize>(),
            (4 - 1) + (4 - 2)
        );
        assert!(resumed.iter().all(|s| s.1 == 1), "only card 1 survives");
        let fan_ins = (sink.events.iter())
            .filter(|e| matches!(e, TraceEvent::FanIn { id: 0, .. }))
            .count();
        assert_eq!(fan_ins, 1);
    }

    #[test]
    fn stale_preemption_timers_do_not_inflate_power_accounting() {
        // A lightly loaded fleet where every interactive request
        // dispatches immediately: the armed timers all fire as no-ops,
        // and a long threshold would land them well past the last
        // completion. They must not extend the powered clock — the
        // preemptive run's energy accounting has to match the
        // non-preemptive run exactly when no preemption ever fires.
        let fleet = FleetConfig::standard(1);
        let requests = traffic(3).requests(20);
        let off = Simulation::new(&fleet).run(&mut Fifo, &requests);
        let on = Simulation::new(&fleet)
            .preemption(PreemptionControl::after_wait(30.0))
            .run(&mut Fifo, &requests);
        assert!(on.preemptions.is_empty());
        assert_eq!(on.idle_energy_joules, off.idle_energy_joules);
        for (a, b) in on.cards.iter().zip(&off.cards) {
            assert_eq!(a.powered_seconds, b.powered_seconds);
            assert!((a.powered_seconds - on.makespan).abs() < 1e-9);
        }
        assert_eq!(on, off, "inert preemption must be a no-op");
    }

    #[test]
    fn preemptive_runs_are_deterministic() {
        let fleet = FleetConfig::standard(2);
        let requests = bursty_lulls(31, 300, 4.0);
        let run = || {
            Simulation::new(&fleet)
                .preemption(PreemptionControl::after_wait(0.08))
                .run(&mut LeastLoaded::default(), &requests)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        assert!(!a.preemptions.is_empty());
    }

    #[test]
    fn autoscaler_parks_and_revives_cards() {
        use crate::scale::AutoscalerConfig;
        // A long quiet tail after a burst: the controller must scale up
        // into the burst and park cards in the quiet stretch.
        let fleet = FleetConfig::standard(4);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::bursty(6.0),
            mix: RequestMix::Production,
            seed: 23,
        };
        let requests = spec.requests(400);
        let elastic = Simulation::new(&fleet)
            .autoscale(AutoscalerConfig::standard())
            .run(&mut LeastLoaded::default(), &requests);
        let static_run = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        assert_eq!(elastic.completed, requests.len());
        assert!(!elastic.scaling.is_empty(), "bursts must trigger scaling");
        assert!(
            elastic.scaling.iter().any(|e| e.powered_on)
                && elastic.scaling.iter().any(|e| !e.powered_on),
            "both directions: {:?}",
            elastic.scaling.len()
        );
        // The elastic fleet pays less idle energy than static provisioning
        // but (weakly) worse latency — the tradeoff the report surfaces.
        assert!(elastic.idle_energy_joules >= 0.0);
        assert!(elastic.idle_energy_joules < static_run.idle_energy_joules);
        assert!(elastic.latency.unwrap().p99 >= static_run.latency.unwrap().p99);
        // Powered time never exceeds the run span, never goes negative.
        for c in &elastic.cards {
            assert!(c.powered_seconds >= 0.0);
            assert!(c.idle_energy_joules >= 0.0);
        }
        // Static runs power everything the whole span.
        for c in &static_run.cards {
            assert!((c.powered_seconds - static_run.makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn autoscaled_runs_are_deterministic() {
        use crate::scale::AutoscalerConfig;
        let fleet = FleetConfig::standard(3);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::diurnal(3.0, 25.0),
            mix: RequestMix::Production,
            seed: 41,
        };
        let requests = spec.requests(300);
        let run = || {
            Simulation::new(&fleet)
                .autoscale(AutoscalerConfig::standard().with_min_cards(2))
                .run(&mut LeastLoaded::default(), &requests)
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.to_json().pretty(), run().to_json().pretty());
    }

    #[test]
    fn per_class_budgets_shed_classes_independently() {
        let fleet = FleetConfig::standard(1);
        let requests = overload(9, 400);
        let budgeted = Simulation::new(&fleet)
            .admission(
                AdmissionControl::admit_all()
                    .with_cap(RequestClass::Batch, 48)
                    .with_cap(RequestClass::Background, 8),
            )
            .run(&mut Fifo, &requests);
        assert_eq!(
            budgeted.class(RequestClass::Interactive).unwrap().rejected,
            0,
            "uncapped class is never shed"
        );
        let batch = budgeted.class(RequestClass::Batch).unwrap();
        let background = budgeted.class(RequestClass::Background).unwrap();
        assert!(background.rejected > 0, "the tight cap must trip");
        assert!(batch.rejected > 0, "the loose cap must trip under overload");
        // Tighter budget sheds a larger *fraction* of its class.
        assert!(
            background.rejected * batch.offered > batch.rejected * background.offered,
            "background {}/{} vs batch {}/{}",
            background.rejected,
            background.offered,
            batch.rejected,
            batch.offered
        );
        assert_eq!(budgeted.completed + budgeted.rejected, requests.len());
        // The legacy single-knob constructor is the per-class special case.
        let legacy = Simulation::new(&fleet)
            .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 8))
            .run(&mut Fifo, &requests);
        assert_eq!(legacy.class(RequestClass::Batch).unwrap().rejected, 0);
        assert!(legacy.class(RequestClass::Background).unwrap().rejected > 0);
    }

    #[test]
    fn fully_shed_run_reports_finite_metrics_and_valid_json() {
        // Zero-cap every class: admission sheds the whole trace. The old
        // report divided 0/0 into a NaN `slo_attainment` (invalid JSON);
        // now every field is finite and the attainment is an honest 0.
        let fleet = FleetConfig::standard(2);
        let requests = overload(3, 50);
        let mut admission = AdmissionControl::admit_all();
        for &class in RequestClass::ALL.iter() {
            admission = admission.with_cap(class, 0);
        }
        let report = Simulation::new(&fleet)
            .admission(admission)
            .run(&mut Fifo, &requests);
        assert_eq!(report.completed, 0);
        assert_eq!(report.rejected, requests.len());
        assert_eq!(report.offered, requests.len());
        assert_eq!(report.latency, None);
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.throughput_rps, 0.0);
        assert_eq!(report.slo_attainment(), 0.0);
        assert!(report.slo_attainment().is_finite());
        assert_eq!(report.fleet_utilization(), 0.0);
        let json = report.to_json().pretty();
        assert!(!json.contains("NaN") && !json.contains("inf"));
        assert!(json.contains("\"slo_attainment\": 0"));
    }

    #[test]
    fn slo_attainment_charges_shed_requests() {
        // Light load, everything completed on time — but with background
        // shed at the gate, attainment must fall below 1: a shed request
        // never met its objective, however healthy the survivors look.
        let fleet = FleetConfig::standard(4);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(5.0),
            mix: RequestMix::Production,
            seed: 11,
        };
        let requests = spec.requests(200);
        let open = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        let shedding = Simulation::new(&fleet)
            .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 0))
            .run(&mut LeastLoaded::default(), &requests);
        assert!(shedding.rejected > 0, "the zero cap must shed something");
        let expected =
            (shedding.completed - shedding.slo_violations) as f64 / shedding.offered as f64;
        assert_eq!(shedding.slo_attainment(), expected);
        assert!(
            shedding.slo_attainment() < open.slo_attainment(),
            "shedding {} of {} requests cannot look like better service",
            shedding.rejected,
            shedding.offered
        );
    }

    #[test]
    fn sharded_dispatch_fans_out_and_in() {
        // Light load on two dual-pipeline cards: most requests find
        // several idle pipelines and split. Everything completes, the
        // report counts the fan-outs, and per-request latency beats the
        // whole-request twin run.
        let fleet = FleetConfig::standard(2);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(4.0),
            mix: RequestMix::Interactive,
            seed: 19,
        };
        let requests = spec.requests(100);
        let whole = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        let sharded = Simulation::new(&fleet).run(&mut LeastLoaded::new(4), &requests);
        assert_eq!(sharded.completed, requests.len());
        assert!(sharded.sharded_requests > 0, "light load must fan out");
        assert!(sharded.max_shards > 1 && sharded.max_shards <= 4);
        assert!(
            sharded.latency.unwrap().p50 < whole.latency.unwrap().p50,
            "fan-out p50 {} must beat whole-request p50 {}",
            sharded.latency.unwrap().p50,
            whole.latency.unwrap().p50
        );
        // Whole-request policies never report fan-out.
        assert_eq!(whole.sharded_requests, 0);
        assert_eq!(whole.max_shards, 1);
        let json = sharded.to_json().pretty();
        assert!(json.contains("\"sharded_requests\""));
    }

    /// Four dual-pipeline FP16 cards on a bandwidth-binned memory
    /// interface: one pipeline's ~1.15 GB/s streaming fits, two
    /// oversubscribe it (~1.9× stretch) — the fleet where shard
    /// co-location has a real price.
    fn binned_fleet() -> FleetConfig {
        FleetConfig {
            groups: vec![crate::fleet::CardGroup::new(
                4,
                swat::SwatConfig::bigbird_dual_fp16(),
                swat_hw::MemoryInterface::new(1.2e9),
            )],
            host_link: swat_hw::MemoryInterface::pcie4_x16(),
        }
    }

    #[test]
    fn adaptive_width_beats_fixed_fanout_under_a_deep_queue() {
        // Interactive traffic near the fixed-width policy's saturation
        // point: a deep queue forms, so pipeline-seconds are the scarce
        // resource. Fixed fan-out keeps co-locating shards and burning
        // the ~1.9× contention stretch; the adaptive planner prices the
        // backlog and backs off to narrow plans, which is worth a large
        // tail-latency factor. This is the serve_sweep adaptive-width
        // scenario in miniature.
        let fleet = binned_fleet();
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(80.0),
            mix: RequestMix::Interactive,
            seed: 0x5EED,
        };
        let requests = spec.requests(500);
        let fixed = Simulation::new(&fleet).run(&mut ShortestJobFirst::fixed(4), &requests);
        let adaptive = Simulation::new(&fleet).run(&mut ShortestJobFirst::new(4), &requests);
        assert_eq!(fixed.completed, requests.len());
        assert_eq!(adaptive.completed, requests.len());
        let (f99, a99) = (fixed.latency.unwrap().p99, adaptive.latency.unwrap().p99);
        assert!(
            a99 < f99,
            "adaptive p99 {a99} must beat fixed-4 p99 {f99} under a deep queue"
        );
        // The planner audit holds under contention too: admission
        // charged exactly what the plans were priced at.
        for report in [&fixed, &adaptive] {
            if let Some(p) = &report.cost_prediction {
                assert!(p.max_error_s < 1e-9, "prediction drifted: {p:?}");
            }
        }
        assert!(
            fixed.cost_prediction.is_some(),
            "fixed-4 must have priced multi-shard plans"
        );
    }

    /// Each shard's `(card, pipeline, start, end, jobs)` from a recorded
    /// run: a shard holds its lane from `ShardStart` until its
    /// `ShardFinish`, its `Preempted` eviction, or its card's `CardDeath`.
    /// Asserts that spans on one lane never overlap.
    fn lane_spans(events: &[TraceEvent]) -> Vec<(usize, usize, f64, f64, usize)> {
        let mut open = std::collections::BTreeMap::new();
        let mut spans = Vec::new();
        for e in events {
            match *e {
                TraceEvent::ShardStart {
                    t,
                    id,
                    shard,
                    card,
                    pipeline,
                    jobs,
                } => {
                    open.insert((id, shard), (card, pipeline, t, jobs));
                }
                TraceEvent::ShardFinish { t, id, shard, .. }
                | TraceEvent::Preempted {
                    t,
                    victim: id,
                    shard,
                    ..
                } => {
                    let (card, pipeline, start, jobs) = open.remove(&(id, shard)).unwrap();
                    spans.push((card, pipeline, start, t, jobs));
                }
                TraceEvent::CardDeath { t, card: dead, .. } => {
                    open.retain(|_, &mut (card, pipeline, start, jobs)| {
                        if card == dead {
                            spans.push((card, pipeline, start, t, jobs));
                        }
                        card != dead
                    });
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "shards never closed: {open:?}");
        let mut lanes = spans.clone();
        lanes.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
        for w in lanes.windows(2) {
            if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                assert!(w[0].3 <= w[1].2, "overlap on one lane: {w:?}");
            }
        }
        spans
    }

    #[test]
    fn single_shard_policy_matches_whole_request_twin_bitwise() {
        // max_shards = 1 must reduce exactly to the whole-request
        // policies — same schedule, same report, same policy name —
        // whether the one-shard cap is adaptive or fixed.
        let fleet = FleetConfig::standard(3);
        let requests = overload(7, 250);
        let whole = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        assert_eq!(whole.policy, "least-loaded");
        for mut one in [LeastLoaded::new(1), LeastLoaded::fixed(1)] {
            assert_eq!(Simulation::new(&fleet).run(&mut one, &requests), whole);
        }
        let sjf = Simulation::new(&fleet).run(&mut ShortestJobFirst::default(), &requests);
        assert_eq!(sjf.policy, "shortest-job-first");
        for mut one in [ShortestJobFirst::new(1), ShortestJobFirst::fixed(1)] {
            assert_eq!(Simulation::new(&fleet).run(&mut one, &requests), sjf);
        }
    }

    #[test]
    fn sharded_traced_run_places_every_job_once() {
        let fleet = FleetConfig::standard(2);
        let requests = traffic(23).requests(30);
        let mut sink = RecordingSink::new();
        let report =
            Simulation::new(&fleet).run_traced(&mut LeastLoaded::new(3), &requests, &mut sink);
        let expected_jobs: usize = requests.iter().map(|r| r.shape.jobs()).sum();
        let spans = lane_spans(&sink.events);
        assert_eq!(spans.iter().map(|s| s.4).sum::<usize>(), expected_jobs);
        assert!(report.sharded_requests > 0);
    }

    #[test]
    fn sharded_preemption_requeues_only_the_victim_shard() {
        // Sharded dispatch + aggressive preemption: victims are single
        // shards, so a preempted request's sibling shards keep running
        // and everything still completes exactly once.
        let fleet = FleetConfig::standard(2);
        let requests = bursty_lulls(37, 250, 2.5);
        let report = Simulation::new(&fleet)
            .preemption(PreemptionControl::after_wait(0.05))
            .run(&mut LeastLoaded::new(4), &requests);
        assert_eq!(report.completed, requests.len());
        assert!(!report.preemptions.is_empty(), "bursts must trigger it");
        let by_id: std::collections::BTreeMap<u64, &Request> =
            requests.iter().map(|r| (r.id, r)).collect();
        for p in &report.preemptions {
            assert_eq!(by_id[&p.preempted].class, RequestClass::Background);
            assert_eq!(by_id[&p.waiting].class, RequestClass::Interactive);
        }
        let preempted_on_cards: u64 = report.cards.iter().map(|c| c.preempted).sum();
        assert_eq!(preempted_on_cards as usize, report.preemptions.len());
    }

    #[test]
    fn traced_run_places_every_job() {
        let fleet = FleetConfig::standard(2);
        let requests = traffic(7).requests(40);
        let mut sink = RecordingSink::new();
        let report =
            Simulation::new(&fleet).run_traced(&mut LeastLoaded::default(), &requests, &mut sink);
        let expected_jobs: usize = requests.iter().map(|r| r.shape.jobs()).sum();
        let spans = lane_spans(&sink.events);
        assert_eq!(spans.len(), requests.len(), "one whole-request shard each");
        assert_eq!(spans.iter().map(|s| s.4).sum::<usize>(), expected_jobs);
        assert_eq!(report.completed, requests.len());
    }

    #[test]
    fn trace_mode_does_not_change_metrics() {
        let fleet = FleetConfig::standard(2);
        let requests = traffic(9).requests(100);
        let traced = Simulation::new(&fleet).run_traced(
            &mut LeastLoaded::default(),
            &requests,
            &mut RecordingSink::new(),
        );
        let untraced = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        assert_eq!(traced, untraced);
    }

    #[test]
    fn sjf_beats_fifo_on_median_under_overload() {
        // A single saturated card with a mixed population: serving short
        // requests first must improve the median.
        let fleet = FleetConfig::standard(1);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(300.0),
            mix: RequestMix::Production,
            seed: 21,
        };
        let requests = spec.requests(300);
        let fifo = Simulation::new(&fleet).run(&mut Fifo, &requests);
        let sjf = Simulation::new(&fleet).run(&mut ShortestJobFirst::default(), &requests);
        assert!(
            sjf.latency.unwrap().p50 < fifo.latency.unwrap().p50,
            "SJF p50 {} vs FIFO p50 {}",
            sjf.latency.unwrap().p50,
            fifo.latency.unwrap().p50
        );
    }

    #[test]
    fn heterogeneous_fleet_uses_both_groups() {
        let fleet = FleetConfig::mixed_precision(2, 2);
        let report =
            Simulation::new(&fleet).run(&mut LeastLoaded::default(), &traffic(5).requests(400));
        assert_eq!(report.completed, 400);
        assert_eq!(report.groups.len(), 2);
        assert!(
            report.groups.iter().all(|g| g.served > 0),
            "both pools must take work: {:?}",
            report.groups
        );
        // The FP16 dual-pipeline pool outserves the FP32 singles.
        assert!(report.groups[0].served > report.groups[1].served);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_requests_rejected() {
        let mut requests = traffic(1).requests(10);
        requests.reverse();
        let _ = Simulation::new(&FleetConfig::standard(1)).run(&mut Fifo, &requests);
    }

    #[test]
    #[should_panic(expected = "request ids must be unique")]
    fn duplicate_request_ids_rejected() {
        // E.g. two independently generated traces naively concatenated:
        // both number requests from 0, which would make the kernel's
        // id-based tie-breaking ambiguous. On the busy card the duplicate
        // meets its twin in the dispatch queue; on the idle fleet
        // (Poisson(1) over six cards) nothing ever queues, so only the
        // up-front check can catch it. Both runs must panic with that
        // check's message; the busy one is caught so the idle one runs.
        let run = |spec: TrafficSpec, cards: usize| {
            let mut requests = spec.requests(10);
            requests[3].id = requests[7].id;
            Simulation::new(&FleetConfig::standard(cards)).run(&mut Fifo, &requests)
        };
        let busy = std::panic::catch_unwind(|| run(traffic(1), 1))
            .expect_err("a busy card must reject duplicate ids");
        let message = busy
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| busy.downcast_ref::<String>().map(String::as_str));
        let rejected = message.is_some_and(|m| m.contains("request ids must be unique"));
        assert!(rejected, "busy card panicked with {message:?}");
        let idle = TrafficSpec {
            arrivals: ArrivalProcess::poisson(1.0),
            ..traffic(1)
        };
        let _ = run(idle, 6);
    }

    #[test]
    fn check_trace_judges_ids_that_are_not_positions() {
        // Generated traces number requests by position and skip the
        // uniqueness scan; any other numbering must still be judged.
        let renumbered = |ids: &[u64]| {
            let mut requests = traffic(1).requests(ids.len());
            for (r, &id) in requests.iter_mut().zip(ids) {
                r.id = id;
            }
            check_trace(&requests)
        };
        assert_eq!(renumbered(&[0, 1, 2]), Ok(()));
        assert_eq!(renumbered(&[2, 0, 1]), Ok(()), "out of order");
        assert_eq!(renumbered(&[7, 3, 1_000]), Ok(()), "sparse");
        for duplicate in [&[0, 1, 1][..], &[5, 9, 5]] {
            let err = renumbered(duplicate).expect_err("duplicate ids");
            assert!(
                err.contains("request ids must be unique"),
                "{duplicate:?}: {err}"
            );
        }
    }

    /// The panic message a run dies with.
    fn run_panic(run: impl FnOnce() -> ServeReport) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the run must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .expect("a string panic")
    }

    #[test]
    fn non_finite_arrivals_are_named_before_the_order_is_judged() {
        // An infinite last arrival passes a sorted check (∞ ≤ ∞) and a NaN
        // fails it; both must be named as what they are, up front.
        for bad in [f64::INFINITY, f64::NAN] {
            let mut requests = traffic(1).requests(5);
            requests[4].arrival = bad;
            let message =
                run_panic(|| Simulation::new(&FleetConfig::standard(1)).run(&mut Fifo, &requests));
            assert!(
                message.contains("arrival 4 of 5 resolves to a non-finite time"),
                "{bad}: {message}"
            );
        }
    }

    #[test]
    fn preemption_control_built_from_fields_is_checked_before_the_run() {
        // The knob's fields are public, so a threshold its constructors
        // reject can still reach the kernel: negative and NaN thresholds
        // used to die deep in the run, and zero ran, preempting at once.
        let requests = TrafficSpec {
            arrivals: ArrivalProcess::bursty(2.5),
            mix: RequestMix::Production,
            seed: 0x5EED,
        }
        .requests(300);
        for threshold in [-1.0, f64::NAN, 0.0] {
            let control = PreemptionControl {
                wait_threshold_s: Some(threshold),
                cost_aware_victims: false,
            };
            let message = run_panic(|| {
                Simulation::new(&FleetConfig::standard(2))
                    .preemption(control)
                    .run(&mut LeastLoaded::default(), &requests)
            });
            assert!(
                message.contains("preemption threshold must be positive and finite"),
                "{threshold}: {message}"
            );
        }
    }

    #[test]
    fn empty_fault_plan_is_bitwise_invisible() {
        // `FaultPlan::none()` must reduce to the historical fault-free
        // kernel exactly: same report, same JSON bytes, no faults block.
        let fleet = FleetConfig::standard(2);
        let requests = traffic(19).requests(200);
        let plain = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        let gated = Simulation::new(&fleet)
            .faults(crate::fault::FaultPlan::none())
            .run(&mut LeastLoaded::default(), &requests);
        assert_eq!(plain, gated);
        let json = gated.to_json().pretty();
        assert_eq!(plain.to_json().pretty(), json);
        assert!(!json.contains("\"faults\""), "no block without a plan");
    }

    #[test]
    fn card_death_loses_shards_but_the_survivor_finishes_the_trace() {
        // Two cards, one killed mid-run with work in flight: the lost
        // shards requeue through the remnant machinery and the surviving
        // card completes every request. Nothing fails — failure needs a
        // dead *fleet*, not a dead card.
        let fleet = FleetConfig::standard(2);
        let requests = overload(13, 250);
        let kill_at = requests[40].arrival;
        let run = || {
            Simulation::new(&fleet)
                .faults(crate::fault::FaultPlan::none().kill(kill_at, 0))
                .run(&mut LeastLoaded::default(), &requests)
        };
        let report = run();
        assert_eq!(report, run(), "faulted runs stay deterministic");
        assert_eq!(report.completed, requests.len());
        assert_eq!(report.failed, 0);
        let faults = report.faults.as_ref().expect("a plan ran");
        assert_eq!(faults.card_deaths, 1);
        assert!(faults.shards_lost > 0, "the card died with work in flight");
        assert_eq!(faults.failed, 0);
        // The corpse stops serving: every completion after the death sits
        // on the survivor.
        let json = report.to_json().pretty();
        assert!(json.contains("\"card_deaths\": 1"));
        assert!(report.cards[1].served > 0);
    }

    #[test]
    fn a_dead_fleet_drains_the_queue_into_failed() {
        // Kill the only card while traffic is still arriving: whatever
        // cannot be served is conserved as `failed`, the report says so,
        // and attainment charges every failure.
        let fleet = FleetConfig::standard(1);
        let requests = overload(9, 120);
        let kill_at = requests[30].arrival;
        let report = Simulation::new(&fleet)
            .faults(crate::fault::FaultPlan::none().kill(kill_at, 0))
            .run(&mut Fifo, &requests);
        assert!(report.failed > 0, "a dead fleet must strand work");
        assert_eq!(
            report.completed + report.rejected + report.failed,
            requests.len()
        );
        assert_eq!(report.offered, requests.len());
        let faults = report.faults.as_ref().expect("a plan ran");
        assert_eq!(faults.failed, report.failed);
        assert!(report.slo_attainment() < 1.0);
        let json = report.to_json().pretty();
        assert!(json.contains("\"failed\""));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn revival_rejoins_a_dead_card_to_service() {
        // Card 0 dies before it can serve anything and revives mid-trace:
        // its entire served count comes from life after death.
        let fleet = FleetConfig::standard(2);
        let requests = overload(23, 300);
        let t0 = requests[0].arrival;
        let mid = requests[150].arrival;
        let report = Simulation::new(&fleet)
            .faults(
                crate::fault::FaultPlan::none()
                    .kill(t0, 0)
                    .revive(mid, 0, 0.5),
            )
            .run(&mut LeastLoaded::default(), &requests);
        assert_eq!(report.completed, requests.len());
        let faults = report.faults.as_ref().expect("a plan ran");
        assert_eq!(faults.card_deaths, 1);
        assert_eq!(faults.revivals, 1);
        assert!(
            report.cards[0].served > 0,
            "the revived card must rejoin service"
        );
    }

    #[test]
    fn degrade_stretches_service_and_a_unit_factor_is_identity() {
        let fleet = FleetConfig::standard(1);
        let requests = overload(5, 200);
        let t0 = requests[0].arrival;
        let healthy = Simulation::new(&fleet).run(&mut Fifo, &requests);
        // A 3× calibration shift from the first arrival on the only card:
        // the whole schedule stretches.
        let slow = Simulation::new(&fleet)
            .faults(crate::fault::FaultPlan::none().degrade(t0, 0, 3.0))
            .run(&mut Fifo, &requests);
        assert_eq!(slow.completed, requests.len());
        assert_eq!(slow.faults.as_ref().unwrap().degrades, 1);
        assert!(
            slow.latency.unwrap().p50 > healthy.latency.unwrap().p50,
            "a degraded card must serve slower"
        );
        assert!(slow.makespan > healthy.makespan);
        // A ×1.0 "degrade" records the event but must not move a single
        // bit of the schedule.
        let mut unit = Simulation::new(&fleet)
            .faults(crate::fault::FaultPlan::none().degrade(t0, 0, 1.0))
            .run(&mut Fifo, &requests);
        assert_eq!(unit.faults.as_ref().unwrap().degrades, 1);
        unit.faults = None;
        assert_eq!(unit, healthy, "×1.0 degrade is schedule identity");
    }

    #[test]
    fn eviction_storms_recycle_flight_slots_without_double_service() {
        // Repeated kill/revive cycles on both cards while a sharded
        // policy with aggressive preemption churns the FlightTable and
        // ShardArena: every slot is recycled many times over, and the
        // run must still serve each request exactly once, deterministically.
        let fleet = FleetConfig::standard(2);
        let requests = bursty_lulls(43, 300, 2.5);
        let t0 = requests[0].arrival;
        let span = requests.last().unwrap().arrival - t0;
        let mut plan = crate::fault::FaultPlan::none();
        for cycle in 0..4 {
            let base = t0 + span * (0.1 + 0.2 * cycle as f64);
            let card = cycle % 2;
            plan = plan.kill(base, card).revive(base + span * 0.05, card, 0.2);
        }
        let run = || {
            Simulation::new(&fleet)
                .faults(plan.clone())
                .preemption(PreemptionControl::after_wait(0.05))
                .run(&mut LeastLoaded::new(4), &requests)
        };
        let report = run();
        assert_eq!(report, run(), "storms stay deterministic");
        assert_eq!(report.to_json().pretty(), run().to_json().pretty());
        assert_eq!(
            report.completed + report.rejected + report.failed,
            requests.len(),
            "conservation through the storm"
        );
        let faults = report.faults.as_ref().expect("a plan ran");
        assert_eq!(faults.card_deaths, 4);
        assert_eq!(faults.revivals, 4);
        assert_eq!(report.offered, requests.len());
    }

    #[test]
    fn dead_cards_wake_the_autoscaler() {
        use crate::scale::AutoscalerConfig;
        // Light traffic on an elastic fleet: only the min-cards floor
        // (card 0) ever powers, the spare stays parked. Killing the
        // whole powered pool mid-trace must read as powered == 0 to the
        // up-rule, which then wakes the *non-dead* spare — no deadlock,
        // everything completes.
        let fleet = FleetConfig::standard(2);
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(10.0),
            mix: RequestMix::Interactive,
            seed: 27,
        };
        let requests = spec.requests(200);
        let kill_at = requests[100].arrival;
        let report = Simulation::new(&fleet)
            .autoscale(AutoscalerConfig::standard())
            .faults(crate::fault::FaultPlan::none().kill(kill_at, 0))
            .run(&mut LeastLoaded::default(), &requests);
        assert_eq!(
            report.completed + report.rejected + report.failed,
            requests.len()
        );
        assert_eq!(report.failed, 0, "spares must absorb the loss");
        assert!(
            report
                .scaling
                .iter()
                .any(|e| e.powered_on && e.time >= kill_at),
            "the death must force a power-up"
        );
    }

    #[test]
    fn session_traffic_surfaces_fairness_and_strips_cleanly() {
        use crate::session::{SessionProfile, SessionTraffic};
        let spec = SessionTraffic {
            arrivals: ArrivalProcess::poisson(10.0),
            profile: SessionProfile::standard(),
            seed: 31,
        };
        let tagged = spec.requests(60);
        let plain = spec.requests_sessionless(60);
        let fleet = FleetConfig::standard(2);
        let mut with_sessions = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &tagged);
        let without = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &plain);
        let sessions = with_sessions.sessions.clone().expect("tagged traffic");
        assert_eq!(sessions.sessions, 60);
        assert_eq!(sessions.turns_completed, with_sessions.completed);
        assert!(sessions.fairness > 0.0 && sessions.fairness <= 1.0);
        let json = with_sessions.to_json().pretty();
        assert!(json.contains("\"fairness_jain\""));
        assert!(
            !without.to_json().pretty().contains("\"sessions\""),
            "untagged traffic keeps the historical schema"
        );
        // Session tags never steer a session-blind policy: modulo the
        // sessions block, the two runs are bitwise identical.
        with_sessions.sessions = None;
        assert_eq!(with_sessions, without);
    }

    #[test]
    fn session_affinity_completes_a_flash_crowd_and_reports_stickiness() {
        use crate::policy::SessionAffinity;
        use crate::session::{SessionProfile, SessionTraffic};
        // The serve_sweep affinity scenario in miniature: a flash crowd
        // of conversations served with and without sticky residency.
        let spec = SessionTraffic {
            arrivals: ArrivalProcess::flash_crowd(4.0, 60.0, 5.0, 2.0),
            profile: SessionProfile::standard(),
            seed: 47,
        };
        let requests = spec.requests(80);
        let fleet = FleetConfig::standard(2);
        let run = || Simulation::new(&fleet).run(&mut SessionAffinity::new(64), &requests);
        let sticky = run();
        assert_eq!(sticky, run(), "affinity runs stay deterministic");
        let loose = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        assert_eq!(sticky.policy, "session-affinity");
        assert_eq!(sticky.completed, requests.len());
        assert_eq!(loose.completed, requests.len());
        for report in [&sticky, &loose] {
            let s = report.sessions.as_ref().expect("tagged traffic");
            assert_eq!(s.sessions, 80);
            assert!(s.fairness > 0.0 && s.fairness <= 1.0);
        }
        // Sessionless traffic reduces the affinity policy to
        // least-loaded bit for bit (modulo the policy name).
        let plain = spec.requests_sessionless(80);
        let mut reduced = Simulation::new(&fleet).run(&mut SessionAffinity::new(64), &plain);
        let baseline = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &plain);
        assert_eq!(reduced.policy, "session-affinity");
        reduced.policy = baseline.policy.clone();
        assert_eq!(reduced, baseline);
    }

    #[test]
    fn decode_plans_run_every_step_without_early_exit() {
        // A fixed three-step plan with early exit disabled: every
        // completion executes exactly its plan, and the report's decode
        // block accounts for each step.
        let plans = swat_workloads::DecodeMix {
            min_steps: 3,
            max_steps: 3,
            exit_prob: 0.0,
        };
        let requests = traffic(19).decode_requests(120, &plans);
        let fleet = FleetConfig::standard(2);
        let report = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        assert_eq!(report.completed, 120);
        let decode = report.decode.as_ref().expect("multi-step traffic");
        assert_eq!(decode.decode_requests, 120);
        assert_eq!(decode.steps_completed, 360, "every plan runs all 3 steps");
        assert_eq!(decode.mean_steps, 3.0);
        assert_eq!(decode.early_exits, 0);
        assert_eq!(decode.steps_histogram, vec![0, 0, 120]);
        // The first step lands strictly before the last of three.
        let ttft = decode.ttft.as_ref().expect("completions");
        let total = decode.total_latency.as_ref().expect("completions");
        assert!(ttft.p50 < total.p50);
        assert!(decode.step_interval.is_some(), "three-step runs have gaps");
        let json = report.to_json().pretty();
        assert!(json.contains("\"decode\"") && json.contains("\"steps_histogram\""));
    }

    #[test]
    fn early_exit_shortens_decode_runs() {
        // The same base traffic with an aggressive exit draw leaves
        // earlier on average — and never runs past its plan.
        let spec = traffic(23);
        let full = spec.decode_requests(
            150,
            &swat_workloads::DecodeMix {
                min_steps: 2,
                max_steps: 6,
                exit_prob: 0.0,
            },
        );
        let exiting = spec.decode_requests(
            150,
            &swat_workloads::DecodeMix {
                min_steps: 2,
                max_steps: 6,
                exit_prob: 0.6,
            },
        );
        let fleet = FleetConfig::standard(2);
        let run = |requests: &[Request]| {
            Simulation::new(&fleet).run(&mut LeastLoaded::default(), requests)
        };
        let patient = run(&full).decode.expect("multi-step traffic");
        let eager = run(&exiting).decode.expect("multi-step traffic");
        assert_eq!(patient.early_exits, 0);
        assert!(eager.early_exits > 0, "a 60% draw fires somewhere");
        assert!(eager.mean_steps < patient.mean_steps);
        assert!(eager.early_exit_rate > 0.0 && eager.early_exit_rate <= 1.0);
        // Early exit only ever removes steps: the histogram never
        // reaches past the plan ceiling.
        assert!(eager.steps_histogram.len() <= 6);
    }

    #[test]
    fn whole_job_batching_is_deterministic_and_steps_match_continuous() {
        // Step counts are plan-driven (the exit draws depend only on the
        // per-request substream and the step cursor), so both batching
        // modes execute identical step totals — they differ only in when
        // the remnant re-enters service.
        let plans = swat_workloads::DecodeMix {
            min_steps: 2,
            max_steps: 5,
            exit_prob: 0.3,
        };
        let requests = traffic(29).decode_requests(120, &plans);
        let fleet = FleetConfig::standard(2);
        let run = |mode: DecodeBatching| {
            Simulation::new(&fleet)
                .decode_batching(mode)
                .run(&mut LeastLoaded::default(), &requests)
        };
        let whole = run(DecodeBatching::WholeJob);
        assert_eq!(whole, run(DecodeBatching::WholeJob), "deterministic");
        let continuous = run(DecodeBatching::Continuous);
        assert_eq!(whole.completed, 120);
        assert_eq!(continuous.completed, 120);
        let (w, c) = (
            whole.decode.as_ref().expect("multi-step traffic"),
            continuous.decode.as_ref().expect("multi-step traffic"),
        );
        assert_eq!(w.steps_completed, c.steps_completed);
        assert_eq!(w.early_exits, c.early_exits);
        assert_eq!(w.steps_histogram, c.steps_histogram);
    }
}
