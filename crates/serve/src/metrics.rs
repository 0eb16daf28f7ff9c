//! The metrics engine: latency percentiles, queue profile, utilization,
//! energy, SLO accounting — overall, per priority class, and per card
//! group.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::request::{CompletedRequest, Request};
use crate::scale::ScaleEvent;
use crate::trace::{GaugeSample, TelemetryMode, TimeBuckets};
use swat_workloads::RequestClass;

/// Preemption-log entries serialized to JSON; the in-memory report keeps
/// the full log, but sweep files cap it so an hour of churn does not
/// dominate `BENCH_serve.json` (the count is always exact).
const PREEMPTION_JSON_CAP: usize = 256;

/// Scaling-timeline entries serialized to JSON (same rationale; scaling
/// decisions are rare, so this cap is generous).
const SCALING_JSON_CAP: usize = 1024;

/// Nearest-rank percentile of a **sorted** slice; `q` in `[0, 1]`.
/// Monotone in `q` by construction, which is what guarantees
/// p99 ≥ p95 ≥ p50 in every report.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty set");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    sorted[nearest_rank(q, sorted.len()) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n ≥ 1` samples — the
/// one rank rule both telemetry modes pick by.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Latency distribution summary, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Arithmetic mean latency.
    pub mean: f64,
    /// Worst observed latency.
    pub max: f64,
}

impl LatencySummary {
    /// Sorts the samples once and summarizes them (`None` when empty).
    fn from_latencies(mut latencies: Vec<f64>) -> Option<LatencySummary> {
        latencies.sort_by(f64::total_cmp);
        let max = *latencies.last()?;
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        Some(LatencySummary {
            p50: percentile(&latencies, 0.50),
            p95: percentile(&latencies, 0.95),
            p99: percentile(&latencies, 0.99),
            mean,
            max,
        })
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("p50_s", Json::Num(self.p50)),
            ("p95_s", Json::Num(self.p95)),
            ("p99_s", Json::Num(self.p99)),
            ("mean_s", Json::Num(self.mean)),
            ("max_s", Json::Num(self.max)),
        ])
    }
}

/// One sampled point of the queue-depth timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSample {
    /// Event time, seconds.
    pub time: f64,
    /// Waiting requests immediately after the event.
    pub depth: usize,
}

/// Queue behaviour over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSummary {
    /// Largest depth ever observed.
    pub max_depth: usize,
    /// Time-weighted mean depth.
    pub mean_depth: f64,
    /// Depth after every event (arrival or dispatch), for plotting.
    /// Capped by the simulator to bound memory on long sweeps.
    pub timeline: Vec<QueueSample>,
    /// Event batches the simulator *would* have sampled — equals
    /// `timeline.len()` until the cap trips, larger after, so a capped
    /// timeline is distinguishable from a complete one (`max_depth` and
    /// `mean_depth` stay exact either way).
    pub total_samples: usize,
}

impl QueueSummary {
    /// Whether the timeline hit the simulator's cap and dropped samples.
    pub fn truncated(&self) -> bool {
        self.total_samples > self.timeline.len()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("max_depth", Json::Int(self.max_depth as i64)),
            ("mean_depth", Json::Num(self.mean_depth)),
        ])
    }
}

/// One row of the streaming telemetry histogram: gauge statistics over a
/// fixed time bucket (see [`TimeBuckets`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryBucket {
    /// Bucket start, seconds (buckets are contiguous).
    pub start_s: f64,
    /// Gauge samples (event batches) that landed in this bucket.
    pub samples: u64,
    /// Mean queue depth over the bucket's samples (0 when empty).
    pub queue_mean: f64,
    /// Peak queue depth in the bucket.
    pub queue_max: usize,
    /// Mean in-flight shard count.
    pub in_flight_mean: f64,
    /// Peak in-flight shard count.
    pub in_flight_max: usize,
    /// Mean powered-card count.
    pub powered_mean: f64,
    /// Mean instantaneous utilization (in-flight shards over fleet
    /// pipelines).
    pub utilization_mean: f64,
    /// Cumulative active energy at the bucket's last sample, joules.
    pub energy_joules: f64,
}

impl TelemetryBucket {
    fn to_json(self) -> Json {
        Json::obj([
            ("t0_s", Json::Num(self.start_s)),
            ("samples", Json::UInt(self.samples)),
            ("queue_mean", Json::Num(self.queue_mean)),
            ("queue_max", Json::Int(self.queue_max as i64)),
            ("in_flight_mean", Json::Num(self.in_flight_mean)),
            ("in_flight_max", Json::Int(self.in_flight_max as i64)),
            ("powered_mean", Json::Num(self.powered_mean)),
            ("utilization_mean", Json::Num(self.utilization_mean)),
            ("energy_j", Json::Num(self.energy_joules)),
        ])
    }
}

/// The streaming telemetry attachment: present on a report only when the
/// run used [`TelemetryMode::Streaming`](crate::trace::TelemetryMode) —
/// Exact-mode reports omit it entirely, keeping their JSON byte-identical
/// to pre-telemetry releases.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Bucket width, seconds (doubles as long runs coarsen; see
    /// [`TimeBuckets`]).
    pub bucket_seconds: f64,
    /// The bounded gauge histogram, in time order.
    pub buckets: Vec<TelemetryBucket>,
}

impl TelemetrySummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::Str("streaming".into())),
            ("quantile_estimator", Json::Str("log_histogram".into())),
            ("bucket_s", Json::Num(self.bucket_seconds)),
            (
                "buckets",
                Json::arr(self.buckets.iter().map(|b| b.to_json())),
            ),
        ])
    }
}

/// One checkpoint-and-requeue decision, as recorded in the report's
/// preemption log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreemptionRecord {
    /// When the preemption fired, seconds.
    pub time: f64,
    /// Id of the background request checkpointed off its card.
    pub preempted: u64,
    /// Id of the waiting interactive request whose patience ran out.
    pub waiting: u64,
    /// The card that gave up capacity.
    pub card: usize,
    /// Whole jobs the victim banked before eviction (its requeued
    /// attempt replays only the remainder).
    pub jobs_checkpointed: usize,
}

impl PreemptionRecord {
    fn to_json(self) -> Json {
        Json::obj([
            ("t_s", Json::Num(self.time)),
            ("preempted", Json::UInt(self.preempted)),
            ("waiting", Json::UInt(self.waiting)),
            ("card", Json::Int(self.card as i64)),
            (
                "jobs_checkpointed",
                Json::Int(self.jobs_checkpointed as i64),
            ),
        ])
    }
}

/// The explicit marker a capped log serializes next to itself: `None`
/// while the log fits (nothing is emitted — historical JSON is
/// unchanged), an object with `truncated`/`logged`/`total` once entries
/// were dropped.
fn truncation_meta(total: usize, cap: usize) -> Option<Json> {
    (total > cap).then(|| {
        Json::obj([
            ("truncated", Json::Bool(true)),
            ("logged", Json::Int(cap as i64)),
            ("total", Json::Int(total as i64)),
        ])
    })
}

fn scale_event_json(e: &ScaleEvent) -> Json {
    Json::obj([
        ("t_s", Json::Num(e.time)),
        ("card", Json::Int(e.card as i64)),
        (
            "action",
            Json::Str(if e.powered_on { "power-up" } else { "park" }.into()),
        ),
        ("queue_depth", Json::Int(e.queue_depth as i64)),
        ("powered_cards", Json::Int(e.powered_cards as i64)),
    ])
}

/// How well the planner's predictions matched what admission charged,
/// over every multi-shard plan the run dispatched. Because planning and
/// admission share one [`CostModel`](crate::cost::CostModel), the error
/// is float noise when nothing intervenes — a materially non-zero value
/// would mean the planner priced state the cards did not charge, which
/// is exactly the contention-blind bug this model replaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// Multi-shard plans priced (single-shard plans are trivially exact
    /// and not counted).
    pub plans: usize,
    /// Mean |realized − predicted| fan-in time, seconds.
    pub mean_abs_error_s: f64,
    /// Worst |realized − predicted| fan-in time, seconds.
    pub max_error_s: f64,
}

impl CostPrediction {
    fn to_json(self) -> Json {
        Json::obj([
            ("plans", Json::Int(self.plans as i64)),
            ("mean_abs_error_s", Json::Num(self.mean_abs_error_s)),
            ("max_error_s", Json::Num(self.max_error_s)),
        ])
    }
}

/// Tally of injected faults and their fallout, attached to a report only
/// when the run carried a non-empty [`FaultPlan`](crate::fault::FaultPlan)
/// — fault-free runs omit the block entirely, keeping their JSON
/// byte-identical to pre-fault releases.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSummary {
    /// Card-death events delivered (a death aimed at an already-dead
    /// card is a no-op and not counted).
    pub card_deaths: u64,
    /// Calibration-degrade events delivered.
    pub degrades: u64,
    /// Revivals that actually resurrected a dead card.
    pub revivals: u64,
    /// In-flight shards evicted by card deaths (each is requeued as a
    /// checkpointed remnant, not lost work — the count measures blast
    /// radius, not data loss).
    pub shards_lost: u64,
    /// Requests stranded un-served because the whole fleet died. Always
    /// 0 while at least one card survives or revives: the simulator
    /// requeues evicted work and drains it on whatever capacity remains.
    pub failed: usize,
}

impl FaultSummary {
    fn to_json(self) -> Json {
        Json::obj([
            ("card_deaths", Json::UInt(self.card_deaths)),
            ("degrades", Json::UInt(self.degrades)),
            ("revivals", Json::UInt(self.revivals)),
            ("shards_lost", Json::UInt(self.shards_lost)),
            ("failed", Json::Int(self.failed as i64)),
        ])
    }
}

/// Per-conversation accounting, attached to a report only when the
/// traffic carried session ids (some request with `session != 0`) —
/// sessionless runs omit the block so their JSON stays byte-identical to
/// pre-session releases.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Distinct sessions observed across completed, rejected, and failed
    /// requests.
    pub sessions: usize,
    /// Session-tagged requests (turns) that completed.
    pub turns_completed: usize,
    /// Mean completed turns per session.
    pub mean_turns: f64,
    /// Distribution of **per-session mean** latencies — each session
    /// contributes one sample, so a heavy tenant's thousand turns cannot
    /// drown out an interactive user's five (`None` when no
    /// session-tagged request completed).
    pub latency: Option<LatencySummary>,
    /// Jain's fairness index over per-session completed-turn counts:
    /// `(Σx)² / (n·Σx²)` — 1 when every session got equal service,
    /// `1/n` when one session got everything, and (by convention) 1 when
    /// nothing completed at all.
    pub fairness: f64,
}

impl SessionSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("sessions", Json::Int(self.sessions as i64)),
            ("turns_completed", Json::Int(self.turns_completed as i64)),
            ("mean_turns", Json::Num(self.mean_turns)),
            (
                "latency",
                Json::maybe(self.latency, LatencySummary::to_json),
            ),
            ("fairness_jain", Json::Num(self.fairness)),
        ])
    }
}

/// Token-level decode accounting, attached to a report only when some
/// completion carried a multi-step decode plan — one-shot runs omit the
/// block entirely so their JSON stays byte-identical to pre-decode
/// releases. Under streaming telemetry the counts are exact and the three
/// latency distributions' percentiles come from log-bucketed histograms
/// (within 2⁻⁷ of exact), like every other percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeSummary {
    /// Completions that carried a multi-step decode plan.
    pub decode_requests: usize,
    /// Decode steps executed across every completion (one-shot
    /// completions count their single step).
    pub steps_completed: u64,
    /// Mean executed steps per completion.
    pub mean_steps: f64,
    /// Completions by executed step count: `steps_histogram[s - 1]`
    /// completions ran exactly `s` steps.
    pub steps_histogram: Vec<usize>,
    /// Completions that left before their plan's full step count.
    pub early_exits: usize,
    /// `early_exits` over `decode_requests` (0 when no decode request
    /// completed).
    pub early_exit_rate: f64,
    /// Time-to-first-step (arrival to first fan-in) over all completions
    /// — the interactive-latency number a decode loop exists to protect.
    pub ttft: Option<LatencySummary>,
    /// Per-request mean time between consecutive step fan-ins, over
    /// completions that ran at least two steps (`None` when none did).
    pub step_interval: Option<LatencySummary>,
    /// Arrival-to-final-completion latency over decode completions only
    /// — read next to `ttft` to see what the tail steps cost.
    pub total_latency: Option<LatencySummary>,
}

impl DecodeSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("decode_requests", Json::Int(self.decode_requests as i64)),
            ("steps_completed", Json::Int(self.steps_completed as i64)),
            ("mean_steps", Json::Num(self.mean_steps)),
            (
                "steps_histogram",
                Json::arr(self.steps_histogram.iter().map(|&n| Json::Int(n as i64))),
            ),
            ("early_exits", Json::Int(self.early_exits as i64)),
            ("early_exit_rate", Json::Num(self.early_exit_rate)),
            ("ttft", Json::maybe(self.ttft, LatencySummary::to_json)),
            (
                "step_interval",
                Json::maybe(self.step_interval, LatencySummary::to_json),
            ),
            (
                "total_latency",
                Json::maybe(self.total_latency, LatencySummary::to_json),
            ),
        ])
    }
}

/// Per-card accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CardSummary {
    /// Card index.
    pub card: usize,
    /// Index of the card's [`CardGroup`](crate::fleet::CardGroup).
    pub group: usize,
    /// Requests served.
    pub served: u64,
    /// Busy pipeline-seconds over available pipeline-seconds (makespan ×
    /// pipelines).
    pub utilization: f64,
    /// Active-service energy, joules.
    pub energy_joules: f64,
    /// Model-family weight swap-ins this card paid for.
    pub weight_swaps: u64,
    /// Wall seconds the card spent powered (equals the makespan for a
    /// static fleet; less when an autoscaler parked it).
    pub powered_seconds: f64,
    /// Idle energy: static power over powered-but-not-serving time.
    pub idle_energy_joules: f64,
    /// Requests preemption checkpointed-and-requeued off this card.
    pub preempted: u64,
}

impl CardSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("card", Json::Int(self.card as i64)),
            ("group", Json::Int(self.group as i64)),
            ("served", Json::Int(self.served as i64)),
            ("utilization", Json::Num(self.utilization)),
            ("energy_j", Json::Num(self.energy_joules)),
            ("weight_swaps", Json::Int(self.weight_swaps as i64)),
            ("powered_s", Json::Num(self.powered_seconds)),
            ("idle_energy_j", Json::Num(self.idle_energy_joules)),
            ("preempted", Json::Int(self.preempted as i64)),
        ])
    }
}

/// Aggregate accounting for one [`CardGroup`](crate::fleet::CardGroup) —
/// how a heterogeneous fleet's pools compare at a glance.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Group index (declaration order in the fleet config).
    pub group: usize,
    /// Cards in the group.
    pub cards: usize,
    /// Requests served by the group.
    pub served: u64,
    /// Mean utilization across the group's cards.
    pub utilization: f64,
    /// Active-service energy, joules.
    pub energy_joules: f64,
    /// Weight swap-ins across the group.
    pub weight_swaps: u64,
    /// Idle energy across the group, joules.
    pub idle_energy_joules: f64,
    /// Requests preempted off the group's cards.
    pub preempted: u64,
}

impl GroupSummary {
    /// Folds per-card summaries (ordered by card index) into per-group
    /// aggregates. Group ids are contiguous by construction of
    /// [`Fleet`](crate::fleet::Fleet).
    pub fn from_cards(cards: &[CardSummary]) -> Vec<GroupSummary> {
        let mut groups: Vec<GroupSummary> = Vec::new();
        for c in cards {
            if groups.last().map(|g| g.group) != Some(c.group) {
                groups.push(GroupSummary {
                    group: c.group,
                    cards: 0,
                    served: 0,
                    utilization: 0.0,
                    energy_joules: 0.0,
                    weight_swaps: 0,
                    idle_energy_joules: 0.0,
                    preempted: 0,
                });
            }
            let g = groups.last_mut().expect("just pushed");
            g.cards += 1;
            g.served += c.served;
            g.utilization += c.utilization;
            g.energy_joules += c.energy_joules;
            g.weight_swaps += c.weight_swaps;
            g.idle_energy_joules += c.idle_energy_joules;
            g.preempted += c.preempted;
        }
        for g in &mut groups {
            g.utilization /= g.cards as f64;
        }
        groups
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("group", Json::Int(self.group as i64)),
            ("cards", Json::Int(self.cards as i64)),
            ("served", Json::Int(self.served as i64)),
            ("utilization", Json::Num(self.utilization)),
            ("energy_j", Json::Num(self.energy_joules)),
            ("weight_swaps", Json::Int(self.weight_swaps as i64)),
            ("idle_energy_j", Json::Num(self.idle_energy_joules)),
            ("preempted", Json::Int(self.preempted as i64)),
        ])
    }
}

/// Accounting for one priority class: its own latency distribution, SLO
/// tally, and admission outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSummary {
    /// The class.
    pub class: RequestClass,
    /// Requests of this class offered to the fleet.
    pub offered: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed by admission control.
    pub rejected: usize,
    /// Completions later than the class SLO.
    pub slo_violations: usize,
    /// Latency distribution of this class's completions (`None` when the
    /// class completed nothing, e.g. fully shed under overload).
    pub latency: Option<LatencySummary>,
}

impl ClassSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("class", Json::Str(self.class.name().into())),
            ("offered", Json::Int(self.offered as i64)),
            ("completed", Json::Int(self.completed as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
            ("slo_violations", Json::Int(self.slo_violations as i64)),
            (
                "latency",
                Json::maybe(self.latency, LatencySummary::to_json),
            ),
        ])
    }
}

/// Everything a serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Dispatch policy name.
    pub policy: String,
    /// Arrival process name (set by the caller; see
    /// [`Simulation::arrivals_label`](crate::sim::Simulation::arrivals_label)).
    pub arrivals: String,
    /// Requests offered to the fleet (completed + rejected + failed).
    pub offered: usize,
    /// Requests completed (the simulator drains everything it admits).
    pub completed: usize,
    /// Requests shed by admission control before queueing.
    pub rejected: usize,
    /// Completions that a split-aware policy fanned out across more than
    /// one pipeline (peak shard width > 1).
    pub sharded_requests: usize,
    /// Largest peak shard width any completion reached (1 on
    /// whole-request policies; 0 only when nothing completed).
    pub max_shards: usize,
    /// Completions by peak shard width: `shard_widths[w - 1]` requests
    /// completed at peak width `w`. Length equals `max_shards` (empty
    /// when nothing completed) — the per-width view of how often an
    /// adaptive planner actually chose to fan out.
    pub shard_widths: Vec<usize>,
    /// Seconds from first arrival to last completion (0 when nothing
    /// completed, e.g. the whole trace was shed by admission control).
    pub makespan: f64,
    /// Completed requests per second of makespan (0 for a zero-makespan
    /// run).
    pub throughput_rps: f64,
    /// Arrival-to-completion latency summary over all completions
    /// (`None` when nothing completed — there is no distribution to
    /// summarize).
    pub latency: Option<LatencySummary>,
    /// Per-priority-class accounting (only classes present in the trace).
    pub classes: Vec<ClassSummary>,
    /// Queue-depth profile.
    pub queue: QueueSummary,
    /// Per-card accounting.
    pub cards: Vec<CardSummary>,
    /// Per-group accounting (one entry per card group).
    pub groups: Vec<GroupSummary>,
    /// Fleet-aggregate active energy, joules.
    pub energy_joules: f64,
    /// Fleet-aggregate idle energy, joules: static power over
    /// powered-but-not-serving time. Zero only when every powered second
    /// served work; for a static fleet this is the over-provisioning cost
    /// an autoscaler exists to cut.
    pub idle_energy_joules: f64,
    /// Completions later than their request's SLO.
    pub slo_violations: usize,
    /// Every checkpoint-and-requeue decision, in time order (empty when
    /// preemption is off or never fired).
    pub preemptions: Vec<PreemptionRecord>,
    /// The autoscaler's decision timeline (empty without an autoscaler).
    pub scaling: Vec<ScaleEvent>,
    /// Predicted-vs-realized fan-in audit over multi-shard plans
    /// (`None` when no plan fanned out — whole-request policies and
    /// `max_shards = 1` runs).
    pub cost_prediction: Option<CostPrediction>,
    /// Streaming telemetry histogram, present only on
    /// [`TelemetryMode::Streaming`](crate::trace::TelemetryMode) runs
    /// (`None` under Exact, whose JSON must stay byte-identical).
    pub telemetry: Option<TelemetrySummary>,
    /// Requests stranded un-served because every card died mid-run
    /// (0 whenever the fleet survived; counted in `offered` and charged
    /// against [`ServeReport::slo_attainment`]). Serialized inside the
    /// `faults` block — a fault-free report never mentions it.
    pub failed: usize,
    /// Fault-injection tally, `Some` exactly when the run carried a
    /// non-empty fault plan.
    pub faults: Option<FaultSummary>,
    /// Per-session accounting, `Some` exactly when the traffic carried
    /// session ids. Exact-telemetry runs only — each session's mean sums
    /// its turns in request-id order, which needs every session-tagged
    /// turn held until the run ends, and streaming telemetry holds no
    /// per-request state.
    pub sessions: Option<SessionSummary>,
    /// Token-level decode accounting, `Some` exactly when some
    /// completion carried a multi-step decode plan, in either telemetry
    /// mode.
    pub decode: Option<DecodeSummary>,
}

impl ServeReport {
    /// Mean utilization across cards (0 for a cardless report).
    pub fn fleet_utilization(&self) -> f64 {
        if self.cards.is_empty() {
            return 0.0;
        }
        self.cards.iter().map(|c| c.utilization).sum::<f64>() / self.cards.len() as f64
    }

    /// Total weight swap-ins across the fleet — the quantity head-affinity
    /// dispatch exists to minimize.
    pub fn weight_swaps(&self) -> u64 {
        self.cards.iter().map(|c| c.weight_swaps).sum()
    }

    /// The summary for one class, if that class appeared in the traffic.
    pub fn class(&self, class: RequestClass) -> Option<&ClassSummary> {
        self.classes.iter().find(|c| c.class == class)
    }

    /// Checkpoint-and-requeue decisions over the run.
    pub fn preemption_count(&self) -> usize {
        self.preemptions.len()
    }

    /// Active plus idle energy — the number an energy-vs-SLO tradeoff
    /// compares across static and autoscaled fleets (active energy alone
    /// hides the cost of keeping spare cards hot).
    pub fn total_energy_joules(&self) -> f64 {
        self.energy_joules + self.idle_energy_joules
    }

    /// Fraction of **offered** requests that completed within their SLO,
    /// in `[0, 1]` — the service side of the energy-vs-SLO tradeoff.
    ///
    /// The denominator is deliberately `offered`, not `completed`: a
    /// request shed by admission control never met its objective, so
    /// shedding 90% of traffic cannot report perfect attainment — the
    /// aggressive-admission failure mode the old completions-only ratio
    /// hid (and which divided 0/0 into NaN on a fully-shed run). Requests
    /// stranded by a fleet-wide death (`failed`) sit in the denominator
    /// for the same reason. The empty case is defined explicitly: a
    /// report with nothing offered has no request that missed its SLO,
    /// so attainment is 1.
    pub fn slo_attainment(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        (self.completed - self.slo_violations) as f64 / self.offered as f64
    }

    /// Serializes the summary (everything except the placement trace).
    ///
    /// The fan-out diagnostics — `shard_widths` and `cost_prediction` —
    /// are emitted only when the run actually fanned a request out
    /// (`max_shards > 1`), so reports from whole-request policies and
    /// `max_shards = 1` runs serialize byte-for-byte as they always did.
    /// The `decode`, `faults`, and `sessions` blocks follow the same
    /// rule: present only when a completion carried a multi-step decode
    /// plan / a fault plan was injected / the traffic carried session
    /// ids.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&'static str, Json)> = vec![
            ("policy", Json::Str(self.policy.clone())),
            ("arrivals", Json::Str(self.arrivals.clone())),
            ("offered", Json::Int(self.offered as i64)),
            ("completed", Json::Int(self.completed as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
            ("sharded_requests", Json::Int(self.sharded_requests as i64)),
            ("max_shards", Json::Int(self.max_shards as i64)),
        ];
        if self.max_shards > 1 {
            pairs.push((
                "shard_widths",
                Json::arr(self.shard_widths.iter().map(|&n| Json::Int(n as i64))),
            ));
            pairs.push((
                "cost_prediction",
                Json::maybe(self.cost_prediction, CostPrediction::to_json),
            ));
        }
        pairs.extend([
            ("makespan_s", Json::Num(self.makespan)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            (
                "latency",
                Json::maybe(self.latency, LatencySummary::to_json),
            ),
            (
                "classes",
                Json::arr(self.classes.iter().map(ClassSummary::to_json)),
            ),
            ("queue", self.queue.to_json()),
            ("slo_violations", Json::Int(self.slo_violations as i64)),
            ("slo_attainment", Json::Num(self.slo_attainment())),
            ("energy_j", Json::Num(self.energy_joules)),
            ("idle_energy_j", Json::Num(self.idle_energy_joules)),
            ("total_energy_j", Json::Num(self.total_energy_joules())),
            ("fleet_utilization", Json::Num(self.fleet_utilization())),
            ("preemptions", Json::Int(self.preemption_count() as i64)),
            (
                "preemption_log",
                Json::arr(
                    self.preemptions
                        .iter()
                        .take(PREEMPTION_JSON_CAP)
                        .copied()
                        .map(PreemptionRecord::to_json),
                ),
            ),
        ]);
        // A capped log declares itself (logged vs total); an uncapped one
        // omits the row entirely, so historical JSON stays byte-identical.
        if let Some(meta) = truncation_meta(self.preemptions.len(), PREEMPTION_JSON_CAP) {
            pairs.push(("preemption_log_meta", meta));
        }
        pairs.push((
            "scaling",
            Json::arr(
                self.scaling
                    .iter()
                    .take(SCALING_JSON_CAP)
                    .map(scale_event_json),
            ),
        ));
        if let Some(meta) = truncation_meta(self.scaling.len(), SCALING_JSON_CAP) {
            pairs.push(("scaling_meta", meta));
        }
        pairs.extend([
            (
                "groups",
                Json::arr(self.groups.iter().map(GroupSummary::to_json)),
            ),
            (
                "cards",
                Json::arr(self.cards.iter().map(CardSummary::to_json)),
            ),
        ]);
        // Decode, fault, and session blocks exist only when the run
        // carried multi-step plans / injected faults / carried session
        // ids, so every pre-existing scenario serializes byte-for-byte
        // as before (the `failed` count lives inside the fault block —
        // it cannot be non-zero without one).
        if let Some(d) = &self.decode {
            pairs.push(("decode", d.to_json()));
        }
        if let Some(f) = self.faults {
            pairs.push(("faults", f.to_json()));
        }
        if let Some(s) = &self.sessions {
            pairs.push(("sessions", s.to_json()));
        }
        if let Some(t) = &self.telemetry {
            pairs.push(("telemetry", t.to_json()));
        }
        Json::obj(pairs)
    }
}

/// Low bits of a sample's IEEE-754 pattern that [`LogHistogram`] drops:
/// the bucket key keeps the top 18 — sign, exponent and six mantissa
/// bits — so each power of two splits into 64 buckets.
const BUCKET_SHIFT: u32 = 46;

/// A latency distribution in bounded memory: a count per log-spaced
/// bucket, plus the exact count, sum, min and max. The bucket is an
/// integer function of the sample's bits (see [`BUCKET_SHIFT`]), so
/// binning needs no `ln`, reads the same on every platform and does not
/// depend on the order samples arrive in; memory grows with the
/// samples' dynamic range — at most 64 buckets per power of two — not
/// with their count.
///
/// Each percentile is the midpoint of the bucket holding the exact
/// nearest-rank sample, clamped to the observed `[min, max]`. A bucket
/// is at most 1/64 of its lower edge wide, so the midpoint lies within
/// 2⁻⁷ (≈ 0.78 %) of every sample in it, and clamping only moves it
/// closer: every p50/p95/p99 is within 2⁻⁷ relative of exact mode's.
/// `max` is exact; `mean` is the sum over the count, summed in arrival
/// order, so it can differ from exact mode's in the last bits. Samples
/// are latencies — finite and non-negative — for which key order is
/// value order.
#[derive(Debug, Clone)]
struct LogHistogram {
    buckets: BTreeMap<u64, usize>,
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    fn new() -> LogHistogram {
        LogHistogram {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, x: f64) {
        *self.buckets.entry(x.to_bits() >> BUCKET_SHIFT).or_default() += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The nearest-rank `q` percentile, reported as its bucket's
    /// midpoint clamped to `[min, max]`.
    fn percentile(&self, q: f64) -> f64 {
        let rank = nearest_rank(q, self.count);
        let mut seen = 0;
        let (&key, _) = self
            .buckets
            .iter()
            .find(|(_, &n)| {
                seen += n;
                seen >= rank
            })
            .expect("the rank is at most the sample count");
        f64::from_bits(key << BUCKET_SHIFT | 1 << (BUCKET_SHIFT - 1)).clamp(self.min, self.max)
    }

    /// `None` when nothing was observed.
    fn summary(&self) -> Option<LatencySummary> {
        (self.count > 0).then(|| LatencySummary {
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            mean: self.sum / self.count as f64,
            max: self.max,
        })
    }
}

/// One latency distribution, held the way the run's [`TelemetryMode`]
/// asks: every sample, sorted once when the report is built (exact
/// nearest-rank percentiles, and a mean summed in sorted order, so the
/// bytes do not depend on the order samples arrived in), or a
/// [`LogHistogram`].
#[derive(Debug, Clone)]
enum LatencyStore {
    Exact(Vec<f64>),
    Streaming(LogHistogram),
}

impl LatencyStore {
    fn new(mode: TelemetryMode) -> LatencyStore {
        match mode {
            TelemetryMode::Exact => LatencyStore::Exact(Vec::new()),
            TelemetryMode::Streaming => LatencyStore::Streaming(LogHistogram::new()),
        }
    }

    fn observe(&mut self, x: f64) {
        match self {
            LatencyStore::Exact(samples) => samples.push(x),
            LatencyStore::Streaming(histogram) => histogram.observe(x),
        }
    }

    /// `None` when nothing was observed.
    fn summary(self) -> Option<LatencySummary> {
        match self {
            LatencyStore::Exact(samples) => LatencySummary::from_latencies(samples),
            LatencyStore::Streaming(histogram) => histogram.summary(),
        }
    }
}

/// Counts one observation of `value` (≥ 1) in a histogram indexed by
/// `value - 1`, growing it as needed.
fn count(histogram: &mut Vec<usize>, value: usize) {
    if histogram.len() < value {
        histogram.resize(value, 0);
    }
    histogram[value - 1] += 1;
}

/// Folds the session turn log — `(session, id, latency)` per
/// session-tagged request, `None` latency for a shed or stranded one —
/// into per-conversation statistics. `None` when nothing carried a
/// session id, which is what keeps sessionless reports untouched.
fn session_summary(mut turns: Vec<(u64, u64, Option<f64>)>) -> Option<SessionSummary> {
    // Each session sums its turns' latencies in request-id order: float
    // sums depend on order, and turns of one session can fan in out of id
    // order.
    turns.sort_unstable_by_key(|&(session, id, _)| (session, id));
    // (completed turns, summed latency) per session, in session-id order.
    // A session whose every turn went unserved still counts (with zero
    // turns) — fairness must see it.
    let per: Vec<(usize, f64)> = turns
        .chunk_by(|a, b| a.0 == b.0)
        .map(|session| {
            session
                .iter()
                .filter_map(|t| t.2)
                .fold((0, 0.0), |(n, sum), latency| (n + 1, sum + latency))
        })
        .collect();
    if per.is_empty() {
        return None;
    }
    let turns_completed: usize = per.iter().map(|e| e.0).sum();
    let n = per.len() as f64;
    let sum: f64 = per.iter().map(|e| e.0 as f64).sum();
    let sumsq: f64 = per.iter().map(|e| (e.0 as f64) * (e.0 as f64)).sum();
    let means: Vec<f64> = per
        .iter()
        .filter(|e| e.0 > 0)
        .map(|e| e.1 / e.0 as f64)
        .collect();
    Some(SessionSummary {
        sessions: per.len(),
        turns_completed,
        mean_turns: turns_completed as f64 / n,
        latency: LatencySummary::from_latencies(means),
        fairness: if sumsq > 0.0 {
            sum * sum / (n * sumsq)
        } else {
            1.0
        },
    })
}

/// The report accumulator. The kernel feeds it each request's outcome as
/// it happens — a fan-in, an admission shed, a request stranded by a dead
/// fleet — and [`ReportAccum::into_report`] builds the [`ServeReport`]
/// after the last event. Counts and the shard-width and step histograms
/// are the same in both telemetry modes; only the latency stores differ.
/// No per-request record is kept and nothing is sorted by id:
/// every exact statistic except the session block is independent of
/// completion order, and that block sorts only its own turns.
#[derive(Debug, Clone)]
pub(crate) struct ReportAccum {
    policy: String,
    arrivals: String,
    latency: LatencyStore,
    /// Per-class tallies, each row's `latency` left `None` until
    /// `into_report` fills it from the paired store.
    classes: [(ClassSummary, LatencyStore); RequestClass::ALL.len()],
    /// Earliest arrival among completions (`∞` until one completes).
    first_arrival: f64,
    /// Latest fan-in (`-∞` until one completes).
    last_finish: f64,
    /// `shard_widths[w - 1]` completions at peak width `w`.
    shard_widths: Vec<usize>,
    /// `steps_histogram[s - 1]` completions ran exactly `s` steps.
    steps_histogram: Vec<usize>,
    /// Completions that carried a multi-step plan, and those of them
    /// that exited early.
    decode_requests: usize,
    early_exits: usize,
    /// `None` until the first multi-step completion (see
    /// [`ReportAccum::complete`]).
    ttft: Option<LatencyStore>,
    step_interval: LatencyStore,
    /// Arrival to final fan-in, multi-step plans only.
    decode_latency: LatencyStore,
    /// The session turn log (see [`session_summary`]); `None` under
    /// streaming telemetry (see [`ServeReport::sessions`]).
    sessions: Option<Vec<(u64, u64, Option<f64>)>>,
    /// The gauge histogram, `Some` exactly under streaming telemetry.
    buckets: Option<TimeBuckets>,
}

impl ReportAccum {
    /// An empty accumulator for a run of `policy` over traffic labelled
    /// `arrivals`.
    pub(crate) fn new(mode: TelemetryMode, policy: &str, arrivals: &str) -> ReportAccum {
        let streaming = mode == TelemetryMode::Streaming;
        let class = |class| ClassSummary {
            class,
            offered: 0,
            completed: 0,
            rejected: 0,
            slo_violations: 0,
            latency: None,
        };
        ReportAccum {
            policy: policy.to_string(),
            arrivals: arrivals.to_string(),
            latency: LatencyStore::new(mode),
            classes: RequestClass::ALL.map(|c| (class(c), LatencyStore::new(mode))),
            first_arrival: f64::INFINITY,
            last_finish: f64::NEG_INFINITY,
            shard_widths: Vec::new(),
            steps_histogram: Vec::new(),
            decode_requests: 0,
            early_exits: 0,
            ttft: None,
            step_interval: LatencyStore::new(mode),
            decode_latency: LatencyStore::new(mode),
            sessions: (!streaming).then(Vec::new),
            buckets: streaming.then(TimeBuckets::new),
        }
    }

    /// Folds in one completion (its final fan-in).
    ///
    /// Only a run with a multi-step plan reports TTFT, so the TTFT store
    /// starts at the first multi-step completion, as a copy of the
    /// overall latency store: every earlier completion was one-shot, and
    /// a one-shot TTFT equals its latency bitwise, so the copy holds
    /// exactly the samples (or histogram) the store would have.
    pub(crate) fn complete(&mut self, c: &CompletedRequest) {
        if self.ttft.is_none() && !c.request.decode.is_one_shot() {
            self.ttft = Some(self.latency.clone());
        }
        let latency = c.latency();
        self.latency.observe(latency);
        let (class, store) = &mut self.classes[c.request.class.rank() as usize];
        class.offered += 1;
        class.completed += 1;
        store.observe(latency);
        if !c.met_slo() {
            class.slo_violations += 1;
        }
        count(&mut self.shard_widths, c.shards as usize);
        self.first_arrival = self.first_arrival.min(c.request.arrival);
        self.last_finish = self.last_finish.max(c.finished);
        let steps = c.request.steps_done;
        count(&mut self.steps_histogram, steps as usize);
        if let Some(ttft) = &mut self.ttft {
            ttft.observe(c.ttft());
        }
        if !c.request.decode.is_one_shot() {
            self.decode_requests += 1;
            if c.early_exit() {
                self.early_exits += 1;
            }
            if steps >= 2 {
                self.step_interval
                    .observe((c.finished - c.first_step_finished) / f64::from(steps - 1));
            }
            self.decode_latency.observe(latency);
        }
        self.session_turn(&c.request, Some(latency));
    }

    /// Counts a request admission control shed at arrival.
    pub(crate) fn reject(&mut self, r: &Request) {
        let class = &mut self.classes[r.class.rank() as usize].0;
        class.offered += 1;
        class.rejected += 1;
        self.session_turn(r, None);
    }

    /// Counts a request stranded because every card died: offered, never
    /// served.
    pub(crate) fn fail(&mut self, r: &Request) {
        self.classes[r.class.rank() as usize].0.offered += 1;
        self.session_turn(r, None);
    }

    fn session_turn(&mut self, r: &Request, latency: Option<f64>) {
        if r.session != 0 {
            if let Some(turns) = &mut self.sessions {
                turns.push((r.session, r.id, latency));
            }
        }
    }

    /// Folds one gauge sample into the streaming histogram (a no-op under
    /// exact telemetry, whose reports carry none).
    pub(crate) fn gauges(&mut self, now: f64, sample: &GaugeSample) {
        if let Some(buckets) = &mut self.buckets {
            buckets.record(now, sample);
        }
    }

    /// Requests accounted so far: completed, shed, or stranded.
    pub(crate) fn offered(&self) -> usize {
        self.classes.iter().map(|(c, _)| c.offered).sum()
    }

    /// Requests stranded so far.
    pub(crate) fn failed(&self) -> usize {
        self.classes
            .iter()
            .map(|(c, _)| c.offered - c.completed - c.rejected)
            .sum()
    }

    /// Seconds from `t0` (the trace's first arrival) to the last
    /// completion; 0 when nothing completed, e.g. a fully-shed trace.
    pub(crate) fn span(&self, t0: f64) -> f64 {
        t0.max(self.last_finish) - t0
    }

    /// Builds the report from the folds and the run-level sections the
    /// kernel tracks itself. Shed and stranded requests count toward
    /// `offered` — and toward their class's offered tally — so attainment
    /// cannot be flattered by losing traffic. A run with zero completions
    /// produces a fully finite report: zero makespan and throughput,
    /// `None` latency.
    pub(crate) fn into_report(
        self,
        queue: QueueSummary,
        cards: Vec<CardSummary>,
        preemptions: Vec<PreemptionRecord>,
        scaling: Vec<ScaleEvent>,
        cost_prediction: Option<CostPrediction>,
        faults: Option<FaultSummary>,
    ) -> ServeReport {
        let offered = self.offered();
        let failed = self.failed();
        let completed: usize = self.classes.iter().map(|(c, _)| c.completed).sum();
        let rejected: usize = self.classes.iter().map(|(c, _)| c.rejected).sum();
        let slo_violations = self.classes.iter().map(|(c, _)| c.slo_violations).sum();
        let makespan = if completed == 0 {
            0.0
        } else {
            self.last_finish - self.first_arrival
        };
        let classes = self
            .classes
            .into_iter()
            .filter(|(c, _)| c.offered > 0)
            .map(|(c, store)| ClassSummary {
                latency: store.summary(),
                ..c
            })
            .collect();
        ServeReport {
            policy: self.policy,
            arrivals: self.arrivals,
            offered,
            completed,
            rejected,
            sharded_requests: self.shard_widths.iter().skip(1).sum(),
            max_shards: self.shard_widths.len(),
            shard_widths: self.shard_widths,
            makespan,
            throughput_rps: if makespan > 0.0 {
                completed as f64 / makespan
            } else {
                0.0
            },
            latency: self.latency.summary(),
            classes,
            queue,
            energy_joules: cards.iter().map(|c| c.energy_joules).sum(),
            idle_energy_joules: cards.iter().map(|c| c.idle_energy_joules).sum(),
            groups: GroupSummary::from_cards(&cards),
            cards,
            slo_violations,
            preemptions,
            scaling,
            cost_prediction,
            telemetry: self.buckets.map(|b| TelemetrySummary {
                bucket_seconds: b.width_seconds(),
                buckets: b.rows(),
            }),
            failed,
            faults,
            sessions: self.sessions.and_then(session_summary),
            // Absent when every completion was one-shot, which is what
            // keeps pre-decode reports untouched.
            decode: (self.decode_requests > 0).then(|| {
                let steps_completed = (1..)
                    .zip(&self.steps_histogram)
                    .map(|(s, &n)| s * n as u64)
                    .sum();
                DecodeSummary {
                    decode_requests: self.decode_requests,
                    steps_completed,
                    mean_steps: steps_completed as f64 / completed as f64,
                    steps_histogram: self.steps_histogram,
                    early_exits: self.early_exits,
                    early_exit_rate: self.early_exits as f64 / self.decode_requests as f64,
                    ttft: self.ttft.and_then(LatencyStore::summary),
                    step_interval: self.step_interval.summary(),
                    total_latency: self.decode_latency.summary(),
                }
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swat_numeric::SplitMix64;
    use swat_workloads::{DecodePlan, RequestShape};

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        // Tiny sets degrade gracefully.
        assert_eq!(percentile(&[3.5], 0.99), 3.5);
    }

    #[test]
    fn percentiles_are_monotone() {
        let xs = [0.1, 0.2, 0.2, 0.9, 5.0];
        let s = LatencySummary::from_latencies(xs.to_vec()).unwrap();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    /// Uniform in `[0, 1)` with full f64 mantissa resolution.
    fn uniform(rng: &mut SplitMix64) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` long-tailed samples: a 1 ms floor plus an exponential tail.
    fn long_tailed(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| 1e-3 - (1.0 - uniform(&mut rng)).ln())
            .collect()
    }

    fn histogram_of(xs: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &x in xs {
            h.observe(x);
        }
        h
    }

    #[test]
    fn histogram_reports_a_lone_sample_at_every_percentile() {
        for x in [1e-3, 0.3, 1.0, 7.25, 123.456] {
            let s = histogram_of(&[x]).summary().expect("one sample");
            assert_eq!([s.p50, s.p95, s.p99, s.mean, s.max], [x; 5]);
        }
    }

    #[test]
    fn histogram_picks_rank_q_n_when_it_is_integral() {
        // Each of 1..=100 has its own bucket — [50, 50.5) holds 50 and
        // [95, 96) holds 95 — so the reported midpoint names the rank
        // picked. At n = 100 the ranks are 50, 95 and 99, as `percentile`
        // picks; ranks 51, 96 and 100 would read 51.25, 96.5 and 100.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let mut reversed = xs.clone();
        reversed.reverse();
        let s = histogram_of(&reversed).summary().expect("100 samples");
        assert_eq!([s.p50, s.p95, s.p99], [50.25, 95.5, 99.5]);
        for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let exact = percentile(&xs, q);
            assert!((got - exact).abs() <= exact / 128.0, "q {q}");
        }
    }

    #[test]
    fn histogram_percentiles_are_ordered_and_within_the_bound() {
        for n in [2, 3, 7, 100, 1_001, 10_000] {
            let mut xs = long_tailed(n as u64, n);
            let s = histogram_of(&xs).summary().expect("non-empty");
            assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max, "n {n}");
            xs.sort_by(f64::total_cmp);
            assert_eq!(s.max, *xs.last().unwrap());
            for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
                let exact = percentile(&xs, q);
                assert!(
                    (got - exact).abs() <= exact / 128.0,
                    "n {n}, q {q}: {got} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn histogram_buckets_grow_with_range_not_count() {
        // Log-uniform over the 17 powers of two in [2^-10, 2^7): at most
        // 64 buckets each, however many samples arrive.
        let mut rng = SplitMix64::new(7);
        let mut h = LogHistogram::new();
        let mut filled = Vec::new();
        for _ in 0..4 {
            for _ in 0..25_000 {
                h.observe((-10.0 + 17.0 * uniform(&mut rng)).exp2());
            }
            let binades = (h.max.to_bits() >> 52) - (h.min.to_bits() >> 52) + 1;
            assert_eq!(binades, 17);
            assert!(h.buckets.len() as u64 <= 64 * binades);
            filled.push(h.buckets.len());
        }
        assert_eq!(h.count, 100_000);
        assert_eq!(filled, [64 * 17; 4], "every bucket filled by 25k samples");
    }

    #[test]
    fn empty_histogram_has_no_summary() {
        assert_eq!(LogHistogram::new().summary(), None);
        assert_eq!(LatencyStore::new(TelemetryMode::Streaming).summary(), None);
    }

    fn shape() -> RequestShape {
        RequestShape {
            seq_len: 512,
            heads: 1,
            layers: 1,
            batch: 1,
        }
    }

    /// A one-shot completion: every completion ran at least its one step.
    fn completed(id: u64, arrival: f64, finished: f64) -> CompletedRequest {
        CompletedRequest {
            request: Request {
                steps_done: 1,
                ..Request::new(id, arrival, shape())
            },
            dispatched: arrival,
            finished,
            first_step_finished: finished,
            card: 0,
            pipeline: 0,
            shards: 1,
        }
    }

    fn card_summary(card: usize, group: usize) -> CardSummary {
        CardSummary {
            card,
            group,
            served: 3,
            utilization: 0.4,
            energy_joules: 2.0,
            weight_swaps: 1,
            powered_seconds: 3.0,
            idle_energy_joules: 0.5,
            preempted: 1,
        }
    }

    fn quiet_queue() -> QueueSummary {
        QueueSummary {
            max_depth: 0,
            mean_depth: 0.0,
            timeline: Vec::new(),
            total_samples: 0,
        }
    }

    /// Feeds an exact-mode accumulator as the kernel does: completions,
    /// then sheds, then requests stranded by a dead fleet.
    fn fold(runs: &[CompletedRequest], shed: &[Request], lost: &[Request]) -> ReportAccum {
        let mut accum = ReportAccum::new(TelemetryMode::Exact, "fifo", "poisson");
        for c in runs {
            accum.complete(c);
        }
        for r in shed {
            accum.reject(r);
        }
        for r in lost {
            accum.fail(r);
        }
        accum
    }

    /// [`fold`]'s report on one card, with an empty queue and no
    /// preemptions, scaling, fan-out audit or faults.
    fn report_of(runs: &[CompletedRequest], shed: &[Request], lost: &[Request]) -> ServeReport {
        fold(runs, shed, lost).into_report(
            quiet_queue(),
            vec![card_summary(0, 0)],
            Vec::new(),
            Vec::new(),
            None,
            None,
        )
    }

    #[test]
    fn report_assembles_consistently() {
        let runs = [
            completed(0, 0.0, 0.1),
            completed(1, 0.5, 1.0),
            completed(2, 1.0, 3.0),
        ];
        let report = fold(&runs, &[], &[]).into_report(
            QueueSummary {
                max_depth: 2,
                mean_depth: 0.5,
                ..quiet_queue()
            },
            vec![card_summary(0, 0)],
            Vec::new(),
            Vec::new(),
            None,
            None,
        );
        assert_eq!(report.completed, 3);
        assert_eq!(report.offered, 3);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.sharded_requests, 0);
        assert_eq!(report.max_shards, 1);
        assert!((report.makespan - 3.0).abs() < 1e-12);
        assert!((report.throughput_rps - 1.0).abs() < 1e-12);
        let latency = report.latency.unwrap();
        assert!(latency.p99 >= latency.p50);
        assert_eq!(report.energy_joules, 2.0);
        // All requests were interactive: exactly one class summary.
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].class, RequestClass::Interactive);
        assert_eq!(report.classes[0].completed, 3);
        assert!((report.idle_energy_joules - 0.5).abs() < 1e-12);
        assert!((report.total_energy_joules() - 2.5).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&report.slo_attainment()));
        let json = report.to_json().pretty();
        assert!(json.contains("\"policy\": \"fifo\""));
        assert!(json.contains("\"p99_s\""));
        assert!(json.contains("\"classes\""));
        assert!(json.contains("\"groups\""));
        assert!(json.contains("\"preemptions\": 0"));
        assert!(json.contains("\"scaling\": []"));
        assert!(json.contains("\"idle_energy_j\""));
    }

    #[test]
    fn elastic_timelines_serialize() {
        let report = fold(&[completed(0, 0.0, 0.1)], &[], &[]).into_report(
            quiet_queue(),
            vec![card_summary(0, 0)],
            vec![PreemptionRecord {
                time: 0.05,
                preempted: 9,
                waiting: 2,
                card: 0,
                jobs_checkpointed: 4,
            }],
            vec![ScaleEvent {
                time: 0.07,
                card: 1,
                powered_on: true,
                queue_depth: 6,
                powered_cards: 2,
            }],
            None,
            None,
        );
        assert_eq!(report.preemption_count(), 1);
        let json = report.to_json().pretty();
        assert!(json.contains("\"preemptions\": 1"));
        assert!(json.contains("\"jobs_checkpointed\": 4"));
        assert!(json.contains("\"action\": \"power-up\""));
        assert!(json.contains("\"powered_cards\": 2"));
    }

    #[test]
    fn rejections_split_offered_from_completed() {
        let runs = [completed(0, 0.0, 0.1)];
        let shed = [Request::classed(1, 0.0, shape(), RequestClass::Background)];
        let report = report_of(&runs, &shed, &[]);
        assert_eq!(report.offered, 2);
        assert_eq!(report.completed, 1);
        assert_eq!(report.rejected, 1);
        let background = report.class(RequestClass::Background).unwrap();
        assert_eq!(background.rejected, 1);
        assert_eq!(background.completed, 0);
        assert_eq!(background.latency, None, "no completions, no percentiles");
        let json = report.to_json().pretty();
        assert!(json.contains("\"latency\": null"));
    }

    #[test]
    fn empty_run_reports_finite_zeroes_and_valid_json() {
        // Every request shed: nothing completed, yet every numeric field
        // must stay finite and the JSON strictly valid.
        let shed = [
            Request::classed(0, 0.0, shape(), RequestClass::Background),
            Request::classed(1, 0.5, shape(), RequestClass::Background),
        ];
        let accum = fold(&[], &shed, &[]);
        assert_eq!(accum.span(0.0), 0.0, "nothing completed: zero span");
        let report = report_of(&[], &shed, &[]);
        assert_eq!(
            (report.offered, report.completed, report.rejected),
            (2, 0, 2)
        );
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.throughput_rps, 0.0);
        assert_eq!(report.latency, None);
        assert_eq!(report.max_shards, 0);
        assert_eq!(report.slo_attainment(), 0.0, "shed traffic met nothing");
        assert!(report.slo_attainment().is_finite());
        let json = report.to_json().pretty();
        assert!(json.contains("\"latency\": null"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // The vacuous case: nothing offered at all → attainment 1.
        let vacuous = report_of(&[], &[], &[]);
        assert_eq!(vacuous.slo_attainment(), 1.0);
    }

    #[test]
    fn slo_attainment_counts_shed_requests_against_service() {
        // One on-time completion, nine shed: attainment must be 0.1, not
        // the 1.0 the completions-only ratio used to report.
        let runs = [completed(0, 0.0, 1e-4)];
        let shed: Vec<Request> = (1..10)
            .map(|id| Request::classed(id, 0.0, shape(), RequestClass::Background))
            .collect();
        let report = report_of(&runs, &shed, &[]);
        assert_eq!(report.slo_violations, 0, "the one completion was on time");
        assert!((report.slo_attainment() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn shard_counts_summarize_fanout() {
        let mut wide = completed(1, 0.0, 0.2);
        wide.shards = 3;
        let report = report_of(&[completed(0, 0.0, 0.1), wide], &[], &[]);
        assert_eq!(report.sharded_requests, 1);
        assert_eq!(report.max_shards, 3);
        let json = report.to_json().pretty();
        assert!(json.contains("\"sharded_requests\": 1"));
        assert!(json.contains("\"max_shards\": 3"));
    }

    #[test]
    fn fanout_diagnostics_serialize_only_when_the_run_fanned_out() {
        // A whole-request run must serialize byte-for-byte as before the
        // cost model existed: no `shard_widths`, no `cost_prediction`.
        let narrow = report_of(&[completed(0, 0.0, 0.1)], &[], &[]);
        assert_eq!(narrow.shard_widths, [1]);
        let json = narrow.to_json().pretty();
        assert!(!json.contains("shard_widths"));
        assert!(!json.contains("cost_prediction"));
        // A fanned-out run reports the width histogram and the
        // predicted-vs-realized audit.
        let mut wide = completed(1, 0.0, 0.2);
        wide.shards = 3;
        let fanned = fold(&[completed(0, 0.0, 0.1), wide], &[], &[]).into_report(
            quiet_queue(),
            vec![card_summary(0, 0)],
            Vec::new(),
            Vec::new(),
            Some(CostPrediction {
                plans: 1,
                mean_abs_error_s: 0.0,
                max_error_s: 0.0,
            }),
            None,
        );
        assert_eq!(fanned.shard_widths, [1, 0, 1]);
        let json = fanned.to_json().pretty();
        assert!(json.contains("\"shard_widths\": [1, 0, 1]") || json.contains("\"shard_widths\""));
        assert!(json.contains("\"cost_prediction\""));
        assert!(json.contains("\"plans\": 1"));
        assert!(json.contains("\"mean_abs_error_s\": 0"));
    }

    #[test]
    fn capped_logs_declare_their_truncation() {
        let preemptions: Vec<PreemptionRecord> = (0..300)
            .map(|i| PreemptionRecord {
                time: i as f64 * 1e-3,
                preempted: i,
                waiting: 0,
                card: 0,
                jobs_checkpointed: 1,
            })
            .collect();
        let report = fold(&[completed(0, 0.0, 0.1)], &[], &[]).into_report(
            quiet_queue(),
            vec![card_summary(0, 0)],
            preemptions,
            Vec::new(),
            None,
            None,
        );
        let json = report.to_json().pretty();
        // The full count stays exact, the log caps, and the cap declares
        // itself with explicit logged/total counts.
        assert!(json.contains("\"preemptions\": 300"));
        assert!(json.contains("\"preemption_log_meta\""));
        assert!(json.contains("\"truncated\": true"));
        assert!(json.contains("\"logged\": 256"));
        assert!(json.contains("\"total\": 300"));
        assert_eq!(json.matches("\"t_s\"").count(), 256);
        // Scaling never tripped its cap: no meta row at all.
        assert!(!json.contains("\"scaling_meta\""));
    }

    #[test]
    fn uncapped_logs_omit_truncation_meta() {
        let report = fold(&[completed(0, 0.0, 0.1)], &[], &[]).into_report(
            quiet_queue(),
            vec![card_summary(0, 0)],
            vec![PreemptionRecord {
                time: 0.05,
                preempted: 9,
                waiting: 2,
                card: 0,
                jobs_checkpointed: 4,
            }],
            Vec::new(),
            None,
            None,
        );
        let json = report.to_json().pretty();
        assert!(!json.contains("_meta"), "uncapped logs stay byte-identical");
        assert!(!json.contains("truncated"));
    }

    #[test]
    fn queue_summary_reports_timeline_truncation() {
        let full = QueueSummary {
            max_depth: 3,
            mean_depth: 1.0,
            timeline: vec![QueueSample {
                time: 0.0,
                depth: 3,
            }],
            total_samples: 1,
        };
        assert!(!full.truncated());
        let capped = QueueSummary {
            total_samples: 5_000,
            ..full.clone()
        };
        assert!(capped.truncated());
        // The JSON stays the legacy two-field object either way.
        assert_eq!(full.to_json().pretty(), capped.to_json().pretty());
    }

    #[test]
    fn telemetry_attachment_serializes_only_when_present() {
        let mut report = report_of(&[completed(0, 0.0, 0.1)], &[], &[]);
        assert_eq!(report.telemetry, None, "exact mode attaches no histogram");
        let json = report.to_json().pretty();
        assert!(!json.contains("\"telemetry\""));
        report.telemetry = Some(TelemetrySummary {
            bucket_seconds: 0.5,
            buckets: vec![TelemetryBucket {
                start_s: 0.0,
                samples: 4,
                queue_mean: 1.5,
                queue_max: 3,
                in_flight_mean: 2.0,
                in_flight_max: 4,
                powered_mean: 2.0,
                utilization_mean: 0.5,
                energy_joules: 1.25,
            }],
        });
        let json = report.to_json().pretty();
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"mode\": \"streaming\""));
        assert!(json.contains("\"quantile_estimator\": \"log_histogram\""));
        assert!(json.contains("\"bucket_s\": 0.5"));
        assert!(json.contains("\"queue_mean\": 1.5"));
    }

    #[test]
    fn fault_block_serializes_only_when_a_plan_ran() {
        let mut report = report_of(&[completed(0, 0.0, 0.1)], &[], &[]);
        let json = report.to_json().pretty();
        assert!(!json.contains("\"faults\""), "fault-free JSON is untouched");
        assert!(!json.contains("\"failed\""));
        report.faults = Some(FaultSummary {
            card_deaths: 2,
            degrades: 1,
            revivals: 1,
            shards_lost: 5,
            failed: 0,
        });
        let json = report.to_json().pretty();
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"card_deaths\": 2"));
        assert!(json.contains("\"shards_lost\": 5"));
        assert!(json.contains("\"failed\": 0"));
    }

    #[test]
    fn failed_requests_count_against_offered_and_attainment() {
        // One on-time completion, one request stranded by a dead fleet:
        // offered is 2 and attainment 0.5, exactly as if it were shed.
        let lost = [Request::classed(1, 0.0, shape(), RequestClass::Batch)];
        let accum = fold(&[completed(0, 0.0, 1e-4)], &[], &lost);
        assert_eq!(accum.failed(), 1);
        let report = accum.into_report(
            quiet_queue(),
            vec![card_summary(0, 0)],
            Vec::new(),
            Vec::new(),
            None,
            Some(FaultSummary {
                card_deaths: 1,
                degrades: 0,
                revivals: 0,
                shards_lost: 0,
                failed: 1,
            }),
        );
        assert_eq!((report.offered, report.completed, report.failed), (2, 1, 1));
        assert!((report.slo_attainment() - 0.5).abs() < 1e-12);
        // The stranded request's class still shows up, with the loss
        // visible as offered minus completed minus rejected.
        let batch = report.class(RequestClass::Batch).unwrap();
        assert_eq!((batch.offered, batch.completed, batch.rejected), (1, 0, 0));
        let json = report.to_json().pretty();
        assert!(json.contains("\"failed\": 1"));
    }

    fn session_completed(id: u64, session: u64, arrival: f64, finished: f64) -> CompletedRequest {
        let mut c = completed(id, arrival, finished);
        c.request.session = session;
        c
    }

    #[test]
    fn session_summary_folds_per_conversation() {
        // Session 1: two turns, latencies 1.0 and 3.0 (mean 2.0).
        // Session 2: one turn, latency 4.0. Session 3: fully shed.
        let runs = [
            session_completed(0, 1, 0.0, 1.0),
            session_completed(1, 1, 1.0, 4.0),
            session_completed(2, 2, 0.0, 4.0),
        ];
        let shed = [Request::new(3, 0.0, shape()).with_session(3)];
        let s = report_of(&runs, &shed, &[]).sessions.unwrap();
        assert_eq!(s.sessions, 3, "a fully-shed session still counts");
        assert_eq!(s.turns_completed, 3);
        assert!((s.mean_turns - 1.0).abs() < 1e-12);
        let latency = s.latency.unwrap();
        // One sample per session: means are {2.0, 4.0}.
        assert!((latency.mean - 3.0).abs() < 1e-12);
        assert!((latency.max - 4.0).abs() < 1e-12);
        // Jain over per-session turn counts {2, 1, 0}: 9 / (3 · 5).
        assert!((s.fairness - 0.6).abs() < 1e-12);
    }

    #[test]
    fn session_fairness_is_one_at_equal_service_and_vacuously() {
        let equal = [
            session_completed(0, 1, 0.0, 1.0),
            session_completed(1, 2, 0.0, 1.0),
        ];
        let s = report_of(&equal, &[], &[]).sessions.unwrap();
        assert!((s.fairness - 1.0).abs() < 1e-12);
        // Every turn shed: no completions, fairness defined as 1.
        let shed = [Request::new(0, 0.0, shape()).with_session(7)];
        let starved = report_of(&[], &shed, &[]).sessions.unwrap();
        assert_eq!(starved.latency, None);
        assert_eq!(starved.fairness, 1.0);
        assert_eq!(starved.turns_completed, 0);
    }

    #[test]
    fn session_block_serializes_only_when_traffic_carried_ids() {
        // Sessionless traffic: no session block, in the report or its
        // JSON.
        let plain = report_of(&[completed(0, 0.0, 0.1)], &[], &[]);
        assert_eq!(plain.sessions, None);
        assert!(!plain.to_json().pretty().contains("\"sessions\""));
        let runs = [
            session_completed(0, 1, 0.0, 1.0),
            session_completed(1, 2, 0.0, 2.0),
        ];
        let json = report_of(&runs, &[], &[]).to_json().pretty();
        assert!(json.contains("\"sessions\""));
        assert!(json.contains("\"turns_completed\": 2"));
        assert!(json.contains("\"mean_turns\": 1"));
        assert!(json.contains("\"fairness_jain\": 1"));
    }

    #[test]
    fn exact_report_does_not_depend_on_completion_order() {
        let class = |c: CompletedRequest, class: RequestClass| CompletedRequest {
            request: Request {
                class,
                slo_seconds: Request::class_slo(class, &shape()),
                ..c.request
            },
            ..c
        };
        let mut wide = completed(1, 0.0, 0.35);
        wide.shards = 3;
        // A 4-step plan that exited after its second step, and a 3-step
        // plan that ran to the end.
        let decode = |id: u64, steps: u32, steps_done: u32, first: f64, finished: f64| {
            let mut c = completed(id, 0.1, finished);
            c.request.decode = DecodePlan {
                steps,
                exit_prob: 0.5,
                exit_seed: id,
            };
            c.request.steps_done = steps_done;
            c.first_step_finished = first;
            c
        };
        // One session whose turns finish out of id order, taking 0.3,
        // 0.2 and 0.1 s: summed in id order (0.3 + 0.2) + 0.1, in
        // completion order (0.1 + 0.2) + 0.3, and the two differ in the
        // last bit.
        assert_ne!((0.3 + 0.2) + 0.1, (0.1 + 0.2) + 0.3);
        let runs = [
            completed(0, 0.0, 0.1),
            wide,
            class(completed(2, 0.2, 0.9), RequestClass::Batch),
            class(completed(3, 0.3, 2.0), RequestClass::Background),
            decode(4, 4, 2, 0.3, 0.6),
            decode(5, 3, 3, 0.2, 0.7),
            session_completed(6, 9, 0.0, 0.3),
            session_completed(7, 9, 0.0, 0.2),
            session_completed(8, 9, 0.0, 0.1),
        ];
        let shed = [Request::classed(9, 0.4, shape(), RequestClass::Background).with_session(9)];
        let in_order = report_of(&runs, &shed, &[]);
        let mut reversed = runs;
        reversed.reverse();
        let out_of_order = report_of(&reversed, &shed, &[]);
        let decode = in_order.decode.as_ref().expect("two decode completions");
        assert_eq!((decode.decode_requests, decode.early_exits), (2, 1));
        assert_eq!(decode.steps_histogram, [7, 1, 1]);
        assert_eq!(in_order.max_shards, 3);
        assert_eq!(in_order.classes.len(), 3);
        let session = in_order.sessions.as_ref().expect("one session");
        assert_eq!(session.turns_completed, 3);
        assert_eq!(
            session.latency.map(|l| l.mean),
            Some(((0.3 + 0.2) + 0.1) / 3.0),
            "turns sum in id order"
        );
        assert_eq!(in_order.to_json().pretty(), out_of_order.to_json().pretty());
    }

    #[test]
    fn ttft_store_starts_at_the_first_multi_step_completion() {
        // One-shot completions (TTFT equals latency), then three-step
        // ones whose first step lands well before the end, then one-shot
        // again: the decode block's TTFT must summarize every
        // completion's `ttft()`, in both telemetry modes.
        let at = |i: u64| 0.1 * i as f64;
        let mut runs: Vec<CompletedRequest> = (0..12)
            .map(|i| completed(i, at(i), at(i) + 0.05 * (i % 5 + 1) as f64))
            .collect();
        for i in 12..24 {
            let mut c = completed(i, at(i), at(i) + 0.9);
            c.request.decode = DecodePlan {
                steps: 3,
                exit_prob: 0.0,
                exit_seed: i,
            };
            c.request.steps_done = 3;
            c.first_step_finished = at(i) + 0.02 * (i % 7 + 1) as f64;
            runs.push(c);
        }
        runs.extend((24..30).map(|i| completed(i, at(i), at(i) + 0.3)));
        for mode in [TelemetryMode::Exact, TelemetryMode::Streaming] {
            let mut accum = ReportAccum::new(mode, "fifo", "poisson");
            let mut expected = LatencyStore::new(mode);
            for c in &runs {
                accum.complete(c);
                expected.observe(c.ttft());
            }
            let report = accum.into_report(
                quiet_queue(),
                vec![card_summary(0, 0)],
                Vec::new(),
                Vec::new(),
                None,
                None,
            );
            let decode = report.decode.expect("multi-step completions");
            assert_eq!(decode.ttft, expected.summary(), "{mode:?}");
        }
    }

    #[test]
    fn group_summaries_fold_contiguous_cards() {
        let cards = vec![card_summary(0, 0), card_summary(1, 0), card_summary(2, 1)];
        let groups = GroupSummary::from_cards(&cards);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].cards, 2);
        assert_eq!(groups[0].served, 6);
        assert!((groups[0].utilization - 0.4).abs() < 1e-12);
        assert_eq!(groups[1].cards, 1);
        assert_eq!(groups[1].weight_swaps, 1);
    }
}
