//! `swat-serve` — a discrete-event simulator of a fleet of SWAT
//! accelerator cards serving attention-inference request streams.
//!
//! The core crate answers "how fast is one attention head on one SWAT
//! card"; this crate answers the production question the ROADMAP's north
//! star asks: **how does a fleet of those cards behave under sustained,
//! heterogeneous traffic?** It composes the existing models rather than
//! re-deriving any of them:
//!
//! - service times come from [`swat::SwatAccelerator`]'s calibrated timing
//!   model (Table 1 initiation intervals composed over a request's
//!   `batch × layers × heads` jobs);
//! - job placement reuses [`swat::schedule`]'s incremental
//!   [`PipelineAgenda`](swat::schedule::PipelineAgenda) (one
//!   [`admit_run`](swat::schedule::PipelineAgenda::admit_run) per shard),
//!   so fleet schedules obey the same conflict-freedom invariants as
//!   one-shot workload schedules;
//! - memory backpressure uses [`swat_hw::MemoryInterface`]: concurrent
//!   pipelines on one card share its off-chip interface, and service
//!   stretches by the fair-share contention factor once aggregate demand
//!   saturates it (never on HBM2 at paper scale — measurably on the DDR4
//!   ablation);
//! - request shapes come from [`swat_workloads::requests`]'s seeded mixes.
//!
//! The simulator itself is in [`sim`], driven by the discrete-event
//! kernel in [`event`]: requests arrive by a stochastic
//! [`arrival::ArrivalProcess`] (Poisson steady state, on/off bursts, or a
//! diurnal ramp), carry a priority class
//! ([`swat_workloads::RequestClass`]: interactive ahead of batch ahead of
//! background), wait in an order-stable priority queue — or are shed by
//! [`sim::AdmissionControl`]'s per-class admission budgets under
//! overload — and are dispatched to cards by a pluggable
//! [`policy::DispatchPolicy`]. Because a request's `batch × layers ×
//! heads` attention jobs are independent, a policy with a fan-out cap
//! ([`policy::LeastLoaded`], [`policy::ShortestJobFirst`]) can **shard**
//! one request across several idle pipelines — on one card or spanning
//! cards within a group — and the request completes when its last shard
//! drains. How wide to fan is planned against the shared
//! predictive [`cost::CostModel`] — the same per-card timing terms
//! admission charges, so plans are priced with the contention they
//! themselves induce and fan-out backs off when the queue is deep or
//! the memory interface saturates (every report audits
//! predicted-vs-realized fan-in). Fleets are heterogeneous:
//! [`fleet::FleetConfig`] is a list of [`fleet::CardGroup`]s (count ×
//! design × memory), and policies rank cards by calibrated per-card
//! service-time estimates.
//!
//! The fleet is **elastic**: under a [`sim::PreemptionControl`] a
//! long-waiting interactive request checkpoints-and-requeues the
//! youngest in-flight background job (which later resumes with a restart
//! penalty), and a [`scale::Autoscaler`] powers cards up and down on
//! queue-depth feedback, paying warm-up latency and tracking the
//! idle-power cost of whatever stays hot. The run produces a
//! [`metrics::ServeReport`] — p50/p95/p99 latency overall and per class,
//! queue-depth profile, per-card and per-group utilization, active +
//! idle energy, SLO violations and attainment, the preemption log and
//! the scaling timeline — serializable to JSON ([`json`]) for the
//! `serve_sweep` benchmark binary. Every run is bit-for-bit
//! deterministic for a fixed seed. The kernel is **observable** without
//! being perturbed: a [`trace::TraceSink`] receives every structural
//! event (arrival, shed, dispatch with the priced plan, per-shard
//! start/finish, fan-in, preemption with the victim's eviction price,
//! warm-up, scaling, gauge samples) — [`trace::ChromeTraceSink`] renders
//! a run as a Chrome/Perfetto trace, [`trace::RecordingSink`] captures
//! the raw stream for tests, and the disabled default ([`trace::NullSink`])
//! leaves every report byte-identical. The report is folded as requests
//! finish — one accumulator, no per-request record and no end-of-run
//! sort. For very long traces, [`trace::TelemetryMode::Streaming`] holds
//! its latency distributions in log-bucketed histograms, whose memory
//! grows with the samples' dynamic range rather than their count and
//! whose percentiles sit within 2⁻⁷ of exact, instead of exact sample
//! vectors, and adds a bounded time-bucketed gauge series.
//!
//! The fleet is also **mortal**: a seeded [`fault::FaultPlan`] injects
//! card deaths (in-flight shards evicted and requeued as checkpointed
//! remnants, the card's queue drained by the survivors), calibration
//! degrades (the shared cost model re-snapshots, so dispatch prices the
//! slower card truthfully), and revivals — all as first-class kernel
//! events, so a faulted run is exactly as deterministic as a healthy
//! one. Traffic can be **session-stateful**: [`session::SessionTraffic`]
//! turns an arrival process into multi-turn conversations (per-turn
//! context growth, think-time gaps, a heavy-tenant/interactive mix) and
//! [`policy::SessionAffinity`] keeps a conversation's turns on its home
//! card until capacity pressure evicts the binding; reports then carry
//! per-session latency and a Jain fairness index. `docs/serving.md` in
//! the repository root walks the architecture, a scenario cookbook, and
//! the benchmark JSON schema.
//!
//! # Examples
//!
//! ```
//! use swat_serve::arrival::ArrivalProcess;
//! use swat_serve::fleet::FleetConfig;
//! use swat_serve::policy::LeastLoaded;
//! use swat_serve::sim::{Simulation, TrafficSpec};
//! use swat_workloads::RequestMix;
//!
//! let traffic = TrafficSpec {
//!     arrivals: ArrivalProcess::poisson(40.0),
//!     mix: RequestMix::Interactive,
//!     seed: 7,
//! };
//! // Four dual-pipeline FP16 cards next to two single-pipeline FP32 cards.
//! let fleet = FleetConfig::mixed_precision(4, 2);
//! let report = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &traffic.requests(500));
//! assert_eq!(report.completed, 500);
//! let latency = report.latency.expect("every request completed");
//! assert!(latency.p99 >= latency.p50);
//! assert_eq!(report.groups.len(), 2);
//! ```

pub mod arrival;
pub mod cost;
pub mod event;
pub mod fault;
pub mod fleet;
pub mod json;
pub mod metrics;
pub mod policy;
pub mod request;
pub mod scale;
pub mod scenario;
pub mod session;
pub mod sim;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use cost::{CardCostModel, CostModel, PlanCost};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fleet::{CardGroup, FleetConfig};
pub use metrics::{DecodeSummary, FaultSummary, ServeReport, SessionSummary};
pub use policy::{DispatchPolicy, LeastLoaded, SessionAffinity, ShortestJobFirst};
pub use request::Request;
pub use scale::{Autoscaler, AutoscalerConfig, ScaleEvent};
pub use scenario::{
    CardDesign, CardGroupSpec, FaultKindSpec, FaultSpec, FleetSpec, MemorySpec, PolicySpec,
    PreemptionSpec, ScenarioSpec, TrafficModel,
};
pub use session::{SessionProfile, SessionTraffic};
pub use sim::{AdmissionControl, DecodeBatching, PreemptionControl, Simulation, TrafficSpec};
pub use swat_workloads::RequestClass;
pub use trace::{
    ChromeTraceSink, GaugeSample, KernelCounters, NullSink, RecordingSink, TelemetryMode,
    TraceEvent, TraceSink,
};
