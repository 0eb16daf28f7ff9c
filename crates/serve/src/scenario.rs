//! A declarative scenario DSL: serving studies as **data**, not code.
//!
//! A [`ScenarioSpec`] captures everything one sweep cell needs — fleet
//! shape, arrival process, traffic model (mix / decode plans / sessions),
//! dispatch policy, admission / preemption / autoscaler knobs, a fault
//! schedule, a seed, and a request count — as a plain value with a JSON
//! representation ([`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`],
//! round-trippable through [`crate::json::Json::parse`]). Its
//! [`run`](ScenarioSpec::run) assembles the existing [`Simulation`]
//! builder from those fields, so a spec produces **byte-identical**
//! reports to the hand-built equivalent: the DSL adds no simulation
//! semantics of its own, it only names the ones the simulator already
//! has. `serve_sweep`'s ten scenarios are expressed as spec values, and
//! the `capacity_plan` autotuner searches over a spec template's free
//! axes (fleet size, shard width, autoscaling, batching mode).
//!
//! Each type's JSON form is declared once, through the [`Codec`] trait:
//! a field list per struct, a `kind`-to-fields list per tagged enum (a
//! `..field` puts a nested value's keys beside its own, as sessions and
//! faults do), a `name()` per plain enum, and two hand-written forms
//! (memory is `"hbm2"` or a bandwidth; admission caps are keyed by class).
//! A missing, mistyped or out-of-range field reads back as a diagnostic
//! naming its full path, such as `spec.faults[1].factor`.
//!
//! Construction is fallible where the underlying builders panic:
//! [`ScenarioSpec::validate`] calls each layer's own check — the one home
//! of every rule, whose diagnostic the builder panics with — and adds the
//! rules only a spec can break (an empty fleet or trace), so a
//! hand-edited JSON spec comes back as an `Err(String)` naming the bad
//! field instead of crashing operator tooling.
//!
//! # Examples
//!
//! ```
//! use swat_serve::scenario::{FleetSpec, ScenarioSpec, TrafficModel};
//! use swat_serve::arrival::ArrivalProcess;
//! use swat_workloads::RequestMix;
//!
//! let spec = ScenarioSpec {
//!     name: "smoke".to_string(),
//!     fleet: FleetSpec::standard(2),
//!     arrivals: ArrivalProcess::poisson(10.0),
//!     traffic: TrafficModel::mix(RequestMix::Production),
//!     requests: 100,
//!     seed: 7,
//!     ..ScenarioSpec::default()
//! };
//! // The JSON representation round-trips exactly.
//! let json = spec.to_json();
//! let back = ScenarioSpec::from_json(&json).unwrap();
//! assert_eq!(back, spec);
//! // And running it is just running the simulator it describes.
//! let report = spec.run().unwrap();
//! assert_eq!(report.offered, 100);
//! ```

use crate::arrival::ArrivalProcess;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::fleet::{CardGroup, FleetConfig};
use crate::json::Json;
use crate::metrics::ServeReport;
use crate::policy::{
    check_shards, DispatchPolicy, Fifo, HeadAffinity, LeastLoaded, SessionAffinity,
    ShortestJobFirst,
};
use crate::request::Request;
use crate::scale::AutoscalerConfig;
use crate::session::SessionTraffic;
use crate::sim::{
    check_trace, AdmissionControl, DecodeBatching, PreemptionControl, Simulation, TrafficSpec,
};
use crate::trace::KernelCounters;
use swat::SwatConfig;
use swat_hw::MemoryInterface;
use swat_workloads::{DecodeMix, RequestClass, RequestMix, SessionProfile};

/// A named card design the DSL can instantiate. The two variants cover
/// every deployed fleet in the sweep: the paper's highest-throughput
/// dual-pipeline FP16 point and the accuracy-tier single-pipeline FP32
/// point `FleetConfig::mixed_precision` pairs it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardDesign {
    /// Dual-pipeline BigBird FP16 ([`SwatConfig::bigbird_dual_fp16`]).
    Fp16Dual,
    /// Single-pipeline BigBird FP32 (the `mixed_precision` slow tier).
    Fp32Single,
}

impl CardDesign {
    /// Every design, in declaration order.
    pub const ALL: [CardDesign; 2] = [CardDesign::Fp16Dual, CardDesign::Fp32Single];

    /// The DSL name (`"fp16-dual"` / `"fp32-single"`).
    pub fn name(&self) -> &'static str {
        match self {
            CardDesign::Fp16Dual => "fp16-dual",
            CardDesign::Fp32Single => "fp32-single",
        }
    }

    /// Instantiates the accelerator configuration.
    pub fn config(&self) -> SwatConfig {
        match self {
            CardDesign::Fp16Dual => SwatConfig::bigbird_dual_fp16(),
            CardDesign::Fp32Single => SwatConfig {
                precision: swat::config::Precision::Fp32,
                pipelines: 1,
                ..SwatConfig::bigbird_dual_fp16()
            },
        }
    }
}

/// A card group's off-chip memory interface, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemorySpec {
    /// HBM2 at 460 GB/s ([`MemoryInterface::hbm2`]).
    Hbm2,
    /// An explicit sustained bandwidth — e.g. the bandwidth-binned
    /// 1.2 GB/s cards the adaptive-width scenario stresses.
    BytesPerSec(f64),
}

impl MemorySpec {
    /// Instantiates the interface. Call [`ScenarioSpec::validate`] first:
    /// a non-positive explicit bandwidth panics in the constructor.
    pub fn interface(&self) -> MemoryInterface {
        match *self {
            MemorySpec::Hbm2 => MemoryInterface::hbm2(),
            MemorySpec::BytesPerSec(bps) => MemoryInterface::new(bps),
        }
    }
}

/// One homogeneous group of cards in a fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardGroupSpec {
    /// Cards in the group (must be at least 1).
    pub count: usize,
    /// The card design.
    pub design: CardDesign,
    /// The per-card memory interface.
    pub memory: MemorySpec,
}

/// A fleet shape: an ordered list of card groups. The host link is
/// always PCIe Gen4 ×16 ([`MemoryInterface::pcie4_x16`]), matching every
/// fleet the simulator has ever benchmarked.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Card groups; fleet card indices run group by group in this order.
    pub groups: Vec<CardGroupSpec>,
}

impl FleetSpec {
    /// `cards` dual-pipeline FP16 cards on HBM2 —
    /// [`FleetConfig::standard`] as data.
    pub fn standard(cards: usize) -> FleetSpec {
        FleetSpec {
            groups: vec![CardGroupSpec {
                count: cards,
                design: CardDesign::Fp16Dual,
                memory: MemorySpec::Hbm2,
            }],
        }
    }

    /// `fp16_dual` FP16 duals next to `fp32_single` FP32 singles —
    /// [`FleetConfig::mixed_precision`] as data.
    pub fn mixed_precision(fp16_dual: usize, fp32_single: usize) -> FleetSpec {
        FleetSpec {
            groups: vec![
                CardGroupSpec {
                    count: fp16_dual,
                    design: CardDesign::Fp16Dual,
                    memory: MemorySpec::Hbm2,
                },
                CardGroupSpec {
                    count: fp32_single,
                    design: CardDesign::Fp32Single,
                    memory: MemorySpec::Hbm2,
                },
            ],
        }
    }

    /// `cards` FP16 duals behind an explicitly binned memory interface —
    /// the adaptive-width and decode scenarios' contention-rich fleet.
    pub fn binned(cards: usize, bytes_per_sec: f64) -> FleetSpec {
        FleetSpec {
            groups: vec![CardGroupSpec {
                count: cards,
                design: CardDesign::Fp16Dual,
                memory: MemorySpec::BytesPerSec(bytes_per_sec),
            }],
        }
    }

    /// Total cards across all groups.
    pub fn cards(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Instantiates the [`FleetConfig`] this spec describes. Call
    /// [`ScenarioSpec::validate`] first — invalid bandwidths panic in
    /// the interface constructor.
    pub fn config(&self) -> FleetConfig {
        FleetConfig {
            groups: self
                .groups
                .iter()
                .map(|g| CardGroup::new(g.count, g.design.config(), g.memory.interface()))
                .collect(),
            host_link: MemoryInterface::pcie4_x16(),
        }
    }
}

/// What the requests are: a seeded shape mix (optionally with token-level
/// decode plans layered on) or multi-turn conversations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// One-shot (or decode-looped) requests drawn from a
    /// [`RequestMix`]. `requests` counts requests.
    Mix {
        /// The shape/class population.
        mix: RequestMix,
        /// Optional decode plans, layered over the unchanged base trace
        /// on a decorrelated substream ([`TrafficSpec::decode_requests`]).
        decode: Option<DecodeMix>,
    },
    /// Open-loop multi-turn conversations ([`SessionTraffic`]).
    /// `requests` counts **sessions**, not turns.
    Sessions {
        /// The conversation population.
        profile: SessionProfile,
    },
}

impl TrafficModel {
    /// A plain one-shot mix with no decode plans.
    pub fn mix(mix: RequestMix) -> TrafficModel {
        TrafficModel::Mix { mix, decode: None }
    }
}

/// A dispatch policy, as data. [`build`](PolicySpec::build) instantiates
/// the live policy object (with whatever per-run mutable state it keeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// First-in, first-out ([`Fifo`]).
    Fifo,
    /// Least backlog, whole-request ([`LeastLoaded::default`]).
    LeastLoaded,
    /// Smallest service estimate first, whole-request
    /// ([`ShortestJobFirst::default`]).
    ShortestJobFirst,
    /// Deterministic head-family homes ([`HeadAffinity`]).
    HeadAffinity,
    /// Least-loaded with a fan-out cap ([`LeastLoaded`]).
    ShardedLeastLoaded {
        /// Fan-out cap per request.
        max_shards: usize,
        /// Cost-model adaptive width (`new`) vs always-fan (`fixed`).
        adaptive: bool,
    },
    /// SJF with a fan-out cap ([`ShortestJobFirst`]).
    ShardedShortestJobFirst {
        /// Fan-out cap per request.
        max_shards: usize,
        /// Cost-model adaptive width (`new`) vs always-fan (`fixed`).
        adaptive: bool,
    },
    /// Sticky session→card residency ([`SessionAffinity`]).
    SessionAffinity {
        /// Bound sessions per card before LRU eviction.
        capacity_per_card: usize,
    },
}

impl PolicySpec {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn DispatchPolicy> {
        match *self {
            PolicySpec::Fifo => Box::new(Fifo),
            PolicySpec::LeastLoaded => Box::new(LeastLoaded::default()),
            PolicySpec::ShortestJobFirst => Box::new(ShortestJobFirst::default()),
            PolicySpec::HeadAffinity => Box::new(HeadAffinity),
            PolicySpec::ShardedLeastLoaded {
                max_shards,
                adaptive,
            } => Box::new(LeastLoaded {
                max_shards,
                adaptive,
            }),
            PolicySpec::ShardedShortestJobFirst {
                max_shards,
                adaptive,
            } => Box::new(ShortestJobFirst {
                max_shards,
                adaptive,
            }),
            PolicySpec::SessionAffinity { capacity_per_card } => {
                Box::new(SessionAffinity::new(capacity_per_card))
            }
        }
    }
}

/// Preemption control, as data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreemptionSpec {
    /// Never preempt.
    Disabled,
    /// Youngest-victim checkpoint-and-requeue once an interactive
    /// request has waited `threshold_s`.
    AfterWait {
        /// Patience before preempting, seconds.
        threshold_s: f64,
    },
    /// Cheapest-victim (cost-model-priced) variant.
    CostAware {
        /// Patience before preempting, seconds.
        threshold_s: f64,
    },
}

impl PreemptionSpec {
    /// Instantiates the [`PreemptionControl`].
    pub fn control(&self) -> PreemptionControl {
        match *self {
            PreemptionSpec::Disabled => PreemptionControl::disabled(),
            PreemptionSpec::AfterWait { threshold_s } => PreemptionControl::after_wait(threshold_s),
            PreemptionSpec::CostAware { threshold_s } => PreemptionControl::cost_aware(threshold_s),
        }
    }
}

/// One scheduled fault, with its time expressed as a **fraction of the
/// trace's arrival span** (`t0 + at_frac × span`), so the same spec
/// lands faults at the same phase of the traffic pattern at any request
/// count — exactly how the hand-coded fault scenario derived its times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fault time as a fraction of the trace span (0 = first arrival).
    pub at_frac: f64,
    /// Target card (fleet index).
    pub card: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// The kind of scheduled fault: the DSL's name for [`FaultKind`], whose
/// `Kill`, `Degrade { factor }` and `Revive { warmup_s }` are the JSON
/// `kind`s `kill`, `degrade` and `revive`.
pub use crate::fault::FaultKind as FaultKindSpec;

/// A complete, declarative description of one serving-simulation cell.
///
/// Everything a sweep or autotuner cell needs lives here as plain data;
/// [`run`](ScenarioSpec::run) assembles the [`Simulation`] builder from
/// it. See the [module docs](self) for the JSON schema and guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// A free-form label (cell name in sweeps, config key in planners).
    pub name: String,
    /// Fleet shape.
    pub fleet: FleetSpec,
    /// The arrival process (of requests, or of session starts).
    pub arrivals: ArrivalProcess,
    /// What arrives.
    pub traffic: TrafficModel,
    /// How work is dispatched.
    pub policy: PolicySpec,
    /// Per-class admission queue caps.
    pub admission: AdmissionControl,
    /// Preemption control.
    pub preemption: PreemptionSpec,
    /// Autoscaler law, or `None` for a statically powered fleet.
    pub autoscale: Option<AutoscalerConfig>,
    /// Scheduled faults (span-relative times), applied in list order.
    pub faults: Vec<FaultSpec>,
    /// How decode remnants re-enter at step boundaries.
    pub batching: DecodeBatching,
    /// The cell's seed: traffic, decode plans, and sessions all derive
    /// their substreams from it.
    pub seed: u64,
    /// Trace size: requests for [`TrafficModel::Mix`], sessions for
    /// [`TrafficModel::Sessions`]. Must be positive.
    pub requests: usize,
}

impl Default for ScenarioSpec {
    /// A minimal valid spec: one standard card, Poisson(1) production
    /// traffic, least-loaded dispatch, every control at its inert
    /// default, 1 request, seed 0.
    fn default() -> ScenarioSpec {
        ScenarioSpec {
            name: String::new(),
            fleet: FleetSpec::standard(1),
            arrivals: ArrivalProcess::poisson(1.0),
            traffic: TrafficModel::mix(RequestMix::Production),
            policy: PolicySpec::LeastLoaded,
            admission: AdmissionControl::admit_all(),
            preemption: PreemptionSpec::Disabled,
            autoscale: None,
            faults: Vec::new(),
            batching: DecodeBatching::Continuous,
            seed: 0,
            requests: 1,
        }
    }
}

impl ScenarioSpec {
    /// Checks every field by calling the check of the type that owns it
    /// (whose diagnostic that type's builders panic with), plus the rules
    /// only a spec can break: an empty fleet or trace.
    ///
    /// # Errors
    ///
    /// Returns the first diagnostic, naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.fleet.groups.is_empty() {
            return Err("fleet has no card groups".to_string());
        }
        for (i, g) in self.fleet.groups.iter().enumerate() {
            if g.count == 0 {
                return Err(format!("fleet group {i} has zero cards"));
            }
            if let MemorySpec::BytesPerSec(bps) = g.memory {
                MemoryInterface::check_bandwidth(bps)
                    .map_err(|e| format!("fleet group {i} {e}"))?;
            }
        }
        if self.requests == 0 {
            return Err("requests must be positive (the trace would be empty)".to_string());
        }
        self.arrivals.validate()?;
        match &self.traffic {
            TrafficModel::Mix {
                decode: Some(d), ..
            } => d.validate()?,
            TrafficModel::Mix { decode: None, .. } => {}
            TrafficModel::Sessions { profile } => profile.validate()?,
        }
        match self.policy {
            PolicySpec::ShardedLeastLoaded { max_shards, .. }
            | PolicySpec::ShardedShortestJobFirst { max_shards, .. } => check_shards(max_shards)?,
            PolicySpec::SessionAffinity { capacity_per_card } => {
                SessionAffinity::check_capacity(capacity_per_card)?
            }
            _ => {}
        }
        if let PreemptionSpec::AfterWait { threshold_s }
        | PreemptionSpec::CostAware { threshold_s } = self.preemption
        {
            PreemptionControl {
                wait_threshold_s: Some(threshold_s),
                cost_aware_victims: false,
            }
            .validate()?;
        }
        if let Some(cfg) = self.autoscale {
            cfg.validate()?;
        }
        // At unit span a fault's time is its fraction, so the plan's own
        // time rule checks the fractions.
        self.fault_plan(0.0, 1.0)?.validate(self.fleet.cards())
    }

    /// The report's arrivals label — `"{process}/{mix}"` for mix
    /// traffic, `"{process}/sessions"` for conversations; exactly the
    /// labels the hand-coded sweep used.
    pub fn arrivals_label(&self) -> String {
        match &self.traffic {
            TrafficModel::Mix { mix, .. } => {
                format!("{}/{}", self.arrivals.name(), mix.name())
            }
            TrafficModel::Sessions { .. } => format!("{}/sessions", self.arrivals.name()),
        }
    }

    /// Generates the seeded request trace this spec describes. Call
    /// [`validate`](ScenarioSpec::validate) first.
    pub fn trace(&self) -> Vec<Request> {
        match &self.traffic {
            TrafficModel::Mix { mix, decode } => {
                let spec = TrafficSpec {
                    arrivals: self.arrivals,
                    mix: *mix,
                    seed: self.seed,
                };
                match decode {
                    None => spec.requests(self.requests),
                    Some(d) => spec.decode_requests(self.requests, d),
                }
            }
            TrafficModel::Sessions { profile } => SessionTraffic {
                arrivals: self.arrivals,
                profile: *profile,
                seed: self.seed,
            }
            .requests(self.requests),
        }
    }

    /// Resolves the fault schedule to times `t0 + span × at_frac`, in list
    /// order (the kernel breaks same-instant fault ties by insertion),
    /// each checked by [`FaultEvent::validate`].
    fn fault_plan(&self, t0: f64, span: f64) -> Result<FaultPlan, String> {
        self.faults.iter().try_fold(FaultPlan::none(), |plan, f| {
            plan.push(FaultEvent {
                time: t0 + span * f.at_frac,
                card: f.card,
                kind: f.kind,
            })
        })
    }

    /// Runs the scenario and returns its report.
    ///
    /// Assembles the [`Simulation`] builder field by field from this
    /// spec, so the report is byte-identical to the hand-built
    /// equivalent — the refactor guarantee `serve_sweep` relies on.
    ///
    /// # Errors
    ///
    /// Returns [`validate`](ScenarioSpec::validate)'s diagnostic if the
    /// spec is invalid, or names the first generated arrival or fault
    /// whose time resolves past the largest `f64`; never panics on bad
    /// data.
    pub fn run(&self) -> Result<ServeReport, String> {
        self.run_profiled().map(|(report, _)| report)
    }

    /// [`run`](ScenarioSpec::run), plus the kernel's self-profiling
    /// counters: `serve_sweep` writes each cell's to `BENCH_kernel.json`,
    /// and the sweep and the planner turn them into stderr events/sec.
    ///
    /// # Errors
    ///
    /// As [`run`](ScenarioSpec::run).
    pub fn run_profiled(&self) -> Result<(ServeReport, KernelCounters), String> {
        self.validate()?;
        let fleet = self.fleet.config();
        let trace = self.trace();
        // A valid rate can still be slow enough for the arrival clock to
        // overflow within the trace.
        check_trace(&trace)?;
        let t0 = trace[0].arrival;
        let plan = self.fault_plan(t0, trace[trace.len() - 1].arrival - t0)?;
        let mut policy = self.policy.build();
        let mut sim = Simulation::new(&fleet)
            .arrivals_label(self.arrivals_label())
            .admission(self.admission)
            .preemption(self.preemption.control())
            .decode_batching(self.batching)
            .faults(plan);
        if let Some(cfg) = self.autoscale {
            sim = sim.autoscale(cfg);
        }
        Ok(sim.run_profiled(&mut *policy, &trace))
    }

    /// The spec's JSON representation — see the [module docs](self).
    /// [`from_json`](ScenarioSpec::from_json) inverts it exactly, and
    /// the text form round-trips through [`Json::parse`].
    pub fn to_json(&self) -> Json {
        self.encode()
    }

    /// Parses a spec from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the path of the missing, mistyped or
    /// out-of-range field. The parsed spec is *structurally* sound but
    /// not yet validated — call [`validate`](ScenarioSpec::validate) (or
    /// just [`run`](ScenarioSpec::run), which validates) first.
    pub fn from_json(json: &Json) -> Result<ScenarioSpec, String> {
        ScenarioSpec::decode(json, "spec")
    }
}

/// A type's JSON form, declared once: [`encode`](Codec::encode) writes
/// it and [`decode`](Codec::decode) reads it back exactly. Implemented for
/// the JSON primitives and every spec type.
pub trait Codec: Sized {
    /// The JSON value of `self`.
    fn encode(&self) -> Json;

    /// Reads a value back from `json`, found at the path `at` (such as
    /// `spec.faults[1]`).
    ///
    /// # Errors
    ///
    /// Names the full path of a missing, mistyped or out-of-range field.
    fn decode(json: &Json, at: &str) -> Result<Self, String>;
}

fn expected(at: &str, what: &str, got: &Json) -> String {
    format!("{at}: expected {what}, got {got:?}")
}

/// Decodes the value under `key` of the object `json`, found at `at`.
fn field<T: Codec>(json: &Json, at: &str, key: &str) -> Result<T, String> {
    let Json::Obj(pairs) = json else {
        return Err(expected(at, "an object", json));
    };
    let at = format!("{at}.{key}");
    match pairs.iter().find(|(k, _)| k == key) {
        Some((_, value)) => T::decode(value, &at),
        None => Err(format!("{at}: missing field")),
    }
}

/// The object `own` followed by the keys of the object `nested`: the form
/// of a `..field` in a `record!` or `tagged!` declaration.
fn beside(own: Json, nested: Json) -> Json {
    match (own, nested) {
        (Json::Obj(mut pairs), Json::Obj(more)) => {
            pairs.extend(more);
            Json::Obj(pairs)
        }
        _ => unreachable!("records and tagged enums encode as objects"),
    }
}

impl Codec for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }

    fn decode(json: &Json, at: &str) -> Result<f64, String> {
        match *json {
            Json::Num(x) => Ok(x),
            // Integral floats print without a fraction and parse as integers.
            Json::Int(i) => Ok(i as f64),
            Json::UInt(u) => Ok(u as f64),
            _ => Err(expected(at, "a number", json)),
        }
    }
}

impl Codec for u64 {
    fn encode(&self) -> Json {
        Json::UInt(*self)
    }

    fn decode(json: &Json, at: &str) -> Result<u64, String> {
        match *json {
            Json::UInt(u) => Ok(u),
            Json::Int(i) if i >= 0 => Ok(i.unsigned_abs()),
            _ => Err(expected(at, "a non-negative integer", json)),
        }
    }
}

/// Unsigned integers narrower than `u64`: written as [`Json::Int`], and
/// range-checked when read instead of truncated.
macro_rules! narrow_uint {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            fn encode(&self) -> Json {
                i64::try_from(*self).map_or(Json::UInt(*self as u64), Json::Int)
            }

            fn decode(json: &Json, at: &str) -> Result<$t, String> {
                let n = u64::decode(json, at)?;
                <$t>::try_from(n).map_err(|_| format!("{at}: {n} exceeds {}::MAX", stringify!($t)))
            }
        }
    )+};
}

narrow_uint!(usize, u32, u8);

impl Codec for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(json: &Json, at: &str) -> Result<bool, String> {
        match *json {
            Json::Bool(b) => Ok(b),
            _ => Err(expected(at, "a boolean", json)),
        }
    }
}

impl Codec for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }

    fn decode(json: &Json, at: &str) -> Result<String, String> {
        match json {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(expected(at, "a string", json)),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }

    fn decode(json: &Json, at: &str) -> Result<Option<T>, String> {
        match json {
            Json::Null => Ok(None),
            _ => T::decode(json, at).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::arr(self.iter().map(T::encode))
    }

    fn decode(json: &Json, at: &str) -> Result<Vec<T>, String> {
        let Json::Arr(items) = json else {
            return Err(expected(at, "an array", json));
        };
        let item = |(i, json)| T::decode(json, &format!("{at}[{i}]"));
        items.iter().enumerate().map(item).collect()
    }
}

/// Declares each struct's JSON form as its field list: an object with
/// one key per listed field, in order, and the keys of a last `..field`
/// beside them.
macro_rules! record {
    ($($t:ident { $($field:ident),+ $(, ..$flat:ident)? $(,)? })+) => {$(
        impl Codec for $t {
            fn encode(&self) -> Json {
                let own = Json::obj([$((stringify!($field), self.$field.encode())),+]);
                $(let own = beside(own, self.$flat.encode());)?
                own
            }

            fn decode(json: &Json, at: &str) -> Result<$t, String> {
                Ok($t {
                    $($field: field(json, at, stringify!($field))?,)+
                    $($flat: Codec::decode(json, at)?,)?
                })
            }
        }
    )+};
}

record! {
    ScenarioSpec {
        name, fleet, arrivals, traffic, policy, admission, preemption, autoscale, faults,
        batching, seed, requests,
    }
    FleetSpec { groups }
    CardGroupSpec { count, design, memory }
    AutoscalerConfig { min_cards, up_queue_per_card, down_idle_s, warmup_s }
    DecodeMix { min_steps, max_steps, exit_prob }
    SessionProfile { min_turns, max_turns, think_mean_s, heavy_pct }
    FaultSpec { at_frac, card, ..kind }
}

/// Declares each tagged enum's JSON form as its `kind`-to-fields list: an
/// object whose `kind` names the variant, then the variant's fields or the
/// keys of its one `..field`.
macro_rules! tagged {
    ($($t:ident {
        $($kind:literal => $variant:ident $({ $($field:ident),+ })? $({ ..$flat:ident })?),+ $(,)?
    })+) => {$(
        impl Codec for $t {
            fn encode(&self) -> Json {
                match self {
                    $($t::$variant $({ $($field),+ })? $({ $flat })? => {
                        let own = Json::obj([
                            ("kind", Json::Str($kind.into())),
                            $($((stringify!($field), $field.encode()),)+)?
                        ]);
                        $(let own = beside(own, $flat.encode());)?
                        own
                    })+
                }
            }

            fn decode(json: &Json, at: &str) -> Result<$t, String> {
                match field::<String>(json, at, "kind")?.as_str() {
                    $($kind => Ok($t::$variant $({
                        $($field: field(json, at, stringify!($field))?),+
                    })? $({ $flat: Codec::decode(json, at)? })?),)+
                    other => Err(format!("{at}.kind: unknown kind {other:?}")),
                }
            }
        }
    )+};
}

tagged! {
    ArrivalProcess {
        "poisson" => Poisson { rate_per_sec },
        "bursty" => Bursty { base_rate, burst_rate, mean_burst_s, mean_gap_s },
        "diurnal" => Diurnal { base_rate, peak_rate, period_s },
        "flash-crowd" => FlashCrowd { base_rate, peak_rate, onset_s, decay_s },
    }
    TrafficModel {
        "mix" => Mix { mix, decode },
        "sessions" => Sessions { ..profile },
    }
    PolicySpec {
        "fifo" => Fifo,
        "least-loaded" => LeastLoaded,
        "shortest-job-first" => ShortestJobFirst,
        "head-affinity" => HeadAffinity,
        "sharded-least-loaded" => ShardedLeastLoaded { max_shards, adaptive },
        "sharded-shortest-job-first" => ShardedShortestJobFirst { max_shards, adaptive },
        "session-affinity" => SessionAffinity { capacity_per_card },
    }
    PreemptionSpec {
        "disabled" => Disabled,
        "after-wait" => AfterWait { threshold_s },
        "cost-aware" => CostAware { threshold_s },
    }
    FaultKind {
        "kill" => Kill,
        "degrade" => Degrade { factor },
        "revive" => Revive { warmup_s },
    }
}

/// Declares each plain enum's JSON form as its `name()`, read back by
/// searching its `ALL` array.
macro_rules! named {
    ($($t:ident),+) => {$(
        impl Codec for $t {
            fn encode(&self) -> Json {
                Json::Str(self.name().into())
            }

            fn decode(json: &Json, at: &str) -> Result<$t, String> {
                let name = String::decode(json, at)?;
                let known = $t::ALL.into_iter().find(|v| v.name() == name);
                known.ok_or_else(|| format!("{at}: unknown name {name:?}"))
            }
        }
    )+};
}

named!(CardDesign, DecodeBatching, RequestMix);

/// `"hbm2"`, or an explicit bandwidth as a bare number.
impl Codec for MemorySpec {
    fn encode(&self) -> Json {
        match self {
            MemorySpec::Hbm2 => Json::Str("hbm2".into()),
            MemorySpec::BytesPerSec(bps) => bps.encode(),
        }
    }

    fn decode(json: &Json, at: &str) -> Result<MemorySpec, String> {
        match json {
            Json::Str(s) if s == "hbm2" => Ok(MemorySpec::Hbm2),
            Json::Str(s) => Err(format!("{at}: unknown memory {s:?}, expected \"hbm2\"")),
            _ => f64::decode(json, at).map(MemorySpec::BytesPerSec),
        }
    }
}

/// One cap per class, keyed by class name; `null` is uncapped.
impl Codec for AdmissionControl {
    fn encode(&self) -> Json {
        let caps = RequestClass::ALL.iter().zip(&self.queue_caps);
        let pairs = caps.map(|(class, cap)| (class.name().to_string(), cap.encode()));
        Json::Obj(pairs.collect())
    }

    fn decode(json: &Json, at: &str) -> Result<AdmissionControl, String> {
        let mut admission = AdmissionControl::admit_all();
        for (class, cap) in RequestClass::ALL.iter().zip(&mut admission.queue_caps) {
            *cap = field(json, at, class.name())?;
        }
        Ok(admission)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "unit".to_string(),
            fleet: FleetSpec::mixed_precision(2, 1),
            arrivals: ArrivalProcess::bursty(4.0),
            traffic: TrafficModel::Mix {
                mix: RequestMix::Production,
                decode: Some(DecodeMix {
                    min_steps: 2,
                    max_steps: 4,
                    exit_prob: 0.25,
                }),
            },
            policy: PolicySpec::ShardedShortestJobFirst {
                max_shards: 4,
                adaptive: true,
            },
            admission: AdmissionControl::admit_all().with_cap(RequestClass::Background, 16),
            preemption: PreemptionSpec::AfterWait { threshold_s: 0.2 },
            autoscale: Some(AutoscalerConfig::standard().with_min_cards(2)),
            faults: vec![
                FaultSpec {
                    at_frac: 0.4,
                    card: 0,
                    kind: FaultKindSpec::Kill,
                },
                FaultSpec {
                    at_frac: 0.7,
                    card: 0,
                    kind: FaultKindSpec::Revive { warmup_s: 2.0 },
                },
            ],
            batching: DecodeBatching::WholeJob,
            seed: 0x5EED,
            requests: 50,
        }
    }

    #[test]
    fn json_round_trips_through_text() {
        let spec = spec();
        let text = spec.to_json().pretty();
        let back = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn spec_run_matches_the_hand_built_simulation() {
        // The DSL's whole contract: a spec's run() is byte-identical to
        // assembling the builder by hand.
        let spec = ScenarioSpec {
            name: "parity".to_string(),
            fleet: FleetSpec::standard(2),
            arrivals: ArrivalProcess::bursty(2.5),
            traffic: TrafficModel::mix(RequestMix::Production),
            preemption: PreemptionSpec::AfterWait { threshold_s: 0.1 },
            seed: 0x5EED,
            requests: 200,
            ..ScenarioSpec::default()
        };
        let by_spec = spec.run().unwrap();
        let fleet = FleetConfig::standard(2);
        let traffic = TrafficSpec {
            arrivals: ArrivalProcess::bursty(2.5),
            mix: RequestMix::Production,
            seed: 0x5EED,
        };
        let by_hand = Simulation::new(&fleet)
            .arrivals_label("bursty/production")
            .preemption(PreemptionControl::after_wait(0.1))
            .run(&mut LeastLoaded::default(), &traffic.requests(200));
        assert_eq!(by_spec.to_json().pretty(), by_hand.to_json().pretty());
    }

    #[test]
    fn invalid_specs_are_rejected_with_diagnostics() {
        let zero_cards = ScenarioSpec {
            fleet: FleetSpec { groups: vec![] },
            ..ScenarioSpec::default()
        };
        let err = zero_cards.run().unwrap_err();
        assert!(err.contains("no card groups"), "{err}");

        let zero_group = ScenarioSpec {
            fleet: FleetSpec::standard(0),
            ..ScenarioSpec::default()
        };
        let err = zero_group.run().unwrap_err();
        assert!(err.contains("zero cards"), "{err}");

        let empty_trace = ScenarioSpec {
            requests: 0,
            ..ScenarioSpec::default()
        };
        let err = empty_trace.run().unwrap_err();
        assert!(err.contains("requests must be positive"), "{err}");

        let bad_rate = ScenarioSpec {
            arrivals: ArrivalProcess::poisson(f64::NAN),
            ..ScenarioSpec::default()
        };
        let err = bad_rate.run().unwrap_err();
        assert!(err.contains("rate_per_sec"), "{err}");

        let stray_fault = ScenarioSpec {
            faults: vec![FaultSpec {
                at_frac: 0.5,
                card: 9,
                kind: FaultKindSpec::Kill,
            }],
            ..ScenarioSpec::default()
        };
        let err = stray_fault.run().unwrap_err();
        assert!(err.contains("9"), "{err}");

        let bad_exit = ScenarioSpec {
            traffic: TrafficModel::Mix {
                mix: RequestMix::Interactive,
                decode: Some(DecodeMix {
                    min_steps: 1,
                    max_steps: 4,
                    exit_prob: 1.5,
                }),
            },
            ..ScenarioSpec::default()
        };
        let err = bad_exit.run().unwrap_err();
        assert!(err.contains("exit_prob"), "{err}");
    }

    #[test]
    fn from_json_reports_missing_fields() {
        fn strip(json: &mut Json, key: &str) {
            match json {
                Json::Obj(pairs) => {
                    pairs.retain(|(k, _)| k != key);
                    pairs.iter_mut().for_each(|(_, v)| strip(v, key));
                }
                Json::Arr(items) => items.iter_mut().for_each(|v| strip(v, key)),
                _ => {}
            }
        }
        for (key, path) in [
            ("policy", "spec.policy"),
            ("at_frac", "spec.faults[0].at_frac"),
        ] {
            let mut json = spec().to_json();
            strip(&mut json, key);
            let err = ScenarioSpec::from_json(&json).unwrap_err();
            assert!(err.contains(path), "{err}");
        }
    }
}
