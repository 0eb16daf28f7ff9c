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
//! Construction is fallible where the underlying builders panic:
//! [`ScenarioSpec::validate`] calls each layer's own `validate()` — the
//! one home of every rule, whose diagnostic the builder panics with —
//! and adds the rules only a spec can break (an empty fleet or trace),
//! so a hand-edited JSON spec comes back as an `Err(String)` naming the
//! bad field instead of crashing operator tooling.
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
    DispatchPolicy, Fifo, HeadAffinity, LeastLoaded, SessionAffinity, ShortestJobFirst,
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

    fn from_name(name: &str) -> Result<CardDesign, String> {
        match name {
            "fp16-dual" => Ok(CardDesign::Fp16Dual),
            "fp32-single" => Ok(CardDesign::Fp32Single),
            other => Err(format!("unknown card design {other:?}")),
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

    fn to_json(self) -> Json {
        match self {
            MemorySpec::Hbm2 => Json::Str("hbm2".into()),
            MemorySpec::BytesPerSec(bps) => Json::Num(bps),
        }
    }

    fn from_json(json: &Json) -> Result<MemorySpec, String> {
        match json {
            Json::Str(s) if s == "hbm2" => Ok(MemorySpec::Hbm2),
            Json::Str(s) => Err(format!("unknown memory spec {s:?}")),
            other => as_f64(other, "memory").map(MemorySpec::BytesPerSec),
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

    fn to_json(&self) -> Json {
        Json::obj([(
            "groups",
            Json::arr(self.groups.iter().map(|g| {
                Json::obj([
                    ("count", Json::Int(g.count as i64)),
                    ("design", Json::Str(g.design.name().into())),
                    ("memory", g.memory.to_json()),
                ])
            })),
        )])
    }

    fn from_json(json: &Json) -> Result<FleetSpec, String> {
        let obj = as_obj(json, "fleet")?;
        let groups = as_arr(get(obj, "fleet.groups", "groups")?, "fleet.groups")?
            .iter()
            .map(|g| {
                let g = as_obj(g, "fleet group")?;
                Ok(CardGroupSpec {
                    count: as_usize(get(g, "group.count", "count")?, "group.count")?,
                    design: CardDesign::from_name(as_str(
                        get(g, "group.design", "design")?,
                        "group.design",
                    )?)?,
                    memory: MemorySpec::from_json(get(g, "group.memory", "memory")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FleetSpec { groups })
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

    fn to_json(self) -> Json {
        match self {
            TrafficModel::Mix { mix, decode } => Json::obj([
                ("kind", Json::Str("mix".into())),
                ("mix", Json::Str(mix.name().into())),
                (
                    "decode",
                    Json::maybe(decode, |d| {
                        Json::obj([
                            ("min_steps", Json::Int(d.min_steps as i64)),
                            ("max_steps", Json::Int(d.max_steps as i64)),
                            ("exit_prob", Json::Num(d.exit_prob)),
                        ])
                    }),
                ),
            ]),
            TrafficModel::Sessions { profile } => Json::obj([
                ("kind", Json::Str("sessions".into())),
                ("min_turns", Json::Int(profile.min_turns as i64)),
                ("max_turns", Json::Int(profile.max_turns as i64)),
                ("think_mean_s", Json::Num(profile.think_mean_s)),
                ("heavy_pct", Json::Int(profile.heavy_pct as i64)),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<TrafficModel, String> {
        let obj = as_obj(json, "traffic")?;
        match as_str(get(obj, "traffic.kind", "kind")?, "traffic.kind")? {
            "mix" => {
                let name = as_str(get(obj, "traffic.mix", "mix")?, "traffic.mix")?;
                let mix = RequestMix::ALL
                    .into_iter()
                    .find(|m| m.name() == name)
                    .ok_or_else(|| format!("unknown request mix {name:?}"))?;
                let decode = match get(obj, "traffic.decode", "decode")? {
                    Json::Null => None,
                    d => {
                        let d = as_obj(d, "traffic.decode")?;
                        Some(DecodeMix {
                            min_steps: as_u64(
                                get(d, "decode.min_steps", "min_steps")?,
                                "min_steps",
                            )? as u32,
                            max_steps: as_u64(
                                get(d, "decode.max_steps", "max_steps")?,
                                "max_steps",
                            )? as u32,
                            exit_prob: as_f64(
                                get(d, "decode.exit_prob", "exit_prob")?,
                                "exit_prob",
                            )?,
                        })
                    }
                };
                Ok(TrafficModel::Mix { mix, decode })
            }
            "sessions" => Ok(TrafficModel::Sessions {
                profile: SessionProfile {
                    min_turns: as_usize(get(obj, "traffic.min_turns", "min_turns")?, "min_turns")?,
                    max_turns: as_usize(get(obj, "traffic.max_turns", "max_turns")?, "max_turns")?,
                    think_mean_s: as_f64(
                        get(obj, "traffic.think_mean_s", "think_mean_s")?,
                        "think_mean_s",
                    )?,
                    heavy_pct: as_u64(get(obj, "traffic.heavy_pct", "heavy_pct")?, "heavy_pct")?
                        as u8,
                },
            }),
            other => Err(format!("unknown traffic kind {other:?}")),
        }
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

    /// The spec's `kind` string (also the policy family name in JSON).
    pub fn kind(&self) -> &'static str {
        match self {
            PolicySpec::Fifo => "fifo",
            PolicySpec::LeastLoaded => "least-loaded",
            PolicySpec::ShortestJobFirst => "shortest-job-first",
            PolicySpec::HeadAffinity => "head-affinity",
            PolicySpec::ShardedLeastLoaded { .. } => "sharded-least-loaded",
            PolicySpec::ShardedShortestJobFirst { .. } => "sharded-shortest-job-first",
            PolicySpec::SessionAffinity { .. } => "session-affinity",
        }
    }

    fn to_json(self) -> Json {
        let mut pairs = vec![("kind", Json::Str(self.kind().into()))];
        match self {
            PolicySpec::ShardedLeastLoaded {
                max_shards,
                adaptive,
            }
            | PolicySpec::ShardedShortestJobFirst {
                max_shards,
                adaptive,
            } => {
                pairs.push(("max_shards", Json::Int(max_shards as i64)));
                pairs.push(("adaptive", Json::Bool(adaptive)));
            }
            PolicySpec::SessionAffinity { capacity_per_card } => {
                pairs.push(("capacity_per_card", Json::Int(capacity_per_card as i64)));
            }
            _ => {}
        }
        Json::obj(pairs)
    }

    fn from_json(json: &Json) -> Result<PolicySpec, String> {
        let obj = as_obj(json, "policy")?;
        let kind = as_str(get(obj, "policy.kind", "kind")?, "policy.kind")?;
        let sharded = |obj: &[(String, Json)]| -> Result<(usize, bool), String> {
            Ok((
                as_usize(get(obj, "policy.max_shards", "max_shards")?, "max_shards")?,
                as_bool(get(obj, "policy.adaptive", "adaptive")?, "adaptive")?,
            ))
        };
        match kind {
            "fifo" => Ok(PolicySpec::Fifo),
            "least-loaded" => Ok(PolicySpec::LeastLoaded),
            "shortest-job-first" => Ok(PolicySpec::ShortestJobFirst),
            "head-affinity" => Ok(PolicySpec::HeadAffinity),
            "sharded-least-loaded" => {
                let (max_shards, adaptive) = sharded(obj)?;
                Ok(PolicySpec::ShardedLeastLoaded {
                    max_shards,
                    adaptive,
                })
            }
            "sharded-shortest-job-first" => {
                let (max_shards, adaptive) = sharded(obj)?;
                Ok(PolicySpec::ShardedShortestJobFirst {
                    max_shards,
                    adaptive,
                })
            }
            "session-affinity" => Ok(PolicySpec::SessionAffinity {
                capacity_per_card: as_usize(
                    get(obj, "policy.capacity_per_card", "capacity_per_card")?,
                    "capacity_per_card",
                )?,
            }),
            other => Err(format!("unknown policy kind {other:?}")),
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

    fn to_json(self) -> Json {
        match self {
            PreemptionSpec::Disabled => Json::obj([("kind", Json::Str("disabled".into()))]),
            PreemptionSpec::AfterWait { threshold_s } => Json::obj([
                ("kind", Json::Str("after-wait".into())),
                ("threshold_s", Json::Num(threshold_s)),
            ]),
            PreemptionSpec::CostAware { threshold_s } => Json::obj([
                ("kind", Json::Str("cost-aware".into())),
                ("threshold_s", Json::Num(threshold_s)),
            ]),
        }
    }

    fn from_json(json: &Json) -> Result<PreemptionSpec, String> {
        let obj = as_obj(json, "preemption")?;
        let threshold = |obj: &[(String, Json)]| {
            as_f64(
                get(obj, "preemption.threshold_s", "threshold_s")?,
                "threshold_s",
            )
        };
        match as_str(get(obj, "preemption.kind", "kind")?, "preemption.kind")? {
            "disabled" => Ok(PreemptionSpec::Disabled),
            "after-wait" => Ok(PreemptionSpec::AfterWait {
                threshold_s: threshold(obj)?,
            }),
            "cost-aware" => Ok(PreemptionSpec::CostAware {
                threshold_s: threshold(obj)?,
            }),
            other => Err(format!("unknown preemption kind {other:?}")),
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

impl FaultSpec {
    fn to_json(self) -> Json {
        let mut pairs = vec![
            ("at_frac", Json::Num(self.at_frac)),
            ("card", Json::Int(self.card as i64)),
        ];
        match self.kind {
            FaultKind::Kill => pairs.push(("kind", Json::Str("kill".into()))),
            FaultKind::Degrade { factor } => {
                pairs.push(("kind", Json::Str("degrade".into())));
                pairs.push(("factor", Json::Num(factor)));
            }
            FaultKind::Revive { warmup_s } => {
                pairs.push(("kind", Json::Str("revive".into())));
                pairs.push(("warmup_s", Json::Num(warmup_s)));
            }
        }
        Json::obj(pairs)
    }

    fn from_json(json: &Json) -> Result<FaultSpec, String> {
        let obj = as_obj(json, "fault")?;
        let kind = match as_str(get(obj, "fault.kind", "kind")?, "fault.kind")? {
            "kill" => FaultKind::Kill,
            "degrade" => FaultKind::Degrade {
                factor: as_f64(get(obj, "fault.factor", "factor")?, "factor")?,
            },
            "revive" => FaultKind::Revive {
                warmup_s: as_f64(get(obj, "fault.warmup_s", "warmup_s")?, "warmup_s")?,
            },
            other => return Err(format!("unknown fault kind {other:?}")),
        };
        Ok(FaultSpec {
            at_frac: as_f64(get(obj, "fault.at_frac", "at_frac")?, "at_frac")?,
            card: as_usize(get(obj, "fault.card", "card")?, "card")?,
            kind,
        })
    }
}

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
    /// Checks every field by calling the `validate()` of the type that
    /// owns it (whose diagnostic that type's builders panic with), plus
    /// the rules only a spec can break: an empty fleet or trace, a
    /// non-positive bandwidth, a zero shard cap or affinity capacity.
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
                if !(bps.is_finite() && bps > 0.0) {
                    return Err(format!(
                        "fleet group {i} memory bandwidth must be positive and finite, got {bps}"
                    ));
                }
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
            | PolicySpec::ShardedShortestJobFirst { max_shards, .. }
                if max_shards == 0 =>
            {
                return Err("sharded policies need max_shards >= 1".to_string());
            }
            PolicySpec::SessionAffinity {
                capacity_per_card: 0,
            } => {
                return Err("session affinity needs capacity_per_card >= 1".to_string());
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
    /// counters (for events/sec accounting in sweeps and planners).
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
        let caps = &self.admission.queue_caps;
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("fleet", self.fleet.to_json()),
            ("arrivals", arrivals_to_json(&self.arrivals)),
            ("traffic", self.traffic.to_json()),
            ("policy", self.policy.to_json()),
            (
                "admission",
                Json::Obj(
                    RequestClass::ALL
                        .iter()
                        .zip(caps.iter())
                        .map(|(class, cap)| {
                            (
                                class.name().to_string(),
                                Json::maybe(*cap, |c| Json::Int(c as i64)),
                            )
                        })
                        .collect(),
                ),
            ),
            ("preemption", self.preemption.to_json()),
            (
                "autoscale",
                Json::maybe(self.autoscale, |cfg| {
                    Json::obj([
                        ("min_cards", Json::Int(cfg.min_cards as i64)),
                        ("up_queue_per_card", Json::Int(cfg.up_queue_per_card as i64)),
                        ("down_idle_s", Json::Num(cfg.down_idle_s)),
                        ("warmup_s", Json::Num(cfg.warmup_s)),
                    ])
                }),
            ),
            ("faults", Json::arr(self.faults.iter().map(|f| f.to_json()))),
            ("batching", Json::Str(self.batching.name().into())),
            ("seed", Json::UInt(self.seed)),
            ("requests", Json::Int(self.requests as i64)),
        ])
    }

    /// Parses a spec from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the missing or mistyped field. The
    /// parsed spec is *structurally* sound but not yet validated — call
    /// [`validate`](ScenarioSpec::validate) (or just
    /// [`run`](ScenarioSpec::run), which validates) before trusting the
    /// numbers in it.
    pub fn from_json(json: &Json) -> Result<ScenarioSpec, String> {
        let obj = as_obj(json, "scenario spec")?;
        let admission_obj = as_obj(get(obj, "spec.admission", "admission")?, "admission")?;
        let mut admission = AdmissionControl::admit_all();
        for (i, class) in RequestClass::ALL.iter().enumerate() {
            match get(admission_obj, "admission class", class.name())? {
                Json::Null => {}
                cap => {
                    admission.queue_caps[i] =
                        Some(as_usize(cap, &format!("admission.{}", class.name()))?);
                }
            }
        }
        let autoscale = match get(obj, "spec.autoscale", "autoscale")? {
            Json::Null => None,
            cfg => {
                let cfg = as_obj(cfg, "autoscale")?;
                Some(AutoscalerConfig {
                    min_cards: as_usize(
                        get(cfg, "autoscale.min_cards", "min_cards")?,
                        "min_cards",
                    )?,
                    up_queue_per_card: as_usize(
                        get(cfg, "autoscale.up_queue_per_card", "up_queue_per_card")?,
                        "up_queue_per_card",
                    )?,
                    down_idle_s: as_f64(
                        get(cfg, "autoscale.down_idle_s", "down_idle_s")?,
                        "down_idle_s",
                    )?,
                    warmup_s: as_f64(get(cfg, "autoscale.warmup_s", "warmup_s")?, "warmup_s")?,
                })
            }
        };
        let batching = match as_str(get(obj, "spec.batching", "batching")?, "batching")? {
            "continuous" => DecodeBatching::Continuous,
            "whole-job" => DecodeBatching::WholeJob,
            other => return Err(format!("unknown batching mode {other:?}")),
        };
        Ok(ScenarioSpec {
            name: as_str(get(obj, "spec.name", "name")?, "name")?.to_string(),
            fleet: FleetSpec::from_json(get(obj, "spec.fleet", "fleet")?)?,
            arrivals: arrivals_from_json(get(obj, "spec.arrivals", "arrivals")?)?,
            traffic: TrafficModel::from_json(get(obj, "spec.traffic", "traffic")?)?,
            policy: PolicySpec::from_json(get(obj, "spec.policy", "policy")?)?,
            admission,
            preemption: PreemptionSpec::from_json(get(obj, "spec.preemption", "preemption")?)?,
            autoscale,
            faults: as_arr(get(obj, "spec.faults", "faults")?, "faults")?
                .iter()
                .map(FaultSpec::from_json)
                .collect::<Result<Vec<_>, String>>()?,
            batching,
            seed: as_u64(get(obj, "spec.seed", "seed")?, "seed")?,
            requests: as_usize(get(obj, "spec.requests", "requests")?, "requests")?,
        })
    }
}

fn arrivals_to_json(arrivals: &ArrivalProcess) -> Json {
    match *arrivals {
        ArrivalProcess::Poisson { rate_per_sec } => Json::obj([
            ("kind", Json::Str("poisson".into())),
            ("rate_per_sec", Json::Num(rate_per_sec)),
        ]),
        ArrivalProcess::Bursty {
            base_rate,
            burst_rate,
            mean_burst_s,
            mean_gap_s,
        } => Json::obj([
            ("kind", Json::Str("bursty".into())),
            ("base_rate", Json::Num(base_rate)),
            ("burst_rate", Json::Num(burst_rate)),
            ("mean_burst_s", Json::Num(mean_burst_s)),
            ("mean_gap_s", Json::Num(mean_gap_s)),
        ]),
        ArrivalProcess::Diurnal {
            base_rate,
            peak_rate,
            period_s,
        } => Json::obj([
            ("kind", Json::Str("diurnal".into())),
            ("base_rate", Json::Num(base_rate)),
            ("peak_rate", Json::Num(peak_rate)),
            ("period_s", Json::Num(period_s)),
        ]),
        ArrivalProcess::FlashCrowd {
            base_rate,
            peak_rate,
            onset_s,
            decay_s,
        } => Json::obj([
            ("kind", Json::Str("flash-crowd".into())),
            ("base_rate", Json::Num(base_rate)),
            ("peak_rate", Json::Num(peak_rate)),
            ("onset_s", Json::Num(onset_s)),
            ("decay_s", Json::Num(decay_s)),
        ]),
    }
}

fn arrivals_from_json(json: &Json) -> Result<ArrivalProcess, String> {
    let obj = as_obj(json, "arrivals")?;
    let f = |key: &str| as_f64(get(obj, "arrivals field", key)?, key);
    match as_str(get(obj, "arrivals.kind", "kind")?, "arrivals.kind")? {
        "poisson" => Ok(ArrivalProcess::Poisson {
            rate_per_sec: f("rate_per_sec")?,
        }),
        "bursty" => Ok(ArrivalProcess::Bursty {
            base_rate: f("base_rate")?,
            burst_rate: f("burst_rate")?,
            mean_burst_s: f("mean_burst_s")?,
            mean_gap_s: f("mean_gap_s")?,
        }),
        "diurnal" => Ok(ArrivalProcess::Diurnal {
            base_rate: f("base_rate")?,
            peak_rate: f("peak_rate")?,
            period_s: f("period_s")?,
        }),
        "flash-crowd" => Ok(ArrivalProcess::FlashCrowd {
            base_rate: f("base_rate")?,
            peak_rate: f("peak_rate")?,
            onset_s: f("onset_s")?,
            decay_s: f("decay_s")?,
        }),
        other => Err(format!("unknown arrival kind {other:?}")),
    }
}

// ---- small typed accessors over the ordered-pairs Json object ----

fn get<'a>(obj: &'a [(String, Json)], context: &str, key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{context}: missing field {key:?}"))
}

fn as_obj<'a>(json: &'a Json, context: &str) -> Result<&'a [(String, Json)], String> {
    match json {
        Json::Obj(pairs) => Ok(pairs),
        other => Err(format!("{context}: expected an object, got {other:?}")),
    }
}

fn as_arr<'a>(json: &'a Json, context: &str) -> Result<&'a [Json], String> {
    match json {
        Json::Arr(items) => Ok(items),
        other => Err(format!("{context}: expected an array, got {other:?}")),
    }
}

fn as_str<'a>(json: &'a Json, context: &str) -> Result<&'a str, String> {
    match json {
        Json::Str(s) => Ok(s),
        other => Err(format!("{context}: expected a string, got {other:?}")),
    }
}

fn as_bool(json: &Json, context: &str) -> Result<bool, String> {
    match json {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{context}: expected a boolean, got {other:?}")),
    }
}

fn as_f64(json: &Json, context: &str) -> Result<f64, String> {
    match *json {
        Json::Num(x) => Ok(x),
        Json::Int(i) => Ok(i as f64),
        Json::UInt(u) => Ok(u as f64),
        ref other => Err(format!("{context}: expected a number, got {other:?}")),
    }
}

fn as_u64(json: &Json, context: &str) -> Result<u64, String> {
    match *json {
        Json::UInt(u) => Ok(u),
        Json::Int(i) if i >= 0 => Ok(i as u64),
        ref other => Err(format!(
            "{context}: expected a non-negative integer, got {other:?}"
        )),
    }
}

fn as_usize(json: &Json, context: &str) -> Result<usize, String> {
    as_u64(json, context).map(|u| u as usize)
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
        let mut json = spec().to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "policy");
        }
        let err = ScenarioSpec::from_json(&json).unwrap_err();
        assert!(err.contains("policy"), "{err}");
    }
}
