//! Property tests for the declarative scenario DSL: any valid
//! [`ScenarioSpec`] round-trips exactly through its JSON text, `run()`
//! is byte-deterministic across double runs, and invalid specs come
//! back as diagnostics, never panics.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::time::Duration;
use swat_hw::MemoryInterface;
use swat_serve::arrival::ArrivalProcess;
use swat_serve::fault::FaultPlan;
use swat_serve::fleet::FleetConfig;
use swat_serve::json::Json;
use swat_serve::policy::{LeastLoaded, SessionAffinity};
use swat_serve::scale::{Autoscaler, AutoscalerConfig};
use swat_serve::scenario::{
    CardDesign, CardGroupSpec, Codec, FaultKindSpec, FaultSpec, FleetSpec, MemorySpec, PolicySpec,
    PreemptionSpec, ScenarioSpec, TrafficModel,
};
use swat_serve::session::SessionTraffic;
use swat_serve::sim::{
    AdmissionControl, DecodeBatching, PreemptionControl, Simulation, TrafficSpec,
};
use swat_workloads::{DecodeMix, RequestClass, RequestMix, SessionProfile};

/// `Option` strategy: the vendored proptest subset has no
/// `prop::option`, so build it from a one-of.
fn maybe<S>(inner: S) -> BoxedStrategy<Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), inner.prop_map(Some)].boxed()
}

fn any_fleet() -> impl Strategy<Value = FleetSpec> {
    proptest::collection::vec(
        (
            1usize..3,
            prop_oneof![Just(CardDesign::Fp16Dual), Just(CardDesign::Fp32Single)],
            prop_oneof![
                Just(MemorySpec::Hbm2),
                (1e8f64..1e10).prop_map(MemorySpec::BytesPerSec),
            ],
        )
            .prop_map(|(count, design, memory)| CardGroupSpec {
                count,
                design,
                memory,
            }),
        1..3,
    )
    .prop_map(|groups| FleetSpec { groups })
}

fn any_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (0.5f64..50.0).prop_map(ArrivalProcess::poisson),
        (0.5f64..20.0).prop_map(ArrivalProcess::bursty),
        // Peak at least base by construction, so every draw validates.
        (0.5f64..10.0, 1.0f64..4.0)
            .prop_map(|(base, over)| ArrivalProcess::diurnal(base, base * over)),
        (0.5f64..10.0, 1.0f64..4.0, 1.0f64..60.0, 1.0f64..20.0).prop_map(
            |(base, over, onset, decay)| ArrivalProcess::flash_crowd(
                base,
                base * over,
                onset,
                decay
            )
        ),
    ]
}

fn any_traffic() -> impl Strategy<Value = TrafficModel> {
    prop_oneof![
        (
            prop_oneof![
                Just(RequestMix::Interactive),
                Just(RequestMix::Document),
                Just(RequestMix::Batch),
                Just(RequestMix::Production),
            ],
            maybe(
                (1u32..4, 0u32..5, 0.0f64..0.9).prop_map(|(min_steps, extra, exit_prob)| {
                    DecodeMix {
                        min_steps,
                        max_steps: min_steps + extra,
                        exit_prob,
                    }
                })
            )
        )
            .prop_map(|(mix, decode)| TrafficModel::Mix { mix, decode }),
        (1usize..3, 0usize..6, 0.5f64..5.0, 0u8..51).prop_map(
            |(min_turns, extra, think_mean_s, heavy_pct)| TrafficModel::Sessions {
                profile: SessionProfile {
                    min_turns,
                    max_turns: min_turns + extra,
                    think_mean_s,
                    heavy_pct,
                },
            }
        ),
    ]
}

fn any_policy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::Fifo),
        Just(PolicySpec::LeastLoaded),
        Just(PolicySpec::ShortestJobFirst),
        Just(PolicySpec::HeadAffinity),
        (1usize..5, any::<bool>()).prop_map(|(max_shards, adaptive)| {
            PolicySpec::ShardedLeastLoaded {
                max_shards,
                adaptive,
            }
        }),
        (1usize..5, any::<bool>()).prop_map(|(max_shards, adaptive)| {
            PolicySpec::ShardedShortestJobFirst {
                max_shards,
                adaptive,
            }
        }),
        (1usize..65)
            .prop_map(|capacity_per_card| PolicySpec::SessionAffinity { capacity_per_card }),
    ]
}

fn any_admission() -> impl Strategy<Value = AdmissionControl> {
    proptest::collection::vec(maybe(1usize..64), 3).prop_map(|caps| {
        let mut admission = AdmissionControl::admit_all();
        admission.queue_caps.copy_from_slice(&caps);
        admission
    })
}

fn any_preemption() -> impl Strategy<Value = PreemptionSpec> {
    prop_oneof![
        Just(PreemptionSpec::Disabled),
        (0.001f64..1.0).prop_map(|threshold_s| PreemptionSpec::AfterWait { threshold_s }),
        (0.001f64..1.0).prop_map(|threshold_s| PreemptionSpec::CostAware { threshold_s }),
    ]
}

fn any_autoscale() -> impl Strategy<Value = Option<AutoscalerConfig>> {
    maybe((1usize..4, 1usize..8, 0.0f64..30.0, 0.0f64..5.0).prop_map(
        |(min_cards, up_queue_per_card, down_idle_s, warmup_s)| AutoscalerConfig {
            min_cards,
            up_queue_per_card,
            down_idle_s,
            warmup_s,
        },
    ))
}

/// Faults target card 0, which every generated fleet has; times are span
/// fractions, valid at any trace length.
fn any_faults() -> impl Strategy<Value = Vec<FaultSpec>> {
    proptest::collection::vec(
        (
            0.0f64..1.0,
            prop_oneof![
                Just(FaultKindSpec::Kill),
                (1.0f64..4.0).prop_map(|factor| FaultKindSpec::Degrade { factor }),
                (0.0f64..5.0).prop_map(|warmup_s| FaultKindSpec::Revive { warmup_s }),
            ],
        )
            .prop_map(|(at_frac, kind)| FaultSpec {
                at_frac,
                card: 0,
                kind,
            }),
        0..3,
    )
}

fn any_spec() -> impl Strategy<Value = ScenarioSpec> {
    (
        (
            any::<u16>(),
            any_fleet(),
            any_arrivals(),
            any_traffic(),
            any_policy(),
        ),
        (any_admission(), any_preemption(), any_autoscale()),
        (any_faults(), any::<bool>(), any::<u64>(), 1usize..40),
    )
        .prop_map(
            |(
                (name_tag, fleet, arrivals, traffic, policy),
                (admission, preemption, autoscale),
                (faults, whole_job, seed, requests),
            )| ScenarioSpec {
                name: format!("spec-{name_tag}"),
                fleet,
                arrivals,
                traffic,
                policy,
                admission,
                preemption,
                autoscale,
                faults,
                batching: if whole_job {
                    DecodeBatching::WholeJob
                } else {
                    DecodeBatching::Continuous
                },
                seed,
                requests,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every valid spec validates, and survives spec → JSON → text →
    /// JSON → spec exactly — including a second hop through the printed
    /// bytes, so the text form is a faithful interchange format.
    #[test]
    fn valid_specs_round_trip_through_json_text(spec in any_spec()) {
        prop_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        let text = spec.to_json().pretty();
        let parsed = Json::parse(&text).expect("writer output parses");
        let back = ScenarioSpec::from_json(&parsed).expect("parsed spec loads");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.to_json().pretty(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Running the same spec twice gives byte-identical reports: the DSL
    /// adds no hidden state over the simulator's seeded determinism.
    #[test]
    fn run_is_byte_deterministic(spec in any_spec()) {
        let first = spec.run().expect("generated specs are valid");
        let second = spec.run().expect("generated specs are valid");
        prop_assert_eq!(first.to_json().pretty(), second.to_json().pretty());
        prop_assert_eq!(first.offered, second.offered);
    }
}

#[test]
fn zero_card_fleet_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        fleet: FleetSpec { groups: Vec::new() },
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("no card groups"), "{err}");
}

#[test]
fn empty_mix_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        requests: 0,
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("requests must be positive"), "{err}");
}

#[test]
fn bad_decode_mix_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        traffic: TrafficModel::Mix {
            mix: RequestMix::Production,
            decode: Some(DecodeMix {
                min_steps: 3,
                max_steps: 2,
                exit_prob: 0.1,
            }),
        },
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("max_steps"), "{err}");
}

#[test]
fn out_of_fleet_fault_is_a_diagnostic_not_a_panic() {
    let spec = ScenarioSpec {
        faults: vec![FaultSpec {
            at_frac: 0.5,
            card: 3,
            kind: FaultKindSpec::Kill,
        }],
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("card 3"), "{err}");
}

#[test]
fn zero_preemption_threshold_is_a_diagnostic_not_a_panic() {
    for threshold_s in [0.0, -0.0] {
        for preemption in [
            PreemptionSpec::AfterWait { threshold_s },
            PreemptionSpec::CostAware { threshold_s },
        ] {
            let spec = ScenarioSpec {
                preemption,
                ..ScenarioSpec::default()
            };
            let err = spec.run().unwrap_err();
            assert!(err.contains("preemption threshold"), "{err}");
        }
    }
}

#[test]
fn overflowing_fault_time_is_a_diagnostic_not_a_panic() {
    // A finite span fraction whose resolved time `t0 + span × at_frac`
    // overflows to infinity (20 Poisson(1) arrivals span well over 1 s).
    let spec = ScenarioSpec {
        requests: 20,
        faults: vec![
            FaultSpec {
                at_frac: 0.5,
                card: 0,
                kind: FaultKindSpec::Kill,
            },
            FaultSpec {
                at_frac: f64::MAX,
                card: 0,
                kind: FaultKindSpec::Kill,
            },
        ],
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("fault 1"), "{err}");
}

#[test]
fn shard_cap_above_the_fleet_runs_like_a_cap_at_the_fleet() {
    // Two dual-pipeline cards: no plan fills more than four pipelines,
    // so a cap far past that must neither reserve memory for it nor
    // change a byte of the report.
    for adaptive in [true, false] {
        for sjf in [false, true] {
            let spec = |max_shards| ScenarioSpec {
                fleet: FleetSpec::standard(2),
                arrivals: ArrivalProcess::poisson(20.0),
                policy: if sjf {
                    PolicySpec::ShardedShortestJobFirst {
                        max_shards,
                        adaptive,
                    }
                } else {
                    PolicySpec::ShardedLeastLoaded {
                        max_shards,
                        adaptive,
                    }
                },
                requests: 50,
                ..ScenarioSpec::default()
            };
            let huge = spec(1 << 61).run().expect("an oversized cap is valid");
            let at_fleet = spec(4).run().expect("valid spec");
            assert!(huge.max_shards > 1, "the run fanned out");
            assert_eq!(huge.to_json().pretty(), at_fleet.to_json().pretty());
        }
    }
}

#[test]
fn overflowing_arrival_time_is_a_diagnostic_not_a_panic() {
    // Poisson(1e-307) gaps are ~1e307 s apiece: fifty of them overflow
    // the arrival clock to infinity.
    let spec = ScenarioSpec {
        arrivals: ArrivalProcess::poisson(1e-307),
        requests: 50,
        ..ScenarioSpec::default()
    };
    let err = spec.run().unwrap_err();
    assert!(err.contains("arrival"), "{err}");
    let err = spec.run_profiled().unwrap_err();
    assert!(err.contains("non-finite"), "{err}");
}

#[test]
fn builders_panic_with_the_diagnostic_validate_returns() {
    // Each rule has one home: a builder given a bad value panics with
    // exactly the text `ScenarioSpec::validate` reports for the same value.
    let inverted = DecodeMix {
        min_steps: 3,
        max_steps: 2,
        exit_prob: 0.1,
    };
    let no_turns = SessionProfile {
        min_turns: 0,
        ..SessionProfile::standard()
    };
    let no_floor = AutoscalerConfig::standard().with_min_cards(0);
    let fault = |card, kind| FaultSpec {
        at_frac: 0.5,
        card,
        kind,
    };
    let traffic = TrafficSpec {
        arrivals: ArrivalProcess::poisson(1.0),
        mix: RequestMix::Production,
        seed: 0,
    };
    type Builder = Box<dyn Fn()>;
    let cases: [(&str, Builder, ScenarioSpec); 10] = [
        (
            "zero poisson rate",
            Box::new(|| {
                let _ = ArrivalProcess::poisson(0.0).times(1, 0);
            }),
            ScenarioSpec {
                arrivals: ArrivalProcess::poisson(0.0),
                ..ScenarioSpec::default()
            },
        ),
        (
            "inverted decode range",
            Box::new(move || {
                let _ = traffic.decode_requests(1, &inverted);
            }),
            ScenarioSpec {
                traffic: TrafficModel::Mix {
                    mix: RequestMix::Production,
                    decode: Some(inverted),
                },
                ..ScenarioSpec::default()
            },
        ),
        (
            "zero-turn sessions",
            Box::new(move || {
                let sessions = SessionTraffic {
                    arrivals: ArrivalProcess::poisson(1.0),
                    profile: no_turns,
                    seed: 0,
                };
                let _ = sessions.requests(1);
            }),
            ScenarioSpec {
                traffic: TrafficModel::Sessions { profile: no_turns },
                ..ScenarioSpec::default()
            },
        ),
        (
            "zero autoscaler floor",
            Box::new(move || {
                let _ = Autoscaler::new(no_floor);
            }),
            ScenarioSpec {
                autoscale: Some(no_floor),
                ..ScenarioSpec::default()
            },
        ),
        (
            "zero preemption threshold",
            Box::new(|| {
                let _ = PreemptionControl::after_wait(0.0);
            }),
            ScenarioSpec {
                preemption: PreemptionSpec::AfterWait { threshold_s: 0.0 },
                ..ScenarioSpec::default()
            },
        ),
        (
            "speed-up degrade",
            Box::new(|| {
                let _ = FaultPlan::none().degrade(0.5, 0, 0.5);
            }),
            ScenarioSpec {
                faults: vec![fault(0, FaultKindSpec::Degrade { factor: 0.5 })],
                ..ScenarioSpec::default()
            },
        ),
        (
            "out-of-fleet fault card",
            Box::new(move || {
                let fleet = FleetConfig::standard(1);
                let sim = Simulation::new(&fleet).faults(FaultPlan::none().kill(0.5, 9));
                let _ = sim.run(&mut LeastLoaded::default(), &traffic.requests(1));
            }),
            ScenarioSpec {
                faults: vec![fault(9, FaultKindSpec::Kill)],
                ..ScenarioSpec::default()
            },
        ),
        (
            "zero memory bandwidth",
            Box::new(|| {
                let _ = MemoryInterface::new(0.0);
            }),
            ScenarioSpec {
                fleet: FleetSpec::binned(1, 0.0),
                ..ScenarioSpec::default()
            },
        ),
        (
            "zero shard cap",
            Box::new(|| {
                let _ = LeastLoaded::new(0);
            }),
            ScenarioSpec {
                policy: PolicySpec::ShardedLeastLoaded {
                    max_shards: 0,
                    adaptive: true,
                },
                ..ScenarioSpec::default()
            },
        ),
        (
            "zero affinity capacity",
            Box::new(|| {
                let _ = SessionAffinity::new(0);
            }),
            ScenarioSpec {
                policy: PolicySpec::SessionAffinity {
                    capacity_per_card: 0,
                },
                ..ScenarioSpec::default()
            },
        ),
    ];
    for (case, build, spec) in cases {
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).expect_err(case);
        let panic = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .expect("a string panic");
        let err = spec.validate().expect_err(case);
        assert!(
            err.contains(&panic),
            "{case}: the builder panicked with {panic:?}, validate() said {err:?}"
        );
    }
}

/// Specs that together use every kind-tagged variant, every named value
/// and both states of every optional field of the JSON form, with a
/// `u64::MAX` seed and integral floats (`factor: 2`), which the parser
/// reads back as integers.
fn fixture_specs() -> Vec<ScenarioSpec> {
    let fault = |at_frac, card, kind| FaultSpec {
        at_frac,
        card,
        kind,
    };
    let decode = |min_steps, max_steps, exit_prob| {
        Some(DecodeMix {
            min_steps,
            max_steps,
            exit_prob,
        })
    };
    vec![
        ScenarioSpec {
            name: "poisson-fifo".to_string(),
            fleet: FleetSpec::standard(2),
            arrivals: ArrivalProcess::poisson(14.0),
            traffic: TrafficModel::mix(RequestMix::Interactive),
            policy: PolicySpec::Fifo,
            requests: 100,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            name: "bursty-least-loaded".to_string(),
            fleet: FleetSpec::mixed_precision(2, 1),
            arrivals: ArrivalProcess::bursty(2.5),
            traffic: TrafficModel::Mix {
                mix: RequestMix::Document,
                decode: decode(1, 3, 0.25),
            },
            policy: PolicySpec::LeastLoaded,
            admission: AdmissionControl::admit_all().with_cap(RequestClass::Background, 16),
            preemption: PreemptionSpec::AfterWait { threshold_s: 0.2 },
            autoscale: Some(AutoscalerConfig::standard().with_min_cards(2)),
            faults: vec![
                fault(0.4, 0, FaultKindSpec::Kill),
                fault(0.7, 0, FaultKindSpec::Revive { warmup_s: 2.0 }),
            ],
            batching: DecodeBatching::WholeJob,
            seed: u64::MAX,
            requests: 50,
        },
        ScenarioSpec {
            name: "diurnal-shortest-job-first".to_string(),
            fleet: FleetSpec::binned(3, 1.2e9),
            arrivals: ArrivalProcess::diurnal(3.0, 22.0),
            traffic: TrafficModel::mix(RequestMix::Batch),
            policy: PolicySpec::ShortestJobFirst,
            admission: AdmissionControl::admit_all()
                .with_cap(RequestClass::Interactive, 8)
                .with_cap(RequestClass::Batch, 32),
            preemption: PreemptionSpec::CostAware { threshold_s: 0.5 },
            faults: vec![fault(0.25, 2, FaultKindSpec::Degrade { factor: 2.0 })],
            seed: 24301,
            requests: 200,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            name: "flash-crowd-head-affinity".to_string(),
            fleet: FleetSpec {
                groups: vec![
                    CardGroupSpec {
                        count: 2,
                        design: CardDesign::Fp32Single,
                        memory: MemorySpec::Hbm2,
                    },
                    CardGroupSpec {
                        count: 1,
                        design: CardDesign::Fp16Dual,
                        memory: MemorySpec::BytesPerSec(4.25e10),
                    },
                ],
            },
            arrivals: ArrivalProcess::flash_crowd(2.0, 20.0, 30.0, 5.0),
            traffic: TrafficModel::Sessions {
                profile: SessionProfile::standard(),
            },
            policy: PolicySpec::HeadAffinity,
            seed: 7,
            requests: 20,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            name: "sharded-least-loaded".to_string(),
            fleet: FleetSpec::standard(4),
            arrivals: ArrivalProcess::poisson(24.0),
            traffic: TrafficModel::Mix {
                mix: RequestMix::Production,
                decode: decode(2, 6, 0.2),
            },
            policy: PolicySpec::ShardedLeastLoaded {
                max_shards: 4,
                adaptive: true,
            },
            autoscale: Some(AutoscalerConfig {
                min_cards: 1,
                up_queue_per_card: 8,
                down_idle_s: 0.5,
                warmup_s: 1.5,
            }),
            requests: 300,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            name: "sharded-shortest-job-first".to_string(),
            fleet: FleetSpec::standard(3),
            arrivals: ArrivalProcess::poisson(9.5),
            policy: PolicySpec::ShardedShortestJobFirst {
                max_shards: 2,
                adaptive: false,
            },
            admission: AdmissionControl::admit_all()
                .with_cap(RequestClass::Interactive, 64)
                .with_cap(RequestClass::Batch, 32)
                .with_cap(RequestClass::Background, 4),
            seed: 1,
            requests: 40,
            ..ScenarioSpec::default()
        },
        ScenarioSpec {
            name: "session-affinity".to_string(),
            fleet: FleetSpec::standard(4),
            arrivals: ArrivalProcess::poisson(2.0),
            traffic: TrafficModel::Sessions {
                profile: SessionProfile {
                    min_turns: 1,
                    max_turns: 4,
                    think_mean_s: 0.75,
                    heavy_pct: 0,
                },
            },
            policy: PolicySpec::SessionAffinity {
                capacity_per_card: 64,
            },
            preemption: PreemptionSpec::AfterWait { threshold_s: 0.05 },
            requests: 30,
            ..ScenarioSpec::default()
        },
    ]
}

/// `to_json().pretty()` of [`fixture_specs`] as an array, written by the
/// spec codec before it was declared per field. It changes only with a
/// deliberate change of the format.
const FIXTURE: &str = include_str!("fixtures/scenario_specs.json");

#[test]
fn json_form_matches_the_committed_fixture() {
    // The round-trip proptest cannot see a renamed or reordered key, so
    // the writer is held to committed bytes.
    let specs = fixture_specs();
    let text = Json::arr(specs.iter().map(ScenarioSpec::to_json)).pretty();
    assert_eq!(text, FIXTURE, "the spec writer's output moved");
    let Json::Arr(items) = Json::parse(FIXTURE).expect("the fixture parses") else {
        panic!("the fixture is an array of specs");
    };
    let back: Vec<ScenarioSpec> = items
        .iter()
        .map(|item| ScenarioSpec::from_json(item).expect("a fixture spec loads"))
        .collect();
    assert_eq!(back, specs);

    // The capacity planner's template, as committed in BENCH_plan.json.
    let Json::Obj(plan) =
        Json::parse(include_str!("../../../BENCH_plan.json")).expect("BENCH_plan.json parses")
    else {
        panic!("BENCH_plan.json is an object");
    };
    let (_, template) = plan
        .iter()
        .find(|(key, _)| key == "template")
        .expect("BENCH_plan.json has a template");
    let spec = ScenarioSpec::from_json(template).expect("the template loads");
    assert_eq!(spec.to_json().pretty(), template.pretty());
}

#[test]
fn out_of_range_integers_are_rejected_not_truncated() {
    // Narrowing with `as` loaded heavy_pct 300 as 44, a valid share, and
    // min_steps 2^32 + 2 as 2.
    let sessions = ScenarioSpec {
        traffic: TrafficModel::Sessions {
            profile: SessionProfile::standard(),
        },
        ..ScenarioSpec::default()
    };
    let decode = ScenarioSpec {
        traffic: TrafficModel::Mix {
            mix: RequestMix::Interactive,
            decode: Some(DecodeMix {
                min_steps: 2,
                max_steps: 6,
                exit_prob: 0.2,
            }),
        },
        ..ScenarioSpec::default()
    };
    for (spec, from, to, path) in [
        (
            sessions,
            "\"heavy_pct\": 10",
            "\"heavy_pct\": 300",
            "spec.traffic.heavy_pct",
        ),
        (
            decode,
            "\"min_steps\": 2",
            "\"min_steps\": 4294967298",
            "spec.traffic.decode.min_steps",
        ),
    ] {
        let text = spec.to_json().pretty();
        assert!(text.contains(from), "{text}");
        let json = Json::parse(&text.replace(from, to)).expect("the edited spec parses");
        let err = ScenarioSpec::from_json(&json).expect_err(to);
        assert!(err.contains(path), "{to}: {err}");
    }
}

#[test]
fn each_arrival_kind_encodes_the_name_its_reports_use() {
    // Report labels come from `ArrivalProcess::name()` and the spec's JSON
    // `kind` from the codec's declaration: a rename in one place alone
    // would split the two.
    for arrivals in [
        ArrivalProcess::poisson(2.0),
        ArrivalProcess::bursty(2.0),
        ArrivalProcess::diurnal(1.0, 4.0),
        ArrivalProcess::flash_crowd(1.0, 8.0, 0.2, 0.3),
    ] {
        let Json::Obj(pairs) = arrivals.encode() else {
            panic!("{arrivals:?} encodes to an object");
        };
        let kind = pairs.iter().find(|(key, _)| key == "kind").map(|(_, v)| v);
        assert_eq!(kind, Some(&Json::Str(arrivals.name().to_string())));
    }
}

#[test]
fn an_overflowing_diurnal_clock_ends_the_trace_instead_of_hanging() {
    // Past the largest `f64` the thinning rate is NaN, which rejected every
    // candidate forever; a worker thread lets a hang fail this test alone.
    let arrivals = ArrivalProcess::diurnal(1e-307, 1e-307);
    let (done, result) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let times = arrivals.times(50, 0);
        let spec = ScenarioSpec {
            arrivals,
            requests: 50,
            ..ScenarioSpec::default()
        };
        let _ = done.send((times, spec.run().map(|report| report.offered)));
    });
    let (times, run) = result
        .recv_timeout(Duration::from_secs(5))
        .expect("diurnal arrivals return within 5 s");
    worker.join().expect("the worker finishes once it has sent");
    assert!(times.last().is_some_and(|t| t.is_infinite()), "{times:?}");
    let err = run.expect_err("the spec's arrival clock overflows");
    assert!(err.contains("non-finite"), "{err}");
}

#[test]
fn arrival_processes_that_would_never_return_are_rejected() {
    // `bursty(1e-307)` flips phases ~10³⁰⁰ times per arrival, and once a
    // 10⁷× flash crowd decays its thinning keeps one draw in 10⁷: both
    // fail `validate()` before a generator runs. A worker thread lets a
    // hang fail this test alone.
    for (arrivals, rule) in [
        (ArrivalProcess::bursty(1e-307), "bursty cycle must expect"),
        (
            ArrivalProcess::flash_crowd(1e-6, 10.0, 0.0, 1.0),
            "peak_rate must be at most",
        ),
    ] {
        let (done, result) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let spec = ScenarioSpec {
                arrivals,
                requests: 50,
                ..ScenarioSpec::default()
            };
            let _ = done.send((arrivals.validate(), spec.run().map(|report| report.offered)));
        });
        let (validated, run) = result
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{arrivals:?} returns within 5 s"));
        worker.join().expect("the worker finishes once it has sent");
        let err = validated.expect_err("the process breaks an arrival rule");
        assert!(err.contains(rule), "{err}");
        assert_eq!(run.expect_err("the spec is invalid"), err);
    }
}

#[test]
fn docs_name_every_key_and_value_of_the_spec_format() {
    // Every key and named value the writer emits (a spec's free-form
    // `name` aside) appears as a whole word in the docs' field table.
    fn names(json: &Json, out: &mut BTreeSet<String>) {
        match json {
            Json::Obj(pairs) => {
                for (key, value) in pairs {
                    out.insert(key.clone());
                    if key != "name" {
                        names(value, out);
                    }
                }
            }
            Json::Arr(items) => items.iter().for_each(|item| names(item, out)),
            Json::Str(s) => {
                out.insert(s.clone());
            }
            _ => {}
        }
    }
    let docs = include_str!("../../../docs/serving.md");
    let (_, section) = docs
        .split_once("### `ScenarioSpec` fields")
        .expect("docs/serving.md has a ScenarioSpec fields section");
    let section = section.split("\n#").next().unwrap_or(section);
    let words: HashSet<&str> = section
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
        .collect();
    let mut used = BTreeSet::new();
    names(
        &Json::parse(FIXTURE).expect("the fixture parses"),
        &mut used,
    );
    let missing: Vec<&String> = used
        .iter()
        .filter(|name| !words.contains(name.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "docs/serving.md's ScenarioSpec fields section never names {missing:?}"
    );
}
