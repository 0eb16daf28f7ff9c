//! Property tests for the declarative scenario DSL: any valid
//! [`ScenarioSpec`] round-trips exactly through its JSON text, `run()`
//! is byte-deterministic across double runs, and invalid specs come
//! back as diagnostics, never panics.

use proptest::prelude::*;
use swat_serve::arrival::ArrivalProcess;
use swat_serve::fault::FaultPlan;
use swat_serve::fleet::FleetConfig;
use swat_serve::json::Json;
use swat_serve::policy::LeastLoaded;
use swat_serve::scale::{Autoscaler, AutoscalerConfig};
use swat_serve::scenario::{
    CardDesign, CardGroupSpec, FaultKindSpec, FaultSpec, FleetSpec, MemorySpec, PolicySpec,
    PreemptionSpec, ScenarioSpec, TrafficModel,
};
use swat_serve::session::SessionTraffic;
use swat_serve::sim::{
    AdmissionControl, DecodeBatching, PreemptionControl, Simulation, TrafficSpec,
};
use swat_workloads::{DecodeMix, RequestMix, SessionProfile};

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
    let cases: [(&str, Builder, ScenarioSpec); 7] = [
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
