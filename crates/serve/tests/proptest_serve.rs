//! Property tests for the serving simulator: scheduling invariants,
//! metric ordering, and determinism, across random fleets, traffic and
//! policies.

use proptest::prelude::*;
use swat_serve::arrival::ArrivalProcess;
use swat_serve::cost::CostModel;
use swat_serve::event::{PriorityQueue, QueueView};
use swat_serve::fault::FaultPlan;
use swat_serve::fleet::{CardGroup, FleetConfig};
use swat_serve::metrics::percentile;
use swat_serve::policy::SessionAffinity;
use swat_serve::policy::{
    shard_targets, CardView, DispatchPolicy, Fifo, HeadAffinity, LeastLoaded, ShortestJobFirst,
};
use swat_serve::scale::AutoscalerConfig;
use swat_serve::sim::{
    AdmissionControl, DecodeBatching, PreemptionControl, Simulation, TrafficSpec,
};
use swat_serve::trace::{ChromeTraceSink, RecordingSink, TelemetryMode, TraceEvent};
use swat_workloads::{DecodeMix, RequestClass, RequestMix, RequestShape};

/// A random heterogeneous fleet: an FP16 dual-pipeline group next to an
/// FP32 single-pipeline group (either may dominate, but never both empty).
fn any_mixed_fleet() -> impl Strategy<Value = FleetConfig> {
    (0usize..3, 0usize..3).prop_map(|(fp16, fp32)| {
        let mut cfg = FleetConfig::mixed_precision(1, 1);
        // At least one card overall; either group may be empty.
        cfg.groups[0].count = if fp16 + fp32 == 0 { 1 } else { fp16 };
        cfg.groups[1].count = fp32;
        cfg
    })
}

fn any_shape() -> impl Strategy<Value = RequestShape> {
    (
        512usize..16385,
        prop_oneof![Just(8usize), Just(12), Just(16)],
        prop_oneof![Just(6usize), Just(12), Just(24)],
        1usize..9,
    )
        .prop_map(|(seq_len, heads, layers, batch)| RequestShape {
            seq_len,
            heads,
            layers,
            batch,
        })
}

fn any_policy() -> impl Strategy<Value = usize> {
    0usize..4
}

fn policy_by_index(i: usize) -> Box<dyn DispatchPolicy> {
    match i {
        0 => Box::new(Fifo),
        1 => Box::new(LeastLoaded::default()),
        2 => Box::new(ShortestJobFirst::default()),
        _ => Box::new(HeadAffinity),
    }
}

/// One shard's hold on a pipeline lane, read from a recorded run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    card: usize,
    pipeline: usize,
    start: f64,
    end: f64,
    jobs: usize,
}

/// Every shard's [`Span`] in a recorded run: a shard holds its
/// `(card, pipeline)` lane from its `ShardStart` until its `ShardFinish`,
/// its `Preempted` eviction, or its card's `CardDeath`. Panics if a shard
/// is closed twice or never.
fn shard_spans(events: &[TraceEvent]) -> Vec<Span> {
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
                let span = Span {
                    card,
                    pipeline,
                    start: t,
                    end: t,
                    jobs,
                };
                assert!(
                    open.insert((id, shard), span).is_none(),
                    "shard {id}/{shard} started twice"
                );
            }
            TraceEvent::ShardFinish { t, id, shard, .. }
            | TraceEvent::Preempted {
                t,
                victim: id,
                shard,
                ..
            } => {
                let span = open
                    .remove(&(id, shard))
                    .expect("only a started shard ends");
                spans.push(Span { end: t, ..span });
            }
            TraceEvent::CardDeath { t, card, .. } => {
                open.retain(|_, span: &mut Span| {
                    if span.card == card {
                        spans.push(Span { end: t, ..*span });
                    }
                    span.card != card
                });
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "shards never ended: {open:?}");
    spans
}

/// The first pair of spans that overlap on one `(card, pipeline)` lane.
fn lane_overlap(spans: &[Span]) -> Option<(Span, Span)> {
    let mut lanes = spans.to_vec();
    lanes.sort_by(|a, b| {
        (a.card, a.pipeline)
            .cmp(&(b.card, b.pipeline))
            .then(a.start.total_cmp(&b.start))
    });
    lanes
        .windows(2)
        .find(|w| (w[0].card, w[0].pipeline) == (w[1].card, w[1].pipeline) && w[0].end > w[1].start)
        .map(|w| (w[0], w[1]))
}

fn any_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (20.0f64..200.0).prop_map(ArrivalProcess::poisson),
        (10.0f64..100.0).prop_map(ArrivalProcess::bursty),
        (5.0f64..40.0).prop_map(|base| ArrivalProcess::diurnal(base, 4.0 * base)),
    ]
}

fn any_mix() -> impl Strategy<Value = RequestMix> {
    prop_oneof![
        Just(RequestMix::Interactive),
        Just(RequestMix::Production),
        Just(RequestMix::Batch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No two shards ever overlap on one (card, pipeline) lane, under any
    /// policy (whole-request or sharded), fleet size and traffic, and —
    /// with no evictions — the shards carry exactly the trace's jobs.
    #[test]
    fn placements_never_overlap(
        cards in 1usize..5,
        policy_idx in 0usize..5,
        arrivals in any_arrivals(),
        mix in any_mix(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix, seed };
        let requests = spec.requests(60);
        let mut policy: Box<dyn DispatchPolicy> = match policy_idx {
            4 => Box::new(LeastLoaded::new(4)),
            i => policy_by_index(i),
        };
        let mut sink = RecordingSink::new();
        Simulation::new(&FleetConfig::standard(cards))
            .run_traced(&mut *policy, &requests, &mut sink);
        let spans = shard_spans(&sink.events);
        for s in &spans {
            prop_assert!(s.end > s.start, "empty shard {s:?}");
        }
        prop_assert_eq!(lane_overlap(&spans), None);
        let jobs: usize = requests.iter().map(|r| r.shape.jobs()).sum();
        prop_assert_eq!(spans.iter().map(|s| s.jobs).sum::<usize>(), jobs);
    }

    /// The fleet makespan is at least the longest single job anywhere in
    /// the trace, and at least every request's isolated service time.
    #[test]
    fn makespan_dominates_longest_job(
        cards in 1usize..4,
        policy_idx in any_policy(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(80.0),
            mix: RequestMix::Production,
            seed,
        };
        let requests = spec.requests(50);
        let mut policy = policy_by_index(policy_idx);
        let mut sink = RecordingSink::new();
        let report = Simulation::new(&FleetConfig::standard(cards))
            .run_traced(&mut *policy, &requests, &mut sink);
        let longest_shard = shard_spans(&sink.events)
            .iter()
            .map(|s| s.end - s.start)
            .fold(0.0f64, f64::max);
        prop_assert!(
            report.makespan >= longest_shard - 1e-12,
            "makespan {} < longest shard {}", report.makespan, longest_shard
        );
        // Each request's latency covers its own service time.
        let fleet = FleetConfig::standard(cards).build().expect("valid fleet");
        for r in &requests {
            let service = fleet.cards()[0].service_seconds(&r.shape);
            prop_assert!(report.makespan >= service - 1e-12);
        }
    }

    /// Metrics are bitwise identical across repeated runs with one seed,
    /// and the JSON serialization is byte-identical too.
    #[test]
    fn metrics_deterministic_for_fixed_seed(
        cards in 1usize..4,
        policy_idx in any_policy(),
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix: RequestMix::Interactive, seed };
        let requests = spec.requests(80);
        let run = |requests: &[swat_serve::Request]| {
            let mut policy = policy_by_index(policy_idx);
            Simulation::new(&FleetConfig::standard(cards)).run(&mut *policy, requests)
        };
        let a = run(&requests);
        let b = run(&requests);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    /// Percentiles are ordered: p99 ≥ p95 ≥ p50 in every report, and the
    /// raw percentile helper is monotone in the quantile.
    #[test]
    fn percentiles_are_ordered(
        cards in 1usize..4,
        policy_idx in any_policy(),
        arrivals in any_arrivals(),
        mix in any_mix(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix, seed };
        let requests = spec.requests(70);
        let mut policy = policy_by_index(policy_idx);
        let report = Simulation::new(&FleetConfig::standard(cards)).run(&mut *policy, &requests);
        let l = report.latency.expect("every request completed");
        prop_assert!(l.p50 <= l.p95, "p50 {} > p95 {}", l.p50, l.p95);
        prop_assert!(l.p95 <= l.p99, "p95 {} > p99 {}", l.p95, l.p99);
        prop_assert!(l.p99 <= l.max, "p99 {} > max {}", l.p99, l.max);
        prop_assert!(l.p50 > 0.0);
    }

    /// The percentile helper is monotone in q for arbitrary samples.
    #[test]
    fn percentile_monotone(samples in proptest::collection::vec(0.0f64..1000.0, 1..64)) {
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let p = percentile(&sorted, q);
            prop_assert!(p >= last, "percentile not monotone at q={q}");
            last = p;
        }
    }

    /// Heterogeneous fleets (mixed FP16/FP32, single/dual pipeline) stay
    /// bitwise deterministic per seed, down to the serialized JSON.
    #[test]
    fn heterogeneous_fleets_deterministic(
        fleet in any_mixed_fleet(),
        policy_idx in any_policy(),
        arrivals in any_arrivals(),
        mix in any_mix(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix, seed };
        let requests = spec.requests(70);
        let run = || {
            let mut policy = policy_by_index(policy_idx);
            Simulation::new(&fleet).run(&mut *policy, &requests)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        // Every card is accounted to exactly one group, in order.
        prop_assert_eq!(a.groups.iter().map(|g| g.cards).sum::<usize>(), a.cards.len());
    }

    /// Within every priority class, percentiles stay ordered:
    /// p99 ≥ p95 ≥ p50.
    #[test]
    fn per_class_percentiles_are_ordered(
        cards in 1usize..4,
        policy_idx in any_policy(),
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        // The production blend is the one mix that emits all three classes.
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = spec.requests(80);
        let mut policy = policy_by_index(policy_idx);
        let report = Simulation::new(&FleetConfig::standard(cards)).run(&mut *policy, &requests);
        prop_assert!(!report.classes.is_empty());
        for class in &report.classes {
            prop_assert_eq!(class.offered, class.completed + class.rejected);
            let Some(l) = class.latency else { continue };
            prop_assert!(l.p50 <= l.p95, "{:?}: p50 {} > p95 {}", class.class, l.p50, l.p95);
            prop_assert!(l.p95 <= l.p99, "{:?}: p95 {} > p99 {}", class.class, l.p95, l.p99);
            prop_assert!(l.p99 <= l.max, "{:?}: p99 {} > max {}", class.class, l.p99, l.max);
        }
    }

    /// An FP16 card's estimated service time never exceeds its FP32
    /// twin's for the same shape — neither the calibrated per-token
    /// estimate nor the exact timing-model service time.
    #[test]
    fn fp16_never_slower_than_fp32_twin(shape in any_shape()) {
        let fleet = FleetConfig {
            groups: vec![
                CardGroup::new(1, swat::SwatConfig::bigbird_fp16(), swat_hw::MemoryInterface::hbm2()),
                CardGroup::new(
                    1,
                    swat::SwatConfig {
                        precision: swat::config::Precision::Fp32,
                        ..swat::SwatConfig::bigbird_fp16()
                    },
                    swat_hw::MemoryInterface::hbm2(),
                ),
            ],
            host_link: swat_hw::MemoryInterface::pcie4_x16(),
        }
        .build()
        .expect("twin fleet builds");
        let fp16 = &fleet.cards()[0];
        let fp32 = &fleet.cards()[1];
        prop_assert!(
            fp16.service_seconds(&shape) <= fp32.service_seconds(&shape),
            "shape {:?}: fp16 {} > fp32 {}",
            shape, fp16.service_seconds(&shape), fp32.service_seconds(&shape)
        );
        prop_assert!(fp16.seconds_per_token() <= fp32.seconds_per_token());
    }

    /// Preemption never starves background work forever: whatever the
    /// traffic, fleet, patience threshold and policy, every admitted
    /// background request eventually completes (checkpoint-and-requeue
    /// defers it, it never drops it), and every preemption in the log
    /// names a background victim and an interactive beneficiary.
    #[test]
    fn preemption_never_starves_background(
        cards in 1usize..4,
        policy_idx in any_policy(),
        threshold in 0.02f64..0.5,
        base_rate in 1.0f64..8.0,
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::bursty(base_rate),
            mix: RequestMix::Production,
            seed,
        };
        let requests = spec.requests(80);
        let mut policy = policy_by_index(policy_idx);
        let report = Simulation::new(&FleetConfig::standard(cards))
            .preemption(PreemptionControl::after_wait(threshold))
            .run(&mut *policy, &requests);
        // Everything offered completes — preempted work resumes and
        // drains, no matter how often it was evicted.
        prop_assert_eq!(report.completed, requests.len());
        prop_assert_eq!(report.rejected, 0);
        for class in &report.classes {
            prop_assert_eq!(class.completed, class.offered, "{:?}", class.class);
        }
        let class_of = |id: u64| requests.iter().find(|r| r.id == id).map(|r| r.class);
        for p in &report.preemptions {
            prop_assert_eq!(class_of(p.preempted), Some(RequestClass::Background));
            prop_assert_eq!(class_of(p.waiting), Some(RequestClass::Interactive));
            prop_assert!(p.card < report.cards.len());
        }
        // Per-card preemption counters agree with the log.
        let on_cards: u64 = report.cards.iter().map(|c| c.preempted).sum();
        prop_assert_eq!(on_cards as usize, report.preemptions.len());
    }

    /// Autoscaled runs are bitwise seed-deterministic, down to the JSON,
    /// across random control laws, fleets, traffic and policies — the
    /// controller adds no hidden ordering dependence.
    #[test]
    fn autoscaled_runs_seed_deterministic(
        cards in 1usize..5,
        min_cards in 1usize..3,
        up_per_card in 1usize..8,
        warmup in 0.0f64..4.0,
        policy_idx in any_policy(),
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        let cfg = AutoscalerConfig {
            min_cards,
            up_queue_per_card: up_per_card,
            down_idle_s: 0.5,
            warmup_s: warmup,
        };
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = spec.requests(70);
        let fleet = FleetConfig::standard(cards);
        let run = || {
            let mut policy = policy_by_index(policy_idx);
            Simulation::new(&fleet).autoscale(cfg).run(&mut *policy, &requests)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    /// Scaled-down fleets never report negative idle energy or negative
    /// powered time, on any card, and the fleet total matches the sum.
    #[test]
    fn idle_energy_never_negative(
        cards in 1usize..5,
        min_cards in 1usize..3,
        down_idle in 0.0f64..2.0,
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        let cfg = AutoscalerConfig {
            min_cards,
            up_queue_per_card: 4,
            down_idle_s: down_idle,
            warmup_s: 1.0,
        };
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = spec.requests(60);
        let report = Simulation::new(&FleetConfig::standard(cards))
            .autoscale(cfg)
            .run(&mut LeastLoaded::default(), &requests);
        let mut total = 0.0;
        for c in &report.cards {
            prop_assert!(c.powered_seconds >= 0.0, "card {} powered {}", c.card, c.powered_seconds);
            prop_assert!(c.idle_energy_joules >= 0.0, "card {} idle {}", c.card, c.idle_energy_joules);
            total += c.idle_energy_joules;
        }
        prop_assert!((report.idle_energy_joules - total).abs() < 1e-9);
        prop_assert!(report.total_energy_joules() >= report.energy_joules);
    }

    /// Every numeric field of the serialized report stays finite under
    /// arbitrary per-class admission budgets — including caps of zero
    /// that shed a class (or the whole trace) outright — and on runs as
    /// small as a single request. `Json::Num` panics on a non-finite
    /// value at write time, so a successful `pretty()` plus a scan for
    /// stray NaN/Infinity tokens is a full audit of the report.
    #[test]
    fn reports_stay_finite_under_arbitrary_admission_caps(
        cards in 1usize..4,
        // Values past 11 mean "uncapped" (the vendored proptest stub has
        // no Option strategy); 0 sheds the class outright.
        caps in proptest::collection::vec(0usize..16, 3),
        n in 1usize..40,
        policy_idx in any_policy(),
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        let mut admission = AdmissionControl::admit_all();
        for (class, &cap) in RequestClass::ALL.iter().zip(&caps) {
            if cap < 12 {
                admission = admission.with_cap(*class, cap);
            }
        }
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = spec.requests(n);
        let mut policy = policy_by_index(policy_idx);
        let report = Simulation::new(&FleetConfig::standard(cards))
            .admission(admission)
            .run(&mut *policy, &requests);
        prop_assert_eq!(report.completed + report.rejected, n);
        prop_assert!(report.slo_attainment().is_finite());
        prop_assert!((0.0..=1.0).contains(&report.slo_attainment()));
        prop_assert!(report.throughput_rps.is_finite());
        prop_assert!(report.makespan.is_finite() && report.makespan >= 0.0);
        prop_assert!(report.fleet_utilization().is_finite());
        let json = report.to_json().pretty();
        prop_assert!(!json.contains("NaN") && !json.contains("Infinity") && !json.contains("inf"),
            "non-finite token leaked into the JSON");
    }

    /// Sharded runs are bitwise seed-deterministic, down to the JSON,
    /// across fan-out widths, fleets, traffic and both split-aware
    /// policies — in both the adaptive-width and fixed-width modes.
    #[test]
    fn sharded_runs_seed_deterministic(
        cards in 1usize..4,
        max_shards in 1usize..6,
        sjf in any::<bool>(),
        adaptive in any::<bool>(),
        arrivals in any_arrivals(),
        mix in any_mix(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix, seed };
        let requests = spec.requests(70);
        let fleet = FleetConfig::standard(cards);
        let run = || {
            let mut policy: Box<dyn DispatchPolicy> = match (sjf, adaptive) {
                (true, true) => Box::new(ShortestJobFirst::new(max_shards)),
                (true, false) => Box::new(ShortestJobFirst::fixed(max_shards)),
                (false, true) => Box::new(LeastLoaded::new(max_shards)),
                (false, false) => Box::new(LeastLoaded::fixed(max_shards)),
            };
            Simulation::new(&fleet).run(&mut *policy, &requests)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        prop_assert!(a.max_shards <= max_shards.max(1));
        // The planner audit: every multi-shard plan was realized at
        // exactly its predicted fan-in (shared cost model, no drift).
        if let Some(p) = a.cost_prediction {
            prop_assert!(p.plans > 0);
            prop_assert!(p.max_error_s.abs() < 1e-9, "prediction error {p:?}");
        }
    }

    /// The cost model's predicted fan-in time for a plan on an idle
    /// fleet is never below the realized completion time and matches it
    /// to float noise, across random shapes, widths and heterogeneous
    /// groups: prediction and admission share one implementation, so on
    /// idle pipelines they are the same arithmetic.
    #[test]
    fn cost_model_prediction_matches_idle_fleet_fan_in(
        shape in any_shape(),
        fleet_cfg in any_mixed_fleet(),
        width in 1usize..6,
    ) {
        let fleet = fleet_cfg.build().expect("fleet builds");
        let cost = CostModel::for_fleet(&fleet);
        // The idle-fleet view the policy would see at t = 0.
        let views: Vec<CardView> = fleet
            .cards()
            .iter()
            .enumerate()
            .map(|(i, c)| CardView {
                card: i,
                group: c.group(),
                pipelines: c.pipelines(),
                idle_pipelines: c.pipelines(),
                backlog_seconds: 0.0,
                served: 0,
                seconds_per_token: c.seconds_per_token(),
                resident: None,
            })
            .collect();
        let request = swat_serve::Request::new(0, 0.0, shape);
        let plan = shard_targets(&views, &shape, width).expect("idle fleet has a plan");
        let predicted = cost.price_plan(&request, &plan, &views, 0.0);
        prop_assert!(predicted.width == plan.len().min(shape.jobs()));
        // Realize the same plan: the fixed-width policy reproduces the
        // shard_targets fill on the same idle views.
        let report = Simulation::new(&fleet_cfg)
            .run(&mut LeastLoaded::fixed(width), &[request]);
        let realized = report.latency.expect("the request completed").max;
        prop_assert!(
            predicted.fan_in >= realized - 1e-12,
            "prediction {} below realized {}", predicted.fan_in, realized
        );
        prop_assert!(
            predicted.fan_in <= realized * (1.0 + 1e-9) + 1e-12,
            "prediction {} above realized {}", predicted.fan_in, realized
        );
        // The plan never consumes more pipeline-seconds than serial
        // service plus its stalls would.
        prop_assert!(predicted.busy_seconds > 0.0);
    }

    /// On an otherwise idle fleet, splitting a request across pipelines
    /// never makes it slower than its whole-request twin: each shard
    /// carries a subset of the jobs, so the slowest shard still beats
    /// the serial chain. (Arrivals are spaced far apart so every request
    /// finds the fleet fully drained.)
    #[test]
    fn sharded_never_slower_on_idle_fleet(
        shape in any_shape(),
        cards in 1usize..3,
        max_shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(50.0),
            mix: RequestMix::Production,
            seed,
        };
        // One request per run keeps residency state identical between
        // the twins; the arbitrary shape exercises odd grid splits.
        let template = spec.requests(1)[0];
        let requests = vec![swat_serve::Request::classed(
            0,
            template.arrival,
            shape,
            template.class,
        )];
        let fleet = FleetConfig::standard(cards);
        let whole = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
        let mut sink = RecordingSink::new();
        let sharded_report = Simulation::new(&fleet)
            .run_traced(&mut LeastLoaded::new(max_shards), &requests, &mut sink);
        let w = whole.latency.expect("completed").max;
        let s = sharded_report.latency.expect("completed").max;
        prop_assert!(
            s <= w + 1e-9,
            "sharded latency {s} exceeds whole-request {w} (max_shards {max_shards})"
        );
        // Fan-out places every job exactly once, one shard per lane.
        let spans = shard_spans(&sink.events);
        prop_assert_eq!(spans.iter().map(|s| s.jobs).sum::<usize>(), shape.jobs());
        prop_assert!(spans.len() <= max_shards);
        prop_assert_eq!(lane_overlap(&spans), None);
        prop_assert!(sharded_report.max_shards <= max_shards);
    }

    /// Preempting shards never loses or duplicates work: under sharded
    /// dispatch with aggressive preemption, every offered request still
    /// completes exactly once, and the preemption log stays consistent
    /// (background victims, interactive beneficiaries, per-card counters
    /// matching).
    #[test]
    fn sharded_preemption_conserves_jobs(
        cards in 1usize..4,
        max_shards in 2usize..6,
        threshold in 0.02f64..0.3,
        base_rate in 1.0f64..8.0,
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::bursty(base_rate),
            mix: RequestMix::Production,
            seed,
        };
        let requests = spec.requests(80);
        let mut policy = LeastLoaded::new(max_shards);
        let report = Simulation::new(&FleetConfig::standard(cards))
            .preemption(PreemptionControl::after_wait(threshold))
            .run(&mut policy, &requests);
        prop_assert_eq!(report.completed, requests.len());
        prop_assert_eq!(report.rejected, 0);
        for class in &report.classes {
            prop_assert_eq!(class.completed, class.offered, "{:?}", class.class);
        }
        let class_of = |id: u64| requests.iter().find(|r| r.id == id).map(|r| r.class);
        for p in &report.preemptions {
            prop_assert_eq!(class_of(p.preempted), Some(RequestClass::Background));
            prop_assert_eq!(class_of(p.waiting), Some(RequestClass::Interactive));
        }
        let on_cards: u64 = report.cards.iter().map(|c| c.preempted).sum();
        prop_assert_eq!(on_cards as usize, report.preemptions.len());
    }

    /// Observation is free of side effects: the same run with a recording
    /// sink (or a Chrome-trace sink) attached produces a bitwise-identical
    /// report, down to the serialized JSON, under the full elastic stack
    /// (admission budgets, preemption, autoscaling, sharded dispatch) —
    /// and the stream the sink captured is self-consistent.
    #[test]
    fn trace_sink_never_perturbs_the_simulation(
        cards in 1usize..4,
        max_shards in 1usize..5,
        threshold in 0.02f64..0.3,
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = spec.requests(70);
        let fleet = FleetConfig::standard(cards);
        let sim = || {
            Simulation::new(&fleet)
                .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 24))
                .preemption(PreemptionControl::after_wait(threshold))
                .autoscale(AutoscalerConfig::standard().with_min_cards(1))
        };
        let plain = sim().run(&mut LeastLoaded::new(max_shards), &requests);
        let mut recorder = RecordingSink::new();
        let recorded = sim().run_traced(
            &mut LeastLoaded::new(max_shards),
            &requests,
            &mut recorder,
        );
        prop_assert_eq!(&plain, &recorded);
        prop_assert_eq!(plain.to_json().pretty(), recorded.to_json().pretty());
        // A Chrome sink is just another observer of the same stream.
        let mut chrome = ChromeTraceSink::new(&fleet);
        let exported = sim().run_traced(
            &mut LeastLoaded::new(max_shards),
            &requests,
            &mut chrome,
        );
        prop_assert_eq!(&plain, &exported);
        prop_assert_eq!(chrome.open_spans(), 0);
        // The recorded stream accounts for every request exactly once:
        // arrivals match the trace, fan-ins match completions, sheds
        // match rejections, preemption instants match the log.
        let count = |f: &dyn Fn(&TraceEvent) -> bool| recorder.events.iter().filter(|e| f(e)).count();
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::Arrival { .. })), requests.len());
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::FanIn { .. })), plain.completed);
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::Shed { .. })), plain.rejected);
        prop_assert_eq!(
            count(&|e| matches!(e, TraceEvent::Preempted { .. })),
            plain.preemptions.len()
        );
        prop_assert_eq!(count(&|e| matches!(e, TraceEvent::Scaled { .. })), plain.scaling.len());
        // Starts exceed finishes by exactly the evicted shards.
        let starts = count(&|e| matches!(e, TraceEvent::ShardStart { .. }));
        let finishes = count(&|e| matches!(e, TraceEvent::ShardFinish { .. }));
        prop_assert_eq!(
            starts,
            finishes + plain.preemptions.len(),
            "every started shard either finishes or is evicted"
        );
    }

    /// Streaming telemetry never changes the schedule: completion,
    /// rejection, failure, preemption, scaling, energy and makespan are
    /// bitwise identical to the exact-mode run, and so are the kernel's
    /// counters, every class row's and the decode block's accounting —
    /// only the latency percentiles are estimated, and every one of them
    /// (overall, per class and in the decode block) stays within the
    /// histogram's documented bound of exact mode's. Faults range over
    /// none, a seeded storm (every death there is later revived) and a
    /// fleet-wide death mid-trace, which strands the queue as `failed`;
    /// traffic over one-shot requests and 2–4-step decode plans with and
    /// without early exit.
    #[test]
    fn streaming_mode_preserves_the_schedule(
        cards in 1usize..4,
        policy_idx in any_policy(),
        arrivals in any_arrivals(),
        faults in 0usize..3,
        decode in 0usize..3,
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = match decode {
            0 => spec.requests(80),
            exits => spec.decode_requests(80, &DecodeMix {
                min_steps: 2,
                max_steps: 4,
                exit_prob: if exits == 1 { 0.0 } else { 0.2 },
            }),
        };
        let fleet = FleetConfig::standard(cards);
        let span = requests[79].arrival - requests[0].arrival;
        let plan = match faults {
            0 => FaultPlan::none(),
            1 => FaultPlan::storm(seed ^ 0x5743_0000, cards, requests[0].arrival + span.max(0.1), 6),
            _ => (0..cards).fold(FaultPlan::none(), |p, c| p.kill(requests[40].arrival, c)),
        };
        let run = |mode: TelemetryMode| {
            let mut policy = policy_by_index(policy_idx);
            Simulation::new(&fleet)
                .faults(plan.clone())
                .telemetry(mode)
                .run_profiled(&mut *policy, &requests)
        };
        let (exact, exact_counters) = run(TelemetryMode::Exact);
        let (streaming, streaming_counters) = run(TelemetryMode::Streaming);
        prop_assert_eq!(exact_counters, streaming_counters);
        prop_assert_eq!(exact.offered, streaming.offered);
        prop_assert_eq!(exact.completed, streaming.completed);
        prop_assert_eq!(exact.rejected, streaming.rejected);
        prop_assert_eq!(exact.failed, streaming.failed);
        prop_assert_eq!(exact.slo_violations, streaming.slo_violations);
        let rows = |r: &swat_serve::ServeReport| -> Vec<_> {
            r.classes
                .iter()
                .map(|c| (c.class, c.offered, c.completed, c.rejected, c.slo_violations))
                .collect()
        };
        prop_assert_eq!(rows(&exact), rows(&streaming));
        prop_assert_eq!(&exact.preemptions, &streaming.preemptions);
        prop_assert_eq!(&exact.scaling, &streaming.scaling);
        prop_assert_eq!(&exact.cards, &streaming.cards);
        prop_assert_eq!(exact.makespan, streaming.makespan);
        prop_assert_eq!(exact.energy_joules, streaming.energy_joules);
        prop_assert_eq!(&exact.shard_widths, &streaming.shard_widths);
        // Streaming runs attach the bounded telemetry histogram; exact
        // runs never do.
        prop_assert!(exact.telemetry.is_none());
        prop_assert!(streaming.telemetry.is_some());
        prop_assert_eq!(
            exact.latency.map(|l| l.max),
            streaming.latency.map(|l| l.max),
            "max is tracked exactly in both modes"
        );
        // Every streaming distribution is present exactly when its exact
        // twin is, ordered, and within the bound of it.
        let mut pairs = vec![(exact.latency, streaming.latency)];
        for (e, s) in exact.classes.iter().zip(&streaming.classes) {
            pairs.push((e.latency, s.latency));
        }
        // Decode counts are exact in both modes; its distributions are
        // histograms. Sessions stay exact-only.
        prop_assert_eq!(exact.decode.is_some(), streaming.decode.is_some());
        prop_assert_eq!(exact.decode.is_some(), decode > 0 && exact.completed > 0);
        if let (Some(de), Some(ds)) = (&exact.decode, &streaming.decode) {
            prop_assert_eq!(de.decode_requests, ds.decode_requests);
            prop_assert_eq!(de.steps_completed, ds.steps_completed);
            prop_assert_eq!(&de.steps_histogram, &ds.steps_histogram);
            prop_assert_eq!(de.early_exits, ds.early_exits);
            pairs.extend([
                (de.ttft, ds.ttft),
                (de.step_interval, ds.step_interval),
                (de.total_latency, ds.total_latency),
            ]);
        }
        for (e, s) in pairs {
            prop_assert_eq!(e.is_some(), s.is_some());
            if let (Some(e), Some(s)) = (e, s) {
                prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
                for (exact, estimate) in [(e.p50, s.p50), (e.p95, s.p95), (e.p99, s.p99)] {
                    prop_assert!(
                        within_histogram_bound(exact, estimate),
                        "estimate {} vs exact {}", estimate, exact
                    );
                }
            }
        }
        prop_assert!(streaming.sessions.is_none());
    }

    /// Work conservation: the pipeline-seconds the shards held equal the
    /// busy time the cards account, every request is served once, and
    /// utilization never exceeds 1.
    #[test]
    fn work_is_conserved(cards in 1usize..4, seed in any::<u64>()) {
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(60.0),
            mix: RequestMix::Interactive,
            seed,
        };
        let requests = spec.requests(60);
        let mut sink = RecordingSink::new();
        let report = Simulation::new(&FleetConfig::standard(cards))
            .run_traced(&mut LeastLoaded::default(), &requests, &mut sink);
        for c in &report.cards {
            prop_assert!(c.utilization >= 0.0 && c.utilization <= 1.0 + 1e-12,
                "utilization {}", c.utilization);
        }
        let held: f64 = shard_spans(&sink.events).iter().map(|s| s.end - s.start).sum();
        // Utilization is busy / (makespan × pipelines); standard cards
        // are dual-pipeline.
        let busy: f64 = report.cards.iter().map(|c| c.utilization * report.makespan * 2.0).sum();
        prop_assert!(held > 0.0);
        prop_assert!((held - busy).abs() <= 1e-9 * held, "held {held} vs busy {busy}");
        let served: u64 = report.cards.iter().map(|c| c.served).sum();
        prop_assert_eq!(served as usize, requests.len());
    }

    /// The arena-backed kernel is bitwise deterministic under the full
    /// feature stack at once — admission shedding, checkpoint-and-requeue
    /// preemption, the autoscaler, and adaptive sharded dispatch. Two runs
    /// of the same sealed inputs agree on every recorded field and every
    /// JSON byte, and the profiled runner (whose debug build also
    /// cross-checks the incremental card views against full recomputes)
    /// reproduces the plain runner's report exactly.
    #[test]
    fn arena_kernel_is_bitwise_deterministic(
        cards in 1usize..4,
        max_shards in 1usize..5,
        threshold in 0.02f64..0.3,
        arrivals in any_arrivals(),
        mix in any_mix(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix, seed };
        let requests = spec.requests(80);
        let fleet = FleetConfig::standard(cards);
        let sim = || {
            Simulation::new(&fleet)
                .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 24))
                .preemption(PreemptionControl::after_wait(threshold))
                .autoscale(AutoscalerConfig::standard().with_min_cards(1))
        };
        let first = sim().run(&mut LeastLoaded::new(max_shards), &requests);
        let second = sim().run(&mut LeastLoaded::new(max_shards), &requests);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first.to_json().pretty(), second.to_json().pretty());
        let (profiled, counters) =
            sim().run_profiled(&mut LeastLoaded::new(max_shards), &requests);
        prop_assert_eq!(&first, &profiled);
        // Every request arrives exactly once, whatever else happens to it.
        prop_assert!(counters.events_total() >= requests.len() as u64);
        // The drained kernel accounts for every request: shed at arrival
        // or completed, with nothing stranded in the arena.
        prop_assert_eq!(first.completed + first.rejected, requests.len());
    }

    /// The decode-loop invariant: one-step plans with early exit disabled
    /// reduce **bitwise** to the one-shot kernel. The decode run's JSON
    /// is byte-identical to the plain run's, the trace stream carries no
    /// step events, the report attaches no decode block, and the batching
    /// mode is inert — whole-job and continuous agree exactly on one-shot
    /// traffic.
    #[test]
    fn one_step_decode_reduces_bitwise_to_one_shot(
        cards in 1usize..4,
        max_shards in 1usize..5,
        threshold in 0.02f64..0.3,
        arrivals in any_arrivals(),
        mix in any_mix(),
        seed in any::<u64>(),
    ) {
        let spec = TrafficSpec { arrivals, mix, seed };
        let plain = spec.requests(70);
        // Same base traffic — the plans ride a decorrelated substream, so
        // arrival times, shapes and classes are untouched.
        let decoded = spec.decode_requests(70, &DecodeMix::one_shot());
        let fleet = FleetConfig::standard(cards);
        let sim = |batching| {
            Simulation::new(&fleet)
                .preemption(PreemptionControl::after_wait(threshold))
                .decode_batching(batching)
        };
        let base = sim(DecodeBatching::Continuous)
            .run(&mut ShortestJobFirst::new(max_shards), &plain);
        let mut recorder = RecordingSink::new();
        let one_step = sim(DecodeBatching::Continuous).run_traced(
            &mut ShortestJobFirst::new(max_shards),
            &decoded,
            &mut recorder,
        );
        prop_assert_eq!(base.to_json().pretty(), one_step.to_json().pretty());
        prop_assert!(one_step.decode.is_none(), "one-shot runs carry no decode block");
        prop_assert!(!one_step.to_json().pretty().contains("\"decode\""));
        prop_assert_eq!(
            recorder.events.iter()
                .filter(|e| matches!(e, TraceEvent::StepComplete { .. }))
                .count(),
            0,
            "one-step plans never cross a step boundary"
        );
        let whole = sim(DecodeBatching::WholeJob)
            .run(&mut ShortestJobFirst::new(max_shards), &decoded);
        prop_assert_eq!(&one_step, &whole);
        prop_assert_eq!(one_step.to_json().pretty(), whole.to_json().pretty());
    }

    /// Decode runs stay bitwise seed-deterministic under the full elastic
    /// stack at once — admission budgets, checkpoint-and-requeue
    /// preemption, the autoscaler, a seeded fault storm and session
    /// affinity — in both step-batching modes, across random step ranges
    /// and early-exit probabilities.
    #[test]
    fn decode_runs_seed_deterministic_under_full_stack(
        cards in 2usize..5,
        min_steps in 1u32..4,
        extra_steps in 0u32..4,
        exit_prob in 0.0f64..0.9,
        whole_job in any::<bool>(),
        threshold in 0.02f64..0.3,
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        let plans = DecodeMix {
            min_steps,
            max_steps: min_steps + extra_steps,
            exit_prob,
        };
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = spec.decode_requests(70, &plans);
        let fleet = FleetConfig::standard(cards);
        let batching = if whole_job {
            DecodeBatching::WholeJob
        } else {
            DecodeBatching::Continuous
        };
        let run = || {
            let mut policy = SessionAffinity::new(8);
            Simulation::new(&fleet)
                .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 24))
                .preemption(PreemptionControl::after_wait(threshold))
                .autoscale(AutoscalerConfig::standard().with_min_cards(1))
                .faults(FaultPlan::storm(seed ^ 0x00DE_C0DE, cards, 30.0, 8))
                .decode_batching(batching)
                .run(&mut policy, &requests)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        // The drained kernel still accounts for every request.
        prop_assert_eq!(a.completed + a.rejected, requests.len());
        // Multi-step plans attach the decode block whenever anything
        // completed; pure one-shot mixes never do.
        if min_steps > 1 && a.completed > 0 {
            prop_assert!(a.decode.is_some(), "decode traffic reports a decode block");
        }
        if min_steps == 1 && extra_steps == 0 {
            prop_assert!(a.decode.is_none(), "one-shot traffic stays gated off");
        }
    }
}

/// Whether a streaming percentile is within the log-bucketed
/// histogram's documented bound of the exact one: 2⁻⁷ ≈ 0.78 % relative
/// (half a bucket, each at most 1/64 of its lower edge wide). Dividing
/// by a power of two is exact, so the check adds no rounding of its own.
fn within_histogram_bound(exact: f64, estimate: f64) -> bool {
    (estimate - exact).abs() <= exact / 128.0
}

/// The log-bucketed histograms behind `TelemetryMode::Streaming` track
/// the exact nearest-rank percentiles within their documented bound of
/// 2⁻⁷ relative error, per class and for the multi-class overall
/// mixture alike, on a full-size 10 000-request production run.
#[test]
fn streaming_quantiles_track_exact_within_bounds() {
    let spec = TrafficSpec {
        arrivals: ArrivalProcess::poisson(14.0),
        mix: RequestMix::Production,
        seed: 0x5EED,
    };
    let requests = spec.requests(10_000);
    let fleet = FleetConfig::standard(6);
    let run = |mode: TelemetryMode| {
        Simulation::new(&fleet)
            .telemetry(mode)
            .run(&mut LeastLoaded::default(), &requests)
    };
    let exact = run(TelemetryMode::Exact);
    let streaming = run(TelemetryMode::Streaming);
    assert_eq!(exact.completed, 10_000);
    assert_eq!(streaming.completed, 10_000);

    let within = |label: &str, exact: f64, estimate: f64| {
        assert!(
            within_histogram_bound(exact, estimate),
            "{label}: estimate {estimate} vs exact {exact} — relative error {:.5} \
             exceeds the bound 2^-7",
            (estimate - exact).abs() / exact
        );
    };
    // The overall latency mixes three classes whose scales differ by an
    // order of magnitude; the bound does not depend on the shape.
    let le = exact.latency.expect("exact run completed");
    let ls = streaming.latency.expect("streaming run completed");
    within("p50", le.p50, ls.p50);
    within("p95", le.p95, ls.p95);
    within("p99", le.p99, ls.p99);
    assert_eq!(le.max, ls.max, "the max is tracked exactly");
    assert!(
        (ls.mean - le.mean).abs() <= le.mean * 1e-9,
        "the mean differs only by summation order"
    );

    assert_eq!(exact.classes.len(), 3, "production mix offers all classes");
    for (ce, cs) in exact.classes.iter().zip(&streaming.classes) {
        assert_eq!(ce.class, cs.class);
        assert_eq!(ce.completed, cs.completed);
        let (Some(el), Some(sl)) = (ce.latency, cs.latency) else {
            continue;
        };
        let label = ce.class.name();
        within(&format!("{label} p50"), el.p50, sl.p50);
        within(&format!("{label} p95"), el.p95, sl.p95);
        within(&format!("{label} p99"), el.p99, sl.p99);
    }

    // The attached telemetry histogram covers the whole run in bounded
    // memory: bucket count under the cap, samples matching the kernel's
    // gauge cadence, energy monotone across buckets.
    let telemetry = streaming.telemetry.expect("streaming attaches telemetry");
    let buckets = &telemetry.buckets;
    assert!(!buckets.is_empty() && buckets.len() <= 128);
    assert!(telemetry.bucket_seconds > 0.0);
    let mut last_energy = 0.0;
    for b in buckets {
        assert!(b.samples > 0, "empty buckets are never emitted");
        assert!(b.queue_max as f64 >= b.queue_mean);
        assert!(
            b.energy_joules >= last_energy,
            "cumulative energy decreased: {} then {}",
            last_energy,
            b.energy_joules
        );
        last_energy = b.energy_joules;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The work-indexed SJF pick equals the linear scan over a flat copy
    /// of the same waiting set after every push, take and keyed removal,
    /// across production-mix traffic with random decode plans. Remnants
    /// re-enter one step further on, as the simulator requeues them, and
    /// `exit_prob = 0` makes equal keys common, so the tie-break is
    /// exercised, not just the ordering.
    #[test]
    fn work_index_pick_matches_the_flat_scan(
        seed in any::<u64>(),
        min_steps in 1u32..4,
        extra_steps in 0u32..4,
        exit_prob in prop_oneof![Just(0.0f64), 0.0f64..0.9],
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..400),
    ) {
        let plans = DecodeMix {
            min_steps,
            max_steps: min_steps + extra_steps,
            exit_prob,
        };
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::poisson(50.0),
            mix: RequestMix::Production,
            seed,
        };
        let mut requests = spec.decode_requests(64, &plans);
        let mut queued = vec![false; requests.len()];
        let mut queue = PriorityQueue::with_work_index();
        for (op, pick) in ops {
            let waiting = queued.iter().filter(|&&q| q).count();
            match op {
                // Push a request that is not waiting: fresh, or a remnant
                // one decode step further on.
                0 | 1 => {
                    let idle: Vec<usize> = (0..requests.len()).filter(|&i| !queued[i]).collect();
                    if idle.is_empty() {
                        continue;
                    }
                    let i = idle[(pick % idle.len() as u64) as usize];
                    let r = &mut requests[i];
                    if op == 1 && r.steps_done + 1 < r.decode.steps {
                        r.steps_done += 1;
                    }
                    queue.push(r, i as u32);
                    queued[i] = true;
                }
                // Take by view position (a dispatch).
                2 => {
                    if waiting == 0 {
                        continue;
                    }
                    let i = queue.take((pick % waiting as u64) as usize) as usize;
                    prop_assert!(queued[i]);
                    queued[i] = false;
                }
                // Remove by rank key (a preemption merge or card death).
                _ => {
                    let i = (pick % requests.len() as u64) as usize;
                    let removed = queue.remove(requests[i].rank_key());
                    prop_assert_eq!(removed, queued[i].then_some(i as u32));
                    queued[i] = false;
                }
            }
            let mut flat: Vec<_> = (0..requests.len())
                .filter(|&i| queued[i])
                .map(|i| requests[i])
                .collect();
            flat.sort_by_key(|r| r.rank_key());
            let view = queue.view(&requests);
            prop_assert_eq!(view.len(), flat.len());
            prop_assert_eq!(
                view.shortest_in_head_class().map(|(i, r)| (i, r.id)),
                QueueView::flat(&flat)
                    .shortest_in_head_class()
                    .map(|(i, r)| (i, r.id))
            );
        }
    }
}
