//! Chaos properties: seeded fault storms crossed with every serving
//! feature — admission, preemption, autoscaling, sharded dispatch,
//! session affinity — must never lose, duplicate, or nondeterministically
//! reorder work.
//!
//! The invariants here are the recovery machinery's contract:
//!
//! - **conservation** — every offered request is completed, rejected, or
//!   failed, exactly once, however many cards die under it;
//! - **determinism** — a faulted run's full JSON report is byte-identical
//!   across repeated runs;
//! - **reductions** — an empty fault plan is bitwise invisible, and the
//!   session-affinity policy over untagged traffic is bitwise
//!   least-loaded (modulo the policy name).

use proptest::prelude::*;
use swat_serve::arrival::ArrivalProcess;
use swat_serve::fault::FaultPlan;
use swat_serve::fleet::FleetConfig;
use swat_serve::policy::{DispatchPolicy, Fifo, LeastLoaded, SessionAffinity, ShortestJobFirst};
use swat_serve::request::Request;
use swat_serve::scale::AutoscalerConfig;
use swat_serve::session::{SessionProfile, SessionTraffic};
use swat_serve::sim::{AdmissionControl, PreemptionControl, Simulation, TrafficSpec};
use swat_serve::ServeReport;
use swat_workloads::{RequestClass, RequestMix};

fn policy_by_index(i: usize) -> Box<dyn DispatchPolicy> {
    match i {
        0 => Box::new(Fifo),
        1 => Box::new(LeastLoaded::default()),
        2 => Box::new(ShortestJobFirst::default()),
        3 => Box::new(LeastLoaded::new(4)),
        _ => Box::new(SessionAffinity::new(8)),
    }
}

fn any_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (20.0f64..200.0).prop_map(ArrivalProcess::poisson),
        (10.0f64..100.0).prop_map(ArrivalProcess::bursty),
        (5.0f64..40.0).prop_map(|base| ArrivalProcess::diurnal(base, 4.0 * base)),
        (5.0f64..20.0).prop_map(|base| ArrivalProcess::flash_crowd(base, 8.0 * base, 0.2, 0.3)),
    ]
}

/// Runs one chaos cell: random traffic through a storm of seeded faults
/// with admission, preemption, and autoscaling toggled independently.
#[allow(clippy::too_many_arguments)]
fn chaos_run(
    cards: usize,
    policy_idx: usize,
    arrivals: ArrivalProcess,
    seed: u64,
    faults: usize,
    admission_cap: Option<usize>,
    preempt: bool,
    autoscale: bool,
) -> (ServeReport, usize) {
    let fleet = FleetConfig::standard(cards);
    let spec = TrafficSpec {
        arrivals,
        mix: RequestMix::Production,
        seed,
    };
    let requests = spec.requests(80);
    let t0 = requests[0].arrival;
    let span = (requests.last().unwrap().arrival - t0).max(0.1);
    // Storm times are offsets from zero; traffic starts near zero too,
    // so deaths, degrades and revivals land all through the trace.
    let plan = FaultPlan::storm(seed ^ 0xC4A0_5000, cards, t0 + span, faults);
    let mut sim = Simulation::new(&fleet).faults(plan.clone());
    if let Some(cap) = admission_cap {
        sim = sim.admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, cap));
    }
    if preempt {
        sim = sim.preemption(PreemptionControl::after_wait(0.05));
    }
    if autoscale {
        sim = sim.autoscale(AutoscalerConfig::standard());
    }
    let mut policy = policy_by_index(policy_idx);
    let report = sim.run(&mut *policy, &requests);
    (report, if plan.is_empty() { 0 } else { requests.len() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation and internal consistency through arbitrary fault
    /// storms: nothing is lost, nothing is served twice, the fault block
    /// appears exactly when a plan ran, and the preemption ledger still
    /// balances per card.
    #[test]
    fn storms_conserve_every_request(
        cards in 1usize..4,
        policy_idx in 0usize..5,
        arrivals in any_arrivals(),
        seed in any::<u64>(),
        faults in 0usize..9,
        admission_cap in prop_oneof![Just(None), (4usize..32).prop_map(Some)],
        preempt in any::<bool>(),
        autoscale in any::<bool>(),
    ) {
        let (report, offered_if_faulted) = chaos_run(
            cards, policy_idx, arrivals, seed, faults, admission_cap, preempt, autoscale,
        );
        prop_assert_eq!(report.offered, 80);
        prop_assert_eq!(
            report.completed + report.rejected + report.failed,
            report.offered,
            "conservation: {} + {} + {}",
            report.completed, report.rejected, report.failed
        );
        // The fault block gates on the plan, not on whether a fault bit:
        // an empty plan has no block, a non-empty plan always writes one.
        match &report.faults {
            Some(f) => {
                prop_assert!(offered_if_faulted > 0, "block without a plan");
                prop_assert_eq!(f.failed, report.failed);
            }
            None => {
                prop_assert_eq!(offered_if_faulted, 0);
                prop_assert_eq!(report.failed, 0, "failures need a fault plan");
            }
        }
        // Fault evictions are not preemptions: the per-card preempted
        // counters still reconcile exactly against the preemption log.
        let preempted_on_cards: u64 = report.cards.iter().map(|c| c.preempted).sum();
        prop_assert_eq!(preempted_on_cards as usize, report.preemptions.len());
        // Work the fleet lost is visible per class too: class ledgers
        // fold their failures into offered.
        let class_offered: usize = report.classes.iter().map(|c| c.offered).sum();
        let class_done: usize = report.classes.iter().map(|c| c.completed).sum();
        prop_assert_eq!(class_offered, report.offered);
        prop_assert_eq!(class_done, report.completed);
        let json = report.to_json().pretty();
        prop_assert!(!json.contains("NaN") && !json.contains("inf"), "non-finite JSON");
    }

    /// Byte determinism under chaos: the identical cell re-run must
    /// produce the identical pretty-printed JSON report.
    #[test]
    fn storms_are_byte_deterministic(
        cards in 1usize..4,
        policy_idx in 0usize..5,
        arrivals in any_arrivals(),
        seed in any::<u64>(),
        faults in 1usize..9,
        preempt in any::<bool>(),
        autoscale in any::<bool>(),
    ) {
        let run = || chaos_run(
            cards, policy_idx, arrivals, seed, faults, Some(16), preempt, autoscale,
        ).0;
        let a = run();
        let b = run();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    /// Reduction: an empty fault plan must be bitwise invisible — same
    /// report, same JSON bytes, no fault block — under any policy.
    #[test]
    fn empty_plans_reduce_to_the_fault_free_kernel(
        cards in 1usize..4,
        policy_idx in 0usize..5,
        arrivals in any_arrivals(),
        seed in any::<u64>(),
    ) {
        let fleet = FleetConfig::standard(cards);
        let spec = TrafficSpec { arrivals, mix: RequestMix::Production, seed };
        let requests = spec.requests(60);
        let plain = Simulation::new(&fleet).run(&mut *policy_by_index(policy_idx), &requests);
        let gated = Simulation::new(&fleet)
            .faults(FaultPlan::none())
            .run(&mut *policy_by_index(policy_idx), &requests);
        prop_assert_eq!(&plain, &gated);
        let json = gated.to_json().pretty();
        prop_assert_eq!(plain.to_json().pretty(), json.clone());
        prop_assert!(!json.contains("\"faults\""));
    }

    /// Reduction: session affinity over untagged traffic is bitwise
    /// least-loaded, modulo the policy name — even through a fault storm.
    #[test]
    fn affinity_off_reduces_to_least_loaded(
        cards in 1usize..4,
        arrivals in any_arrivals(),
        seed in any::<u64>(),
        faults in 0usize..6,
    ) {
        let fleet = FleetConfig::standard(cards);
        let spec = SessionTraffic {
            arrivals,
            profile: SessionProfile::standard(),
            seed,
        };
        let requests = spec.requests_sessionless(24);
        let t0 = requests[0].arrival;
        let span = (requests.last().unwrap().arrival - t0).max(0.1);
        let plan = FaultPlan::storm(seed ^ 0xC4A0_5001, cards, t0 + span, faults);
        let run = |policy: &mut dyn DispatchPolicy| {
            Simulation::new(&fleet)
                .faults(plan.clone())
                .run(policy, &requests)
        };
        let baseline = run(&mut LeastLoaded::default());
        let mut sticky = run(&mut SessionAffinity::new(8));
        prop_assert_eq!(&sticky.policy, "session-affinity");
        sticky.policy = baseline.policy.clone();
        prop_assert_eq!(sticky, baseline);
    }

    /// Session ledgers stay consistent through chaos: every session in
    /// the trace is accounted, completed turns reconcile with the run's
    /// completions, and Jain fairness stays in (0, 1].
    #[test]
    fn session_ledgers_survive_storms(
        cards in 1usize..4,
        seed in any::<u64>(),
        faults in 0usize..6,
        heavy_pct in 0u8..40,
    ) {
        let fleet = FleetConfig::standard(cards);
        let profile = SessionProfile {
            heavy_pct,
            ..SessionProfile::standard()
        };
        let spec = SessionTraffic {
            arrivals: ArrivalProcess::poisson(30.0),
            profile,
            seed,
        };
        let requests = spec.requests(24);
        let t0 = requests[0].arrival;
        let span = (requests.last().unwrap().arrival - t0).max(0.1);
        let plan = FaultPlan::storm(seed ^ 0xC4A0_5002, cards, t0 + span, faults);
        let report = Simulation::new(&fleet)
            .faults(plan)
            .run(&mut SessionAffinity::new(8), &requests);
        prop_assert_eq!(
            report.completed + report.rejected + report.failed,
            requests.len()
        );
        let sessions = report.sessions.as_ref().expect("tagged traffic");
        prop_assert_eq!(sessions.sessions, 24, "every session is accounted");
        prop_assert_eq!(sessions.turns_completed, report.completed);
        prop_assert!(
            sessions.fairness > 0.0 && sessions.fairness <= 1.0,
            "Jain index out of range: {}", sessions.fairness
        );
    }
}

/// The soak's cell: `n` diurnal requests on four cards through a 12-event
/// fault storm, with sharding, preemption, a background admission cap and
/// autoscaling all on. `seed` seeds both the traffic and the storm.
struct Soak {
    fleet: FleetConfig,
    requests: Vec<Request>,
    plan: FaultPlan,
}

impl Soak {
    fn new(n: usize, seed: u64) -> Soak {
        let spec = TrafficSpec {
            arrivals: ArrivalProcess::diurnal(40.0, 160.0),
            mix: RequestMix::Production,
            seed,
        };
        let requests = spec.requests(n);
        let t0 = requests[0].arrival;
        let span = requests.last().unwrap().arrival - t0;
        Soak {
            fleet: FleetConfig::standard(4),
            plan: FaultPlan::storm(seed, 4, t0 + span, 12),
            requests,
        }
    }

    fn run(&self) -> ServeReport {
        Simulation::new(&self.fleet)
            .faults(self.plan.clone())
            .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 256))
            .preemption(PreemptionControl::after_wait(0.05))
            .autoscale(AutoscalerConfig::standard())
            .run(&mut LeastLoaded::new(4), &self.requests)
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The soak's configuration at 1,000 requests, pinned to the digests of
/// its JSON reports. At these seeds an evicted shard's stale completion
/// timer is delivered after its request has finished, so a kernel that
/// recycles per-request state hands the timer to another request's row;
/// the reports must not move. Only seed 179 checks the request-id guard:
/// there the stale timer's shard id also names a shard of the row's new
/// request that is still running, so only the request id tells the two
/// apart. At seeds 1, 11 and 14 no running shard shares the stale id, so a
/// kernel without the guard gives the same bytes; they are general
/// regression pins of the storm's reports (the four runs take ~0.05 s in
/// a debug build).
#[test]
fn storm_reports_survive_stale_timers_on_recycled_rows() {
    for (seed, digest) in [
        (1, 0x9da1_b8f1_69ab_daa2),
        (11, 0x0789_8950_b4b6_ee90),
        (14, 0x3909_21f5_f2c0_0a64),
        (179, 0xf78a_9bec_53c4_4a56),
    ] {
        let report = Soak::new(1_000, seed).run();
        let json = report.to_json().pretty();
        assert_eq!(fnv1a(json.as_bytes()), digest, "seed {seed}: {json}");
    }
}

/// The long haul: a 100k-request trace through the soak's fault storm,
/// twice, byte-compared. Run with `cargo test -p swat-serve --test chaos
/// --release -- --ignored`.
#[test]
#[ignore = "soak test: ~100k requests, run explicitly in CI"]
fn soak_100k_requests_through_a_fault_storm() {
    let soak = Soak::new(100_000, 0x5EED_50AC);
    let a = soak.run();
    assert_eq!(
        a.completed + a.rejected + a.failed,
        soak.requests.len(),
        "conservation over 100k requests"
    );
    let faults = a.faults.as_ref().expect("a storm ran");
    assert!(faults.card_deaths + faults.degrades + faults.revivals > 0);
    let b = soak.run();
    assert_eq!(a, b, "soak runs must be identical");
    assert_eq!(a.to_json().pretty(), b.to_json().pretty());
}
