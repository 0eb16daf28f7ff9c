//! Cross-crate integration: the serving layer composed with the real
//! accelerator, hardware and workload models.

use swat_serve::arrival::ArrivalProcess;
use swat_serve::fleet::FleetConfig;
use swat_serve::policy::{all_policies, LeastLoaded};
use swat_serve::sim::{AdmissionControl, Simulation, TrafficSpec};
use swat_workloads::{RequestClass, RequestMix};

fn spec(seed: u64) -> TrafficSpec {
    TrafficSpec {
        arrivals: ArrivalProcess::poisson(100.0),
        mix: RequestMix::Production,
        seed,
    }
}

#[test]
fn four_card_fleet_serves_production_traffic() {
    let fleet = FleetConfig::standard(4);
    for mut policy in all_policies() {
        let report = Simulation::new(&fleet).run(&mut *policy, &spec(1).requests(600));
        assert_eq!(report.completed, 600, "{}", report.policy);
        assert_eq!(report.cards.len(), 4);
        // Every card got work under every policy at this load.
        assert!(
            report.cards.iter().all(|c| c.served > 0),
            "{}: {:?}",
            report.policy,
            report.cards.iter().map(|c| c.served).collect::<Vec<_>>()
        );
        let latency = report.latency.unwrap();
        assert!(latency.p50 <= latency.p95);
        assert!(latency.p95 <= latency.p99);
        assert!(report.energy_joules > 0.0);
    }
}

#[test]
fn service_times_come_from_the_calibrated_model() {
    // A single request on an idle fleet finishes after exactly its cold
    // weight swap plus jobs × per-head latency from the Table 1 timing
    // model.
    let fleet_cfg = FleetConfig::standard(1);
    let fleet = fleet_cfg.build().unwrap();
    let requests = spec(3).requests(1);
    let report = Simulation::new(&fleet_cfg).run(&mut LeastLoaded::default(), &requests);
    let shape = requests[0].shape;
    let card = &fleet.cards()[0];
    let expect = card.swap_seconds(&shape)
        + card.accelerator().latency_seconds(shape.seq_len) * shape.jobs() as f64;
    let latency = report.latency.unwrap().p50;
    assert!(
        (latency - expect).abs() < 1e-9,
        "idle-fleet latency {latency} vs model {expect}"
    );
}

#[test]
fn head_affinity_reduces_weight_swaps() {
    // The whole point of affinity dispatch: pinning model families to home
    // cards keeps weights resident. Light load, so the home card is
    // usually free and the policy's preference actually lands.
    let fleet = FleetConfig::standard(4);
    let light = TrafficSpec {
        arrivals: ArrivalProcess::poisson(4.0),
        mix: RequestMix::Production,
        seed: 13,
    };
    let requests = light.requests(800);
    let fifo = Simulation::new(&fleet).run(&mut swat_serve::policy::Fifo, &requests);
    let affinity = Simulation::new(&fleet).run(&mut swat_serve::policy::HeadAffinity, &requests);
    // Not a full elimination: more families than cards means some homes
    // are shared (pigeonhole), so a sizeable reduction is the right bar.
    assert!(
        (affinity.weight_swaps() as f64) < 0.7 * fifo.weight_swaps() as f64,
        "affinity swaps {} vs fifo swaps {}",
        affinity.weight_swaps(),
        fifo.weight_swaps()
    );
}

#[test]
fn more_cards_reduce_tail_latency() {
    let requests = spec(7).requests(800);
    let small =
        Simulation::new(&FleetConfig::standard(2)).run(&mut LeastLoaded::default(), &requests);
    let large =
        Simulation::new(&FleetConfig::standard(8)).run(&mut LeastLoaded::default(), &requests);
    let (large_lat, small_lat) = (large.latency.unwrap(), small.latency.unwrap());
    assert!(
        large_lat.p99 <= small_lat.p99,
        "8 cards p99 {} vs 2 cards p99 {}",
        large_lat.p99,
        small_lat.p99
    );
    assert!(large.queue.max_depth <= small.queue.max_depth);
}

#[test]
fn mixed_precision_fleet_serves_production_traffic() {
    // Heterogeneous deployment: the FP16 dual-pipeline pool is faster per
    // token than the FP32 singles, every policy keeps both pools busy,
    // and the report accounts each card to its group.
    let fleet = FleetConfig::mixed_precision(3, 2);
    for mut policy in all_policies() {
        let report = Simulation::new(&fleet).run(&mut *policy, &spec(19).requests(600));
        assert_eq!(report.completed, 600, "{}", report.policy);
        assert_eq!(report.cards.len(), 5);
        assert_eq!(report.groups.len(), 2);
        assert!(
            report.groups.iter().all(|g| g.served > 0),
            "{}: {:?}",
            report.policy,
            report.groups
        );
        let built = fleet.build().unwrap();
        assert!(
            built.cards()[0].seconds_per_token() < built.cards()[3].seconds_per_token(),
            "FP16 cards must estimate faster than FP32"
        );
    }
}

#[test]
fn admission_control_protects_interactive_tail() {
    // Sustained overload: shedding background filler must not hurt (and
    // should help) the interactive class's tail latency.
    let fleet = FleetConfig::standard(2);
    let heavy = TrafficSpec {
        arrivals: ArrivalProcess::poisson(40.0),
        mix: RequestMix::Production,
        seed: 23,
    };
    let requests = heavy.requests(700);
    let open = Simulation::new(&fleet).run(&mut LeastLoaded::default(), &requests);
    let capped = Simulation::new(&fleet)
        .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 8))
        .run(&mut LeastLoaded::default(), &requests);
    assert!(capped.rejected > 0);
    assert_eq!(
        capped.class(RequestClass::Background).unwrap().rejected,
        capped.rejected,
        "only the lowest class may be shed"
    );
    let open_p99 = open
        .class(RequestClass::Interactive)
        .unwrap()
        .latency
        .unwrap()
        .p99;
    let capped_p99 = capped
        .class(RequestClass::Interactive)
        .unwrap()
        .latency
        .unwrap()
        .p99;
    assert!(
        capped_p99 <= open_p99,
        "interactive p99 {capped_p99} must not regress past {open_p99}"
    );
}

#[test]
fn json_report_has_the_required_fields() {
    let report = Simulation::new(&FleetConfig::standard(4))
        .run(&mut LeastLoaded::default(), &spec(9).requests(200));
    let json = report.to_json().pretty();
    for key in [
        "\"policy\"",
        "\"arrivals\"",
        "\"p50_s\"",
        "\"p95_s\"",
        "\"p99_s\"",
        "\"slo_violations\"",
        "\"energy_j\"",
        "\"fleet_utilization\"",
        "\"max_depth\"",
        "\"cards\"",
        "\"classes\"",
        "\"groups\"",
        "\"rejected\"",
        "\"sharded_requests\"",
        "\"max_shards\"",
        "\"slo_attainment\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}
