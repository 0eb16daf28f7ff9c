//! Serve replay: 60 simulated seconds of diurnal traffic through a mixed
//! FP16/FP32 SWAT fleet with the full elastic stack — per-class admission
//! budgets, preemption, autoscaling, and sharded (fan-out/fan-in)
//! dispatch — plus a queue-depth timeline and per-class/per-group
//! breakdowns.
//!
//! ```text
//! cargo run --release --example serve_replay
//! ```

use swat_serve::arrival::ArrivalProcess;
use swat_serve::fleet::FleetConfig;
use swat_serve::policy::LeastLoaded;
use swat_serve::scale::AutoscalerConfig;
use swat_serve::sim::{AdmissionControl, PreemptionControl, Simulation, TrafficSpec};
use swat_workloads::{RequestClass, RequestMix};

fn main() {
    // One compressed "day" of traffic: the rate ramps 2 → 20 rps and back
    // over the 60 s horizon. Three dual-pipeline FP16 cards plus two
    // single-pipeline FP32 cards sustain ≈12 rps of the production mix,
    // so the midday peak transiently overloads the fleet — which is when
    // the admission budgets start shedding batch and background filler,
    // waiting interactive requests start preempting in-flight background
    // work, and the autoscaler (which parked most of the fleet overnight)
    // pays warm-up latency to catch the ramp.
    let spec = TrafficSpec {
        arrivals: ArrivalProcess::diurnal(2.0, 20.0),
        mix: RequestMix::Production,
        seed: 42,
    };
    let requests = spec.requests_in(60.0);
    let fleet = FleetConfig::mixed_precision(3, 2);
    println!(
        "replaying {} requests over 60 s on {} cards ({} pipelines, {} groups)…\n",
        requests.len(),
        fleet.cards(),
        fleet.total_pipelines(),
        fleet.groups.len()
    );

    let report = Simulation::new(&fleet)
        .arrivals_label(format!("{}/{}", spec.arrivals.name(), spec.mix.name()))
        .admission(
            AdmissionControl::admit_all()
                .with_cap(RequestClass::Batch, 48)
                .with_cap(RequestClass::Background, 24),
        )
        .preemption(PreemptionControl::after_wait(0.25))
        .autoscale(AutoscalerConfig::standard().with_min_cards(2))
        .run(&mut LeastLoaded::new(2), &requests);

    // Queue depth over time, bucketed to 2.5 s columns.
    let mut buckets = [0usize; 24];
    for s in &report.queue.timeline {
        let b = ((s.time / 2.5) as usize).min(buckets.len() - 1);
        buckets[b] = buckets[b].max(s.depth);
    }
    let tallest = buckets.iter().copied().max().unwrap_or(1).max(1);
    println!(
        "queue depth (max per 2.5 s bucket, ▇ = {} requests):",
        tallest.div_ceil(8)
    );
    for (i, depth) in buckets.iter().enumerate() {
        let bar = "▇".repeat(8 * depth / tallest);
        println!("  {:>5.1} s | {bar:<8} {depth}", i as f64 * 2.5);
    }

    println!(
        "\n{} / {} requests met their SLO ({} shed by admission control)",
        report.completed - report.slo_violations,
        report.offered,
        report.rejected
    );
    if let Some(latency) = report.latency {
        println!(
            "latency p50/p95/p99: {:.1} / {:.1} / {:.1} ms  (max {:.1} ms)",
            latency.p50 * 1e3,
            latency.p95 * 1e3,
            latency.p99 * 1e3,
            latency.max * 1e3
        );
    }
    println!(
        "{} requests fanned out across pipelines (widest: {} shards)",
        report.sharded_requests, report.max_shards
    );
    for class in &report.classes {
        match class.latency {
            Some(l) => println!(
                "  {:<11} {:>4} done, {:>3} shed, {:>3} late, p50/p99 {:.1}/{:.1} ms",
                class.class.name(),
                class.completed,
                class.rejected,
                class.slo_violations,
                l.p50 * 1e3,
                l.p99 * 1e3
            ),
            None => println!(
                "  {:<11} {:>4} done, {:>3} shed",
                class.class.name(),
                class.completed,
                class.rejected
            ),
        }
    }
    println!(
        "throughput {:.1} rps, fleet utilization {:.0}%, energy {:.1} J active + {:.1} J idle",
        report.throughput_rps,
        report.fleet_utilization() * 100.0,
        report.energy_joules,
        report.idle_energy_joules
    );
    for summary in &report.groups {
        let g = summary.group;
        println!(
            "  group {g} ({}): {:>4} served, {:>3.0}% busy, {:.1} J",
            fleet.groups[g].design(),
            summary.served,
            summary.utilization * 100.0,
            summary.energy_joules
        );
    }
    for c in &report.cards {
        println!(
            "    card {}: {:>4} served, {:>2} preempted, {:>3.0}% busy, powered {:>4.1} s, {:.1} J (+{:.1} J idle)",
            c.card,
            c.served,
            c.preempted,
            c.utilization * 100.0,
            c.powered_seconds,
            c.energy_joules,
            c.idle_energy_joules
        );
    }

    let jobs_banked: usize = report.preemptions.iter().map(|p| p.jobs_checkpointed).sum();
    println!(
        "\n{} preemptions ({} background jobs checkpointed mid-flight):",
        report.preemption_count(),
        jobs_banked
    );
    for p in report.preemptions.iter().take(6) {
        println!(
            "  t={:>5.1} s  request {:>3} evicted from card {} ({} jobs banked) for request {}",
            p.time, p.preempted, p.card, p.jobs_checkpointed, p.waiting
        );
    }
    if report.preemptions.len() > 6 {
        println!("  … {} more", report.preemptions.len() - 6);
    }

    println!(
        "\nautoscaler timeline ({} decisions):",
        report.scaling.len()
    );
    for e in &report.scaling {
        println!(
            "  t={:>5.1} s  {} card {} (queue {:>2}, {} cards powered)",
            e.time,
            if e.powered_on { "wake" } else { "park" },
            e.card,
            e.queue_depth,
            e.powered_cards
        );
    }
}
