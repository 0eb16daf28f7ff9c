//! Event-kernel self-profiling: runs one representative scenario per
//! serving regime with [`Simulation::run_profiled`] and emits
//! `BENCH_kernel.json` — events delivered by kind, dispatch and
//! preemption counts, peak event-heap and waiting-queue populations, and
//! measured wall-clock throughput (events/sec) per scenario.
//!
//! The deterministic counters (everything except `wall_s` /
//! `events_per_sec`) are bitwise identical for a fixed `seed`; the
//! wall-clock fields obviously vary with the host, so CI only
//! strict-JSON-validates this artifact instead of sha-comparing it.
//!
//! ```text
//! cargo run --release -p swat-bench --bin kernel_profile [seed] [requests] [headline]
//! ```
//!
//! `requests` (default 10 000) scales every scenario; CI smoke-tests the
//! binary at 500. The final **headline** cell reruns the homogeneous
//! baseline at `headline` requests (default 1 000 000) — the
//! million-request kernel measurement — so the artifact records both the
//! per-regime counters and the sustained events/sec the arena-backed
//! event loop reaches at scale. CI smokes the headline at 100 000. A
//! **decode-loop** cell exercises the token-level step kernel (multi-step
//! plans with early exit under continuous batching), so the
//! `step_complete` counter and the decode-regime heap/queue peaks are on
//! the record alongside the one-shot regimes.

use std::time::Instant;

use swat_bench::{banner, print_table};
use swat_serve::arrival::ArrivalProcess;
use swat_serve::fleet::FleetConfig;
use swat_serve::json::Json;
use swat_serve::policy::{LeastLoaded, ShortestJobFirst};
use swat_serve::scale::AutoscalerConfig;
use swat_serve::sim::{AdmissionControl, PreemptionControl, Simulation, TrafficSpec};
use swat_serve::trace::TelemetryMode;
use swat_workloads::{DecodeMix, RequestClass, RequestMix};

/// Default requests per scenario.
const DEFAULT_REQUESTS: usize = 10_000;

/// Default requests for the headline cell: the million-request kernel.
const DEFAULT_HEADLINE: usize = 1_000_000;

/// Prints the usage line and exits with status 2 — unparseable arguments
/// should read as operator error, not a crash.
fn usage(problem: &str) -> ! {
    eprintln!("kernel_profile: {problem}");
    eprintln!("usage: kernel_profile [seed] [requests] [headline]");
    eprintln!("  seed      u64 traffic seed (default 0x5EED)");
    eprintln!("  requests  requests per scenario (default {DEFAULT_REQUESTS}, must be > 0)");
    eprintln!(
        "  headline  requests for the headline cell (default {DEFAULT_HEADLINE}, must be > 0)"
    );
    std::process::exit(2);
}

/// One profiled scenario: a prepared simulation, a policy, and traffic.
struct Scenario<'a> {
    name: &'static str,
    sim: Simulation<'a>,
    policy: Box<dyn swat_serve::DispatchPolicy>,
    spec: TrafficSpec,
    /// Requests for this scenario — `requests` for the per-regime cells,
    /// `headline` for the million-request cell.
    count: usize,
    /// Decode plans layered over the traffic — `None` keeps the
    /// scenario's requests one-shot.
    decode: Option<DecodeMix>,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = match args.next() {
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| usage(&format!("seed must be an unsigned integer, got {s:?}"))),
        None => 0x5EED,
    };
    let requests: usize =
        match args.next() {
            Some(s) => s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                usage(&format!("requests must be a positive integer, got {s:?}"))
            }),
            None => DEFAULT_REQUESTS,
        };
    let headline: usize =
        match args.next() {
            Some(s) => s.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                usage(&format!("headline must be a positive integer, got {s:?}"))
            }),
            None => DEFAULT_HEADLINE,
        };
    if let Some(extra) = args.next() {
        usage(&format!("unexpected argument {extra:?}"));
    }

    let spec = |arrivals: ArrivalProcess, mix: RequestMix| TrafficSpec {
        arrivals,
        mix,
        seed,
    };
    let label = |s: &TrafficSpec| format!("{}/{}", s.arrivals.name(), s.mix.name());

    // One scenario per serving regime, mirroring the serve_sweep cells so
    // the counters describe kernels the sweep actually exercises: a
    // steady-state baseline, admission shedding under overload,
    // checkpoint-and-requeue preemption (the tombstoning path), the
    // autoscaler's warm-up/park events, cost-model fan-out, and the
    // baseline again under streaming telemetry to price the histograms.
    let homogeneous = FleetConfig::standard(6);
    let preemption_fleet = FleetConfig::standard(2);
    let sharded_fleet = FleetConfig::standard(4);
    let poisson = spec(ArrivalProcess::poisson(14.0), RequestMix::Production);
    let overload = spec(ArrivalProcess::bursty(12.0), RequestMix::Production);
    let lulls = spec(ArrivalProcess::bursty(2.5), RequestMix::Production);
    let diurnal = spec(ArrivalProcess::diurnal(3.0, 22.0), RequestMix::Production);
    let light = spec(ArrivalProcess::poisson(6.0), RequestMix::Production);

    let scenarios = vec![
        Scenario {
            name: "homogeneous",
            sim: Simulation::new(&homogeneous).arrivals_label(label(&poisson)),
            policy: Box::new(LeastLoaded::default()),
            spec: poisson,
            count: requests,
            decode: None,
        },
        Scenario {
            name: "priority-shed",
            sim: Simulation::new(&homogeneous)
                .arrivals_label(label(&overload))
                .admission(AdmissionControl::admit_all().with_cap(RequestClass::Background, 32)),
            policy: Box::new(LeastLoaded::default()),
            spec: overload,
            count: requests,
            decode: None,
        },
        Scenario {
            name: "preemption",
            sim: Simulation::new(&preemption_fleet)
                .arrivals_label(label(&lulls))
                .preemption(PreemptionControl::after_wait(0.1)),
            policy: Box::new(LeastLoaded::default()),
            spec: lulls,
            count: requests,
            decode: None,
        },
        Scenario {
            name: "autoscale",
            sim: Simulation::new(&homogeneous)
                .arrivals_label(label(&diurnal))
                .autoscale(AutoscalerConfig::standard().with_min_cards(2)),
            policy: Box::new(LeastLoaded::default()),
            spec: diurnal,
            count: requests,
            decode: None,
        },
        Scenario {
            name: "sharded-adaptive",
            sim: Simulation::new(&sharded_fleet).arrivals_label(label(&light)),
            policy: Box::new(LeastLoaded::new(4)),
            spec: light,
            count: requests,
            decode: None,
        },
        Scenario {
            name: "homogeneous-streaming",
            sim: Simulation::new(&homogeneous)
                .arrivals_label(label(&poisson))
                .telemetry(TelemetryMode::Streaming),
            policy: Box::new(LeastLoaded::default()),
            spec: poisson,
            count: requests,
            decode: None,
        },
        // The decode regime: multi-step plans with early exit on the
        // sharded SJF policy, mirroring serve_sweep's scenario 10 mix.
        // Every step fans back in through `StepComplete`, so this is the
        // one cell whose `step_complete` counter is non-zero.
        Scenario {
            name: "decode-loop",
            sim: Simulation::new(&sharded_fleet).arrivals_label(label(&light)),
            policy: Box::new(ShortestJobFirst::new(4)),
            spec: light,
            count: requests,
            decode: Some(DecodeMix {
                min_steps: 2,
                max_steps: 6,
                exit_prob: 0.2,
            }),
        },
        // The headline: the steady-state baseline at `headline` requests.
        // Same regime as "homogeneous", three orders of magnitude more
        // events — this is the row whose events/s trajectory
        // docs/serving.md tells readers to watch across PRs.
        Scenario {
            name: "headline",
            sim: Simulation::new(&homogeneous).arrivals_label(label(&poisson)),
            policy: Box::new(LeastLoaded::default()),
            spec: poisson,
            count: headline,
            decode: None,
        },
    ];

    banner(format!(
        "kernel_profile — {requests} requests/scenario + {headline}-request headline, \
         {} scenarios (seed {seed:#x})",
        scenarios.len()
    ));

    let mut rows = Vec::new();
    let mut out = Vec::new();
    for mut scenario in scenarios {
        let traffic = match &scenario.decode {
            Some(mix) => scenario.spec.decode_requests(scenario.count, mix),
            None => scenario.spec.requests(scenario.count),
        };
        let started = Instant::now();
        let (report, counters) = scenario.sim.run_profiled(&mut *scenario.policy, &traffic);
        let wall = started.elapsed().as_secs_f64();
        let rate = if wall > 0.0 {
            counters.events_total() as f64 / wall
        } else {
            0.0
        };
        rows.push(vec![
            scenario.name.to_string(),
            format!("{}", scenario.count),
            report.policy.clone(),
            scenario.sim.telemetry_mode().name().to_string(),
            format!("{}", counters.events_total()),
            format!("{}", counters.dispatches),
            format!("{}", counters.preemption_evictions),
            format!("{}", counters.peak_event_heap),
            format!("{}", counters.peak_queue_depth),
            format!("{:.1}", counters.sim_span_s),
            format!("{:.3}", wall),
            format!("{:.2e}", rate),
        ]);
        let mut row = vec![
            ("scenario".to_string(), Json::Str(scenario.name.into())),
            ("policy".to_string(), Json::Str(report.policy.clone())),
            (
                "telemetry".to_string(),
                Json::Str(scenario.sim.telemetry_mode().name().into()),
            ),
            ("requests".to_string(), Json::Int(scenario.count as i64)),
            ("completed".to_string(), Json::Int(report.completed as i64)),
            ("rejected".to_string(), Json::Int(report.rejected as i64)),
        ];
        match counters.to_json() {
            Json::Obj(pairs) => row.extend(pairs),
            other => row.push(("counters".to_string(), other)),
        }
        row.push(("wall_s".to_string(), Json::Num(wall)));
        row.push(("events_per_sec".to_string(), Json::Num(rate)));
        out.push(Json::Obj(row));
    }

    print_table(
        &[
            "scenario",
            "requests",
            "policy",
            "telemetry",
            "events",
            "dispatches",
            "evicted",
            "peak heap",
            "peak q",
            "sim s",
            "wall s",
            "events/s",
        ],
        &rows,
    );

    let doc = Json::obj([
        ("bench", Json::Str("kernel_profile".into())),
        ("seed", Json::UInt(seed)),
        ("requests_per_scenario", Json::Int(requests as i64)),
        ("scenarios", Json::Arr(out)),
    ]);

    let path = "BENCH_kernel.json";
    std::fs::write(path, doc.pretty()).expect("write BENCH_kernel.json");
    println!("\nwrote {path}");
}
