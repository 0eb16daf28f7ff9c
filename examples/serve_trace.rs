//! Chrome-trace export: replays 800 requests of diurnal traffic through
//! the full elastic stack (admission budgets, preemption, autoscaling,
//! sharded dispatch) with a [`ChromeTraceSink`] attached, and writes the
//! run as `trace.json` in Chrome trace-event format.
//!
//! Open the file in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`: each card is a process with one track per
//! pipeline, every shard is a span named after its request, preemptions
//! and scaling decisions are instant events, and queue depth / in-flight
//! shards / powered cards / active energy ride along as counter tracks.
//!
//! ```text
//! cargo run --release --example serve_trace
//! ```
//!
//! The sink only observes — the same run with the sink detached produces
//! a byte-identical report (`trace_sink_never_perturbs_the_simulation`
//! in `crates/serve/tests/proptest_serve.rs` proves this property).

use swat_serve::arrival::ArrivalProcess;
use swat_serve::fleet::FleetConfig;
use swat_serve::policy::LeastLoaded;
use swat_serve::scale::AutoscalerConfig;
use swat_serve::sim::{AdmissionControl, PreemptionControl, Simulation, TrafficSpec};
use swat_serve::trace::ChromeTraceSink;
use swat_workloads::{RequestClass, RequestMix};

fn main() {
    // The serve_replay scenario, sized up to 800 requests: a compressed
    // diurnal "day" on a mixed FP16/FP32 fleet whose midday peak
    // transiently overloads capacity — so the trace shows shedding,
    // preemption instants, and the autoscaler waking parked cards.
    let spec = TrafficSpec {
        arrivals: ArrivalProcess::diurnal(2.0, 20.0),
        mix: RequestMix::Production,
        seed: 42,
    };
    let requests = spec.requests(800);
    let fleet = FleetConfig::mixed_precision(3, 2);
    println!(
        "tracing {} requests on {} cards ({} pipelines)…",
        requests.len(),
        fleet.cards(),
        fleet.total_pipelines()
    );

    let mut sink = ChromeTraceSink::new(&fleet);
    let report = Simulation::new(&fleet)
        .arrivals_label(format!("{}/{}", spec.arrivals.name(), spec.mix.name()))
        .admission(
            AdmissionControl::admit_all()
                .with_cap(RequestClass::Batch, 48)
                .with_cap(RequestClass::Background, 24),
        )
        .preemption(PreemptionControl::after_wait(0.25))
        .autoscale(AutoscalerConfig::standard().with_min_cards(2))
        .run_traced(&mut LeastLoaded::new(2), &requests, &mut sink);

    // Every dispatched shard must have closed — the kernel asserts its
    // in-flight table is empty, and the sink mirrors that invariant.
    assert_eq!(
        sink.open_spans(),
        0,
        "every shard span should have closed at fan-in or preemption"
    );
    println!(
        "{} completed / {} shed, {} preemptions, {} scaling decisions",
        report.completed,
        report.rejected,
        report.preemption_count(),
        report.scaling.len()
    );
    println!(
        "{} shard spans across {} trace events",
        sink.span_count(),
        sink.event_count()
    );

    let path = "trace.json";
    std::fs::write(path, sink.into_json().pretty()).expect("write trace.json");
    println!("wrote {path} — load it at https://ui.perfetto.dev");
}
