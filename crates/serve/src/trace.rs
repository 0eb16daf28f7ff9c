//! Deterministic tracing and streaming telemetry for the serving
//! simulator.
//!
//! Three concerns live here, all feeding off the same hook points in the
//! event kernel ([`crate::sim`]):
//!
//! 1. **[`TraceSink`]** — a callback trait the simulation invokes at every
//!    semantically interesting instant: arrival, admission shed, dispatch
//!    (with the chosen shard plan and the planner's predicted fan-in),
//!    per-shard start/finish, fan-in, preemption (with the victim's
//!    predicted eviction cost under cost-aware selection), warm-up,
//!    autoscaler decisions, and injected faults (card death with its
//!    shard blast radius, calibration degrade, revival, and requests
//!    stranded by a fleet-wide outage), plus a per-event-batch gauge
//!    sample (queue depth, in-flight shards, powered cards, energy).
//!    Sinks observe; they
//!    never feed back into the schedule, so a run with any sink attached
//!    is bitwise identical to the same run without one (proven by
//!    proptest). The default [`NullSink`] reports `enabled() == false`,
//!    which lets the kernel skip even the O(cards) gauge computation — the
//!    disabled path does no extra work at all.
//! 2. **[`ChromeTraceSink`]** — renders the hook stream as Chrome
//!    trace-event JSON (`chrome://tracing` / [Perfetto]): one process per
//!    card, one thread per pipeline, a complete span per shard, instant
//!    events for preemptions and scaling decisions, and counter tracks for
//!    the gauges. See `examples/serve_trace.rs`.
//! 3. **Streaming telemetry** — the report accumulator folds every
//!    completion as it fans in, in both modes. [`TelemetryMode::Exact`]
//!    (the default) keeps one `f64` per sample in each latency
//!    distribution, sorted once when the report is built, which is what
//!    keeps exact JSON byte-identical. [`TelemetryMode::Streaming`]
//!    holds memory independent of the sample count instead: a
//!    log-bucketed histogram in [`crate::metrics`] (64 buckets per power
//!    of two, keyed by the sample's top 18 bits) behind each
//!    p50/p95/p99 field, the decode block's included, each within
//!    2⁻⁷ ≈ 0.78 % of the exact value; and [`TimeBuckets`] — a bounded,
//!    width-doubling time series of the gauges that lands in the report
//!    as [`TelemetrySummary`](crate::metrics::TelemetrySummary). The
//!    session block is exact-only.
//!
//! [Perfetto]: https://ui.perfetto.dev
//!
//! The kernel also maintains [`KernelCounters`] on every run — event
//! counts by kind, tombstoned completions, peak heap/queue sizes — cheap
//! enough to be unconditional. `swat-bench`'s `serve_sweep` writes each
//! sweep cell's counters to `BENCH_kernel.json`. Wall-clock rates live
//! *outside* sim time and outside that file: the sweep prints
//! events/sec to stderr, and `perfbench` times the kernel at scale.

use std::collections::BTreeMap;

use crate::event::Event;
use crate::fleet::FleetConfig;
use crate::json::Json;
use crate::metrics::{PreemptionRecord, TelemetryBucket};
use crate::request::{CompletedRequest, Request};
use crate::scale::ScaleEvent;

/// How the simulation accumulates its report metrics. See
/// [`crate::sim::Simulation::telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Keep every latency sample and compute exact nearest-rank
    /// percentiles (the default — all byte-identical-JSON guarantees
    /// hold).
    #[default]
    Exact,
    /// Accumulation in memory independent of the sample count: a
    /// log-bucketed histogram (64 buckets per power of two) behind the
    /// p50/p95/p99 fields and a bounded time-bucketed gauge series in
    /// [`ServeReport::telemetry`](crate::metrics::ServeReport::telemetry);
    /// no [`ServeReport::sessions`](crate::metrics::ServeReport::sessions)
    /// block.
    /// The schedule is bitwise identical to Exact — only the report's
    /// percentiles are approximate, each within 2⁻⁷ ≈ 0.78 % of the
    /// exact value; `max` and every count are exact, and `mean` differs
    /// only by summation order.
    Streaming,
}

/// One gauge sample, taken after each event batch settles (post-dispatch,
/// post-autoscale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Requests waiting in the priority queue.
    pub queue_depth: usize,
    /// Shards currently executing on some pipeline.
    pub in_flight_shards: usize,
    /// Cards currently powered (≤ fleet size; < only under an
    /// autoscaler).
    pub powered_cards: usize,
    /// In-flight shards over total fleet pipelines — instantaneous
    /// utilization in `[0, 1]`.
    pub utilization: f64,
    /// Cumulative active-service energy so far, joules.
    pub active_energy_joules: f64,
}

/// Observer interface over the simulation. Every method has a no-op
/// default, so a sink implements only what it cares about. Hooks fire in
/// schedule order; none of them may (or can — everything is `&`-borrowed)
/// influence the schedule.
pub trait TraceSink {
    /// Whether the kernel should compute and deliver hook payloads at
    /// all. [`NullSink`] returns `false`; everything else should leave
    /// the default `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// A request was delivered to the fleet (before the admission
    /// decision).
    fn arrival(&mut self, now: f64, request: &Request) {
        let _ = (now, request);
    }

    /// Admission control shed the request instead of queueing it.
    fn shed(&mut self, now: f64, request: &Request) {
        let _ = (now, request);
    }

    /// The policy dispatched `request` across `plan` (one entry per
    /// shard, card indices). `predicted_fan_in_s` is the planner's priced
    /// fan-in instant for multi-shard plans (`None` for width-1 plans,
    /// which are trivially exact).
    fn dispatch(
        &mut self,
        now: f64,
        request: &Request,
        plan: &[usize],
        predicted_fan_in_s: Option<f64>,
    ) {
        let _ = (now, request, plan, predicted_fan_in_s);
    }

    /// One shard started executing: `jobs` attention jobs of request `id`
    /// on `card`/`pipeline`, expected to drain at `expected_finish`.
    #[allow(clippy::too_many_arguments)]
    fn shard_start(
        &mut self,
        now: f64,
        id: u64,
        shard: u32,
        card: usize,
        pipeline: usize,
        jobs: usize,
        expected_finish: f64,
    ) {
        let _ = (now, id, shard, card, pipeline, jobs, expected_finish);
    }

    /// One shard drained.
    fn shard_finish(&mut self, now: f64, id: u64, shard: u32, card: usize, pipeline: usize) {
        let _ = (now, id, shard, card, pipeline);
    }

    /// The request's last outstanding shard drained — it is complete.
    fn fan_in(&mut self, now: f64, completion: &CompletedRequest) {
        let _ = (now, completion);
    }

    /// One decode step of request `id` fanned in with more steps owed —
    /// `step` steps are now done and the remnant goes back through
    /// dispatch. Never fires for one-shot requests (their single step
    /// is the completion, reported via [`TraceSink::fan_in`]).
    fn step_complete(&mut self, now: f64, id: u64, step: u32, card: usize) {
        let _ = (now, id, step, card);
    }

    /// A background shard was checkpointed and requeued. `victim_cost_s`
    /// is the cost model's eviction price under
    /// [`cost_aware`](crate::sim::PreemptionControl::cost_aware) victim
    /// selection (`None` under youngest-first, where nothing is priced).
    fn preempted(
        &mut self,
        now: f64,
        record: &PreemptionRecord,
        shard: u32,
        pipeline: usize,
        victim_cost_s: Option<f64>,
    ) {
        let _ = (now, record, shard, pipeline, victim_cost_s);
    }

    /// An autoscaled card finished warming up and became dispatchable.
    fn warmed(&mut self, now: f64, card: usize) {
        let _ = (now, card);
    }

    /// The autoscaler powered a card up or parked it.
    fn scaled(&mut self, event: &ScaleEvent) {
        let _ = event;
    }

    /// An injected fault killed `card`, evicting `shards_lost` in-flight
    /// shards (each requeued as a checkpointed remnant).
    fn card_death(&mut self, now: f64, card: usize, shards_lost: usize) {
        let _ = (now, card, shards_lost);
    }

    /// An injected fault stretched `card`'s calibration by `factor`
    /// (subsequent jobs run that much slower; the cost model re-snapshots).
    fn card_degrade(&mut self, now: f64, card: usize, factor: f64) {
        let _ = (now, card, factor);
    }

    /// An injected revival brought a dead card back (it still owes its
    /// warm-up before becoming dispatchable).
    fn card_revive(&mut self, now: f64, card: usize) {
        let _ = (now, card);
    }

    /// The run drained with `request` still queued and every card dead —
    /// the request is stranded and counted as failed.
    fn failed(&mut self, now: f64, request: &Request) {
        let _ = (now, request);
    }

    /// Gauge sample after an event batch settled.
    fn gauges(&mut self, now: f64, sample: &GaugeSample) {
        let _ = (now, sample);
    }
}

/// The disabled sink: `enabled()` is `false`, so the kernel skips hook
/// payload computation entirely. [`Simulation::run`](crate::sim::Simulation::run)
/// uses it — the default path does zero tracing work.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
}

/// One recorded hook invocation (see [`RecordingSink`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// [`TraceSink::arrival`].
    Arrival {
        /// Event time.
        t: f64,
        /// Request id.
        id: u64,
    },
    /// [`TraceSink::shed`].
    Shed {
        /// Event time.
        t: f64,
        /// Request id.
        id: u64,
    },
    /// [`TraceSink::dispatch`].
    Dispatch {
        /// Event time.
        t: f64,
        /// Request id.
        id: u64,
        /// Card index per shard.
        plan: Vec<usize>,
        /// Planner's predicted fan-in instant (multi-shard plans only).
        predicted_fan_in_s: Option<f64>,
    },
    /// [`TraceSink::shard_start`].
    ShardStart {
        /// Event time.
        t: f64,
        /// Request id.
        id: u64,
        /// Shard id within the request.
        shard: u32,
        /// Card index.
        card: usize,
        /// Pipeline within the card.
        pipeline: usize,
        /// Attention jobs the shard carries.
        jobs: usize,
    },
    /// [`TraceSink::shard_finish`].
    ShardFinish {
        /// Event time.
        t: f64,
        /// Request id.
        id: u64,
        /// Shard id within the request.
        shard: u32,
        /// Card index.
        card: usize,
    },
    /// [`TraceSink::fan_in`].
    FanIn {
        /// Event time.
        t: f64,
        /// Request id.
        id: u64,
        /// Arrival-to-completion latency.
        latency_s: f64,
    },
    /// [`TraceSink::step_complete`].
    StepComplete {
        /// Event time.
        t: f64,
        /// Request id.
        id: u64,
        /// Decode steps done after this fan-in.
        step: u32,
        /// Card the step fanned in on.
        card: usize,
    },
    /// [`TraceSink::preempted`].
    Preempted {
        /// Event time.
        t: f64,
        /// Victim request id.
        victim: u64,
        /// Victim shard id.
        shard: u32,
        /// Card the shard was evicted from.
        card: usize,
        /// Cost model's eviction price (cost-aware selection only).
        victim_cost_s: Option<f64>,
    },
    /// [`TraceSink::warmed`].
    Warmed {
        /// Event time.
        t: f64,
        /// Card index.
        card: usize,
    },
    /// [`TraceSink::scaled`].
    Scaled {
        /// The autoscaler's decision.
        event: ScaleEvent,
    },
    /// [`TraceSink::gauges`].
    Gauges {
        /// Event time.
        t: f64,
        /// The sample.
        sample: GaugeSample,
    },
    /// [`TraceSink::card_death`].
    CardDeath {
        /// Event time.
        t: f64,
        /// Card index.
        card: usize,
        /// In-flight shards evicted by the death.
        shards_lost: usize,
    },
    /// [`TraceSink::card_degrade`].
    CardDegrade {
        /// Event time.
        t: f64,
        /// Card index.
        card: usize,
        /// Calibration stretch factor (≥ 1).
        factor: f64,
    },
    /// [`TraceSink::card_revive`].
    CardRevive {
        /// Event time.
        t: f64,
        /// Card index.
        card: usize,
    },
    /// [`TraceSink::failed`].
    Failed {
        /// Event time.
        t: f64,
        /// Stranded request id.
        id: u64,
    },
}

/// A sink that records every hook invocation verbatim — the test
/// instrument behind the trace-neutrality proptest, and a convenient way
/// to postprocess a schedule without writing a custom sink.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// Recorded hook invocations, in schedule order.
    pub events: Vec<TraceEvent>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> RecordingSink {
        RecordingSink::default()
    }
}

impl TraceSink for RecordingSink {
    fn arrival(&mut self, now: f64, request: &Request) {
        self.events.push(TraceEvent::Arrival {
            t: now,
            id: request.id,
        });
    }

    fn shed(&mut self, now: f64, request: &Request) {
        self.events.push(TraceEvent::Shed {
            t: now,
            id: request.id,
        });
    }

    fn dispatch(
        &mut self,
        now: f64,
        request: &Request,
        plan: &[usize],
        predicted_fan_in_s: Option<f64>,
    ) {
        self.events.push(TraceEvent::Dispatch {
            t: now,
            id: request.id,
            plan: plan.to_vec(),
            predicted_fan_in_s,
        });
    }

    fn shard_start(
        &mut self,
        now: f64,
        id: u64,
        shard: u32,
        card: usize,
        pipeline: usize,
        jobs: usize,
        _expected_finish: f64,
    ) {
        self.events.push(TraceEvent::ShardStart {
            t: now,
            id,
            shard,
            card,
            pipeline,
            jobs,
        });
    }

    fn shard_finish(&mut self, now: f64, id: u64, shard: u32, card: usize, _pipeline: usize) {
        self.events.push(TraceEvent::ShardFinish {
            t: now,
            id,
            shard,
            card,
        });
    }

    fn fan_in(&mut self, now: f64, completion: &CompletedRequest) {
        self.events.push(TraceEvent::FanIn {
            t: now,
            id: completion.request.id,
            latency_s: completion.latency(),
        });
    }

    fn step_complete(&mut self, now: f64, id: u64, step: u32, card: usize) {
        self.events.push(TraceEvent::StepComplete {
            t: now,
            id,
            step,
            card,
        });
    }

    fn preempted(
        &mut self,
        now: f64,
        record: &PreemptionRecord,
        shard: u32,
        _pipeline: usize,
        victim_cost_s: Option<f64>,
    ) {
        self.events.push(TraceEvent::Preempted {
            t: now,
            victim: record.preempted,
            shard,
            card: record.card,
            victim_cost_s,
        });
    }

    fn warmed(&mut self, now: f64, card: usize) {
        self.events.push(TraceEvent::Warmed { t: now, card });
    }

    fn scaled(&mut self, event: &ScaleEvent) {
        self.events.push(TraceEvent::Scaled { event: *event });
    }

    fn gauges(&mut self, now: f64, sample: &GaugeSample) {
        self.events.push(TraceEvent::Gauges {
            t: now,
            sample: *sample,
        });
    }

    fn card_death(&mut self, now: f64, card: usize, shards_lost: usize) {
        self.events.push(TraceEvent::CardDeath {
            t: now,
            card,
            shards_lost,
        });
    }

    fn card_degrade(&mut self, now: f64, card: usize, factor: f64) {
        self.events.push(TraceEvent::CardDegrade {
            t: now,
            card,
            factor,
        });
    }

    fn card_revive(&mut self, now: f64, card: usize) {
        self.events.push(TraceEvent::CardRevive { t: now, card });
    }

    fn failed(&mut self, now: f64, request: &Request) {
        self.events.push(TraceEvent::Failed {
            t: now,
            id: request.id,
        });
    }
}

/// An in-flight shard span the Chrome exporter has opened but not yet
/// closed.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    start: f64,
    card: usize,
    pipeline: usize,
    jobs: usize,
}

/// Chrome trace-event JSON exporter. Load the output of
/// [`ChromeTraceSink::into_json`] in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev):
///
/// - each **card** is a process (`pid` = card index), each **pipeline** a
///   thread within it, named via metadata events;
/// - each **shard** is a complete (`"ph": "X"`) span on its pipeline's
///   track, from dispatch to drain (or to eviction, marked `preempted`);
/// - **preemptions**, **sheds**, **warm-ups** and **scaling** decisions
///   are instant (`"ph": "i"`) events;
/// - the **gauges** (queue depth, in-flight shards, powered cards,
///   active energy) are counter (`"ph": "C"`) tracks under a synthetic
///   "fleet" process one past the last card.
///
/// Timestamps are sim-time microseconds (the format's native unit).
#[derive(Debug, Clone)]
pub struct ChromeTraceSink {
    events: Vec<Json>,
    open: BTreeMap<(u64, u32), OpenSpan>,
    fleet_pid: usize,
    spans: usize,
}

/// Microseconds, the trace-event format's native timestamp unit.
fn us(t: f64) -> Json {
    Json::Num(t * 1e6)
}

impl ChromeTraceSink {
    /// A sink for a fleet, with one named process per card and one named
    /// thread per pipeline (metadata events, so Perfetto labels the
    /// tracks).
    pub fn new(fleet: &FleetConfig) -> ChromeTraceSink {
        let mut events = Vec::new();
        let fleet_pid = fleet.cards();
        let mut card = 0usize;
        for (g, group) in fleet.groups.iter().enumerate() {
            for _ in 0..group.count {
                events.push(Json::obj([
                    ("name", Json::Str("process_name".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::Int(card as i64)),
                    (
                        "args",
                        Json::obj([(
                            "name",
                            Json::Str(format!("card {card} (group {g}: {})", group.design())),
                        )]),
                    ),
                ]));
                events.push(Json::obj([
                    ("name", Json::Str("process_sort_index".into())),
                    ("ph", Json::Str("M".into())),
                    ("pid", Json::Int(card as i64)),
                    ("args", Json::obj([("sort_index", Json::Int(card as i64))])),
                ]));
                for p in 0..group.card.pipelines {
                    events.push(Json::obj([
                        ("name", Json::Str("thread_name".into())),
                        ("ph", Json::Str("M".into())),
                        ("pid", Json::Int(card as i64)),
                        ("tid", Json::Int(p as i64)),
                        (
                            "args",
                            Json::obj([("name", Json::Str(format!("pipeline {p}")))]),
                        ),
                    ]));
                }
                card += 1;
            }
        }
        events.push(Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(fleet_pid as i64)),
            ("args", Json::obj([("name", Json::Str("fleet".into()))])),
        ]));
        events.push(Json::obj([
            ("name", Json::Str("process_sort_index".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(fleet_pid as i64)),
            (
                "args",
                Json::obj([("sort_index", Json::Int(fleet_pid as i64))]),
            ),
        ]));
        ChromeTraceSink {
            events,
            open: BTreeMap::new(),
            fleet_pid,
            spans: 0,
        }
    }

    fn instant(&mut self, name: &str, t: f64, pid: usize, tid: usize, scope: &str, args: Json) {
        self.events.push(Json::obj([
            ("name", Json::Str(name.into())),
            ("ph", Json::Str("i".into())),
            ("ts", us(t)),
            ("pid", Json::Int(pid as i64)),
            ("tid", Json::Int(tid as i64)),
            ("s", Json::Str(scope.into())),
            ("args", args),
        ]));
    }

    fn counter(&mut self, name: &str, t: f64, key: &'static str, value: Json) {
        self.events.push(Json::obj([
            ("name", Json::Str(name.into())),
            ("ph", Json::Str("C".into())),
            ("ts", us(t)),
            ("pid", Json::Int(self.fleet_pid as i64)),
            ("args", Json::obj([(key, value)])),
        ]));
    }

    fn close_span(&mut self, name: String, now: f64, id: u64, shard: u32, span: OpenSpan) {
        self.spans += 1;
        self.events.push(Json::obj([
            ("name", Json::Str(name)),
            ("cat", Json::Str("shard".into())),
            ("ph", Json::Str("X".into())),
            ("ts", us(span.start)),
            ("dur", us(now - span.start)),
            ("pid", Json::Int(span.card as i64)),
            ("tid", Json::Int(span.pipeline as i64)),
            (
                "args",
                Json::obj([
                    ("request", Json::UInt(id)),
                    ("shard", Json::Int(shard as i64)),
                    ("jobs", Json::Int(span.jobs as i64)),
                ]),
            ),
        ]));
    }

    /// Complete (`"ph": "X"`) shard spans emitted so far.
    pub fn span_count(&self) -> usize {
        self.spans
    }

    /// Shards started but neither finished nor preempted yet — zero after
    /// a drained run.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Trace events emitted so far (metadata included).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The finished trace: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    pub fn into_json(self) -> Json {
        Json::obj([
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

impl TraceSink for ChromeTraceSink {
    fn shed(&mut self, now: f64, request: &Request) {
        let args = Json::obj([
            ("request", Json::UInt(request.id)),
            ("class", Json::Str(request.class.name().into())),
        ]);
        self.instant("shed", now, self.fleet_pid, 0, "p", args);
    }

    fn dispatch(
        &mut self,
        now: f64,
        request: &Request,
        plan: &[usize],
        predicted_fan_in_s: Option<f64>,
    ) {
        let mut args = vec![
            ("request", Json::UInt(request.id)),
            ("class", Json::Str(request.class.name().into())),
            ("width", Json::Int(plan.len() as i64)),
        ];
        if let Some(p) = predicted_fan_in_s {
            args.push(("predicted_fan_in_us", Json::Num(p * 1e6)));
        }
        self.instant("dispatch", now, self.fleet_pid, 0, "p", Json::obj(args));
    }

    fn shard_start(
        &mut self,
        now: f64,
        id: u64,
        shard: u32,
        card: usize,
        pipeline: usize,
        jobs: usize,
        _expected_finish: f64,
    ) {
        self.open.insert(
            (id, shard),
            OpenSpan {
                start: now,
                card,
                pipeline,
                jobs,
            },
        );
    }

    fn shard_finish(&mut self, now: f64, id: u64, shard: u32, _card: usize, _pipeline: usize) {
        if let Some(span) = self.open.remove(&(id, shard)) {
            self.close_span(format!("req {id}"), now, id, shard, span);
        }
    }

    fn step_complete(&mut self, now: f64, id: u64, step: u32, card: usize) {
        let args = Json::obj([
            ("request", Json::UInt(id)),
            ("step", Json::Int(step as i64)),
        ]);
        self.instant("step", now, card, 0, "p", args);
    }

    fn preempted(
        &mut self,
        now: f64,
        record: &PreemptionRecord,
        shard: u32,
        pipeline: usize,
        victim_cost_s: Option<f64>,
    ) {
        if let Some(span) = self.open.remove(&(record.preempted, shard)) {
            self.close_span(
                format!("req {} (preempted)", record.preempted),
                now,
                record.preempted,
                shard,
                span,
            );
        }
        let mut args = vec![
            ("victim", Json::UInt(record.preempted)),
            ("waiting", Json::UInt(record.waiting)),
            (
                "jobs_checkpointed",
                Json::Int(record.jobs_checkpointed as i64),
            ),
        ];
        if let Some(c) = victim_cost_s {
            args.push(("victim_cost_us", Json::Num(c * 1e6)));
        }
        self.instant("preempt", now, record.card, pipeline, "t", Json::obj(args));
    }

    fn warmed(&mut self, now: f64, card: usize) {
        self.instant(
            "warmed",
            now,
            card,
            0,
            "p",
            Json::obj([("card", Json::Int(card as i64))]),
        );
    }

    fn scaled(&mut self, event: &ScaleEvent) {
        let name = if event.powered_on { "power-up" } else { "park" };
        let args = Json::obj([
            ("queue_depth", Json::Int(event.queue_depth as i64)),
            ("powered_cards", Json::Int(event.powered_cards as i64)),
        ]);
        self.instant(name, event.time, event.card, 0, "p", args);
    }

    fn card_death(&mut self, now: f64, card: usize, shards_lost: usize) {
        // Close every span still open on the dead card — their shards
        // were evicted, and an unclosed span would render as running
        // forever.
        let victims: Vec<(u64, u32)> = self
            .open
            .iter()
            .filter(|(_, span)| span.card == card)
            .map(|(&k, _)| k)
            .collect();
        for (id, shard) in victims {
            let span = self.open.remove(&(id, shard)).expect("just listed");
            self.close_span(format!("req {id} (killed)"), now, id, shard, span);
        }
        self.instant(
            "card-death",
            now,
            card,
            0,
            "p",
            Json::obj([("shards_lost", Json::Int(shards_lost as i64))]),
        );
    }

    fn card_degrade(&mut self, now: f64, card: usize, factor: f64) {
        self.instant(
            "card-degrade",
            now,
            card,
            0,
            "p",
            Json::obj([("factor", Json::Num(factor))]),
        );
    }

    fn card_revive(&mut self, now: f64, card: usize) {
        self.instant(
            "card-revive",
            now,
            card,
            0,
            "p",
            Json::obj([("card", Json::Int(card as i64))]),
        );
    }

    fn failed(&mut self, now: f64, request: &Request) {
        let args = Json::obj([
            ("request", Json::UInt(request.id)),
            ("class", Json::Str(request.class.name().into())),
        ]);
        self.instant("failed", now, self.fleet_pid, 0, "p", args);
    }

    fn gauges(&mut self, now: f64, sample: &GaugeSample) {
        self.counter(
            "queue depth",
            now,
            "requests",
            Json::Int(sample.queue_depth as i64),
        );
        self.counter(
            "in-flight shards",
            now,
            "shards",
            Json::Int(sample.in_flight_shards as i64),
        );
        self.counter(
            "powered cards",
            now,
            "cards",
            Json::Int(sample.powered_cards as i64),
        );
        self.counter(
            "active energy (J)",
            now,
            "joules",
            Json::Num(sample.active_energy_joules),
        );
    }
}

/// The kernel's self-profiling counters, maintained on every run (they
/// cost a few integer increments per event, so they are unconditional).
/// Everything here is sim-domain and deterministic; wall-clock rates are
/// the *caller's* to measure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCounters {
    /// Events delivered, indexed by [`Event::kind_index`] (names in
    /// [`Event::KIND_NAMES`]).
    pub events_by_kind: [u64; Event::KIND_COUNT],
    /// Completion timers that arrived after their shard was preempted —
    /// dropped at delivery (the tombstoning scheme's overhead).
    pub tombstoned_completions: u64,
    /// Shard plans dispatched (one per policy decision).
    pub dispatches: u64,
    /// Shards admitted across all plans (≥ `dispatches`).
    pub shards_dispatched: u64,
    /// Background shards checkpointed-and-requeued.
    pub preemption_evictions: u64,
    /// Largest event-heap population observed (arrivals are fed lazily,
    /// so this tracks in-flight shards plus armed timers, not the trace
    /// length).
    pub peak_event_heap: usize,
    /// Largest waiting-queue depth observed.
    pub peak_queue_depth: usize,
    /// Simulated span covered, seconds (first arrival to the last
    /// delivered event).
    pub sim_span_s: f64,
}

impl KernelCounters {
    /// Total events delivered across all kinds.
    pub fn events_total(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }

    /// The deterministic counters as ordered JSON (no wall-clock fields —
    /// those belong to the caller that measured them).
    pub fn to_json(&self) -> Json {
        let mut by_kind: Vec<(&'static str, Json)> =
            vec![("total", Json::UInt(self.events_total()))];
        for (i, name) in Event::KIND_NAMES.iter().enumerate() {
            by_kind.push((name, Json::UInt(self.events_by_kind[i])));
        }
        Json::obj([
            ("events", Json::obj(by_kind)),
            (
                "tombstoned_completions",
                Json::UInt(self.tombstoned_completions),
            ),
            ("dispatches", Json::UInt(self.dispatches)),
            ("shards_dispatched", Json::UInt(self.shards_dispatched)),
            (
                "preemption_evictions",
                Json::UInt(self.preemption_evictions),
            ),
            ("peak_event_heap", Json::Int(self.peak_event_heap as i64)),
            ("peak_queue_depth", Json::Int(self.peak_queue_depth as i64)),
            ("sim_span_s", Json::Num(self.sim_span_s)),
        ])
    }
}

/// Bounded bucket count for [`TimeBuckets`]: when a run outgrows the
/// capacity, adjacent buckets merge and the bucket width doubles, so
/// memory stays fixed for arbitrarily long runs.
pub const TELEMETRY_BUCKET_CAP: usize = 128;

/// Initial [`TimeBuckets`] width, seconds.
pub const TELEMETRY_BUCKET_SECONDS: f64 = 0.25;

/// One bucket's accumulators (means stored as sums until export).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct BucketAcc {
    samples: u64,
    queue_sum: f64,
    queue_max: usize,
    shards_sum: f64,
    shards_max: usize,
    powered_sum: f64,
    util_sum: f64,
    energy_end_joules: f64,
}

impl BucketAcc {
    fn merge(a: BucketAcc, b: BucketAcc) -> BucketAcc {
        BucketAcc {
            samples: a.samples + b.samples,
            queue_sum: a.queue_sum + b.queue_sum,
            queue_max: a.queue_max.max(b.queue_max),
            shards_sum: a.shards_sum + b.shards_sum,
            shards_max: a.shards_max.max(b.shards_max),
            powered_sum: a.powered_sum + b.powered_sum,
            util_sum: a.util_sum + b.util_sum,
            // Energy is cumulative: the later bucket's last sample wins
            // when it saw one.
            energy_end_joules: if b.samples > 0 {
                b.energy_end_joules
            } else {
                a.energy_end_joules
            },
        }
    }
}

/// Fixed-memory time-bucketed gauge histogram. Buckets start
/// [`TELEMETRY_BUCKET_SECONDS`] wide; when a sample lands past bucket
/// [`TELEMETRY_BUCKET_CAP`], adjacent buckets merge pairwise and the
/// width doubles — so a 1-second probe and a week-long soak both cost the
/// same bounded memory, trading resolution instead.
#[derive(Debug, Clone)]
pub struct TimeBuckets {
    origin: Option<f64>,
    width_s: f64,
    buckets: Vec<BucketAcc>,
}

impl Default for TimeBuckets {
    fn default() -> TimeBuckets {
        TimeBuckets::new()
    }
}

impl TimeBuckets {
    /// An empty histogram at the initial width.
    pub fn new() -> TimeBuckets {
        TimeBuckets {
            origin: None,
            width_s: TELEMETRY_BUCKET_SECONDS,
            buckets: Vec::new(),
        }
    }

    /// The current bucket width, seconds (grows by doubling).
    pub fn width_seconds(&self) -> f64 {
        self.width_s
    }

    /// Folds one gauge sample in. `now` values must be non-decreasing
    /// (event order), which the simulation guarantees.
    pub fn record(&mut self, now: f64, sample: &GaugeSample) {
        let origin = *self.origin.get_or_insert(now);
        let mut idx = ((now - origin) / self.width_s) as usize;
        while idx >= TELEMETRY_BUCKET_CAP {
            self.coarsen();
            idx = ((now - origin) / self.width_s) as usize;
        }
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, BucketAcc::default());
        }
        let b = &mut self.buckets[idx];
        b.samples += 1;
        b.queue_sum += sample.queue_depth as f64;
        b.queue_max = b.queue_max.max(sample.queue_depth);
        b.shards_sum += sample.in_flight_shards as f64;
        b.shards_max = b.shards_max.max(sample.in_flight_shards);
        b.powered_sum += sample.powered_cards as f64;
        b.util_sum += sample.utilization;
        b.energy_end_joules = sample.active_energy_joules;
    }

    /// Merges adjacent bucket pairs and doubles the width.
    fn coarsen(&mut self) {
        self.width_s *= 2.0;
        let merged: Vec<BucketAcc> = self
            .buckets
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    BucketAcc::merge(pair[0], pair[1])
                } else {
                    pair[0]
                }
            })
            .collect();
        self.buckets = merged;
    }

    /// Exports the histogram rows (empty when nothing was recorded).
    pub fn rows(&self) -> Vec<TelemetryBucket> {
        let origin = match self.origin {
            Some(o) => o,
            None => return Vec::new(),
        };
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let n = b.samples.max(1) as f64;
                TelemetryBucket {
                    start_s: origin + i as f64 * self.width_s,
                    samples: b.samples,
                    queue_mean: b.queue_sum / n,
                    queue_max: b.queue_max,
                    in_flight_mean: b.shards_sum / n,
                    in_flight_max: b.shards_max,
                    powered_mean: b.powered_sum / n,
                    utilization_mean: b.util_sum / n,
                    energy_joules: b.energy_end_joules,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_others_enabled() {
        assert!(!NullSink.enabled());
        assert!(RecordingSink::new().enabled());
        assert!(ChromeTraceSink::new(&FleetConfig::standard(1)).enabled());
    }

    #[test]
    fn time_buckets_coarsen_but_never_exceed_cap() {
        let mut tb = TimeBuckets::new();
        let sample = |q: usize| GaugeSample {
            queue_depth: q,
            in_flight_shards: 1,
            powered_cards: 2,
            utilization: 0.25,
            active_energy_joules: q as f64,
        };
        // 10 000 samples over 10 000 s: far past the initial
        // 128 × 0.25 s span, so the histogram must coarsen repeatedly.
        for i in 0..10_000 {
            tb.record(i as f64, &sample(i % 7));
        }
        let rows = tb.rows();
        assert!(rows.len() <= TELEMETRY_BUCKET_CAP);
        assert!(tb.width_seconds() > TELEMETRY_BUCKET_SECONDS);
        let total: u64 = rows.iter().map(|r| r.samples).sum();
        assert_eq!(total, 10_000, "coarsening loses no samples");
        // Energy is cumulative: the last bucket holds the last sample.
        assert_eq!(rows.last().expect("non-empty").energy_joules, 9_999.0 % 7.0);
        // Bucket starts advance by exactly the width.
        for w in rows.windows(2) {
            assert!((w[1].start_s - w[0].start_s - tb.width_seconds()).abs() < 1e-9);
        }
    }

    #[test]
    fn time_bucket_means_average_their_samples() {
        let mut tb = TimeBuckets::new();
        for (t, q) in [(0.0, 2), (0.1, 4), (1.0, 8)] {
            tb.record(
                t,
                &GaugeSample {
                    queue_depth: q,
                    in_flight_shards: q / 2,
                    powered_cards: 1,
                    utilization: 0.5,
                    active_energy_joules: t,
                },
            );
        }
        let rows = tb.rows();
        assert_eq!(rows[0].samples, 2);
        assert_eq!(rows[0].queue_mean, 3.0);
        assert_eq!(rows[0].queue_max, 4);
        // The empty gap buckets between 0.25 s and 1.0 s read zero.
        assert!(rows[1].samples == 0 && rows[1].queue_mean == 0.0);
        let last = rows.last().expect("non-empty");
        assert_eq!(last.queue_mean, 8.0);
        assert_eq!(last.energy_joules, 1.0);
    }

    #[test]
    fn chrome_sink_emits_spans_and_counters() {
        let fleet = FleetConfig::standard(2);
        let mut sink = ChromeTraceSink::new(&fleet);
        let meta = sink.event_count();
        sink.shard_start(1.0, 7, 0, 1, 0, 3, 1.5);
        assert_eq!(sink.open_spans(), 1);
        sink.shard_finish(1.5, 7, 0, 1, 0);
        assert_eq!((sink.open_spans(), sink.span_count()), (0, 1));
        sink.gauges(
            1.5,
            &GaugeSample {
                queue_depth: 4,
                in_flight_shards: 1,
                powered_cards: 2,
                utilization: 0.25,
                active_energy_joules: 0.5,
            },
        );
        assert_eq!(sink.event_count(), meta + 1 + 4, "1 span + 4 counters");
        let text = sink.into_json().pretty();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ph\": \"C\""));
        assert!(text.contains("\"dur\": 500000"));
        assert!(text.contains("pipeline 1"), "dual-pipeline thread names");
    }

    #[test]
    fn chrome_sink_closes_preempted_spans() {
        let fleet = FleetConfig::standard(1);
        let mut sink = ChromeTraceSink::new(&fleet);
        sink.shard_start(0.0, 3, 1, 0, 0, 2, 4.0);
        sink.preempted(
            1.0,
            &PreemptionRecord {
                time: 1.0,
                preempted: 3,
                waiting: 9,
                card: 0,
                jobs_checkpointed: 1,
            },
            1,
            0,
            Some(0.25),
        );
        assert_eq!((sink.open_spans(), sink.span_count()), (0, 1));
        let text = sink.into_json().pretty();
        assert!(text.contains("(preempted)"));
        assert!(text.contains("\"victim_cost_us\""));
    }

    #[test]
    fn chrome_sink_closes_spans_killed_by_card_death() {
        let fleet = FleetConfig::standard(2);
        let mut sink = ChromeTraceSink::new(&fleet);
        sink.shard_start(0.0, 1, 0, 0, 0, 2, 4.0);
        sink.shard_start(0.0, 2, 0, 1, 0, 2, 4.0);
        sink.card_death(1.0, 0, 1);
        // Only card 0's span closes; card 1's survives the fault.
        assert_eq!((sink.open_spans(), sink.span_count()), (1, 1));
        sink.card_degrade(1.5, 1, 2.0);
        sink.card_revive(3.0, 0);
        let text = sink.clone().into_json().pretty();
        assert!(text.contains("(killed)"));
        assert!(text.contains("\"card-death\""));
        assert!(text.contains("\"shards_lost\": 1"));
        assert!(text.contains("\"card-degrade\""));
        assert!(text.contains("\"factor\": 2"));
        assert!(text.contains("\"card-revive\""));
    }

    #[test]
    fn recording_sink_captures_fault_hooks() {
        use crate::request::Request;
        use swat_workloads::RequestShape;
        let mut sink = RecordingSink::new();
        sink.card_death(1.0, 0, 3);
        sink.card_degrade(2.0, 1, 1.5);
        sink.card_revive(3.0, 0);
        let shape = RequestShape {
            seq_len: 128,
            heads: 1,
            layers: 1,
            batch: 1,
        };
        sink.failed(4.0, &Request::new(9, 0.0, shape));
        assert_eq!(
            sink.events,
            vec![
                TraceEvent::CardDeath {
                    t: 1.0,
                    card: 0,
                    shards_lost: 3
                },
                TraceEvent::CardDegrade {
                    t: 2.0,
                    card: 1,
                    factor: 1.5
                },
                TraceEvent::CardRevive { t: 3.0, card: 0 },
                TraceEvent::Failed { t: 4.0, id: 9 },
            ]
        );
    }

    #[test]
    fn kernel_counters_serialize_by_kind() {
        let c = KernelCounters {
            events_by_kind: [10, 5, 4, 2, 1, 0, 3, 1, 1],
            tombstoned_completions: 1,
            sim_span_s: 2.5,
            ..KernelCounters::default()
        };
        assert_eq!(c.events_total(), 27);
        let text = c.to_json().pretty();
        assert!(text.contains("\"total\": 27"));
        assert!(text.contains("\"arrival\": 10"));
        assert!(text.contains("\"step_complete\": 4"));
        assert!(text.contains("\"scale_check\": 0"));
        assert!(text.contains("\"card_death\": 3"));
        assert!(text.contains("\"card_degrade\": 1"));
        assert!(text.contains("\"card_revive\": 1"));
        assert!(text.contains("\"tombstoned_completions\": 1"));
    }

    #[test]
    fn telemetry_mode_defaults_to_exact() {
        assert_eq!(TelemetryMode::default(), TelemetryMode::Exact);
    }
}
