//! Fleet-serving sweep: request streams through SWAT fleets under every
//! (scenario × arrival process × dispatch policy) combination, emitting
//! `BENCH_serve.json` (what each run served) and `BENCH_kernel.json`
//! (the kernel work each run took: its [`KernelCounters`]).
//!
//! Every sweep cell is a declarative [`ScenarioSpec`] value — fleet
//! shape, arrivals, traffic, policy, and controller knobs as plain data
//! (`swat_serve::scenario`) — and this binary is just the catalogue of
//! specs plus table/JSON assembly. New studies are new spec values, not
//! new simulation-driving code, and `--scenario <name>` runs any single
//! scenario's cells alone.
//!
//! Ten scenarios exercise `swat-serve` end to end:
//!
//! 1. **homogeneous** — the PR 1 baseline: 6 dual-pipeline FP16 cards,
//!    Poisson/bursty/diurnal production traffic, all four policies;
//! 2. **heterogeneous** — a mixed fleet (4 dual-pipeline FP16 cards next
//!    to 4 single-pipeline FP32 cards), where policies must weigh
//!    per-card service-time estimates;
//! 3. **priority** — bursty overload with and without admission control
//!    (background shed at queue depth 32), reported per priority class;
//! 4. **preemption** — bursty traffic with lulls (background dispatches,
//!    then interactive bursts find the pipelines occupied), with and
//!    without checkpoint-and-requeue preemption, preemption counts and
//!    the full preemption log in the JSON;
//! 5. **autoscale** — diurnal traffic on a static fleet vs the same fleet
//!    under the autoscaler, with scaling timelines and the idle-energy /
//!    SLO-attainment tradeoff in the JSON;
//! 6. **sharded** — whole-request dispatch vs split-aware dispatch
//!    (`max_shards = 4`) on a lightly loaded fleet, where fanning a
//!    request's independent attention jobs across idle pipelines cuts
//!    per-request latency (fan-out/fan-in), with shard counts in the
//!    JSON;
//! 7. **adaptive-width** — cost-model width selection vs fixed fan-out
//!    under a deep queue on bandwidth-binned cards (two co-located
//!    shards oversubscribe the memory interface ~1.9×): always fanning
//!    to 4 burns stretched pipeline-seconds the backlog needs, while
//!    the adaptive planner backs off to narrow plans — with per-width
//!    histograms and the predicted-vs-realized audit in the JSON;
//! 8. **sessions** — a flash crowd of multi-turn conversations served
//!    with and without sticky session→card affinity, with per-session
//!    latency over per-conversation means and Jain fairness in the
//!    JSON;
//! 9. **faults** — seeded card faults mid-diurnal: a card death with
//!    in-flight shards lost and a later revival, and a 2× calibration
//!    degrade the cost model re-snapshots — fault/recovery counts and
//!    degraded-mode service in the JSON, next to the fault-free
//!    control run;
//! 10. **decode** — a decode-heavy interactive mix (2–6 steps per
//!     request, seeded early exit) near saturation on the
//!     bandwidth-binned fleet: continuous batching (step remnants
//!     requeue and fresh requests overtake between steps) vs whole-job
//!     queueing (run-to-completion), adaptive vs fixed per-step width,
//!     and an early-exit-off control — with TTFT, steps/request, and
//!     early-exit rates in the JSON's `decode` blocks.
//!
//! Every sweep cell is an independent simulation with its own seeded
//! generator, so the cells run on the shared scoped thread pool
//! (`--jobs N`). Results are collected by cell index and every table and
//! JSON byte is assembled sequentially after the pool joins: output is
//! bitwise identical for a fixed `seed` regardless of `--jobs`.
//! Per-scenario timing and kernel events/sec go to **stderr** only, so
//! the tables on stdout and both JSON artifacts stay byte-identical run
//! to run.
//!
//! ```text
//! cargo run --release -p swat-bench --bin serve_sweep \
//!     [--jobs N] [--scenario NAME] [seed] [requests]
//! ```
//!
//! `requests` (default 10 000) scales every run; CI smoke-tests the
//! binary at 500 and cross-checks `--jobs 4` against `--jobs 1`.

use swat_bench::{banner, print_table, run_cells, scenario_timing, Cell};
use swat_serve::arrival::ArrivalProcess;
use swat_serve::fleet::FleetConfig;
use swat_serve::json::Json;
use swat_serve::metrics::ServeReport;
use swat_serve::scale::AutoscalerConfig;
use swat_serve::scenario::{
    Codec, FaultKindSpec, FaultSpec, FleetSpec, PolicySpec, PreemptionSpec, ScenarioSpec,
    TrafficModel,
};
use swat_serve::sim::{AdmissionControl, DecodeBatching};
use swat_serve::trace::KernelCounters;
use swat_workloads::{DecodeMix, RequestClass, RequestMix, SessionProfile};

/// Default requests per sweep cell.
const DEFAULT_REQUESTS: usize = 10_000;

/// The four whole-request policies every baseline scenario sweeps, in
/// `all_policies()` order.
const ALL_POLICIES: [PolicySpec; 4] = [
    PolicySpec::Fifo,
    PolicySpec::LeastLoaded,
    PolicySpec::ShortestJobFirst,
    PolicySpec::HeadAffinity,
];

/// Which extra table (printed below the main summary) a scenario feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ExtraTable {
    None,
    Fanout,
    Width,
    Autoscale,
    Priority,
    Sessions,
    Faults,
    Decode,
}

/// One sweep cell: the spec to run plus the labels the report alone
/// cannot recover (row label, admission / elastic annotations, and the
/// bare cell label the scenario's extra table keys on).
struct CellDef {
    spec: ScenarioSpec,
    row: String,
    admission: String,
    elastic: String,
    label: String,
}

impl CellDef {
    /// A baseline cell (no per-cell controls): row label is the scenario
    /// name, admission "admit-all", elastic "none".
    fn baseline(spec: ScenarioSpec, scenario: &str) -> CellDef {
        CellDef {
            spec,
            row: scenario.to_string(),
            admission: "admit-all".to_string(),
            elastic: "none".to_string(),
            label: String::new(),
        }
    }

    /// A control-A/B cell: row label `{scenario}/{label}`, the label
    /// annotated as the elastic setting.
    fn elastic(spec: ScenarioSpec, prefix: &str, label: &str) -> CellDef {
        CellDef {
            spec,
            row: format!("{prefix}/{label}"),
            admission: "admit-all".to_string(),
            elastic: label.to_string(),
            label: label.to_string(),
        }
    }

    /// An admission-A/B cell: row label `{scenario}/{label}`, the label
    /// annotated as the admission setting.
    fn admission(spec: ScenarioSpec, prefix: &str, label: &str) -> CellDef {
        CellDef {
            spec,
            row: format!("{prefix}/{label}"),
            admission: label.to_string(),
            elastic: "none".to_string(),
            label: label.to_string(),
        }
    }
}

/// One sweep scenario: a name, the shared fleet, scenario-level JSON
/// annotations (inserted between `fleet` and `runs`), the extra table it
/// feeds, and its cells.
struct ScenarioDef {
    name: &'static str,
    fleet: FleetSpec,
    extras: Vec<(&'static str, Json)>,
    table: ExtraTable,
    cells: Vec<CellDef>,
}

/// The full sweep catalogue: ten scenarios, 43 cells, every one a
/// [`ScenarioSpec`] value.
fn sweep_scenarios(seed: u64, requests: usize) -> Vec<ScenarioDef> {
    let mut defs = Vec::new();

    // A spec with the sweep-wide defaults filled in; scenarios override
    // the fields they study.
    let base = |name: String, fleet: FleetSpec, arrivals: ArrivalProcess| ScenarioSpec {
        name,
        fleet,
        arrivals,
        traffic: TrafficModel::mix(RequestMix::Production),
        seed,
        requests,
        ..ScenarioSpec::default()
    };

    // The production mix averages ≈0.6 s of single-pipeline service per
    // request, so 12 FP16 pipelines sustain ≈20 rps. Rates target ≈70%
    // mean utilization — with transient overload inside bursts (4× base)
    // and at the diurnal peak (1.2× capacity), where queues visibly form.
    let homogeneous = FleetSpec::standard(6);
    let homogeneous_arrivals = [
        ArrivalProcess::poisson(14.0),
        ArrivalProcess::bursty(8.0),
        ArrivalProcess::diurnal(4.0, 24.0),
    ];
    defs.push(ScenarioDef {
        name: "homogeneous",
        fleet: homogeneous.clone(),
        extras: vec![("admission_queue_cap", Json::Null)],
        table: ExtraTable::None,
        cells: homogeneous_arrivals
            .iter()
            .flat_map(|&arrivals| ALL_POLICIES.iter().map(move |&policy| (arrivals, policy)))
            .map(|(arrivals, policy)| {
                let spec = ScenarioSpec {
                    policy,
                    ..base("homogeneous".to_string(), homogeneous.clone(), arrivals)
                };
                CellDef::baseline(spec, "homogeneous")
            })
            .collect(),
    });

    // The mixed fleet trades two FP16 duals for four FP32 singles:
    // ≈11 FP16-equivalent pipelines, so rates scale down accordingly.
    let heterogeneous = FleetSpec::mixed_precision(4, 4);
    let heterogeneous_arrivals = [ArrivalProcess::poisson(12.0), ArrivalProcess::bursty(7.0)];
    defs.push(ScenarioDef {
        name: "heterogeneous",
        fleet: heterogeneous.clone(),
        extras: vec![("admission_queue_cap", Json::Null)],
        table: ExtraTable::None,
        cells: heterogeneous_arrivals
            .iter()
            .flat_map(|&arrivals| ALL_POLICIES.iter().map(move |&policy| (arrivals, policy)))
            .map(|(arrivals, policy)| {
                let spec = ScenarioSpec {
                    policy,
                    ..base("heterogeneous".to_string(), heterogeneous.clone(), arrivals)
                };
                CellDef::baseline(spec, "heterogeneous")
            })
            .collect(),
    });

    // Priority scenario: sustained bursts past capacity, where admission
    // control earns its keep by shedding background filler.
    let priority_arrivals = ArrivalProcess::bursty(12.0);
    let background_cap = 32usize;
    defs.push(ScenarioDef {
        name: "priority",
        fleet: homogeneous.clone(),
        extras: vec![("admission_queue_cap", Json::Int(background_cap as i64))],
        table: ExtraTable::Priority,
        cells: [
            ("admit-all", AdmissionControl::admit_all()),
            (
                "shed-background",
                AdmissionControl::admit_all().with_cap(RequestClass::Background, background_cap),
            ),
        ]
        .into_iter()
        .map(|(label, admission)| {
            let spec = ScenarioSpec {
                admission,
                ..base(
                    format!("priority/{label}"),
                    homogeneous.clone(),
                    priority_arrivals,
                )
            };
            CellDef::admission(spec, "priority", label)
        })
        .collect(),
    });

    // Preemption scenario: bursty traffic with real lulls — background
    // work gets dispatched between bursts, then interactive bursts arrive
    // to find the pipelines occupied, which is the only regime where
    // checkpoint-and-requeue has victims to take. Base rate well under
    // the two-card capacity (≈6.6 rps) so the lulls genuinely drain.
    let preemption_fleet = FleetSpec::standard(2);
    let preemption_arrivals = ArrivalProcess::bursty(2.5);
    let patience = 0.1f64;
    defs.push(ScenarioDef {
        name: "preemption",
        fleet: preemption_fleet.clone(),
        extras: vec![("preemption_wait_s", Json::Num(patience))],
        table: ExtraTable::None,
        cells: [
            ("run-to-completion", PreemptionSpec::Disabled),
            (
                "preempt-100ms",
                PreemptionSpec::AfterWait {
                    threshold_s: patience,
                },
            ),
        ]
        .into_iter()
        .map(|(label, preemption)| {
            let spec = ScenarioSpec {
                preemption,
                ..base(
                    format!("preemption/{label}"),
                    preemption_fleet.clone(),
                    preemption_arrivals,
                )
            };
            CellDef::elastic(spec, "preemption", label)
        })
        .collect(),
    });

    // Autoscale scenario: a compressed diurnal ramp on the 6-card fleet.
    // The static fleet pays idle power all "night", the elastic one parks
    // down to 2 cards and pays warm-up latency (and some SLO attainment)
    // on the morning ramp instead.
    let autoscale_arrivals = ArrivalProcess::diurnal(3.0, 22.0);
    let scaler_cfg = AutoscalerConfig::standard().with_min_cards(2);
    defs.push(ScenarioDef {
        name: "autoscale",
        fleet: homogeneous.clone(),
        extras: vec![("autoscaler", scaler_cfg.encode())],
        table: ExtraTable::Autoscale,
        cells: [("static", None), ("autoscale-min2", Some(scaler_cfg))]
            .into_iter()
            .map(|(label, autoscale)| {
                let spec = ScenarioSpec {
                    autoscale,
                    ..base(
                        format!("autoscale/{label}"),
                        homogeneous.clone(),
                        autoscale_arrivals,
                    )
                };
                CellDef::elastic(spec, "autoscale", label)
            })
            .collect(),
    });

    // Sharded scenario: light load on the 4-card fleet leaves idle
    // pipelines at most dispatches — exactly when splitting a request's
    // independent attention jobs across them pays off in latency.
    let sharded_fleet = FleetSpec::standard(4);
    let sharded_arrivals = ArrivalProcess::poisson(6.0);
    let sharded_max = 4usize;
    defs.push(ScenarioDef {
        name: "sharded",
        fleet: sharded_fleet.clone(),
        extras: vec![("max_shards", Json::Int(sharded_max as i64))],
        table: ExtraTable::Fanout,
        cells: [
            ("whole", PolicySpec::LeastLoaded),
            (
                "sharded-4",
                PolicySpec::ShardedLeastLoaded {
                    max_shards: sharded_max,
                    adaptive: true,
                },
            ),
            ("whole", PolicySpec::ShortestJobFirst),
            (
                "sharded-4",
                PolicySpec::ShardedShortestJobFirst {
                    max_shards: sharded_max,
                    adaptive: true,
                },
            ),
        ]
        .into_iter()
        .map(|(label, policy)| {
            let spec = ScenarioSpec {
                policy,
                ..base(
                    format!("sharded/{label}"),
                    sharded_fleet.clone(),
                    sharded_arrivals,
                )
            };
            CellDef::elastic(spec, "sharded", label)
        })
        .collect(),
    });

    // Adaptive-width scenario: bandwidth-binned cards (1.2 GB/s against
    // the ~1.15 GB/s one FP16 pipeline streams), so two co-located shards
    // oversubscribe the interface and stretch ~1.9×. Interactive Poisson
    // load near the fixed policy's saturation point keeps the queue deep,
    // where pipeline-seconds are the scarce resource: fixed fan-out burns
    // the stretch on every wide dispatch, the cost-model planner prices
    // the backlog, backs off to narrow plans, and sustains the rate.
    let binned_fleet = FleetSpec::binned(4, 1.2e9);
    let adaptive_arrivals = ArrivalProcess::poisson(80.0);
    let adaptive_max = 4usize;
    defs.push(ScenarioDef {
        name: "adaptive-width",
        fleet: binned_fleet.clone(),
        extras: vec![("max_shards", Json::Int(adaptive_max as i64))],
        table: ExtraTable::Width,
        cells: [
            ("fixed-4", false, false),
            ("adaptive-4", true, false),
            ("fixed-4", false, true),
            ("adaptive-4", true, true),
        ]
        .into_iter()
        .map(|(label, adaptive, sjf)| {
            let policy = if sjf {
                PolicySpec::ShardedShortestJobFirst {
                    max_shards: adaptive_max,
                    adaptive,
                }
            } else {
                PolicySpec::ShardedLeastLoaded {
                    max_shards: adaptive_max,
                    adaptive,
                }
            };
            let spec = ScenarioSpec {
                policy,
                traffic: TrafficModel::mix(RequestMix::Interactive),
                ..base(
                    format!("adaptive/{label}"),
                    binned_fleet.clone(),
                    adaptive_arrivals,
                )
            };
            CellDef::elastic(spec, "adaptive", label)
        })
        .collect(),
    });

    // Sessions scenario: a flash crowd of conversations — session *starts*
    // spike 10× at the onset and relax over the decay — served with and
    // without sticky session→card residency. Sessions average ≈5 turns
    // (standard profile), so the cell sees roughly `requests` turns. Both
    // cells serve the identical tagged conversation trace (open-loop
    // arrivals make it policy-independent), so any difference is pure
    // dispatch.
    let session_fleet = FleetSpec::standard(4);
    let session_arrivals = ArrivalProcess::flash_crowd(2.0, 20.0, 30.0, 5.0);
    let session_profile = SessionProfile::standard();
    let affinity_cap = 64usize;
    let sessions_per_cell = (requests / 5).max(1);
    defs.push(ScenarioDef {
        name: "sessions",
        fleet: session_fleet.clone(),
        extras: vec![
            ("profile", session_profile.encode()),
            ("sessions_per_run", Json::Int(sessions_per_cell as i64)),
            ("affinity_capacity_per_card", Json::Int(affinity_cap as i64)),
        ],
        table: ExtraTable::Sessions,
        cells: [
            ("affinity-off", PolicySpec::LeastLoaded),
            (
                "affinity-on",
                PolicySpec::SessionAffinity {
                    capacity_per_card: affinity_cap,
                },
            ),
        ]
        .into_iter()
        .map(|(label, policy)| {
            let spec = ScenarioSpec {
                policy,
                traffic: TrafficModel::Sessions {
                    profile: session_profile,
                },
                requests: sessions_per_cell,
                ..base(
                    format!("sessions/{label}"),
                    session_fleet.clone(),
                    session_arrivals,
                )
            };
            CellDef::elastic(spec, "sessions", label)
        })
        .collect(),
    });

    // Faults scenario: the same trace served fault-free, through a card
    // death (in-flight shards lost, remnants requeued, a revival later),
    // and through a 2× calibration degrade — all at seeded mid-diurnal
    // times (fractions of the trace span), so recovery happens under the
    // peak at any `requests`.
    let fault_fleet = FleetSpec::standard(4);
    let fault_arrivals = ArrivalProcess::diurnal(3.0, 14.0);
    defs.push(ScenarioDef {
        name: "faults",
        fleet: fault_fleet.clone(),
        extras: vec![],
        table: ExtraTable::Faults,
        cells: [
            ("fault-free", vec![]),
            (
                "card-death",
                vec![
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
            ),
            (
                "degrade-2x",
                vec![FaultSpec {
                    at_frac: 0.4,
                    card: 0,
                    kind: FaultKindSpec::Degrade { factor: 2.0 },
                }],
            ),
        ]
        .into_iter()
        .map(|(label, faults)| {
            let spec = ScenarioSpec {
                faults,
                ..base(
                    format!("faults/{label}"),
                    fault_fleet.clone(),
                    fault_arrivals,
                )
            };
            CellDef::elastic(spec, "faults", label)
        })
        .collect(),
    });

    // Decode scenario: the same bandwidth-binned fleet as adaptive-width,
    // but every request owes 2–6 decode steps (seeded early exit at 20%
    // per boundary, expected ≈2.9 steps), so ≈28 rps saturates where the
    // one-shot mix took 80. Poisson load just under that keeps the queue
    // deep enough that *when* a remnant re-enters matters: continuous
    // batching lets short fresh requests overtake a long decode between
    // its steps, whole-job queueing holds the card run-to-completion.
    let decode_arrivals = ArrivalProcess::poisson(24.0);
    let decode_mix = DecodeMix {
        min_steps: 2,
        max_steps: 6,
        exit_prob: 0.2,
    };
    let decode_max = 4usize;
    defs.push(ScenarioDef {
        name: "decode",
        fleet: binned_fleet.clone(),
        extras: vec![
            ("max_shards", Json::Int(decode_max as i64)),
            ("decode_mix", decode_mix.encode()),
        ],
        table: ExtraTable::Decode,
        cells: [
            ("continuous/adaptive-4", false, false, decode_mix.exit_prob),
            ("whole-job/adaptive-4", true, false, decode_mix.exit_prob),
            ("continuous/fixed-4", false, true, decode_mix.exit_prob),
            ("continuous/no-exit", false, false, 0.0),
        ]
        .into_iter()
        .map(|(label, whole_job, fixed, exit_prob)| {
            let spec = ScenarioSpec {
                policy: PolicySpec::ShardedShortestJobFirst {
                    max_shards: decode_max,
                    adaptive: !fixed,
                },
                traffic: TrafficModel::Mix {
                    mix: RequestMix::Interactive,
                    decode: Some(DecodeMix {
                        exit_prob,
                        ..decode_mix
                    }),
                },
                batching: if whole_job {
                    DecodeBatching::WholeJob
                } else {
                    DecodeBatching::Continuous
                },
                ..base(
                    format!("decode/{label}"),
                    binned_fleet.clone(),
                    decode_arrivals,
                )
            };
            CellDef::elastic(spec, "decode", label)
        })
        .collect(),
    });

    defs
}

fn fleet_json(fleet: &FleetConfig) -> Json {
    Json::obj([
        ("cards", Json::Int(fleet.cards() as i64)),
        ("pipelines", Json::Int(fleet.total_pipelines() as i64)),
        (
            "groups",
            Json::arr(fleet.groups.iter().map(|g| {
                Json::obj([
                    ("count", Json::Int(g.count as i64)),
                    ("design", Json::Str(g.design())),
                    ("memory_gbps", Json::Num(g.memory.bytes_per_sec() / 1e9)),
                ])
            })),
        ),
    ])
}

/// One run's JSON, annotated with the inputs the report alone cannot
/// recover: the arrival process's long-run offered load, the admission
/// setting, and the elastic-control setting the cell ran under (two
/// priority- or preemption-scenario runs are otherwise indistinguishable
/// by any recorded field).
fn annotated_run(
    report: &ServeReport,
    arrivals: ArrivalProcess,
    admission: &str,
    elastic: &str,
) -> Json {
    match report.to_json() {
        Json::Obj(mut pairs) => {
            pairs.insert(2, ("offered_rps".into(), Json::Num(arrivals.mean_rate())));
            pairs.insert(3, ("admission".into(), Json::Str(admission.into())));
            pairs.insert(4, ("elastic".into(), Json::Str(elastic.into())));
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// One run's kernel counters, named by the keys that name its twin in
/// `BENCH_serve.json`.
fn kernel_run(
    report: &ServeReport,
    counters: &KernelCounters,
    admission: &str,
    elastic: &str,
) -> Json {
    let mut pairs = vec![
        ("policy".to_string(), Json::Str(report.policy.clone())),
        ("arrivals".to_string(), Json::Str(report.arrivals.clone())),
        ("admission".to_string(), Json::Str(admission.into())),
        ("elastic".to_string(), Json::Str(elastic.into())),
    ];
    if let Json::Obj(fields) = counters.to_json() {
        pairs.extend(fields);
    }
    Json::Obj(pairs)
}

/// Formats an optional seconds value as milliseconds for the tables; a
/// fully-shed cell has no latency distribution and shows "-".
fn ms(value: Option<f64>) -> String {
    value.map_or("-".to_string(), |v| format!("{:.1}", v * 1e3))
}

fn summary_row(scenario: &str, report: &ServeReport) -> Vec<String> {
    vec![
        scenario.to_string(),
        report.arrivals.clone(),
        report.policy.clone(),
        format!("{:.1}", report.throughput_rps),
        ms(report.latency.map(|l| l.p50)),
        ms(report.latency.map(|l| l.p95)),
        ms(report.latency.map(|l| l.p99)),
        format!("{:.0}%", report.fleet_utilization() * 100.0),
        format!("{}", report.queue.max_depth),
        format!("{}", report.slo_violations),
        format!("{}", report.rejected),
        format!("{}", report.preemption_count()),
        format!("{}", report.scaling.len()),
        format!("{}", report.weight_swaps()),
        format!("{:.1}", report.total_energy_joules()),
    ]
}

/// Prints the usage line and exits with status 2 — unparseable arguments
/// should read as operator error, not a crash.
fn usage(problem: &str) -> ! {
    eprintln!("serve_sweep: {problem}");
    eprintln!("usage: serve_sweep [--jobs N] [--scenario NAME] [seed] [requests]");
    eprintln!("  --jobs N         worker threads for the sweep cells (default 1;");
    eprintln!("                   output is byte-identical for every N)");
    eprintln!("  --scenario NAME  run a single scenario's cells (default: all ten)");
    eprintln!("  seed             u64 sweep seed (default 0x5EED)");
    eprintln!(
        "  requests         requests per sweep cell (default {DEFAULT_REQUESTS}, must be > 0)"
    );
    eprintln!();
    eprintln!("sweeps ten scenarios: homogeneous, heterogeneous, priority, preemption,");
    eprintln!("autoscale, sharded, adaptive-width, sessions, faults, and decode (the");
    eprintln!("token-level step loop: batching-mode and width-discipline A/B cells).");
    std::process::exit(2);
}

fn main() {
    let mut seed: Option<u64> = None;
    let mut requests: Option<usize> = None;
    let mut jobs = 1usize;
    let mut filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(rest) = arg.strip_prefix("--jobs") {
            let value = match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => {
                    args.next().unwrap_or_else(|| usage("--jobs needs a value"))
                }
                _ => usage(&format!("unexpected argument {arg:?}")),
            };
            jobs = value.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                usage(&format!("--jobs must be a positive integer, got {value:?}"))
            });
        } else if let Some(rest) = arg.strip_prefix("--scenario") {
            let value = match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => args
                    .next()
                    .unwrap_or_else(|| usage("--scenario needs a value")),
                _ => usage(&format!("unexpected argument {arg:?}")),
            };
            filter = Some(value);
        } else if seed.is_none() {
            seed = Some(arg.parse().unwrap_or_else(|_| {
                usage(&format!("seed must be an unsigned integer, got {arg:?}"))
            }));
        } else if requests.is_none() {
            requests = Some(arg.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                usage(&format!("requests must be a positive integer, got {arg:?}"))
            }));
        } else {
            usage(&format!("unexpected argument {arg:?}"));
        }
    }
    let seed = seed.unwrap_or(0x5EED);
    let requests = requests.unwrap_or(DEFAULT_REQUESTS);

    let mut defs = sweep_scenarios(seed, requests);
    if let Some(name) = &filter {
        let names = defs.iter().map(|d| d.name).collect::<Vec<_>>().join(", ");
        defs.retain(|d| d.name == name.as_str());
        if defs.is_empty() {
            usage(&format!("unknown scenario {name:?} (valid: {names})"));
        }
    }
    let total_cells: usize = defs.iter().map(|d| d.cells.len()).sum();

    banner(format!(
        "serve_sweep — {requests} requests/cell, {} scenarios / {total_cells} cells on \
         FP16/FP32 fleets (seed {seed:#x})",
        defs.len()
    ));

    // Phase 1: enqueue every cell as an owned closure over its spec.
    // Cell indices are contiguous per scenario, so phase 3 can assemble
    // rows, extra tables, and JSON in exactly the order the sequential
    // sweep used — the executed order (phase 2) is unobservable.
    let mut cells: Vec<Cell<(ServeReport, KernelCounters)>> = Vec::new();
    let mut ranges = Vec::new();
    for def in &defs {
        let start = cells.len();
        for cell in &def.cells {
            let spec = cell.spec.clone();
            cells.push(Box::new(move || {
                spec.run_profiled()
                    .expect("sweep catalogue specs are valid")
            }));
        }
        ranges.push(start..cells.len());
    }

    // Phase 2: run the cells on the shared pool. Each is its own seeded
    // simulation, so the pool introduces no cross-cell state.
    let outs = run_cells(cells, jobs);

    // Phase 3: assemble every byte of stdout and JSON in the sequential
    // sweep's order.
    let mut rows = Vec::new();
    let mut scenarios = Vec::new();
    let mut kernel_scenarios = Vec::new();
    let mut fanout_rows = Vec::new();
    let mut width_rows = Vec::new();
    let mut tradeoff_rows = Vec::new();
    let mut class_rows = Vec::new();
    let mut session_rows = Vec::new();
    let mut fault_rows = Vec::new();
    let mut decode_rows = Vec::new();

    for (def, range) in defs.iter().zip(&ranges) {
        let mut runs = Vec::new();
        let mut kernel_runs = Vec::new();
        for (cell, out) in def.cells.iter().zip(&outs[range.clone()]) {
            let (report, counters) = &out.value;
            rows.push(summary_row(&cell.row, report));
            runs.push(annotated_run(
                report,
                cell.spec.arrivals,
                &cell.admission,
                &cell.elastic,
            ));
            kernel_runs.push(kernel_run(report, counters, &cell.admission, &cell.elastic));
            match def.table {
                ExtraTable::None => {}
                ExtraTable::Fanout => fanout_rows.push(vec![
                    report.policy.clone(),
                    format!("{}", report.sharded_requests),
                    format!("{}", report.max_shards),
                    ms(report.latency.map(|l| l.p50)),
                    ms(report.latency.map(|l| l.p99)),
                    format!("{:.2}%", report.slo_attainment() * 100.0),
                ]),
                ExtraTable::Width => {
                    let widths = report
                        .shard_widths
                        .iter()
                        .enumerate()
                        .map(|(w, n)| format!("{}:{n}", w + 1))
                        .collect::<Vec<_>>()
                        .join(" ");
                    width_rows.push(vec![
                        report.policy.clone(),
                        widths,
                        ms(report.latency.map(|l| l.p50)),
                        ms(report.latency.map(|l| l.p99)),
                        format!("{:.2}%", report.slo_attainment() * 100.0),
                        report
                            .cost_prediction
                            .map_or("-".to_string(), |p| format!("{:.1e}", p.max_error_s)),
                    ]);
                }
                ExtraTable::Autoscale => tradeoff_rows.push(vec![
                    cell.label.clone(),
                    format!("{}", report.scaling.len()),
                    format!("{:.1}", report.energy_joules),
                    format!("{:.1}", report.idle_energy_joules),
                    format!("{:.1}", report.total_energy_joules()),
                    format!("{:.2}%", report.slo_attainment() * 100.0),
                    ms(report.latency.map(|l| l.p99)),
                ]),
                ExtraTable::Priority => {
                    for class in &report.classes {
                        let latency = class.latency;
                        class_rows.push(vec![
                            cell.label.clone(),
                            class.class.name().to_string(),
                            format!("{}", class.offered),
                            format!("{}", class.completed),
                            format!("{}", class.rejected),
                            format!("{}", class.slo_violations),
                            ms(latency.map(|l| l.p50)),
                            ms(latency.map(|l| l.p95)),
                            ms(latency.map(|l| l.p99)),
                        ]);
                    }
                }
                ExtraTable::Sessions => {
                    let s = report.sessions.as_ref().expect("session traffic is tagged");
                    session_rows.push(vec![
                        report.policy.clone(),
                        format!("{}", s.sessions),
                        format!("{:.1}", s.mean_turns),
                        ms(s.latency.map(|l| l.p50)),
                        ms(s.latency.map(|l| l.p99)),
                        format!("{:.3}", s.fairness),
                    ]);
                }
                ExtraTable::Faults => {
                    let (deaths, degrades, revivals, lost, failed) = match &report.faults {
                        Some(f) => (
                            f.card_deaths,
                            f.degrades,
                            f.revivals,
                            f.shards_lost,
                            f.failed,
                        ),
                        None => (0, 0, 0, 0, 0),
                    };
                    fault_rows.push(vec![
                        cell.label.clone(),
                        format!("{deaths}"),
                        format!("{degrades}"),
                        format!("{revivals}"),
                        format!("{lost}"),
                        format!("{failed}"),
                        ms(report.latency.map(|l| l.p99)),
                        format!("{:.2}%", report.slo_attainment() * 100.0),
                    ]);
                }
                ExtraTable::Decode => {
                    let d = report
                        .decode
                        .as_ref()
                        .expect("decode traffic is multi-step");
                    decode_rows.push(vec![
                        cell.label.clone(),
                        format!("{:.2}", d.mean_steps),
                        format!("{:.0}%", d.early_exit_rate * 100.0),
                        ms(d.ttft.map(|l| l.p50)),
                        ms(d.ttft.map(|l| l.p99)),
                        ms(report.latency.map(|l| l.p50)),
                        ms(report.latency.map(|l| l.p99)),
                        format!("{:.2}%", report.slo_attainment() * 100.0),
                    ]);
                }
            }
        }
        let events = outs[range.clone()]
            .iter()
            .map(|o| o.value.1.events_total())
            .sum::<u64>();
        let wall = outs[range.clone()].iter().map(|o| o.wall_s).sum::<f64>();
        scenario_timing(def.name, runs.len(), events, wall);
        let mut pairs = vec![
            ("scenario", Json::Str(def.name.into())),
            ("fleet", fleet_json(&def.fleet.config())),
        ];
        pairs.extend(def.extras.iter().cloned());
        pairs.push(("runs", Json::Arr(runs)));
        scenarios.push(Json::obj(pairs));
        kernel_scenarios.push(Json::obj([
            ("scenario", Json::Str(def.name.into())),
            ("runs", Json::Arr(kernel_runs)),
        ]));
    }

    print_table(
        &[
            "scenario", "arrivals", "policy", "rps", "p50 ms", "p95 ms", "p99 ms", "util", "max q",
            "slo viol", "rejected", "preempt", "scale", "swaps", "J",
        ],
        &rows,
    );
    if !fanout_rows.is_empty() {
        println!("\nsharded scenario, fan-out vs whole-request (poisson, 4 cards):");
        print_table(
            &[
                "policy",
                "sharded reqs",
                "max shards",
                "p50 ms",
                "p99 ms",
                "slo attain",
            ],
            &fanout_rows,
        );
    }
    if !width_rows.is_empty() {
        println!(
            "\nadaptive-width scenario, fan-out discipline under a deep queue \
             (poisson, 4 bandwidth-binned cards):"
        );
        print_table(
            &[
                "policy",
                "width:count",
                "p50 ms",
                "p99 ms",
                "slo attain",
                "pred err s",
            ],
            &width_rows,
        );
    }
    if !tradeoff_rows.is_empty() {
        println!("\nautoscale scenario, energy vs SLO (least-loaded, diurnal ramp):");
        print_table(
            &[
                "fleet",
                "scale events",
                "active J",
                "idle J",
                "total J",
                "slo attain",
                "p99 ms",
            ],
            &tradeoff_rows,
        );
    }
    if !class_rows.is_empty() {
        println!("\npriority scenario, per class (least-loaded, bursty overload):");
        print_table(
            &[
                "admission",
                "class",
                "offered",
                "done",
                "shed",
                "slo viol",
                "p50 ms",
                "p95 ms",
                "p99 ms",
            ],
            &class_rows,
        );
    }
    if !session_rows.is_empty() {
        println!("\nsessions scenario, sticky affinity vs least-loaded (flash crowd, 4 cards):");
        print_table(
            &[
                "policy",
                "sessions",
                "mean turns",
                "sess p50 ms",
                "sess p99 ms",
                "jain",
            ],
            &session_rows,
        );
    }
    if !fault_rows.is_empty() {
        println!("\nfaults scenario, seeded card faults mid-diurnal (least-loaded, 4 cards):");
        print_table(
            &[
                "plan",
                "deaths",
                "degrades",
                "revivals",
                "shards lost",
                "failed",
                "p99 ms",
                "slo attain",
            ],
            &fault_rows,
        );
    }
    if !decode_rows.is_empty() {
        println!(
            "\ndecode scenario, step batching and width discipline near saturation \
             (sharded SJF, 4 bandwidth-binned cards):"
        );
        print_table(
            &[
                "cell",
                "mean steps",
                "exits",
                "ttft p50 ms",
                "ttft p99 ms",
                "p50 ms",
                "p99 ms",
                "slo attain",
            ],
            &decode_rows,
        );
    }

    let serve = Json::obj([
        ("bench", Json::Str("serve_sweep".into())),
        ("seed", Json::UInt(seed)),
        ("requests_per_run", Json::Int(requests as i64)),
        ("mix", Json::Str(RequestMix::Production.name().into())),
        ("scenarios", Json::Arr(scenarios)),
    ]);
    let kernel = Json::obj([
        ("bench", Json::Str("serve_sweep".into())),
        ("seed", Json::UInt(seed)),
        ("requests_per_run", Json::Int(requests as i64)),
        ("scenarios", Json::Arr(kernel_scenarios)),
    ]);

    println!();
    for (path, doc) in [("BENCH_serve.json", serve), ("BENCH_kernel.json", kernel)] {
        std::fs::write(path, doc.pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
