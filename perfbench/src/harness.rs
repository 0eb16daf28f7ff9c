//! Runs one workload in rounds for a time budget and turns the rounds into
//! metrics.
//!
//! A round sets up and runs every cell (or head) of the workload once, from
//! the same seed each time, so every round does the same work and must
//! produce the same digests. `setup_s` and `run_s` are per-round medians.
//! A traced run records spans around each call and times every kernel hook
//! with [`HookClock`]; its per-layer metrics are per-round medians too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use swat_serve::scenario::ScenarioSpec;

use crate::api::{self, ReportFacts, SimCounts};
use crate::check::{self, HeadOutput, ServeOutput};
use crate::clock::{Hook, HookClock, Layer};
use crate::spans::Spans;
use crate::workloads::{self, HeadDef, Size, Workload};

/// Fewest rounds a run makes, however long they take, so that the medians
/// have something to choose from.
pub const MIN_ROUNDS: usize = 3;

/// The end-to-end metrics, printed with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics, printed with tracing on: `(name, unit)`. A
/// workload that does not run a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("workloads.trace_s", "s"),
    ("sim.init_s", "s"),
    ("sim.arrival_s", "s"),
    ("sim.dispatch_s", "s"),
    ("sim.dispatch_ns", "ns"),
    ("sim.settle_s", "s"),
    ("sim.admit_s", "s"),
    ("sim.complete_s", "s"),
    ("sim.elastic_s", "s"),
    ("metrics.assemble_s", "s"),
    ("report.json_s", "s"),
    ("report.json_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("sim.tombstone_share", "ratio"),
    ("preempt.evicted_share", "ratio"),
    ("admission.shed_share", "ratio"),
    ("fault.failed_share", "ratio"),
    ("sim.events", "count"),
    ("event.peak_heap", "count"),
    ("event.peak_queue", "count"),
    ("policy.dispatches", "count"),
    ("policy.shards", "count"),
    ("sim.step_completes", "count"),
    ("attention.longformer_fp16_s", "s"),
    ("attention.longformer_fp16_flops_per_s", "1/s"),
    ("attention.longformer_fp16_kv_loads", "count"),
    ("attention.longformer_fp16_kv_reloads", "count"),
    ("attention.bigbird_fp16_s", "s"),
    ("attention.bigbird_fp16_flops_per_s", "1/s"),
    ("attention.bigbird_fp16_kv_loads", "count"),
    ("attention.bigbird_fp16_kv_reloads", "count"),
    ("attention.longformer_fp32_s", "s"),
    ("attention.longformer_fp32_flops_per_s", "1/s"),
    ("attention.longformer_fp32_kv_loads", "count"),
    ("attention.longformer_fp32_kv_reloads", "count"),
    ("core.build_s", "s"),
    ("tensor.qkv_s", "s"),
];

/// Which hooks' timings go to which per-layer metric.
const LAYER_METRICS: [(Layer, &str); 8] = [
    (Layer::Init, "sim.init_s"),
    (Layer::Arrival, "sim.arrival_s"),
    (Layer::Dispatch, "sim.dispatch_s"),
    (Layer::Settle, "sim.settle_s"),
    (Layer::Admit, "sim.admit_s"),
    (Layer::Complete, "sim.complete_s"),
    (Layer::Elastic, "sim.elastic_s"),
    (Layer::Assemble, "metrics.assemble_s"),
];

/// How one run is made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Rounds continue until this much host time has passed.
    pub seconds: f64,
    /// Record spans and hook timings and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// A metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit from the same table.
    pub unit: &'static str,
}

/// The determinism record of one cell or head: a digest of its report JSON
/// (or output matrix) and its deterministic counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Cell or head name.
    pub name: String,
    /// FNV-1a of the report JSON or the output's `f32` bytes.
    pub digest: u64,
    /// Deterministic counts, `(name, value)`.
    pub counts: Vec<(&'static str, u64)>,
}

impl Record {
    /// One line: name, digest, then the counts.
    pub fn line(&self) -> String {
        let mut line = format!("record {} digest={:016x}", self.name, self.digest);
        for (k, v) in &self.counts {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: one per cell or head per round, plus the
    /// traced check after an untraced run.
    pub attempted: u64,
    /// Operations whose correctness check failed.
    pub failed: u64,
    /// What failed, one line per problem.
    pub problems: Vec<String>,
    /// `(setup_s, run_s)` of every round, in order.
    pub rounds: Vec<(f64, f64)>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Determinism record of the first round, one per cell or head.
    pub records: Vec<Record>,
    /// The span dump (traced runs only).
    pub spans_json: Option<String>,
}

/// One round's measurements.
#[derive(Debug, Clone)]
struct Sample {
    setup_s: f64,
    run_s: f64,
    layer: [f64; PER_LAYER.len()],
    /// Sums the rates and shares are computed from at the end of a round.
    sums: Sums,
}

/// Per-round sums behind the per-layer rates and shares.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    untraced_s: f64,
    completions: u64,
    tombstoned: u64,
    evictions: u64,
    shards_lost: u64,
    offered: u64,
    rejected: u64,
}

impl Sample {
    fn new() -> Sample {
        Sample {
            setup_s: 0.0,
            run_s: 0.0,
            layer: [0.0; PER_LAYER.len()],
            sums: Sums::default(),
        }
    }

    fn slot(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    fn add(&mut self, name: &str, value: f64) {
        self.layer[Sample::slot(name)] += value;
    }

    fn max(&mut self, name: &str, value: f64) {
        let i = Sample::slot(name);
        self.layer[i] = self.layer[i].max(value);
    }

    fn get(&self, name: &str) -> f64 {
        self.layer[Sample::slot(name)]
    }

    fn set(&mut self, name: &str, value: f64) {
        self.layer[Sample::slot(name)] = value;
    }

    /// Fills the rates and shares from the round's sums.
    fn finish(&mut self) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let s = self.sums;
        let shards = self.get("policy.shards");
        self.set(
            "sim.events_per_s",
            ratio(self.get("sim.events"), s.untraced_s),
        );
        self.set(
            "sim.dispatch_ns",
            ratio(
                self.get("sim.dispatch_s") * 1e9,
                self.get("policy.dispatches"),
            ),
        );
        self.set(
            "sim.tombstone_share",
            ratio(s.tombstoned as f64, s.completions as f64),
        );
        self.set("preempt.evicted_share", ratio(s.evictions as f64, shards));
        self.set(
            "admission.shed_share",
            ratio(s.rejected as f64, s.offered as f64),
        );
        self.set("fault.failed_share", ratio(s.shards_lost as f64, shards));
    }
}

/// What one serve operation produced.
struct ServeRun {
    setup_s: f64,
    run_s: f64,
    trace_len: usize,
    json: String,
    facts: ReportFacts,
    counts: SimCounts,
    traced_json: Option<String>,
    clock: Option<HookClock>,
}

/// What one datapath operation produced.
struct HeadRun {
    setup_s: f64,
    run_s: f64,
    facts: api::HeadFacts,
    output: Vec<f32>,
    tolerance: f32,
    reference: Option<Vec<f32>>,
}

struct Runner {
    opts: Options,
    cells: Vec<ScenarioSpec>,
    heads: Vec<HeadDef>,
    spans: Spans,
    records: Vec<Option<Record>>,
    references: Vec<Option<Vec<f32>>>,
    hook_s: [f64; Hook::ALL.len()],
    hook_hits: [u64; Hook::ALL.len()],
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Runs `opts.workload` in rounds until `opts.seconds` have passed (and at
/// least [`MIN_ROUNDS`] rounds were made), then reports.
pub fn run(opts: Options) -> Outcome {
    let cells = workloads::serve_cells(opts.workload, opts.seed, opts.size);
    let heads = workloads::heads(opts.workload, opts.seed, opts.size);
    let mut runner = Runner {
        opts,
        spans: Spans::new(opts.trace),
        records: vec![None; cells.len() + heads.len()],
        references: vec![None; heads.len()],
        cells,
        heads,
        hook_s: [0.0; Hook::ALL.len()],
        hook_hits: [0; Hook::ALL.len()],
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    let ops = (runner.cells.len() + runner.heads.len()) as u64;
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let failed_before = runner.failed;
        samples.push(runner.round(samples.len()));
        // A round in which every operation failed measured nothing; more
        // of them would only repeat the failure.
        if runner.failed - failed_before == ops {
            break;
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= opts.seconds && (samples.len() >= MIN_ROUNDS || elapsed >= 3.0 * opts.seconds)
        {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb();

    // The untraced rounds never ran a sink: check once, outside the
    // measurement, that a traced run reproduces their reports.
    if !opts.trace {
        for i in 0..runner.cells.len() {
            runner.serve_op(i, true, &mut Sample::new());
        }
    }

    let metrics = if opts.trace {
        PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| Metric {
                name,
                value: median(samples.iter().map(|s| s.layer[i]).collect()),
                unit,
            })
            .collect()
    } else {
        let values = [
            median(samples.iter().map(|s| s.setup_s).collect()),
            median(samples.iter().map(|s| s.run_s).collect()),
            peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    let spans_json = opts.trace.then(|| runner.dump());
    Outcome {
        attempted: runner.attempted,
        failed: runner.failed,
        problems: runner.problems,
        rounds: samples.iter().map(|s| (s.setup_s, s.run_s)).collect(),
        metrics,
        records: runner.records.into_iter().flatten().collect(),
        spans_json,
    }
}

impl Runner {
    fn round(&mut self, index: usize) -> Sample {
        let mut sample = Sample::new();
        let span = self.spans.enter("round", index as u32);
        for i in 0..self.cells.len() {
            self.serve_op(i, self.opts.trace, &mut sample);
        }
        for i in 0..self.heads.len() {
            self.head_op(i, &mut sample);
        }
        self.spans.exit(span);
        if self.opts.trace {
            sample.finish();
        }
        sample
    }

    /// Runs serve cell `i` once (and, with `traced`, once more under a
    /// [`HookClock`]), checks it and adds its measurements to `sample`.
    fn serve_op(&mut self, i: usize, traced: bool, sample: &mut Sample) {
        self.attempted += 1;
        let spec = &self.cells[i];
        let name = spec.name.clone();
        let depth = self.spans.depth();
        let mark = self.spans.spans().len();
        let spans = &mut self.spans;
        let result = catch_unwind(AssertUnwindSafe(|| {
            serve_cell(spec, i as u32, traced, spans)
        }));
        let run = match result {
            Ok(Ok(run)) => run,
            Ok(Err(problem)) => {
                self.spans.unwind_to(depth);
                return self.fail(&name, vec![problem]);
            }
            Err(panic) => {
                self.spans.unwind_to(depth);
                return self.fail(&name, vec![panic_message(panic.as_ref())]);
            }
        };
        let mut problems = check::serve_problems(&ServeOutput {
            trace_len: run.trace_len,
            facts: run.facts,
            counts: run.counts,
            json_reparses: api::json_reparses(&run.json),
            json: &run.json,
            traced_json: run.traced_json.as_deref(),
        });
        let record = Record {
            name: name.clone(),
            digest: check::fnv1a(run.json.as_bytes()),
            counts: serve_counts(&run),
        };
        match &self.records[i] {
            None => self.records[i] = Some(record),
            Some(first) if *first != record => {
                problems.push("report or counts differ from the first round's".to_string());
            }
            Some(_) => {}
        }
        // The operation ran to the end, so its time counts even when its
        // result is wrong.
        sample.setup_s += run.setup_s;
        sample.run_s += run.run_s;
        if self.opts.trace {
            self.add_serve_layers(&run, mark, sample);
        }
        if !problems.is_empty() {
            self.fail(&name, problems);
        }
    }

    fn add_serve_layers(&mut self, run: &ServeRun, mark: usize, sample: &mut Sample) {
        let spans = &self.spans;
        let untraced_s = spans.total_s("sim.run_profiled", mark);
        let traced_s = spans.total_s("sim.run_traced", mark);
        sample.add("workloads.trace_s", spans.total_s("workloads.trace", mark));
        sample.add("report.json_s", spans.total_s("report.json", mark));
        sample.add("report.json_bytes", run.json.len() as f64);
        sample.add("trace.overhead_s", traced_s - untraced_s);
        if let Some(clock) = &run.clock {
            for (layer, metric) in LAYER_METRICS {
                sample.add(metric, clock.layer_s(layer));
            }
            for (k, hook) in Hook::ALL.iter().enumerate() {
                self.hook_s[k] += clock.hook_s(*hook);
                self.hook_hits[k] += clock.hits(*hook);
            }
        }
        let c = run.counts;
        let f = &run.facts;
        // Rates and shares are computed from these sums once every cell
        // of the round has added in (`Sample::finish`).
        sample.add("sim.events", c.events as f64);
        sample.max("event.peak_heap", c.peak_heap as f64);
        sample.max("event.peak_queue", c.peak_queue as f64);
        sample.add("policy.dispatches", c.dispatches as f64);
        sample.add("policy.shards", c.shards as f64);
        sample.add("sim.step_completes", c.step_completes as f64);
        let sums = &mut sample.sums;
        sums.untraced_s += untraced_s;
        sums.completions += c.completions;
        sums.tombstoned += c.tombstoned;
        sums.evictions += c.evictions;
        sums.shards_lost += f.shards_lost;
        sums.offered += f.offered;
        sums.rejected += f.rejected;
    }

    /// Runs head `i` once, checks it and adds its measurements to `sample`.
    fn head_op(&mut self, i: usize, sample: &mut Sample) {
        self.attempted += 1;
        let def = self.heads[i];
        let depth = self.spans.depth();
        let mark = self.spans.spans().len();
        let spans = &mut self.spans;
        let want_reference = self.references[i].is_none();
        let result = catch_unwind(AssertUnwindSafe(|| {
            head_cell(&def, i as u32, want_reference, spans)
        }));
        let mut run = match result {
            Ok(Ok(run)) => run,
            Ok(Err(problem)) => {
                self.spans.unwind_to(depth);
                return self.fail(def.design, vec![problem]);
            }
            Err(panic) => {
                self.spans.unwind_to(depth);
                return self.fail(def.design, vec![panic_message(panic.as_ref())]);
            }
        };
        if let Some(reference) = run.reference.take() {
            self.references[i] = Some(reference);
        }
        let reference = self.references[i].as_deref().unwrap_or(&[]);
        let max_err = if reference.len() == run.output.len() {
            run.output
                .iter()
                .zip(reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, |m, e| if e > m || e.is_nan() { e } else { m })
        } else {
            f32::NAN
        };
        let mut problems = check::head_problems(&HeadOutput {
            design: def.design,
            n: def.n,
            max_err,
            tolerance: run.tolerance,
            kv_loads: run.facts.kv_loads,
            kv_reloads: run.facts.kv_reloads,
        });
        let record = Record {
            name: format!("{}/n={}", def.design, def.n),
            digest: check::fnv1a_f32(&run.output),
            counts: vec![
                ("flops", run.facts.flops),
                ("kv_loads", run.facts.kv_loads),
                ("kv_reloads", run.facts.kv_reloads),
            ],
        };
        let slot = self.cells.len() + i;
        match &self.records[slot] {
            None => self.records[slot] = Some(record),
            Some(first) if *first != record => {
                problems.push("output differs from the first round's".to_string());
            }
            Some(_) => {}
        }
        if !problems.is_empty() {
            self.fail(def.design, problems);
        }

        sample.setup_s += run.setup_s;
        sample.run_s += run.run_s;
        if self.opts.trace {
            let spans = &self.spans;
            let run_s = spans.total_s("attention.run", mark);
            let prefix = format!("attention.{}", def.design);
            sample.add(&format!("{prefix}_s"), run_s);
            if run_s > 0.0 {
                sample.add(
                    &format!("{prefix}_flops_per_s"),
                    run.facts.flops as f64 / run_s,
                );
            }
            sample.add(&format!("{prefix}_kv_loads"), run.facts.kv_loads as f64);
            sample.add(&format!("{prefix}_kv_reloads"), run.facts.kv_reloads as f64);
            sample.add("core.build_s", spans.total_s("core.build", mark));
            sample.add("tensor.qkv_s", spans.total_s("tensor.qkv", mark));
        }
    }

    fn fail(&mut self, op: &str, problems: Vec<String>) {
        self.failed += 1;
        self.problems
            .extend(problems.into_iter().map(|p| format!("{op}: {p}")));
    }

    /// The span dump plus the run's per-hook totals.
    fn dump(&self) -> String {
        let mut out = String::from("{\"hooks\": [\n");
        for (k, hook) in Hook::ALL.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"hook\": \"{}\", \"hits\": {}, \"seconds\": {}}}{}\n",
                hook.name(),
                self.hook_hits[k],
                self.hook_s[k],
                if k + 1 < Hook::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("],\n");
        let spans = self.spans.to_json();
        out.push_str(spans.trim_start_matches('{'));
        out
    }
}

/// Sets up and runs one serve cell: validation, fleet, trace and fault
/// plan are set-up; the simulation and the report's serialization are the
/// run. With `traced`, the same inputs then run once more under a
/// [`HookClock`], outside the measured run time.
fn serve_cell(
    spec: &ScenarioSpec,
    cell: u32,
    traced: bool,
    spans: &mut Spans,
) -> Result<ServeRun, String> {
    let t0 = Instant::now();
    let setup = spans.enter("setup", cell);
    spans.time("scenario.validate", cell, || api::validate(spec))?;
    let fleet = spans.time("serve.fleet", cell, || api::build_fleet(spec));
    let trace = spans.time("workloads.trace", cell, || api::generate_trace(spec));
    let faults = spans.time("serve.faults", cell, || api::fault_plan(spec, &trace));
    let prepared = api::prepared(spec, fleet, trace, faults);
    spans.exit(setup);
    let t1 = Instant::now();
    let run = spans.enter("run", cell);
    let (report, counters) = spans.time("sim.run_profiled", cell, || api::run_profiled(&prepared));
    let json = spans.time("report.json", cell, || api::report_json(&report));
    spans.exit(run);
    let t2 = Instant::now();

    let (traced_json, clock) = if traced {
        let mut clock = HookClock::default();
        let report = spans.time("sim.run_traced", cell, || {
            clock.start();
            let report = api::run_traced(&prepared, &mut clock);
            clock.finish();
            report
        });
        (Some(api::report_json(&report)), Some(clock))
    } else {
        (None, None)
    };
    Ok(ServeRun {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        trace_len: prepared.trace_len(),
        json,
        facts: api::report_facts(&report),
        counts: api::sim_counts(&counters),
        traced_json,
        clock,
    })
}

/// Sets up and runs one head: accelerator and Q/K/V are set-up, the fused
/// run is the run. The reference output is computed outside both when
/// asked for.
fn head_cell(
    def: &HeadDef,
    cell: u32,
    want_reference: bool,
    spans: &mut Spans,
) -> Result<HeadRun, String> {
    let t0 = Instant::now();
    let cfg = api::design(def.design).ok_or_else(|| format!("unknown design {}", def.design))?;
    let accel = spans.time("core.build", cell, || api::build_accelerator(&cfg))?;
    let head = spans.time("tensor.qkv", cell, || {
        api::generate_head(&cfg, def.n, def.seed)
    });
    let t1 = Instant::now();
    let report = spans.time("attention.run", cell, || api::run_head(&accel, &head))?;
    let t2 = Instant::now();
    Ok(HeadRun {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        facts: api::head_facts(&report),
        output: api::output(&report).to_vec(),
        tolerance: api::tolerance(&cfg),
        reference: want_reference.then(|| api::reference_output(&cfg, &head)),
    })
}

/// The deterministic counts of a serve operation, for its record.
fn serve_counts(run: &ServeRun) -> Vec<(&'static str, u64)> {
    let (f, c) = (&run.facts, &run.counts);
    vec![
        ("offered", f.offered),
        ("completed", f.completed),
        ("rejected", f.rejected),
        ("failed", f.failed),
        ("events", c.events),
        ("dispatches", c.dispatches),
        ("shards", c.shards),
        ("step_completes", c.step_completes),
        ("tombstoned", c.tombstoned),
        ("evictions", c.evictions),
        ("peak_heap", c.peak_heap),
        ("peak_queue", c.peak_queue),
    ]
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let text = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string());
    format!("panicked: {text}")
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
