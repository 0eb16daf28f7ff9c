//! Every call this benchmark makes into the program under test.
//!
//! The rest of the package works through these wrappers only, so a change
//! to the library's run entry points (for instance merging `run_profiled`
//! and `run_traced` into one call with an observer argument) is absorbed
//! here, in one place.

use swat::{Precision, RunReport, SwatAccelerator, SwatConfig};
use swat_attention::reference;
use swat_numeric::SplitMix64;
use swat_serve::fault::FaultPlan;
use swat_serve::fleet::FleetConfig;
use swat_serve::json::Json;
use swat_serve::request::Request;
use swat_serve::scenario::{FaultKindSpec, ScenarioSpec};
use swat_serve::sim::Simulation;
use swat_serve::trace::{KernelCounters, TraceSink};
use swat_serve::ServeReport;
use swat_tensor::Matrix;

/// Index of the `arrival` kind in [`KernelCounters::events_by_kind`].
const ARRIVAL_KIND: usize = 0;
/// Index of the `completion` kind in [`KernelCounters::events_by_kind`].
const COMPLETION_KIND: usize = 1;
/// Index of the `step_complete` kind in [`KernelCounters::events_by_kind`].
const STEP_COMPLETE_KIND: usize = 2;

/// A serve cell with its inputs generated: everything a simulation run
/// needs, built from the spec and its seed.
pub struct PreparedCell {
    spec: ScenarioSpec,
    fleet: FleetConfig,
    trace: Vec<Request>,
    faults: FaultPlan,
}

impl PreparedCell {
    /// Requests in the generated trace.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    fn simulation(&self) -> Simulation<'_> {
        let mut sim = Simulation::new(&self.fleet)
            .arrivals_label(self.spec.arrivals_label())
            .admission(self.spec.admission)
            .preemption(self.spec.preemption.control())
            .decode_batching(self.spec.batching)
            .faults(self.faults.clone());
        if let Some(cfg) = self.spec.autoscale {
            sim = sim.autoscale(cfg);
        }
        sim
    }
}

/// `ScenarioSpec::validate`.
pub fn validate(spec: &ScenarioSpec) -> Result<(), String> {
    spec.validate()
}

/// `FleetSpec::config`: builds the fleet's cards.
pub fn build_fleet(spec: &ScenarioSpec) -> FleetConfig {
    spec.fleet.config()
}

/// `ScenarioSpec::trace`: generates the seeded request trace.
pub fn generate_trace(spec: &ScenarioSpec) -> Vec<Request> {
    spec.trace()
}

/// Resolves the spec's span-relative fault schedule against its trace,
/// the same way `ScenarioSpec::run` does: fault `i` lands at
/// `t0 + at_frac × span`, in list order.
pub fn fault_plan(spec: &ScenarioSpec, trace: &[Request]) -> FaultPlan {
    let (Some(first), Some(last)) = (trace.first(), trace.last()) else {
        return FaultPlan::none();
    };
    let span = last.arrival - first.arrival;
    spec.faults.iter().fold(FaultPlan::none(), |plan, f| {
        let time = first.arrival + span * f.at_frac;
        match f.kind {
            FaultKindSpec::Kill => plan.kill(time, f.card),
            FaultKindSpec::Degrade { factor } => plan.degrade(time, f.card, factor),
            FaultKindSpec::Revive { warmup_s } => plan.revive(time, f.card, warmup_s),
        }
    })
}

/// Bundles a validated spec with its generated inputs.
pub fn prepared(
    spec: &ScenarioSpec,
    fleet: FleetConfig,
    trace: Vec<Request>,
    faults: FaultPlan,
) -> PreparedCell {
    PreparedCell {
        spec: spec.clone(),
        fleet,
        trace,
        faults,
    }
}

/// `Simulation::run_profiled` under a freshly built policy.
pub fn run_profiled(cell: &PreparedCell) -> (ServeReport, KernelCounters) {
    let mut policy = cell.spec.policy.build();
    cell.simulation().run_profiled(&mut *policy, &cell.trace)
}

/// `Simulation::run_traced` under a freshly built policy, with `sink`
/// observing every hook.
pub fn run_traced(cell: &PreparedCell, sink: &mut dyn TraceSink) -> ServeReport {
    let mut policy = cell.spec.policy.build();
    cell.simulation()
        .run_traced(&mut *policy, &cell.trace, sink)
}

/// `ScenarioSpec::run`: the library's own one-call path, used by the tests
/// to pin [`run_profiled`] on a [`PreparedCell`] to it.
pub fn run_spec(spec: &ScenarioSpec) -> Result<ServeReport, String> {
    spec.run()
}

/// `ServeReport::to_json` followed by `Json::pretty`.
pub fn report_json(report: &ServeReport) -> String {
    report.to_json().pretty()
}

/// Whether `text` re-parses with `Json::parse`.
pub fn json_reparses(text: &str) -> bool {
    Json::parse(text).is_ok()
}

/// The deterministic counts the benchmark reads from a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Events delivered, all kinds.
    pub events: u64,
    /// Arrival events delivered.
    pub arrivals: u64,
    /// Shard completion events delivered, tombstoned ones included.
    pub completions: u64,
    /// Completion events dropped because their shard had been evicted.
    pub tombstoned: u64,
    /// Decode-step fan-ins with more steps owed.
    pub step_completes: u64,
    /// Shard plans dispatched.
    pub dispatches: u64,
    /// Shards admitted across all plans.
    pub shards: u64,
    /// Shards checkpointed and requeued by preemption.
    pub evictions: u64,
    /// Largest event-heap population.
    pub peak_heap: u64,
    /// Largest waiting-queue depth.
    pub peak_queue: u64,
}

/// Reads [`SimCounts`] from the kernel's counters.
pub fn sim_counts(c: &KernelCounters) -> SimCounts {
    SimCounts {
        events: c.events_total(),
        arrivals: c.events_by_kind[ARRIVAL_KIND],
        completions: c.events_by_kind[COMPLETION_KIND],
        tombstoned: c.tombstoned_completions,
        step_completes: c.events_by_kind[STEP_COMPLETE_KIND],
        dispatches: c.dispatches,
        shards: c.shards_dispatched,
        evictions: c.preemption_evictions,
        peak_heap: c.peak_event_heap as u64,
        peak_queue: c.peak_queue_depth as u64,
    }
}

/// The report fields the correctness gate and the per-layer shares read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportFacts {
    /// Requests offered to the fleet.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Requests stranded because every card died.
    pub failed: u64,
    /// In-flight shards evicted by card deaths.
    pub shards_lost: u64,
    /// `(p50, p95, p99)` latency, `None` when nothing completed.
    pub percentiles: Option<(f64, f64, f64)>,
}

/// Reads [`ReportFacts`] from a report.
pub fn report_facts(r: &ServeReport) -> ReportFacts {
    ReportFacts {
        offered: r.offered as u64,
        completed: r.completed as u64,
        rejected: r.rejected as u64,
        failed: r.failed as u64,
        shards_lost: r.faults.as_ref().map_or(0, |f| f.shards_lost),
        percentiles: r.latency.as_ref().map(|l| (l.p50, l.p95, l.p99)),
    }
}

/// A Table 2 design by name.
pub fn design(name: &str) -> Option<SwatConfig> {
    match name {
        "longformer_fp16" => Some(SwatConfig::longformer_fp16()),
        "bigbird_fp16" => Some(SwatConfig::bigbird_fp16()),
        "longformer_fp32" => Some(SwatConfig::longformer_fp32()),
        _ => None,
    }
}

/// The crate's own test tolerance for the design's precision: 1e-4 for
/// `f32`, 0.05 for binary16.
pub fn tolerance(cfg: &SwatConfig) -> f32 {
    match cfg.precision {
        Precision::Fp32 => 1e-4,
        Precision::Fp16 => 0.05,
    }
}

/// `SwatAccelerator::new`.
pub fn build_accelerator(cfg: &SwatConfig) -> Result<SwatAccelerator, String> {
    SwatAccelerator::new(cfg.clone()).map_err(|e| e.to_string())
}

/// One head's inputs: Q, K and V, each `n × head_dim`.
pub struct Head {
    q: Matrix<f32>,
    k: Matrix<f32>,
    v: Matrix<f32>,
}

/// Generates one head's Q/K/V for `cfg`, uniform in `[-1, 1)`, with the
/// library's `SplitMix64` seeded by `seed`.
pub fn generate_head(cfg: &SwatConfig, n: usize, seed: u64) -> Head {
    let mut rng = SplitMix64::new(seed);
    let mut gen = |_: usize, _: usize| rng.next_f32_in(-1.0, 1.0);
    Head {
        q: Matrix::from_fn(n, cfg.head_dim, &mut gen),
        k: Matrix::from_fn(n, cfg.head_dim, &mut gen),
        v: Matrix::from_fn(n, cfg.head_dim, &mut gen),
    }
}

/// `SwatAccelerator::run` on one head.
pub fn run_head(accel: &SwatAccelerator, head: &Head) -> Result<RunReport, String> {
    accel
        .run(&head.q, &head.k, &head.v)
        .map_err(|e| e.to_string())
}

/// `reference::masked_attention` under the design's own sparsity pattern
/// and scale, as row-major elements.
pub fn reference_output(cfg: &SwatConfig, head: &Head) -> Vec<f32> {
    let pattern = cfg.pattern_for(head.q.rows());
    reference::masked_attention(&head.q, &head.k, &head.v, &pattern, cfg.scale)
        .as_slice()
        .to_vec()
}

/// The facts the benchmark reads from one head's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadFacts {
    /// Floating-point operations the fused kernel executed.
    pub flops: u64,
    /// K/V rows fetched once through the FIFO.
    pub kv_loads: u64,
    /// K/V rows re-fetched by random-attention cores.
    pub kv_reloads: u64,
}

/// Reads [`HeadFacts`] from a run report.
pub fn head_facts(r: &RunReport) -> HeadFacts {
    HeadFacts {
        flops: r.counts.flops,
        kv_loads: r.kv_loads,
        kv_reloads: r.kv_reloads,
    }
}

/// The run's output as row-major elements.
pub fn output(r: &RunReport) -> &[f32] {
    r.output.as_slice()
}
