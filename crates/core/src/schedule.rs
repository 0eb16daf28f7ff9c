//! Workload scheduling: mapping a model's (batch × layer × head) attention
//! jobs onto SWAT's pipelines.
//!
//! Section 5.3 of the paper: "total attention time is proportional to the
//! execution time of a single head" — heads, layers and batches are
//! independent jobs streamed through the pipeline(s) back to back, and the
//! dual-pipeline configuration (Table 2 row 3) processes two heads
//! concurrently. This module makes that mapping explicit and checks the
//! off-chip interface keeps up when multiple pipelines stream at once.

use crate::config::SwatConfig;
use crate::timing::StageTimings;
use swat_hw::MemoryInterface;

/// One attention job: a single head of a single layer for one sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Batch element index.
    pub batch: usize,
    /// Layer index.
    pub layer: usize,
    /// Head index.
    pub head: usize,
}

/// The placement of one job on a pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The job.
    pub job: Job,
    /// Pipeline the job runs on.
    pub pipeline: usize,
    /// Start time, seconds from workload start.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// A scheduled workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSchedule {
    /// All placements in dispatch order.
    pub placements: Vec<Placement>,
    /// Total wall-clock seconds (makespan).
    pub makespan: f64,
    /// Aggregate off-chip bandwidth demand while all pipelines stream,
    /// bytes/s.
    pub peak_bandwidth_demand: f64,
    /// Whether HBM sustains the demand.
    pub memory_feasible: bool,
}

/// Incremental job admission onto a set of pipelines.
///
/// [`schedule_model`] plans a whole batch at once, which is the right tool
/// for one-shot runs; a *serving* system instead admits jobs as requests
/// arrive. `PipelineAgenda` keeps one `next_free` horizon per pipeline and
/// places jobs one at a time, never moving a job once placed, so schedules
/// built through it are conflict-free by construction.
///
/// # Examples
///
/// ```
/// use swat::schedule::{Job, PipelineAgenda};
///
/// let mut agenda = PipelineAgenda::new(2);
/// let a = agenda.admit(Job { batch: 0, layer: 0, head: 0 }, 0.0, 1.0);
/// let b = agenda.admit(Job { batch: 0, layer: 0, head: 1 }, 0.0, 1.0);
/// assert_ne!(a.pipeline, b.pipeline); // both start immediately
/// assert_eq!(agenda.horizon(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAgenda {
    next_free: Vec<f64>,
}

impl PipelineAgenda {
    /// An agenda over `pipelines` initially idle pipelines.
    ///
    /// # Panics
    ///
    /// Panics if `pipelines == 0`.
    pub fn new(pipelines: usize) -> PipelineAgenda {
        assert!(pipelines > 0, "at least one pipeline is required");
        PipelineAgenda {
            next_free: vec![0.0; pipelines],
        }
    }

    /// Number of pipelines managed.
    pub fn pipelines(&self) -> usize {
        self.next_free.len()
    }

    /// Per-pipeline drain times (`next_free[p]` is when pipeline `p`
    /// finishes its last admitted job).
    pub fn drain_times(&self) -> &[f64] {
        &self.next_free
    }

    /// The pipeline that frees up first, and when.
    pub fn earliest_free(&self) -> (usize, f64) {
        let mut best = 0;
        for (p, &t) in self.next_free.iter().enumerate() {
            if t < self.next_free[best] {
                best = p;
            }
        }
        (best, self.next_free[best])
    }

    /// When the last admitted job drains (0.0 while idle).
    pub fn horizon(&self) -> f64 {
        self.next_free.iter().copied().fold(0.0, f64::max)
    }

    /// Pipelines idle at time `now`.
    pub fn idle_pipelines(&self, now: f64) -> usize {
        self.next_free.iter().filter(|&&t| t <= now).count()
    }

    /// Total committed work beyond `now`, in pipeline-seconds.
    pub fn backlog_seconds(&self, now: f64) -> f64 {
        self.next_free.iter().map(|&t| (t - now).max(0.0)).sum()
    }

    /// Admits one job of `duration` seconds onto the earliest-free
    /// pipeline, no sooner than `not_before`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive and finite.
    pub fn admit(&mut self, job: Job, not_before: f64, duration: f64) -> Placement {
        let (p, _) = self.earliest_free();
        self.admit_on(p, job, not_before, duration)
    }

    /// Rolls a pipeline's horizon back to `now`, releasing every committed
    /// second beyond it. This is the checkpoint half of preemption: a
    /// serving system that yanks an in-flight request off a pipeline calls
    /// this to free the capacity its remaining jobs had reserved. Work
    /// already drained (before `now`) is untouched — placements are never
    /// rewritten, only the not-yet-started tail is released.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline index is out of range or `now` is ahead of
    /// the pipeline's horizon (there would be nothing to release — the
    /// caller's bookkeeping is wrong).
    pub fn release_after(&mut self, pipeline: usize, now: f64) {
        assert!(
            now <= self.next_free[pipeline],
            "cannot release pipeline {pipeline} at {now}: horizon {} already passed",
            self.next_free[pipeline]
        );
        self.next_free[pipeline] = now;
    }

    /// Admits one job onto a specific pipeline (serving policies that pin
    /// jobs, e.g. head affinity).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline index is out of range or `duration` is not
    /// positive and finite.
    pub fn admit_on(
        &mut self,
        pipeline: usize,
        job: Job,
        not_before: f64,
        duration: f64,
    ) -> Placement {
        assert!(
            duration.is_finite() && duration > 0.0,
            "job duration must be positive"
        );
        let start = self.next_free[pipeline].max(not_before);
        let end = start + duration;
        self.next_free[pipeline] = end;
        Placement {
            job,
            pipeline,
            start,
            end,
        }
    }

    /// Admits a run of `count` back-to-back jobs onto one pipeline and
    /// returns the finish time: the first job takes `first_duration`
    /// seconds (stalls ride on it), each of the rest `duration`. The
    /// accumulation is the same sequential addition chain `count` calls
    /// to [`PipelineAgenda::admit_on`] would perform — after the first
    /// job the pipeline's horizon is past `not_before`, so the per-job
    /// `max` is the identity — which keeps the finish time bitwise
    /// identical to job-by-job admission while skipping the per-job
    /// placement bookkeeping (the serving simulator's untraced hot path).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline index is out of range, `count` is zero, or
    /// either duration is not positive and finite.
    pub fn admit_run(
        &mut self,
        pipeline: usize,
        not_before: f64,
        first_duration: f64,
        duration: f64,
        count: usize,
    ) -> f64 {
        assert!(count > 0, "a run must carry at least one job");
        assert!(
            first_duration.is_finite() && first_duration > 0.0,
            "job duration must be positive"
        );
        assert!(
            duration.is_finite() && duration > 0.0,
            "job duration must be positive"
        );
        let start = self.next_free[pipeline].max(not_before);
        let mut end = start + first_duration;
        for _ in 1..count {
            end += duration;
        }
        self.next_free[pipeline] = end;
        end
    }
}

/// Schedules `batch × layers × heads` attention jobs of `seq_len` tokens
/// onto the configuration's pipelines (greedy round-robin; all jobs are
/// identical so this is optimal).
///
/// # Panics
///
/// Panics if any dimension is zero.
pub fn schedule_model(
    cfg: &SwatConfig,
    seq_len: usize,
    batch: usize,
    layers: usize,
    heads: usize,
) -> WorkloadSchedule {
    assert!(
        batch > 0 && layers > 0 && heads > 0 && seq_len > 0,
        "empty workload"
    );
    let per_job = cfg.clock.seconds(
        StageTimings::for_config(cfg)
            .to_pipeline(cfg.random_tokens > 0)
            .total_cycles(seq_len as u64),
    );

    let pipelines = cfg.pipelines;
    let mut agenda = PipelineAgenda::new(pipelines);
    let mut placements = Vec::with_capacity(batch * layers * heads);
    let mut i = 0usize;
    for b in 0..batch {
        for l in 0..layers {
            for h in 0..heads {
                // Round-robin matches earliest-free here because every job
                // has the same duration; keep the explicit rotation so the
                // placement order is stable.
                let p = i % pipelines;
                placements.push(agenda.admit_on(
                    p,
                    Job {
                        batch: b,
                        layer: l,
                        head: h,
                    },
                    0.0,
                    per_job,
                ));
                i += 1;
            }
        }
    }
    let makespan = agenda.horizon();

    // Streaming bandwidth per pipeline: Q, K, V in and Z out over the
    // job's duration.
    let bytes_per_job = (4 * seq_len * cfg.head_dim * cfg.precision.bytes()) as f64;
    let per_pipeline_bw = bytes_per_job / per_job;
    let peak = per_pipeline_bw * pipelines as f64;
    let hbm = MemoryInterface::hbm2();

    WorkloadSchedule {
        placements,
        makespan,
        peak_bandwidth_demand: peak,
        memory_feasible: peak <= hbm.bytes_per_sec(),
    }
}

impl WorkloadSchedule {
    /// Pipeline utilisation: busy time over makespan, averaged.
    pub fn pipeline_utilization(&self, pipelines: usize) -> f64 {
        if self.makespan == 0.0 {
            return 1.0;
        }
        let busy: f64 = self.placements.iter().map(|p| p.end - p.start).sum();
        busy / (self.makespan * pipelines as f64)
    }

    /// No two jobs overlap on the same pipeline.
    pub fn is_conflict_free(&self) -> bool {
        let mut last_end: Vec<f64> = Vec::new();
        for p in &self.placements {
            if p.pipeline >= last_end.len() {
                last_end.resize(p.pipeline + 1, 0.0);
            }
            if p.start < last_end[p.pipeline] - 1e-12 {
                return false;
            }
            last_end[p.pipeline] = p.end;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pipeline_serialises_everything() {
        let cfg = SwatConfig::longformer_fp16();
        let s = schedule_model(&cfg, 4096, 1, 12, 12);
        assert_eq!(s.placements.len(), 144);
        assert!(s.is_conflict_free());
        let per_job = s.placements[0].end - s.placements[0].start;
        assert!((s.makespan - 144.0 * per_job).abs() < 1e-9);
        assert!((s.pipeline_utilization(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_pipeline_halves_makespan() {
        let single = schedule_model(&SwatConfig::bigbird_fp16(), 4096, 1, 12, 12);
        let dual = schedule_model(&SwatConfig::bigbird_dual_fp16(), 4096, 1, 12, 12);
        assert!((single.makespan / dual.makespan - 2.0).abs() < 1e-9);
        assert!(dual.is_conflict_free());
        assert!((dual.pipeline_utilization(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_demand_is_far_below_hbm() {
        // The paper's dataflow point: even two pipelines streaming flat out
        // need a small fraction of HBM's 460 GB/s.
        let s = schedule_model(&SwatConfig::bigbird_dual_fp16(), 16384, 4, 12, 12);
        assert!(s.memory_feasible);
        assert!(
            s.peak_bandwidth_demand < 0.01 * swat_hw::MemoryInterface::hbm2().bytes_per_sec(),
            "demand {} B/s",
            s.peak_bandwidth_demand
        );
    }

    #[test]
    fn batches_scale_makespan_linearly() {
        let cfg = SwatConfig::longformer_fp16();
        let one = schedule_model(&cfg, 2048, 1, 2, 4);
        let four = schedule_model(&cfg, 2048, 4, 2, 4);
        assert!((four.makespan / one.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn empty_workload_rejected() {
        let _ = schedule_model(&SwatConfig::longformer_fp16(), 128, 0, 1, 1);
    }

    #[test]
    fn agenda_admits_incrementally() {
        let mut agenda = PipelineAgenda::new(2);
        let job = |head| Job {
            batch: 0,
            layer: 0,
            head,
        };
        let a = agenda.admit(job(0), 0.0, 2.0);
        let b = agenda.admit(job(1), 0.0, 1.0);
        // Two idle pipelines: both start at t=0 on different pipelines.
        assert_eq!((a.start, b.start), (0.0, 0.0));
        assert_ne!(a.pipeline, b.pipeline);
        // Third job lands on the pipeline that frees first (b's).
        let c = agenda.admit(job(2), 0.0, 1.0);
        assert_eq!(c.pipeline, b.pipeline);
        assert_eq!((c.start, c.end), (1.0, 2.0));
        assert_eq!(agenda.horizon(), 2.0);
        assert_eq!(agenda.idle_pipelines(2.0), 2);
        assert!((agenda.backlog_seconds(0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn agenda_respects_not_before() {
        let mut agenda = PipelineAgenda::new(1);
        let p = agenda.admit(
            Job {
                batch: 0,
                layer: 0,
                head: 0,
            },
            5.0,
            1.0,
        );
        assert_eq!((p.start, p.end), (5.0, 6.0));
        // A job arriving earlier still queues behind the horizon.
        let q = agenda.admit(
            Job {
                batch: 0,
                layer: 0,
                head: 1,
            },
            0.0,
            1.0,
        );
        assert_eq!(q.start, 6.0);
    }

    #[test]
    fn release_after_frees_the_uncommitted_tail() {
        let mut agenda = PipelineAgenda::new(2);
        let job = |head| Job {
            batch: 0,
            layer: 0,
            head,
        };
        agenda.admit_on(0, job(0), 0.0, 4.0);
        agenda.admit_on(1, job(1), 0.0, 1.0);
        // Preempt pipeline 0 at t=1.5: the horizon rolls back to 1.5 and
        // the pipeline is idle again from the caller's point of view.
        agenda.release_after(0, 1.5);
        assert_eq!(agenda.drain_times(), [1.5, 1.0]);
        assert_eq!(agenda.idle_pipelines(1.5), 2);
        // The freed pipeline takes new work starting at the release point.
        let p = agenda.admit_on(0, job(2), 1.5, 1.0);
        assert_eq!((p.start, p.end), (1.5, 2.5));
    }

    #[test]
    #[should_panic(expected = "cannot release")]
    fn release_after_rejects_past_horizons() {
        let mut agenda = PipelineAgenda::new(1);
        agenda.admit_on(
            0,
            Job {
                batch: 0,
                layer: 0,
                head: 0,
            },
            0.0,
            1.0,
        );
        agenda.release_after(0, 2.0);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn agenda_rejects_zero_duration() {
        PipelineAgenda::new(1).admit(
            Job {
                batch: 0,
                layer: 0,
                head: 0,
            },
            0.0,
            0.0,
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `admit_run` is `count` successive `admit_on` calls, the first
        /// taking `first_duration`: its return value and the `next_free`
        /// it leaves are bitwise the last call's `end`, whether
        /// `not_before` falls before, at or after the pipeline's horizon.
        #[test]
        fn admit_run_matches_job_by_job_admission(
            horizon in 0.0f64..10.0,
            side in 0u8..3,
            gap in 0.0f64..5.0,
            first_duration in 1e-6f64..2.0,
            duration in 1e-6f64..2.0,
            count in 1usize..64,
        ) {
            let not_before = match side {
                0 => horizon - gap,
                1 => horizon,
                _ => horizon + gap,
            };
            let job = |head| Job { batch: 0, layer: 0, head };
            let mut run = PipelineAgenda::new(2);
            if horizon > 0.0 {
                run.admit_on(1, job(0), 0.0, horizon);
            }
            let mut by_job = run.clone();
            let finish = run.admit_run(1, not_before, first_duration, duration, count);
            let mut end = f64::NAN;
            for head in 0..count {
                let d = if head == 0 { first_duration } else { duration };
                end = by_job.admit_on(1, job(head), not_before, d).end;
            }
            proptest::prop_assert_eq!(finish.to_bits(), end.to_bits());
            proptest::prop_assert_eq!(run.drain_times()[1].to_bits(), end.to_bits());
            proptest::prop_assert_eq!(run.drain_times(), by_job.drain_times());
        }
    }
}
