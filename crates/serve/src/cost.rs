//! The shared predictive cost model behind shard planning, admission
//! charging, and preemption victim selection.
//!
//! Before this module existed the simulator had two independent ideas of
//! what a dispatch costs. The planner ranked candidate cards by a
//! calibrated per-token estimate, while [`Card`](crate::fleet::Card)
//! admission charged the real timing model — and charged it with the
//! memory contention *at its own admission instant*, so when a shard plan
//! landed several siblings on one card, every shard admitted earlier in
//! the loop missed the contention of the siblings about to join it.
//! Sharded service times were systematically underestimated and
//! split-aware policies ranked wide plans optimistically.
//!
//! [`CardCostModel`] is the cure at the source: one implementation of the
//! per-card timing terms (contended job seconds, weight-swap stall,
//! restart penalty, calibration), owned by the card and cloned into the
//! planner-facing [`CostModel`], so the price a plan was chosen at and
//! the price admission charges are the same floating-point numbers.
//! [`CostModel::price_plan`] prices a whole shard plan — per-shard
//! service under the contention the plan *itself* induces (already-busy
//! pipelines plus sibling shards), swap and restart stalls, and the
//! fan-in completion time (max over shards) — by mirroring
//! [`Card::admit_jobs`](crate::fleet::Card) operation for operation, so
//! on an idle fleet the predicted fan-in equals the realized completion
//! bitwise (a property the proptests pin).
//!
//! Three controllers plan against it:
//!
//! - [`adaptive_shard_targets`](crate::policy::adaptive_shard_targets)
//!   picks the fan-out width that minimizes predicted fan-in time plus a
//!   queue-pressure term, instead of always fanning to `max_shards`;
//! - the simulator passes each plan's per-card shard counts into
//!   admission so realized charges match the planned contention;
//! - cost-aware [`PreemptionControl`](crate::sim::PreemptionControl)
//!   selects the victim whose eviction wastes the least predicted work
//!   ([`CostModel::preemption_cost`]).

use crate::policy::CardView;
use crate::request::Request;
use swat::SwatAccelerator;
use swat_hw::MemoryInterface;
use swat_workloads::RequestShape;

/// The shape every card calibrates its per-token service-time estimate
/// against (see [`CardCostModel::seconds_per_token`]): a mid-sized
/// interactive request, long enough that pipeline fill is amortized.
pub(crate) const CALIBRATION_SHAPE: RequestShape = RequestShape {
    seq_len: 2048,
    heads: 8,
    layers: 6,
    batch: 1,
};

/// One card's timing terms: the single implementation both admission
/// ([`Card`](crate::fleet::Card) delegates here) and planning
/// ([`CostModel`]) price with, so the two can never drift apart.
#[derive(Debug, Clone)]
pub struct CardCostModel {
    accel: SwatAccelerator,
    memory: MemoryInterface,
    host_link: MemoryInterface,
    /// Calibrated isolated service seconds per attended token (from
    /// [`CardCostModel::service_seconds`] at [`CALIBRATION_SHAPE`]).
    seconds_per_token: f64,
    /// Fill (drain) latency of the card's attention pipeline, cycles —
    /// cached so per-job pricing on the dispatch hot path never rebuilds
    /// the stage chain (`StageTimings::to_pipeline` allocates).
    fill_cycles: u64,
    /// Steady-state initiation interval, cycles per row (cached with
    /// [`CardCostModel::fill_cycles`]).
    ii_cycles: u64,
    /// Fault-injected calibration shift: every service time is stretched
    /// by this factor (1 on a healthy card — the multiplicative identity,
    /// so healthy-card prices are bitwise unchanged by its existence).
    degrade: f64,
}

impl CardCostModel {
    /// Builds the model for one card design on its memory interfaces.
    pub(crate) fn new(
        accel: SwatAccelerator,
        memory: MemoryInterface,
        host_link: MemoryInterface,
    ) -> CardCostModel {
        let stages = swat::timing::StageTimings::for_config(accel.config())
            .to_pipeline(accel.config().random_tokens > 0);
        let mut model = CardCostModel {
            fill_cycles: stages.fill_latency(),
            ii_cycles: stages.initiation_interval(),
            accel,
            memory,
            host_link,
            seconds_per_token: 0.0,
            degrade: 1.0,
        };
        model.seconds_per_token =
            model.service_seconds(&CALIBRATION_SHAPE) / CALIBRATION_SHAPE.work_tokens() as f64;
        model
    }

    /// The accelerator model this card runs.
    pub fn accelerator(&self) -> &SwatAccelerator {
        &self.accel
    }

    /// Pipelines on this card's design.
    pub fn pipelines(&self) -> usize {
        self.accel.config().pipelines
    }

    /// Calibrated isolated service seconds per attended token on this
    /// card — the number a dispatch policy may use to compare cards of
    /// *different* groups (FP16 vs FP32, single vs dual pipeline)
    /// without reaching into the timing model.
    pub fn seconds_per_token(&self) -> f64 {
        self.seconds_per_token
    }

    /// Seconds one pipeline needs for one of the request's jobs,
    /// including memory contention: with `streams` pipelines of this
    /// card streaming concurrently, the shared interface stretches
    /// service once their aggregate Q/K/V/Z demand saturates it.
    pub fn job_seconds(&self, shape: &RequestShape, streams: usize) -> f64 {
        // `fill + (rows - 1) × II` is `Pipeline::total_cycles` inlined
        // against the cached cycle terms — the same integer arithmetic,
        // minus the stage-chain rebuild `accel.latency_seconds` pays.
        let cycles = self.fill_cycles + (shape.seq_len as u64 - 1) * self.ii_cycles;
        debug_assert_eq!(cycles, self.accel.latency_cycles(shape.seq_len));
        let compute = self.accel.config().clock.seconds(cycles);
        let bytes_per_sec = self.accel.offchip_bytes(shape.seq_len) as f64 / compute;
        compute * self.memory.contention_factor(streams, bytes_per_sec) * self.degrade
    }

    /// Isolated (contention-free) single-pipeline service time for a
    /// whole request: its jobs run back to back on one pipeline.
    pub fn service_seconds(&self, shape: &RequestShape) -> f64 {
        self.job_seconds(shape, 1) * shape.jobs() as f64
    }

    /// Seconds to stream this shape's family weights over the host link
    /// — the stall paid when the card's resident family differs.
    pub fn swap_seconds(&self, shape: &RequestShape) -> f64 {
        let bytes = shape.weight_bytes(
            self.accel.config().head_dim,
            self.accel.config().precision.bytes(),
        );
        self.host_link.transfer_seconds(bytes)
    }

    /// The restart penalty a preempted request pays when it resumes on
    /// this card: one sequence-length's worth of the calibrated
    /// per-token service time — the interrupted job's Q/K/V context has
    /// to stream through the pipeline again before new work lands.
    pub fn restart_seconds(&self, shape: &RequestShape) -> f64 {
        self.seconds_per_token * shape.seq_len as f64
    }

    /// The card's current fault-injected calibration shift (1 when
    /// healthy).
    pub fn degrade_factor(&self) -> f64 {
        self.degrade
    }

    /// Sets the card's calibration shift to `factor` (absolute, not
    /// cumulative) and recalibrates [`CardCostModel::seconds_per_token`]
    /// so policy rankings and restart penalties track the degradation.
    /// The swap stall is untouched — the host link is not the part that
    /// degraded. Factors arrive from a fault plan, whose
    /// [`FaultEvent::validate`](crate::fault::FaultEvent::validate) holds
    /// them finite and at least 1.
    pub(crate) fn set_degrade(&mut self, factor: f64) {
        self.degrade = factor;
        self.seconds_per_token =
            self.service_seconds(&CALIBRATION_SHAPE) / CALIBRATION_SHAPE.work_tokens() as f64;
    }
}

/// Per-card planned stream counts for a shard plan, filled into `out`
/// sorted by card id: the pipelines already busy on each card plus the
/// plan's shards there — the contention every sibling is charged. Shared
/// by [`CostModel::price_plan`] and the simulator's admission pass, so
/// the planned and realized counts cannot drift apart. Takes the
/// caller's scratch vector instead of allocating a fresh tree per
/// dispatch (plans are at most a handful of entries, so the binary
/// search over a short sorted vec beats any map).
pub(crate) fn plan_stream_counts_into(
    plan: &[usize],
    cards: &[CardView],
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    for &card in plan {
        match out.binary_search_by_key(&card, |e| e.0) {
            Ok(pos) => out[pos].1 += 1,
            Err(pos) => out.insert(pos, (card, 1)),
        }
    }
    for (card, streams) in out.iter_mut() {
        *streams += cards[*card].pipelines - cards[*card].idle_pipelines;
    }
}

/// Splits `total` jobs across `width` shards as evenly as the grid
/// divides: `(base, extra)` — every shard carries `base` jobs, the
/// first `extra` shards one more. Shared by [`CostModel::price_plan`]
/// and the simulator's admission pass.
pub(crate) fn job_split(total: usize, width: usize) -> (usize, usize) {
    (total / width, total % width)
}

/// What [`CostModel::price_plan`] predicts for one candidate shard plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Shards the plan actually carries: the plan length capped at the
    /// request's remaining jobs (a shard carries at least one job).
    pub width: usize,
    /// Predicted fan-in instant — the absolute time the *last* shard
    /// drains. Computed with the exact operation sequence admission
    /// uses, so on idle target pipelines it equals the realized fan-in
    /// bitwise.
    pub fan_in: f64,
    /// Total pipeline-seconds the plan consumes (stalls included) — the
    /// capacity it takes away from everything waiting behind it.
    pub busy_seconds: f64,
}

/// The fleet-wide predictive cost model: one [`CardCostModel`] per card,
/// indexed by card id, cloned from the fleet so planner prices and
/// admission charges share one implementation.
#[derive(Debug, Clone)]
pub struct CostModel {
    cards: Vec<CardCostModel>,
}

impl CostModel {
    /// Snapshots the cost model of every card in the fleet, in card-id
    /// order.
    pub fn for_fleet(fleet: &crate::fleet::Fleet) -> CostModel {
        CostModel {
            cards: fleet
                .cards()
                .iter()
                .map(|c| c.cost_model().clone())
                .collect(),
        }
    }

    /// The per-card model behind card id `card`.
    ///
    /// # Panics
    ///
    /// Panics if `card` is out of range.
    pub fn card(&self, card: usize) -> &CardCostModel {
        &self.cards[card]
    }

    /// Cards the model covers.
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// Whether the model covers no cards (never true for a built fleet).
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty()
    }

    /// Prices dispatching `request` at `now` across `plan` (one shard
    /// per entry; entries may repeat a card), against the per-card state
    /// in `cards`. Mirrors [`Card::admit_jobs`](crate::fleet::Card)
    /// exactly:
    ///
    /// - every shard on card `c` is charged the contention of
    ///   `busy(c) + planned(c)` streams — the pipelines already serving
    ///   plus **all** the plan's shards there, siblings included;
    /// - the first shard on a card whose resident family differs pays
    ///   the weight swap; later shards on the same card find it warm;
    /// - the plan's first shard pays the restart penalty when the
    ///   request carries a pending one
    ///   ([`Request::pending_restart`]);
    /// - jobs spread as evenly as the grid divides (the first
    ///   `total % width` shards carry one extra job), and the plan is
    ///   capped at the request's remaining jobs.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty or names a card outside `cards`.
    pub fn price_plan(
        &self,
        request: &Request,
        plan: &[usize],
        cards: &[CardView],
        now: f64,
    ) -> PlanCost {
        assert!(!plan.is_empty(), "cannot price an empty shard plan");
        let shape = &request.shape;
        let total = request.remaining_jobs();
        let width = plan.len().min(total);
        let (base, extra) = job_split(total, width);
        let mut fan_in = now;
        let mut busy = 0.0f64;
        // Plans are a handful of entries (bounded by the widest card
        // group), so the per-card stream count and the warm-after-first-
        // shard rule are recomputed by scanning the plan itself — no
        // per-call map allocations on the dispatch hot path.
        for (i, &card) in plan[..width].iter().enumerate() {
            let model = &self.cards[card];
            let view = &cards[card];
            let streams = plan[..width].iter().filter(|&&c| c == card).count()
                + (view.pipelines - view.idle_pipelines);
            let per_job = model.job_seconds(shape, streams);
            // The first shard on a cold card pays the swap; its later
            // siblings (and every shard on a warm card) find it warm.
            let cold = !plan[..i].contains(&card) && view.resident != Some(shape.family());
            let swap = if cold { model.swap_seconds(shape) } else { 0.0 };
            let restart = if i == 0 && request.pending_restart {
                model.restart_seconds(shape)
            } else {
                0.0
            };
            let stall = swap + restart;
            let jobs = base + usize::from(i < extra);
            // One addition per job, first job carrying the stall — the
            // exact op sequence `PipelineAgenda::admit_on` accumulates,
            // so prediction and admission agree bitwise on idle lanes.
            let mut finish = now;
            for j in 0..jobs {
                let duration = if j == 0 { stall + per_job } else { per_job };
                finish += duration;
            }
            fan_in = fan_in.max(finish);
            busy += finish - now;
        }
        PlanCost {
            width,
            fan_in,
            busy_seconds: busy,
        }
    }

    /// The predicted price of evicting one in-flight shard of `shape`
    /// from `card`: work thrown away plus the stalls the remnant will
    /// pay to get going again.
    ///
    /// - **lost work** — time the shard has held its pipeline that the
    ///   checkpoint does not keep: whole jobs drained before `now`
    ///   survive, the partially-run job and the original admission
    ///   stall are re-run;
    /// - **restart** — the penalty the remnant pays on resume
    ///   ([`CardCostModel::restart_seconds`], priced on the victim's
    ///   card as the resume placement is not yet known);
    /// - **re-swap** — the weight stream the eviction forfeits, charged
    ///   only when it would tear a swap still in flight
    ///   (`tearing_swap`): the half-streamed family is dropped (exactly
    ///   the condition under which
    ///   [`Card::preempt`](crate::fleet::Card) un-counts the swap) and
    ///   must re-stream, while a victim whose swap already completed
    ///   leaves the family resident and pays nothing extra.
    ///
    /// `run_seconds` is `now - dispatch`; `stall_seconds`,
    /// `per_job_seconds` and `shard_jobs` are the shard's admission
    /// terms.
    // One argument per admission term: a struct would only move the
    // same names one level down while coupling this crate-public API to
    // the crate-private `Admission` layout.
    #[allow(clippy::too_many_arguments)]
    pub fn preemption_cost(
        &self,
        card: usize,
        shape: &RequestShape,
        run_seconds: f64,
        stall_seconds: f64,
        per_job_seconds: f64,
        shard_jobs: usize,
        tearing_swap: bool,
    ) -> f64 {
        let model = &self.cards[card];
        let progressed = run_seconds - stall_seconds;
        let done = if progressed <= 0.0 {
            0
        } else {
            ((progressed / per_job_seconds).floor() as usize).min(shard_jobs - 1)
        };
        let lost = run_seconds - done as f64 * per_job_seconds;
        let re_swap = if tearing_swap {
            model.swap_seconds(shape)
        } else {
            0.0
        };
        lost + model.restart_seconds(shape) + re_swap
    }

    /// Expected decode service `request` still owes **beyond** its
    /// current step, in isolated single-pipeline seconds on `card`:
    /// expected future steps × the shape's per-step service time, with
    /// the plan's early-exit survival probabilities folded in (see
    /// [`swat_workloads::DecodePlan::expected_steps_from`]). Exactly
    /// zero for a one-shot request — the term every decode-aware
    /// ranking adds must vanish on pre-decode traffic so those rankings
    /// reduce bitwise.
    pub fn expected_future_decode_seconds(&self, card: usize, request: &Request) -> f64 {
        let future = request.expected_remaining_steps() - 1.0;
        if future <= 0.0 {
            return 0.0;
        }
        future * self.cards[card].service_seconds(&request.shape)
    }

    /// Predicted remaining decode work of `request` on `card`, isolated
    /// single-pipeline seconds: the current fragment's remaining jobs
    /// plus the expected future steps. This is the remaining-*steps*
    /// price decode-aware victim selection ranks by — a 32-step decode
    /// on its first step is a far bigger capacity commitment than the
    /// identical shape served one-shot, which a remaining-jobs price
    /// cannot see. For a one-shot request it degenerates to the
    /// fragment's isolated service time exactly.
    pub fn remaining_decode_seconds(&self, card: usize, request: &Request) -> f64 {
        let per_job = self.cards[card].job_seconds(&request.shape, 1);
        per_job * request.remaining_jobs() as f64
            + self.expected_future_decode_seconds(card, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{CardGroup, FleetConfig};
    use swat::SwatConfig;

    fn shape() -> RequestShape {
        RequestShape {
            seq_len: 1024,
            heads: 4,
            layers: 2,
            batch: 1,
        }
    }

    fn idle_views(fleet: &crate::fleet::Fleet) -> Vec<CardView> {
        fleet
            .cards()
            .iter()
            .enumerate()
            .map(|(i, c)| CardView {
                card: i,
                group: c.group(),
                pipelines: c.pipelines(),
                idle_pipelines: c.pipelines(),
                backlog_seconds: 0.0,
                served: 0,
                seconds_per_token: c.seconds_per_token(),
                resident: None,
            })
            .collect()
    }

    /// A 1-card fleet whose memory interface saturates under two
    /// concurrent streams, so contention is visible in the prices.
    fn starved_fleet() -> FleetConfig {
        FleetConfig {
            groups: vec![CardGroup::new(
                1,
                SwatConfig::bigbird_dual_fp16(),
                MemoryInterface::new(1.0e9),
            )],
            host_link: MemoryInterface::pcie4_x16(),
        }
    }

    #[test]
    fn card_model_matches_card_timing() {
        let fleet = FleetConfig::mixed_precision(1, 1).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        assert_eq!(cost.len(), 2);
        assert!(!cost.is_empty());
        let s = shape();
        for (i, card) in fleet.cards().iter().enumerate() {
            let m = cost.card(i);
            assert_eq!(m.seconds_per_token(), card.seconds_per_token());
            assert_eq!(m.job_seconds(&s, 1), card.job_seconds(&s, 1));
            assert_eq!(m.job_seconds(&s, 2), card.job_seconds(&s, 2));
            assert_eq!(m.service_seconds(&s), card.service_seconds(&s));
            assert_eq!(m.swap_seconds(&s), card.swap_seconds(&s));
            assert_eq!(m.restart_seconds(&s), card.restart_seconds(&s));
            assert_eq!(m.pipelines(), card.pipelines());
        }
    }

    #[test]
    fn plan_price_charges_sibling_contention() {
        let fleet = starved_fleet().build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let views = idle_views(&fleet);
        let r = Request::new(0, 0.0, shape()); // 8 jobs
        let narrow = cost.price_plan(&r, &[0], &views, 0.0);
        let wide = cost.price_plan(&r, &[0, 0], &views, 0.0);
        assert_eq!(narrow.width, 1);
        assert_eq!(wide.width, 2);
        // Two sibling streams saturate the interface: each of the wide
        // plan's 4-job shards runs at the 2-stream rate, so the fan-in
        // is more than half the serial time.
        let per1 = cost.card(0).job_seconds(&r.shape, 1);
        let per2 = cost.card(0).job_seconds(&r.shape, 2);
        assert!(per2 > per1, "the starved interface must stretch service");
        let swap = cost.card(0).swap_seconds(&r.shape);
        assert!((narrow.fan_in - (swap + 8.0 * per1)).abs() < 1e-12);
        assert!((wide.fan_in - (swap + 4.0 * per2)).abs() < 1e-12);
        // Both shards are charged the 2-stream rate, so the wide plan
        // consumes strictly more pipeline-seconds than the narrow one.
        assert!(wide.busy_seconds > narrow.busy_seconds);
    }

    #[test]
    fn plan_price_pays_swap_once_per_card() {
        let fleet = FleetConfig::standard(2).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let mut views = idle_views(&fleet);
        let r = Request::new(0, 0.0, shape());
        let swap = cost.card(0).swap_seconds(&r.shape);
        let per = cost.card(0).job_seconds(&r.shape, 2);
        // Two shards on one cold card: one swap; the second shard rides
        // the warm family and finishes first (fan-in is the swapped one).
        let same_card = cost.price_plan(&r, &[0, 0], &views, 0.0);
        assert!((same_card.fan_in - (swap + 4.0 * per)).abs() < 1e-12);
        assert!((same_card.busy_seconds - (swap + 8.0 * per)).abs() < 1e-12);
        // Spanning two cold cards pays a swap on each.
        let span = cost.price_plan(&r, &[0, 1], &views, 0.0);
        let per1 = cost.card(0).job_seconds(&r.shape, 1);
        assert!((span.fan_in - (swap + 4.0 * per1)).abs() < 1e-12);
        assert!((span.busy_seconds - (2.0 * swap + 8.0 * per1)).abs() < 1e-12);
        // A resident family pays nothing.
        views[0].resident = Some(r.shape.family());
        let warm = cost.price_plan(&r, &[0], &views, 0.0);
        assert!((warm.fan_in - 8.0 * per1).abs() < 1e-12);
    }

    #[test]
    fn plan_price_charges_restart_on_the_first_shard_only() {
        let fleet = FleetConfig::standard(1).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let mut views = idle_views(&fleet);
        views[0].resident = Some(shape().family());
        let mut r = Request::new(0, 0.0, shape());
        r.jobs_done = 2;
        r.preemptions = 1;
        r.pending_restart = true;
        let per = cost.card(0).job_seconds(&r.shape, 2);
        let restart = cost.card(0).restart_seconds(&r.shape);
        let pc = cost.price_plan(&r, &[0, 0], &views, 0.0);
        assert_eq!(pc.width, 2);
        // 6 remaining jobs split 3 + 3; the restart rides shard 0 only.
        assert!((pc.fan_in - (restart + 3.0 * per)).abs() < 1e-12);
        assert!((pc.busy_seconds - (restart + 6.0 * per)).abs() < 1e-12);
        // Cleared flag: no restart anywhere.
        r.pending_restart = false;
        let pc = cost.price_plan(&r, &[0, 0], &views, 0.0);
        assert!((pc.fan_in - 3.0 * per).abs() < 1e-12);
    }

    #[test]
    fn plan_width_caps_at_remaining_jobs() {
        let fleet = FleetConfig::standard(2).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let views = idle_views(&fleet);
        let tiny = Request::new(
            0,
            0.0,
            RequestShape {
                seq_len: 512,
                heads: 2,
                layers: 1,
                batch: 1,
            },
        ); // 2 jobs
        let pc = cost.price_plan(&tiny, &[0, 0, 1, 1], &views, 0.0);
        assert_eq!(pc.width, 2, "a shard carries at least one job");
    }

    #[test]
    fn degrade_stretches_every_service_term_and_unit_factor_is_identity() {
        let fleet = FleetConfig::standard(1).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let s = shape();
        let healthy = cost.card(0).clone();
        let mut unit = healthy.clone();
        unit.set_degrade(1.0);
        // ×1.0 is the bitwise identity on finite floats: a card degraded
        // by factor 1 prices exactly like one never touched.
        assert_eq!(unit.job_seconds(&s, 1), healthy.job_seconds(&s, 1));
        assert_eq!(unit.seconds_per_token(), healthy.seconds_per_token());
        assert_eq!(unit.restart_seconds(&s), healthy.restart_seconds(&s));
        let mut slow = healthy.clone();
        slow.set_degrade(2.0);
        assert_eq!(slow.degrade_factor(), 2.0);
        assert!((slow.job_seconds(&s, 1) - 2.0 * healthy.job_seconds(&s, 1)).abs() < 1e-15);
        assert!(
            (slow.seconds_per_token() - 2.0 * healthy.seconds_per_token()).abs() < 1e-12,
            "the calibrated per-token estimate must track degradation"
        );
        // The host link did not degrade: swaps price the same.
        assert_eq!(slow.swap_seconds(&s), healthy.swap_seconds(&s));
    }

    #[test]
    fn preemption_cost_orders_victims_sensibly() {
        let fleet = FleetConfig::standard(1).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let s = shape();
        // Binary fractions keep the job-boundary arithmetic exact.
        let per = 0.015625;
        let restart = cost.card(0).restart_seconds(&s);
        // A shard that just started has banked nothing but also loses
        // almost nothing; mid-job progress is lost work.
        let fresh = cost.preemption_cost(0, &s, 0.1 * per, 0.0, per, 8, false);
        let mid_job = cost.preemption_cost(0, &s, 5.5 * per, 0.0, per, 8, false);
        assert!(fresh < mid_job, "fresh {fresh} vs mid-job {mid_job}");
        assert!((mid_job - (0.5 * per + restart)).abs() < 1e-12);
        // Whole-job checkpoints are kept: landing exactly on a job
        // boundary loses only the restart penalty.
        let boundary = cost.preemption_cost(0, &s, 5.0 * per, 0.0, per, 8, false);
        assert!((boundary - restart).abs() < 1e-12);
        // An eviction that tears an in-flight swap pays its re-stream
        // too; mid-stall nothing is checkpointed, the whole run is lost.
        let torn = cost.preemption_cost(0, &s, 0.25 * per, per, per, 8, true);
        assert!(
            (torn - (0.25 * per + restart + cost.card(0).swap_seconds(&s))).abs() < 1e-12,
            "torn swap must price the re-stream"
        );
        let stalled = cost.preemption_cost(0, &s, 0.25 * per, per, per, 8, false);
        assert!((stalled - (0.25 * per + restart)).abs() < 1e-12);
    }

    #[test]
    fn decode_pricing_vanishes_on_one_shot_requests() {
        let fleet = FleetConfig::standard(1).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let r = Request::new(0, 0.0, shape());
        assert_eq!(
            cost.expected_future_decode_seconds(0, &r),
            0.0,
            "one-shot future term must be exactly zero"
        );
        assert_eq!(
            cost.remaining_decode_seconds(0, &r),
            cost.card(0).job_seconds(&r.shape, 1) * r.remaining_jobs() as f64,
            "one-shot remaining-steps price is the fragment price exactly"
        );
        // A preempted one-shot remnant keeps the reduction.
        let remnant = Request {
            jobs_done: 3,
            preemptions: 1,
            ..r
        };
        assert_eq!(cost.expected_future_decode_seconds(0, &remnant), 0.0);
    }

    #[test]
    fn decode_pricing_charges_expected_future_steps() {
        use swat_workloads::DecodePlan;
        let fleet = FleetConfig::standard(1).build().unwrap();
        let cost = CostModel::for_fleet(&fleet);
        let s = shape();
        let per_step = cost.card(0).service_seconds(&s);
        let r = Request::new(0, 0.0, s).with_decode(DecodePlan {
            steps: 4,
            exit_prob: 0.0,
            exit_seed: 0,
        });
        assert!(
            (cost.expected_future_decode_seconds(0, &r) - 3.0 * per_step).abs() < 1e-12,
            "three full steps follow the current one"
        );
        assert!(
            (cost.remaining_decode_seconds(0, &r) - 4.0 * per_step).abs() < 1e-12,
            "current grid plus three future steps"
        );
        // Early exit discounts the future: expected steps from step 0 of
        // 4 at p = 0.5 is 1.875, so 0.875 future steps.
        let exiting = Request::new(1, 0.0, s).with_decode(DecodePlan {
            steps: 4,
            exit_prob: 0.5,
            exit_seed: 7,
        });
        assert!(
            (cost.expected_future_decode_seconds(0, &exiting) - 0.875 * per_step).abs() < 1e-12
        );
        // The cursor advances the price toward zero.
        let almost_done = Request { steps_done: 3, ..r };
        assert_eq!(cost.expected_future_decode_seconds(0, &almost_done), 0.0);
        // Mid-step progress shrinks only the fragment term.
        let mid = Request { jobs_done: 4, ..r };
        assert!(
            cost.remaining_decode_seconds(0, &mid) < cost.remaining_decode_seconds(0, &r),
            "checkpointed jobs come off the fragment"
        );
    }
}
