//! Request-mix generators for the serving simulator.
//!
//! A production attention-serving fleet does not see one fixed shape: chat
//! turns are short and latency-critical, document jobs are long and
//! throughput-bound, offline batches fill the troughs. This module models
//! those populations as seeded discrete distributions over
//! [`RequestShape`] — the (seq_len, heads, layers, batch) tuple that fully
//! determines an attention job's cost on SWAT — so `swat-serve` and the
//! benchmark sweeps can draw realistic heterogeneous traffic
//! deterministically.
//!
//! Sequence lengths stay within the range the paper evaluates (512 to
//! 16 K tokens) and are always at least 512, so any shape is admissible on
//! every SWAT preset (the BigBird presets need ≥ 320 positions for their
//! global + random tokens).

use swat_numeric::SplitMix64;

/// Latency-sensitivity class of a request — the priority the serving
/// layer schedules by. Classes are ordered: `Interactive` preempts
/// nothing (service is non-preemptive) but always dispatches ahead of
/// `Batch`, which dispatches ahead of `Background`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestClass {
    /// User-facing turns: tight SLO, served first.
    Interactive,
    /// Deadline-tolerant jobs (document analysis, evaluation runs).
    Batch,
    /// Best-effort filler (offline batches); the only class an admission
    /// controller may shed under overload.
    Background,
}

impl RequestClass {
    /// All classes, highest priority first.
    pub const ALL: [RequestClass; 3] = [
        RequestClass::Interactive,
        RequestClass::Batch,
        RequestClass::Background,
    ];

    /// Short name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            RequestClass::Interactive => "interactive",
            RequestClass::Batch => "batch",
            RequestClass::Background => "background",
        }
    }

    /// Dispatch rank: lower ranks leave the queue first.
    pub fn rank(&self) -> u8 {
        match self {
            RequestClass::Interactive => 0,
            RequestClass::Batch => 1,
            RequestClass::Background => 2,
        }
    }

    /// The class admission control sheds first (and, today, only).
    pub fn lowest() -> RequestClass {
        RequestClass::Background
    }
}

/// The shape of one attention-inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestShape {
    /// Tokens in the sequence.
    pub seq_len: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Transformer layers.
    pub layers: usize,
    /// Sequences batched into the request.
    pub batch: usize,
}

impl RequestShape {
    /// Independent attention jobs this request expands into
    /// (`batch × layers × heads`).
    pub fn jobs(&self) -> usize {
        self.batch * self.layers * self.heads
    }

    /// Total attended tokens across all jobs — a size proxy for
    /// shortest-job-first policies that must not depend on any card's
    /// timing model.
    pub fn work_tokens(&self) -> u64 {
        self.jobs() as u64 * self.seq_len as u64
    }

    /// The model family this shape belongs to. Requests of one family
    /// share weights, so a card that just served the same family has them
    /// resident; serving a different family means re-streaming weights
    /// over the host link.
    pub fn family(&self) -> (usize, usize) {
        (self.heads, self.layers)
    }

    /// Approximate parameter bytes of the family's layer stack: per layer,
    /// 4 attention projections plus an 8·d² FFN over `d = heads ×
    /// head_dim`, at `bytes_per_elem` precision.
    pub fn weight_bytes(&self, head_dim: usize, bytes_per_elem: usize) -> u64 {
        let d = (self.heads * head_dim) as u64;
        self.layers as u64 * 12 * d * d * bytes_per_elem as u64
    }
}

/// A named population of request shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestMix {
    /// Short interactive turns: 512–2048 tokens, base-size models, batch 1.
    Interactive,
    /// Long-document jobs: 4 K–16 K tokens, larger models, small batches.
    Document,
    /// Offline throughput work: mid lengths, large batches.
    Batch,
    /// A production-like blend: 60% interactive, 30% document, 10% batch.
    Production,
}

impl RequestMix {
    /// All mixes, for sweeps.
    pub const ALL: [RequestMix; 4] = [
        RequestMix::Interactive,
        RequestMix::Document,
        RequestMix::Batch,
        RequestMix::Production,
    ];

    /// Short name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            RequestMix::Interactive => "interactive",
            RequestMix::Document => "document",
            RequestMix::Batch => "batch",
            RequestMix::Production => "production",
        }
    }

    /// Draws one request shape from this mix.
    pub fn sample(&self, rng: &mut SplitMix64) -> RequestShape {
        self.sample_classed(rng).0
    }

    /// Draws one request shape together with its priority class. The class
    /// is a deterministic function of the population the shape was drawn
    /// from (no extra random draws, so traces generated before classes
    /// existed keep their exact shapes): interactive turns are
    /// [`RequestClass::Interactive`], document jobs are
    /// [`RequestClass::Batch`], offline batches are
    /// [`RequestClass::Background`].
    pub fn sample_classed(&self, rng: &mut SplitMix64) -> (RequestShape, RequestClass) {
        fn pick<T: Copy>(rng: &mut SplitMix64, options: &[T]) -> T {
            options[rng.next_below(options.len() as u64) as usize]
        }
        match self {
            RequestMix::Interactive => (
                RequestShape {
                    seq_len: pick(rng, &[512, 1024, 1024, 2048]),
                    heads: pick(rng, &[8, 12]),
                    layers: pick(rng, &[6, 12]),
                    batch: 1,
                },
                RequestClass::Interactive,
            ),
            RequestMix::Document => (
                RequestShape {
                    seq_len: pick(rng, &[4096, 8192, 8192, 16384]),
                    heads: pick(rng, &[12, 16]),
                    layers: pick(rng, &[12, 24]),
                    batch: pick(rng, &[1, 2]),
                },
                RequestClass::Batch,
            ),
            RequestMix::Batch => (
                RequestShape {
                    seq_len: pick(rng, &[1024, 2048, 4096]),
                    heads: 12,
                    layers: 12,
                    batch: pick(rng, &[4, 8]),
                },
                RequestClass::Background,
            ),
            RequestMix::Production => {
                let r = rng.next_below(10);
                let inner = if r < 6 {
                    RequestMix::Interactive
                } else if r < 9 {
                    RequestMix::Document
                } else {
                    RequestMix::Batch
                };
                inner.sample_classed(rng)
            }
        }
    }

    /// Draws `n` shapes (convenience for building traces).
    pub fn sample_many(&self, n: usize, seed: u64) -> Vec<RequestShape> {
        let mut rng = SplitMix64::new(seed ^ 0x5EC7_E000);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

/// A request's token-level decode plan: how many generation steps it
/// runs and the seeded early-exit process that may finish it sooner.
///
/// Each decode step re-runs the request's full attention-job grid
/// ([`RequestShape::jobs`] jobs over the current context), so the
/// per-step job count is the shape's job count and a plan of `steps = 1`
/// is exactly the classic one-shot request. Early exit models a decoder
/// that detects convergence before exhausting its step budget: after
/// every non-final step the plan draws from a per-request `SplitMix64`
/// substream (seeded at generation time, never from the serving layer's
/// clock or queue state) and stops with probability `exit_prob`. Draw
/// `k` is the `k + 1`-th output of `SplitMix64::new(exit_seed)`, so
/// replaying a request always replays its exits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodePlan {
    /// Decode steps the request runs if it never exits early (≥ 1).
    pub steps: u32,
    /// Probability of stopping after each non-final step, in `[0, 1)`.
    pub exit_prob: f64,
    /// Seed of the request's private early-exit draw stream.
    pub exit_seed: u64,
}

impl DecodePlan {
    /// The classic one-shot plan: one step, early exit disabled. Every
    /// request defaults to it, which is what keeps pre-decode traces —
    /// and their serialized reports — bitwise identical.
    pub fn one_shot() -> DecodePlan {
        DecodePlan {
            steps: 1,
            exit_prob: 0.0,
            exit_seed: 0,
        }
    }

    /// Whether this plan reduces to the one-shot path: a single step
    /// (early exit has no non-final boundary to fire at).
    pub fn is_one_shot(&self) -> bool {
        self.steps <= 1
    }

    /// Checks the plan is usable.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on zero steps or an exit probability outside
    /// `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("decode plans need at least one step".to_string());
        }
        let p = self.exit_prob;
        if !(0.0..1.0).contains(&p) {
            return Err(format!("decode exit_prob must be in [0, 1), got {p}"));
        }
        Ok(())
    }

    /// The plan's `step`-th early-exit draw (0-based), a unit uniform
    /// from the request's private substream.
    pub fn exit_draw(&self, step: u32) -> f64 {
        let mut rng = SplitMix64::new(self.exit_seed);
        let mut z = rng.next_u64();
        for _ in 0..step {
            z = rng.next_u64();
        }
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Whether the request stops after finishing step `step` (0-based).
    /// Never true when early exit is disabled, and the caller never asks
    /// about the final step (finishing it completes the request anyway).
    pub fn exits_after(&self, step: u32) -> bool {
        self.exit_prob > 0.0 && self.exit_draw(step) < self.exit_prob
    }

    /// Expected number of decode steps still to run when `done` steps
    /// have fanned in, counting the step currently queued or in flight —
    /// `Σ_{j=0}^{M-1} (1 − exit_prob)^j` over the `M = steps − done`
    /// steps left. Exactly 1 for any one-shot request (preempted or
    /// not), which is what lets decode-aware rankings reduce bitwise to
    /// the pre-decode keys.
    pub fn expected_steps_from(&self, done: u32) -> f64 {
        let remaining = self.steps.saturating_sub(done);
        let mut expected = 0.0;
        let mut survive = 1.0;
        for _ in 0..remaining {
            expected += survive;
            survive *= 1.0 - self.exit_prob;
        }
        expected
    }
}

/// A seeded population of decode plans: steps uniform over a range, one
/// shared early-exit probability, and a fresh substream seed per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeMix {
    /// Fewest steps a plan runs (≥ 1).
    pub min_steps: u32,
    /// Most steps a plan runs (≥ `min_steps`).
    pub max_steps: u32,
    /// Early-exit probability every plan carries, in `[0, 1)`.
    pub exit_prob: f64,
}

impl DecodeMix {
    /// The degenerate mix every plan of which is the one-shot plan.
    pub fn one_shot() -> DecodeMix {
        DecodeMix {
            min_steps: 1,
            max_steps: 1,
            exit_prob: 0.0,
        }
    }

    /// Checks the parameters are usable: the shortest plan the mix draws
    /// passes [`DecodePlan::validate`], and the step range is not
    /// inverted.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on a zero/inverted step range or an exit
    /// probability outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        DecodePlan {
            steps: self.min_steps,
            exit_prob: self.exit_prob,
            exit_seed: 0,
        }
        .validate()?;
        if self.max_steps < self.min_steps {
            return Err(format!(
                "decode max_steps {} must be >= min_steps {}",
                self.max_steps, self.min_steps
            ));
        }
        Ok(())
    }

    /// Draws one plan: steps uniform over the range, a fresh exit seed.
    /// Always consumes exactly two RNG outputs, so a trace's plans stay
    /// aligned however the range or probability is tuned.
    pub fn sample_plan(&self, rng: &mut SplitMix64) -> DecodePlan {
        let span = (self.max_steps - self.min_steps + 1) as u64;
        let steps = self.min_steps + rng.next_below(span) as u32;
        DecodePlan {
            steps,
            exit_prob: self.exit_prob,
            exit_seed: rng.next_u64(),
        }
    }
}

/// How multi-turn conversations are shaped: turns per session, think-time
/// between turns, the heavy-tenant fraction, and per-turn context growth.
///
/// A session is one user's conversation. Most sessions are
/// **interactive** — short [`RequestMix::Interactive`]-style turns whose
/// sequence length grows each turn as the accumulated context is
/// re-attended. A configurable minority are **heavy tenants**:
/// document-scale turns ([`RequestMix::Document`] shapes at
/// [`RequestClass::Batch`] priority) that grow faster and hog capacity —
/// the population a fairness metric exists to watch.
///
/// The profile only draws *shapes and counts*; arrival times and session
/// ids are the serving layer's business (`swat-serve`'s
/// `session::SessionTraffic`), which keeps this crate free of any clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProfile {
    /// Fewest turns a session runs (≥ 1).
    pub min_turns: usize,
    /// Most turns a session runs (≥ `min_turns`).
    pub max_turns: usize,
    /// Mean think-time between a turn's completion-independent arrival
    /// and the next, seconds (exponentially distributed by the caller).
    pub think_mean_s: f64,
    /// Sessions out of 100 that are heavy tenants.
    pub heavy_pct: u8,
}

impl SessionProfile {
    /// The default conversation population: 2–8 turns, 2 s mean think
    /// time, 10 % heavy tenants.
    pub fn standard() -> SessionProfile {
        SessionProfile {
            min_turns: 2,
            max_turns: 8,
            think_mean_s: 2.0,
            heavy_pct: 10,
        }
    }

    /// A purely interactive population (no heavy tenants) — the control
    /// arm for fairness experiments.
    pub fn interactive_only() -> SessionProfile {
        SessionProfile {
            heavy_pct: 0,
            ..SessionProfile::standard()
        }
    }

    /// Checks the parameters are usable.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic on a zero/inverted turn range, a non-positive
    /// or non-finite think time, or a heavy share above 100 %.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_turns == 0 {
            return Err("sessions need at least one turn".to_string());
        }
        if self.max_turns < self.min_turns {
            return Err(format!(
                "session max_turns {} must be >= min_turns {}",
                self.max_turns, self.min_turns
            ));
        }
        if !(self.think_mean_s.is_finite() && self.think_mean_s > 0.0) {
            return Err(format!(
                "session think time must be positive and finite, got {}",
                self.think_mean_s
            ));
        }
        if self.heavy_pct > 100 {
            return Err(format!(
                "session heavy_pct is a percentage, got {}",
                self.heavy_pct
            ));
        }
        Ok(())
    }

    /// Draws how many turns a session runs (uniform over the range).
    pub fn draw_turns(&self, rng: &mut SplitMix64) -> usize {
        self.min_turns + rng.next_below((self.max_turns - self.min_turns + 1) as u64) as usize
    }

    /// Draws whether a session is a heavy tenant.
    pub fn draw_heavy(&self, rng: &mut SplitMix64) -> bool {
        rng.next_below(100) < u64::from(self.heavy_pct)
    }

    /// Draws the shape and class of turn `turn` (0-based) of a session.
    /// Later turns re-attend the conversation so far, so sequence length
    /// grows linearly with the turn index — capped at the 16 K-token
    /// ceiling every SWAT preset admits.
    pub fn turn_shape(
        &self,
        rng: &mut SplitMix64,
        heavy: bool,
        turn: usize,
    ) -> (RequestShape, RequestClass) {
        let (mut shape, class) = if heavy {
            RequestMix::Document.sample_classed(rng)
        } else {
            RequestMix::Interactive.sample_classed(rng)
        };
        let growth_per_turn = if heavy { 512 } else { 256 };
        shape.seq_len = (shape.seq_len + growth_per_turn * turn).min(16384);
        (shape, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        for mix in RequestMix::ALL {
            let a = mix.sample_many(200, 42);
            let b = mix.sample_many(200, 42);
            assert_eq!(a, b, "{}", mix.name());
            let c = mix.sample_many(200, 43);
            assert_ne!(a, c, "{} must vary with seed", mix.name());
        }
    }

    #[test]
    fn shapes_are_always_admissible() {
        for mix in RequestMix::ALL {
            for shape in mix.sample_many(500, 7) {
                assert!(shape.seq_len >= 512, "{:?}", shape);
                assert!(shape.seq_len <= 16384, "{:?}", shape);
                assert!(shape.jobs() > 0);
                assert_eq!(
                    shape.work_tokens(),
                    shape.jobs() as u64 * shape.seq_len as u64
                );
            }
        }
    }

    #[test]
    fn document_jobs_are_heavier_than_interactive() {
        let mean_work = |mix: RequestMix| {
            let shapes = mix.sample_many(500, 11);
            shapes.iter().map(|s| s.work_tokens()).sum::<u64>() as f64 / shapes.len() as f64
        };
        assert!(mean_work(RequestMix::Document) > 5.0 * mean_work(RequestMix::Interactive));
    }

    #[test]
    fn production_blend_contains_all_populations() {
        let shapes = RequestMix::Production.sample_many(500, 3);
        assert!(shapes.iter().any(|s| s.seq_len <= 2048 && s.batch == 1));
        assert!(shapes.iter().any(|s| s.seq_len >= 4096));
        assert!(shapes.iter().any(|s| s.batch >= 4));
    }

    #[test]
    fn classes_do_not_perturb_shapes() {
        // `sample_classed` must consume exactly the draws `sample` always
        // did, so pre-class traces replay bit-identically.
        for mix in RequestMix::ALL {
            let mut a = SplitMix64::new(17);
            let mut b = SplitMix64::new(17);
            for _ in 0..200 {
                assert_eq!(mix.sample(&mut a), mix.sample_classed(&mut b).0);
            }
        }
    }

    #[test]
    fn classes_follow_their_population() {
        let mut rng = SplitMix64::new(23);
        for _ in 0..50 {
            assert_eq!(
                RequestMix::Interactive.sample_classed(&mut rng).1,
                RequestClass::Interactive
            );
            assert_eq!(
                RequestMix::Document.sample_classed(&mut rng).1,
                RequestClass::Batch
            );
            assert_eq!(
                RequestMix::Batch.sample_classed(&mut rng).1,
                RequestClass::Background
            );
        }
        // The production blend emits every class.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(RequestMix::Production.sample_classed(&mut rng).1);
        }
        assert_eq!(seen.len(), 3, "production must mix all classes: {seen:?}");
    }

    #[test]
    fn session_profiles_draw_admissible_growing_turns() {
        let p = SessionProfile::standard();
        assert_eq!(p.validate(), Ok(()));
        let mut rng = SplitMix64::new(31);
        for _ in 0..100 {
            let turns = p.draw_turns(&mut rng);
            assert!((p.min_turns..=p.max_turns).contains(&turns));
            let heavy = p.draw_heavy(&mut rng);
            for turn in 0..turns {
                let (shape, class) = p.turn_shape(&mut rng, heavy, turn);
                assert!((512..=16384).contains(&shape.seq_len), "{shape:?}");
                if heavy {
                    assert_eq!(class, RequestClass::Batch);
                } else {
                    assert_eq!(class, RequestClass::Interactive);
                }
            }
        }
        // Deep conversations saturate at the admissible ceiling.
        let (deep, _) = p.turn_shape(&mut SplitMix64::new(1), false, 64);
        assert_eq!(deep.seq_len, 16384);
    }

    #[test]
    fn heavy_share_is_calibrated_and_interactive_only_has_none() {
        let p = SessionProfile::standard();
        let mut rng = SplitMix64::new(5);
        let heavy = (0..2_000).filter(|_| p.draw_heavy(&mut rng)).count();
        assert!(
            (120..=280).contains(&heavy),
            "10% of 2000 within noise, got {heavy}"
        );
        let solo = SessionProfile::interactive_only();
        assert_eq!(solo.validate(), Ok(()));
        let mut rng = SplitMix64::new(6);
        assert!((0..500).all(|_| !solo.draw_heavy(&mut rng)));
    }

    #[test]
    fn zero_turn_sessions_rejected() {
        let err = SessionProfile {
            min_turns: 0,
            ..SessionProfile::standard()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("at least one turn"), "{err}");
    }

    #[test]
    fn one_shot_decode_plans_are_inert() {
        let plan = DecodePlan::one_shot();
        assert_eq!(plan.validate(), Ok(()));
        assert!(plan.is_one_shot());
        assert_eq!(plan.expected_steps_from(0), 1.0);
        assert!(!plan.exits_after(0), "disabled early exit never fires");
        // Exactly 1 even when early exit is armed: the sum has a single
        // (1 − p)^0 term, so decode-aware rankings reduce bitwise.
        let armed = DecodePlan {
            exit_prob: 0.7,
            exit_seed: 99,
            ..plan
        };
        assert_eq!(armed.expected_steps_from(0), 1.0);
    }

    #[test]
    fn exit_draws_are_a_replayable_substream() {
        let plan = DecodePlan {
            steps: 8,
            exit_prob: 0.3,
            exit_seed: 1234,
        };
        assert_eq!(plan.validate(), Ok(()));
        let draws: Vec<f64> = (0..8).map(|s| plan.exit_draw(s)).collect();
        assert_eq!(
            draws,
            (0..8).map(|s| plan.exit_draw(s)).collect::<Vec<_>>(),
            "draw k is a pure function of (seed, k)"
        );
        assert!(draws.iter().all(|d| (0.0..1.0).contains(d)));
        // Draw k must be the k+1-th output of the seeded stream.
        let mut rng = SplitMix64::new(plan.exit_seed);
        for &d in &draws {
            let z = rng.next_u64();
            assert_eq!(d, (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64));
        }
        let other = DecodePlan {
            exit_seed: 1235,
            ..plan
        };
        assert_ne!(draws[0], other.exit_draw(0), "seeds separate substreams");
    }

    #[test]
    fn expected_steps_fold_in_the_exit_probability() {
        let plan = DecodePlan {
            steps: 4,
            exit_prob: 0.5,
            exit_seed: 0,
        };
        // 1 + 0.5 + 0.25 + 0.125.
        assert!((plan.expected_steps_from(0) - 1.875).abs() < 1e-12);
        assert!((plan.expected_steps_from(2) - 1.5).abs() < 1e-12);
        assert_eq!(plan.expected_steps_from(4), 0.0, "nothing left to run");
        let certain = DecodePlan {
            exit_prob: 0.0,
            ..plan
        };
        assert_eq!(certain.expected_steps_from(0), 4.0);
        assert_eq!(certain.expected_steps_from(3), 1.0);
    }

    #[test]
    fn decode_mixes_sample_plans_in_range() {
        let mix = DecodeMix {
            min_steps: 2,
            max_steps: 6,
            exit_prob: 0.25,
        };
        assert_eq!(mix.validate(), Ok(()));
        let mut rng = SplitMix64::new(77);
        let plans: Vec<DecodePlan> = (0..200).map(|_| mix.sample_plan(&mut rng)).collect();
        assert!(plans
            .iter()
            .all(|p| (2..=6).contains(&p.steps) && p.exit_prob == 0.25));
        assert!(plans.iter().any(|p| p.steps == 2));
        assert!(plans.iter().any(|p| p.steps == 6));
        let seeds: std::collections::BTreeSet<u64> = plans.iter().map(|p| p.exit_seed).collect();
        assert!(seeds.len() > 190, "exit seeds are (almost surely) distinct");
        let mut replay = SplitMix64::new(77);
        assert_eq!(
            (0..200)
                .map(|_| mix.sample_plan(&mut replay))
                .collect::<Vec<_>>(),
            plans
        );
        assert_eq!(DecodeMix::one_shot().validate(), Ok(()));
        assert!(DecodeMix::one_shot().sample_plan(&mut rng).is_one_shot());
    }

    #[test]
    fn zero_step_decode_plans_rejected() {
        let err = DecodePlan {
            steps: 0,
            exit_prob: 0.0,
            exit_seed: 0,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("at least one step"), "{err}");
    }

    #[test]
    fn certain_exit_probability_rejected() {
        let err = DecodeMix {
            min_steps: 1,
            max_steps: 2,
            exit_prob: 1.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("[0, 1)"), "{err}");
    }

    #[test]
    fn class_ranks_are_ordered() {
        assert!(RequestClass::Interactive.rank() < RequestClass::Batch.rank());
        assert!(RequestClass::Batch.rank() < RequestClass::Background.rank());
        assert_eq!(RequestClass::lowest(), RequestClass::Background);
        let names: Vec<_> = RequestClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["interactive", "batch", "background"]);
    }
}
