//! Autoscaling: elastic fleet capacity under time-varying load.
//!
//! A statically provisioned fleet pays idle power all night to be ready
//! for the daily peak; an elastic one parks cards when the queue is empty
//! and powers them back up when it grows — paying a warm-up latency
//! (weights stream back in, clocks stabilize) and risking SLO violations
//! if it scales up too late. [`Autoscaler`] is the feedback controller
//! that makes that trade explicit:
//!
//! - **scale up** when the dispatch queue holds more than
//!   [`AutoscalerConfig::up_queue_per_card`] waiting requests per powered
//!   card — one card per simulation event, lowest parked index first, so
//!   a burst ramps capacity geometrically rather than all at once;
//! - **scale down** when the queue is empty and a card has sat completely
//!   idle for [`AutoscalerConfig::down_idle_s`] — highest idle index
//!   first, never below [`AutoscalerConfig::min_cards`]. Cards that are
//!   idle but not yet park-eligible schedule a `ScaleCheck` event at
//!   their eligibility instant, so a quiet gap between arrivals parks
//!   them on time instead of deferring to the next arrival (which would
//!   overcharge idle energy for the whole gap).
//!
//! Every decision is a pure function of (event time, queue depth, card
//! state), so autoscaled runs stay bitwise deterministic per seed. The
//! controller's history is returned as a [`ScaleEvent`] timeline in the
//! [`ServeReport`](crate::metrics::ServeReport), next to the idle-energy
//! accounting that quantifies what static provisioning would have cost.
//!
//! # Examples
//!
//! ```
//! use swat_serve::arrival::ArrivalProcess;
//! use swat_serve::fleet::FleetConfig;
//! use swat_serve::policy::LeastLoaded;
//! use swat_serve::scale::AutoscalerConfig;
//! use swat_serve::sim::{Simulation, TrafficSpec};
//! use swat_workloads::RequestMix;
//!
//! let spec = TrafficSpec {
//!     arrivals: ArrivalProcess::diurnal(2.0, 30.0),
//!     mix: RequestMix::Production,
//!     seed: 3,
//! };
//! let report = Simulation::new(&FleetConfig::standard(4))
//!     .autoscale(AutoscalerConfig::standard())
//!     .run(&mut LeastLoaded::default(), &spec.requests(300));
//! assert!(!report.scaling.is_empty(), "the ramp must trigger scaling");
//! assert!(report.idle_energy_joules >= 0.0);
//! ```

use crate::event::{Event, EventQueue};
use crate::fleet::{Card, Fleet};

/// The autoscaler's control law: when to power cards up and down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Cards that always stay powered (the floor capacity; at least 1).
    pub min_cards: usize,
    /// Scale up when the queue holds more than this many waiting requests
    /// per powered card.
    pub up_queue_per_card: usize,
    /// Park a card once it has been completely idle this long with an
    /// empty queue, seconds.
    pub down_idle_s: f64,
    /// Seconds a powered-up card needs before it can take work.
    pub warmup_s: f64,
}

impl AutoscalerConfig {
    /// A reasonable default law: keep one card hot, add a card per four
    /// queued requests, park after one idle second, two-second warm-ups.
    pub fn standard() -> AutoscalerConfig {
        AutoscalerConfig {
            min_cards: 1,
            up_queue_per_card: 4,
            down_idle_s: 1.0,
            warmup_s: 2.0,
        }
    }

    /// Same law with a different always-on floor.
    pub fn with_min_cards(mut self, min_cards: usize) -> AutoscalerConfig {
        self.min_cards = min_cards;
        self
    }

    /// Checks the law is usable.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic if `min_cards` is zero (a fleet with nothing
    /// powered can never drain its queue), `up_queue_per_card` is zero,
    /// or either duration is negative or non-finite.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_cards == 0 {
            return Err("autoscaler min_cards must be at least 1".to_string());
        }
        if self.up_queue_per_card == 0 {
            return Err("autoscaler up_queue_per_card must be at least 1".to_string());
        }
        for (name, v) in [
            ("down_idle_s", self.down_idle_s),
            ("warmup_s", self.warmup_s),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!(
                    "autoscaler {name} must be non-negative and finite, got {v}"
                ));
            }
        }
        Ok(())
    }
}

/// One autoscaling decision, as recorded in the report's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// When the decision was taken, seconds.
    pub time: f64,
    /// The card powered up or parked.
    pub card: usize,
    /// `true` for power-up (warm-up starts), `false` for park.
    pub powered_on: bool,
    /// Queue depth that triggered the decision.
    pub queue_depth: usize,
    /// Powered cards immediately after the decision.
    pub powered_cards: usize,
}

/// The feedback controller. Owned by one simulation run; its decision log
/// becomes the report's scaling timeline.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    log: Vec<ScaleEvent>,
    /// Earliest outstanding `ScaleCheck` event, to avoid flooding the
    /// heap with duplicates while cards idle toward eligibility.
    pending_check: Option<f64>,
}

impl Autoscaler {
    /// A controller applying `cfg`.
    ///
    /// # Panics
    ///
    /// Panics with [`AutoscalerConfig::validate`]'s diagnostic.
    pub fn new(cfg: AutoscalerConfig) -> Autoscaler {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Autoscaler {
            cfg,
            log: Vec::new(),
            pending_check: None,
        }
    }

    /// The configured control law.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// Power-ups decided so far (warm-ups paid).
    pub fn warmups(&self) -> u64 {
        self.log.iter().filter(|e| e.powered_on).count() as u64
    }

    /// Applies the initial fleet size at the start of a run: the first
    /// `min_cards` cards start powered and warm at `t0`, the rest parked.
    pub(crate) fn begin(&mut self, fleet: &mut Fleet, t0: f64) {
        let floor = self.cfg.min_cards.min(fleet.cards().len());
        for i in 0..fleet.cards().len() {
            fleet.card_mut(i).set_initial_power(i < floor, t0);
        }
    }

    /// One feedback step, run after every simulation event settles.
    /// Powers up at most one card per call (so a burst ramps capacity
    /// geometrically); parks every card that is past its idle threshold
    /// when the queue is empty, and schedules a `ScaleCheck` wake-up for
    /// idle cards that are not yet eligible.
    pub(crate) fn evaluate(
        &mut self,
        now: f64,
        queue_depth: usize,
        fleet: &mut Fleet,
        events: &mut EventQueue,
    ) {
        if self.pending_check.is_some_and(|t| now >= t) {
            self.pending_check = None;
        }
        let mut powered = fleet.cards().iter().filter(|c| c.powered()).count();
        if queue_depth > self.cfg.up_queue_per_card * powered {
            // Dead cards read as unpowered (a failure closes the power
            // clock), which makes this rule double as fault recovery: if
            // faults killed the whole powered pool, `powered` is zero and
            // any queued work wakes the first *non-dead* parked card —
            // waking a dead one would strand the warm-up forever.
            let Some(card) = fleet.cards().iter().position(|c| !c.powered() && !c.dead()) else {
                return; // everything alive already powered: saturated
            };
            fleet.card_mut(card).power_on(now, self.cfg.warmup_s);
            events.push(now + self.cfg.warmup_s, Event::Warmed { card });
            self.log.push(ScaleEvent {
                time: now,
                card,
                powered_on: true,
                queue_depth,
                powered_cards: powered + 1,
            });
        } else if queue_depth == 0 && powered > self.cfg.min_cards {
            // A park-eligible card is *genuinely drained* — `idle_for`
            // returns 0.0 both for "idle since just now" and as a
            // sentinel for busy/warming/parked cards, so the predicate
            // must also check the pipelines, or a zero `down_idle_s`
            // would try to park a card with work in flight.
            let drained = |c: &Card| c.dispatchable(now) && c.idle_pipelines(now) == c.pipelines();
            while powered > self.cfg.min_cards {
                let victim = fleet
                    .cards()
                    .iter()
                    .rposition(|c| drained(c) && c.idle_for(now) >= self.cfg.down_idle_s);
                let Some(card) = victim else { break };
                fleet.card_mut(card).power_off(now);
                powered -= 1;
                self.log.push(ScaleEvent {
                    time: now,
                    card,
                    powered_on: false,
                    queue_depth,
                    powered_cards: powered,
                });
            }
            // Idle cards still inside their grace period: wake up again
            // exactly when the earliest becomes eligible, because a
            // quiet stretch may carry no other event until long after.
            if powered > self.cfg.min_cards {
                let next = fleet
                    .cards()
                    .iter()
                    .filter(|c| drained(c))
                    .map(|c| now - c.idle_for(now) + self.cfg.down_idle_s)
                    .filter(|&t| t > now)
                    .fold(f64::INFINITY, f64::min);
                if next.is_finite() && self.pending_check.is_none_or(|t| next < t) {
                    events.push(next, Event::ScaleCheck);
                    self.pending_check = Some(next);
                }
            }
        }
    }

    /// The decision timeline so far — the simulator diffs this around
    /// [`Autoscaler::evaluate`] to stream fresh decisions to a
    /// [`TraceSink`](crate::trace::TraceSink) without owning the log.
    pub(crate) fn log(&self) -> &[ScaleEvent] {
        &self.log
    }

    /// Consumes the controller, yielding its decision timeline.
    pub(crate) fn into_log(self) -> Vec<ScaleEvent> {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;

    fn fleet(cards: usize) -> Fleet {
        FleetConfig::standard(cards).build().unwrap()
    }

    #[test]
    fn begin_powers_exactly_the_floor() {
        let mut f = fleet(4);
        let mut scaler = Autoscaler::new(AutoscalerConfig::standard().with_min_cards(2));
        scaler.begin(&mut f, 1.0);
        let powered: Vec<bool> = f.cards().iter().map(|c| c.powered()).collect();
        assert_eq!(powered, [true, true, false, false]);
        assert!(f.cards()[0].dispatchable(1.0), "floor cards start warm");
    }

    #[test]
    fn deep_queue_powers_up_one_card_per_step() {
        let mut f = fleet(3);
        let mut events = EventQueue::new();
        let mut scaler = Autoscaler::new(AutoscalerConfig::standard());
        scaler.begin(&mut f, 0.0);
        // 5 queued > 4 × 1 powered: card 1 powers up and warms.
        scaler.evaluate(0.5, 5, &mut f, &mut events);
        assert!(f.cards()[1].powered());
        assert!(!f.cards()[1].dispatchable(0.5), "warming");
        assert_eq!(events.len(), 1, "a Warmed event is scheduled");
        // 5 queued is within 4 × 2 powered: no further action.
        scaler.evaluate(0.6, 5, &mut f, &mut events);
        assert!(!f.cards()[2].powered());
        // 9 queued > 8: the last card joins.
        scaler.evaluate(0.7, 9, &mut f, &mut events);
        assert!(f.cards()[2].powered());
        assert_eq!(scaler.warmups(), 2);
        // Saturated: a deeper queue is a no-op, not a panic.
        scaler.evaluate(0.8, 100, &mut f, &mut events);
        assert_eq!(scaler.warmups(), 2);
    }

    #[test]
    fn long_idle_cards_park_down_to_the_floor() {
        let mut f = fleet(3);
        let mut events = EventQueue::new();
        let mut scaler = Autoscaler::new(AutoscalerConfig::standard());
        for i in 0..3 {
            f.card_mut(i).set_initial_power(true, 0.0);
        }
        // Not idle long enough yet — but a wake-up is scheduled for the
        // eligibility instant so a quiet gap parks the cards on time.
        scaler.evaluate(0.5, 0, &mut f, &mut events);
        assert_eq!(f.cards().iter().filter(|c| c.powered()).count(), 3);
        assert_eq!(events.len(), 1, "ScaleCheck scheduled");
        assert_eq!(
            events.next_time(),
            Some(1.0),
            "eligible at idle start + 1 s"
        );
        // A second pass before eligibility does not flood the heap.
        scaler.evaluate(0.7, 0, &mut f, &mut events);
        assert_eq!(events.len(), 1);
        // Past the idle threshold: every eligible card parks, highest
        // index first, down to the floor.
        scaler.evaluate(1.5, 0, &mut f, &mut events);
        assert!(!f.cards()[2].powered());
        assert!(!f.cards()[1].powered());
        // The floor card never parks.
        scaler.evaluate(10.0, 0, &mut f, &mut events);
        assert!(f.cards()[0].powered());
        let log = scaler.into_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|e| !e.powered_on));
        assert_eq!(log[0].powered_cards, 2);
        assert_eq!(log[1].powered_cards, 1);
    }

    #[test]
    fn zero_idle_threshold_never_parks_a_busy_card() {
        use crate::request::Request;
        use swat_workloads::RequestShape;
        let mut f = fleet(2);
        let mut events = EventQueue::new();
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            down_idle_s: 0.0,
            ..AutoscalerConfig::standard()
        });
        for i in 0..2 {
            f.card_mut(i).set_initial_power(true, 0.0);
        }
        // Card 1 (the rposition-preferred victim) is mid-service: with a
        // zero idle threshold the controller must skip it and park the
        // idle card 0... except card 0 is the floor when card 1 stays
        // powered — so no action at all, and crucially no panic.
        let shape = RequestShape {
            seq_len: 2048,
            heads: 8,
            layers: 6,
            batch: 1,
        };
        let a = f.card_mut(1).admit(&Request::new(0, 0.0, shape), 0.0);
        scaler.evaluate(a.finish * 0.5, 0, &mut f, &mut events);
        assert!(f.cards()[1].powered(), "busy card must not park");
        assert!(!f.cards()[0].powered(), "the idle card parks instead");
        // Once card 1 drains it parks immediately at threshold 0.
        scaler.evaluate(a.finish, 0, &mut f, &mut events);
        assert!(f.cards()[1].powered(), "floor of 1 card holds");
    }

    #[test]
    fn dead_cards_are_skipped_when_scaling_up() {
        let mut f = fleet(3);
        let mut events = EventQueue::new();
        let mut scaler = Autoscaler::new(AutoscalerConfig::standard());
        scaler.begin(&mut f, 0.0);
        // The whole powered pool dies (card 0), and a parked card dies
        // too (card 1). Queued work must wake the surviving parked card,
        // never a corpse — a dead card's warm-up would strand forever.
        f.card_mut(0).fail(0.5);
        f.card_mut(1).fail(0.5);
        scaler.evaluate(1.0, 3, &mut f, &mut events);
        assert!(f.cards()[2].powered(), "the survivor wakes");
        assert!(!f.cards()[0].powered() && !f.cards()[1].powered());
        assert_eq!(events.len(), 1, "its warm-up is scheduled");
        // With every card dead, queued work finds nothing to wake.
        let mut all_dead = fleet(2);
        let mut scaler = Autoscaler::new(AutoscalerConfig::standard());
        scaler.begin(&mut all_dead, 0.0);
        all_dead.card_mut(0).fail(0.5);
        all_dead.card_mut(1).fail(0.5);
        scaler.evaluate(1.0, 10, &mut all_dead, &mut events);
        assert_eq!(all_dead.powered_cards(), 0);
    }

    #[test]
    #[should_panic(expected = "min_cards")]
    fn zero_floor_rejected() {
        let _ = Autoscaler::new(AutoscalerConfig {
            min_cards: 0,
            ..AutoscalerConfig::standard()
        });
    }
}
