//! [`HookClock`]: a `TraceSink` that timestamps every kernel hook.
//!
//! The sink charges the host time since the previous hook to the hook that
//! ends the gap, and counts hits per hook. The gap before the first hook
//! is the kernel's initialisation; the gap after the last hook, until the
//! run call returns, is report assembly. The sink only reads the clock, so
//! the run it observes produces the same report as an untraced one; the
//! benchmark checks that byte for byte.

use std::time::Instant;

use swat_serve::metrics::PreemptionRecord;
use swat_serve::request::{CompletedRequest, Request};
use swat_serve::scale::ScaleEvent;
use swat_serve::trace::{GaugeSample, TraceSink};

/// The kernel hooks, in `TraceSink` declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// `TraceSink::arrival`.
    Arrival,
    /// `TraceSink::shed`.
    Shed,
    /// `TraceSink::dispatch`.
    Dispatch,
    /// `TraceSink::shard_start`.
    ShardStart,
    /// `TraceSink::shard_finish`.
    ShardFinish,
    /// `TraceSink::fan_in`.
    FanIn,
    /// `TraceSink::step_complete`.
    StepComplete,
    /// `TraceSink::preempted`.
    Preempted,
    /// `TraceSink::warmed`.
    Warmed,
    /// `TraceSink::scaled`.
    Scaled,
    /// `TraceSink::card_death`.
    CardDeath,
    /// `TraceSink::card_degrade`.
    CardDegrade,
    /// `TraceSink::card_revive`.
    CardRevive,
    /// `TraceSink::failed`.
    Failed,
    /// `TraceSink::gauges`.
    Gauges,
}

impl Hook {
    /// Every hook, indexed by `Hook as usize`.
    pub const ALL: [Hook; 15] = [
        Hook::Arrival,
        Hook::Shed,
        Hook::Dispatch,
        Hook::ShardStart,
        Hook::ShardFinish,
        Hook::FanIn,
        Hook::StepComplete,
        Hook::Preempted,
        Hook::Warmed,
        Hook::Scaled,
        Hook::CardDeath,
        Hook::CardDegrade,
        Hook::CardRevive,
        Hook::Failed,
        Hook::Gauges,
    ];

    /// The `TraceSink` method name.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Arrival => "arrival",
            Hook::Shed => "shed",
            Hook::Dispatch => "dispatch",
            Hook::ShardStart => "shard_start",
            Hook::ShardFinish => "shard_finish",
            Hook::FanIn => "fan_in",
            Hook::StepComplete => "step_complete",
            Hook::Preempted => "preempted",
            Hook::Warmed => "warmed",
            Hook::Scaled => "scaled",
            Hook::CardDeath => "card_death",
            Hook::CardDegrade => "card_degrade",
            Hook::CardRevive => "card_revive",
            Hook::Failed => "failed",
            Hook::Gauges => "gauges",
        }
    }

    /// The layer the gap ending at this hook is charged to.
    pub fn layer(self) -> Layer {
        match self {
            Hook::Arrival => Layer::Arrival,
            Hook::Dispatch => Layer::Dispatch,
            Hook::ShardStart => Layer::Admit,
            Hook::ShardFinish | Hook::FanIn | Hook::StepComplete => Layer::Complete,
            Hook::Gauges => Layer::Settle,
            Hook::Shed
            | Hook::Preempted
            | Hook::Warmed
            | Hook::Scaled
            | Hook::CardDeath
            | Hook::CardDegrade
            | Hook::CardRevive
            | Hook::Failed => Layer::Elastic,
        }
    }
}

/// Where host time inside one simulation call goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Call entry to the first hook: the kernel's own set-up.
    Init,
    /// Heap pop and arrival handling.
    Arrival,
    /// Card-view refresh, policy choice and plan pricing.
    Dispatch,
    /// Card admission through the pipeline agenda.
    Admit,
    /// Shard completion, fan-in and decode-step bookkeeping.
    Complete,
    /// The round's closing policy scan, autoscaler and gauges.
    Settle,
    /// Sheds, preemptions, scaling, warm-ups and faults.
    Elastic,
    /// Last hook to return: report assembly.
    Assemble,
}

/// The hook-timing sink. Build one per traced run; call [`HookClock::start`]
/// right before the run call and [`HookClock::finish`] right after it.
#[derive(Debug, Clone)]
pub struct HookClock {
    last: Instant,
    started: bool,
    hook_ns: [u64; Hook::ALL.len()],
    hits: [u64; Hook::ALL.len()],
    init_ns: u64,
    tail_ns: u64,
}

impl Default for HookClock {
    fn default() -> HookClock {
        HookClock {
            last: Instant::now(),
            started: false,
            hook_ns: [0; Hook::ALL.len()],
            hits: [0; Hook::ALL.len()],
            init_ns: 0,
            tail_ns: 0,
        }
    }
}

impl HookClock {
    /// Marks the instant the run call begins.
    pub fn start(&mut self) {
        self.last = Instant::now();
        self.started = false;
    }

    /// Charges the time since the last hook to report assembly. Call it as
    /// soon as the run call returns.
    pub fn finish(&mut self) {
        self.tail_ns += self.lap();
    }

    /// Host seconds charged to `layer`.
    pub fn layer_s(&self, layer: Layer) -> f64 {
        let ns = match layer {
            Layer::Init => self.init_ns,
            Layer::Assemble => self.tail_ns,
            _ => Hook::ALL
                .iter()
                .filter(|h| h.layer() == layer)
                .map(|&h| self.hook_ns[h as usize])
                .sum(),
        };
        ns as f64 * 1e-9
    }

    /// Host seconds charged to `hook`.
    pub fn hook_s(&self, hook: Hook) -> f64 {
        self.hook_ns[hook as usize] as f64 * 1e-9
    }

    /// How many times `hook` fired.
    pub fn hits(&self, hook: Hook) -> u64 {
        self.hits[hook as usize]
    }

    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        ns
    }

    fn charge(&mut self, hook: Hook) {
        let ns = self.lap();
        if self.started {
            self.hook_ns[hook as usize] += ns;
        } else {
            self.init_ns += ns;
            self.started = true;
        }
        self.hits[hook as usize] += 1;
    }
}

impl TraceSink for HookClock {
    fn arrival(&mut self, _: f64, _: &Request) {
        self.charge(Hook::Arrival);
    }

    fn shed(&mut self, _: f64, _: &Request) {
        self.charge(Hook::Shed);
    }

    fn dispatch(&mut self, _: f64, _: &Request, _: &[usize], _: Option<f64>) {
        self.charge(Hook::Dispatch);
    }

    fn shard_start(&mut self, _: f64, _: u64, _: u32, _: usize, _: usize, _: usize, _: f64) {
        self.charge(Hook::ShardStart);
    }

    fn shard_finish(&mut self, _: f64, _: u64, _: u32, _: usize, _: usize) {
        self.charge(Hook::ShardFinish);
    }

    fn fan_in(&mut self, _: f64, _: &CompletedRequest) {
        self.charge(Hook::FanIn);
    }

    fn step_complete(&mut self, _: f64, _: u64, _: u32, _: usize) {
        self.charge(Hook::StepComplete);
    }

    fn preempted(&mut self, _: f64, _: &PreemptionRecord, _: u32, _: usize, _: Option<f64>) {
        self.charge(Hook::Preempted);
    }

    fn warmed(&mut self, _: f64, _: usize) {
        self.charge(Hook::Warmed);
    }

    fn scaled(&mut self, _: &ScaleEvent) {
        self.charge(Hook::Scaled);
    }

    fn card_death(&mut self, _: f64, _: usize, _: usize) {
        self.charge(Hook::CardDeath);
    }

    fn card_degrade(&mut self, _: f64, _: usize, _: f64) {
        self.charge(Hook::CardDegrade);
    }

    fn card_revive(&mut self, _: f64, _: usize) {
        self.charge(Hook::CardRevive);
    }

    fn failed(&mut self, _: f64, _: &Request) {
        self.charge(Hook::Failed);
    }

    fn gauges(&mut self, _: f64, _: &GaugeSample) {
        self.charge(Hook::Gauges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_gap_is_init_and_hooks_index_their_tables() {
        let mut clock = HookClock::default();
        clock.start();
        clock.gauges(
            0.0,
            &GaugeSample {
                queue_depth: 0,
                in_flight_shards: 0,
                powered_cards: 1,
                utilization: 0.0,
                active_energy_joules: 0.0,
            },
        );
        clock.card_revive(0.0, 0);
        clock.finish();
        assert_eq!(clock.hits(Hook::Gauges), 1);
        assert_eq!(clock.hits(Hook::CardRevive), 1);
        // The first hook's gap went to Init, not to the hook's layer.
        assert_eq!(clock.hook_s(Hook::Gauges), 0.0);
        for (i, hook) in Hook::ALL.iter().enumerate() {
            assert_eq!(*hook as usize, i);
        }
    }
}
