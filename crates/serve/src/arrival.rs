//! Seeded stochastic arrival processes.
//!
//! Three regimes cover the traffic patterns a production fleet sees:
//!
//! - [`ArrivalProcess::Poisson`]: memoryless steady state — the M/G/c
//!   baseline every queueing result is stated against;
//! - [`ArrivalProcess::Bursty`]: an on/off modulated Poisson process
//!   (exponentially distributed burst and gap phases), the standard model
//!   for correlated request trains that stress tail latency at the same
//!   mean rate;
//! - [`ArrivalProcess::Diurnal`]: a raised-cosine rate ramp between a
//!   trough and a peak, compressing a day's load curve into the simulated
//!   horizon (generated by thinning against the peak rate);
//! - [`ArrivalProcess::FlashCrowd`]: steady base traffic until an onset
//!   instant, then a rate spike to a peak whose excess decays
//!   exponentially back to base — the "everyone piles in at once" shape
//!   a viral event or a failover dumps on a fleet (also thinned against
//!   the peak).
//!
//! All processes are driven by [`SplitMix64`], so a (process, seed) pair
//! yields one exact arrival sequence forever.

use swat_numeric::SplitMix64;

/// The fewest arrivals a bursty process may expect per burst/gap cycle
/// (`base_rate·mean_gap_s + burst_rate·mean_burst_s`). The generator
/// spends about four draws per cycle whether or not the cycle holds an
/// arrival, so this bounds its draws per arrival at a few thousand.
const MIN_BURSTY_ARRIVALS_PER_CYCLE: f64 = 1e-3;

/// The largest `peak_rate / base_rate` of a diurnal ramp or a flash
/// crowd. Both generators thin against the peak, and their rate never
/// falls below the base, so they accept at least `base_rate / peak_rate`
/// of their draws; this bounds that at one in a thousand.
const MAX_PEAK_RATIO: f64 = 1e3;

/// A stochastic arrival process over continuous time.
///
/// # Examples
///
/// ```
/// use swat_serve::arrival::ArrivalProcess;
///
/// let poisson = ArrivalProcess::poisson(50.0);
/// let times = poisson.times(100, 7);
/// assert_eq!(times.len(), 100);
/// assert!(times.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
/// assert_eq!(times, poisson.times(100, 7), "same seed, same trace");
///
/// // A bursty process at the same long-run rate stresses tail latency.
/// let bursty = ArrivalProcess::bursty(30.0);
/// assert_eq!(bursty.name(), "bursty");
/// assert!(bursty.mean_rate() > 30.0, "bursts raise the mean above base");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// On/off modulated Poisson (Markov-modulated, two states).
    Bursty {
        /// Rate outside bursts, per second (must be positive).
        base_rate: f64,
        /// Rate inside bursts, per second.
        burst_rate: f64,
        /// Mean burst duration, seconds (exponentially distributed).
        mean_burst_s: f64,
        /// Mean gap between bursts, seconds (exponentially distributed).
        mean_gap_s: f64,
    },
    /// Raised-cosine rate ramp: `base + (peak-base)·(1-cos(2πt/T))/2`.
    Diurnal {
        /// Trough rate, per second.
        base_rate: f64,
        /// Peak rate, per second (≥ base).
        peak_rate: f64,
        /// Ramp period, seconds.
        period_s: f64,
    },
    /// Flash crowd: `base` before `onset`, then
    /// `base + (peak-base)·exp(-(t-onset)/decay)` — an instantaneous
    /// spike to `peak` relaxing exponentially back to steady state.
    FlashCrowd {
        /// Steady rate outside the crowd, per second.
        base_rate: f64,
        /// Instantaneous rate at the onset, per second (≥ base).
        peak_rate: f64,
        /// When the crowd hits, seconds.
        onset_s: f64,
        /// e-folding time of the excess rate, seconds.
        decay_s: f64,
    },
}

impl ArrivalProcess {
    /// Steady Poisson traffic at `rate_per_sec`.
    pub fn poisson(rate_per_sec: f64) -> ArrivalProcess {
        ArrivalProcess::Poisson { rate_per_sec }
    }

    /// A standard bursty profile: 4× overload bursts of mean 2 s arriving
    /// after mean 6 s gaps, on top of `base_rate`.
    pub fn bursty(base_rate: f64) -> ArrivalProcess {
        ArrivalProcess::Bursty {
            base_rate,
            burst_rate: 4.0 * base_rate,
            mean_burst_s: 2.0,
            mean_gap_s: 6.0,
        }
    }

    /// A diurnal ramp from `base_rate` to `peak_rate` with a 60 s period
    /// (one compressed "day" per simulated minute).
    pub fn diurnal(base_rate: f64, peak_rate: f64) -> ArrivalProcess {
        ArrivalProcess::Diurnal {
            base_rate,
            peak_rate,
            period_s: 60.0,
        }
    }

    /// A flash crowd spiking from `base_rate` to `peak_rate` at
    /// `onset_s`, relaxing back with e-folding time `decay_s`.
    pub fn flash_crowd(
        base_rate: f64,
        peak_rate: f64,
        onset_s: f64,
        decay_s: f64,
    ) -> ArrivalProcess {
        ArrivalProcess::FlashCrowd {
            base_rate,
            peak_rate,
            onset_s,
            decay_s,
        }
    }

    /// Short name for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
            ArrivalProcess::FlashCrowd { .. } => "flash-crowd",
        }
    }

    /// Long-run mean arrival rate, requests per second — the offered load
    /// capacity planning compares against a fleet's aggregate service
    /// rate (`serve_sweep` serializes it as each run's `offered_rps`).
    /// Exact for Poisson and the raised-cosine ramp; for the on/off
    /// process it is the phase-duration-weighted mean of the two rates.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_burst_s,
                mean_gap_s,
            } => (base_rate * mean_gap_s + burst_rate * mean_burst_s) / (mean_gap_s + mean_burst_s),
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                ..
            } => 0.5 * (base_rate + peak_rate),
            // The crowd's excess integrates to the finite
            // `(peak-base)·decay`, which vanishes against an unbounded
            // horizon: the long-run rate is the base.
            ArrivalProcess::FlashCrowd { base_rate, .. } => base_rate,
        }
    }

    /// Checks the parameters are usable: every rate and duration positive
    /// and finite (a flash crowd's onset may be zero), and a peak rate no
    /// lower than its base. Two more rules bound the generator's work
    /// per arrival, so that every valid process returns: a bursty
    /// process must expect at least 10⁻³ arrivals per burst/gap cycle
    /// (`base_rate·mean_gap_s + burst_rate·mean_burst_s`), and a diurnal
    /// or flash-crowd peak rate may be at most 10³ times its base.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |name: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "arrivals {name} must be positive and finite, got {v}"
                ))
            }
        };
        let (base_rate, peak_rate) = match *self {
            ArrivalProcess::Poisson { rate_per_sec } => {
                return positive("rate_per_sec", rate_per_sec)
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_burst_s,
                mean_gap_s,
            } => {
                positive("base_rate", base_rate)?;
                positive("burst_rate", burst_rate)?;
                positive("mean_burst_s", mean_burst_s)?;
                positive("mean_gap_s", mean_gap_s)?;
                let per_cycle = base_rate * mean_gap_s + burst_rate * mean_burst_s;
                if per_cycle < MIN_BURSTY_ARRIVALS_PER_CYCLE {
                    return Err(format!(
                        "arrivals bursty cycle must expect at least {MIN_BURSTY_ARRIVALS_PER_CYCLE} \
                         arrivals (base_rate·mean_gap_s + burst_rate·mean_burst_s), got {per_cycle}"
                    ));
                }
                return Ok(());
            }
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                period_s,
            } => {
                positive("base_rate", base_rate)?;
                positive("peak_rate", peak_rate)?;
                positive("period_s", period_s)?;
                (base_rate, peak_rate)
            }
            ArrivalProcess::FlashCrowd {
                base_rate,
                peak_rate,
                onset_s,
                decay_s,
            } => {
                positive("base_rate", base_rate)?;
                positive("peak_rate", peak_rate)?;
                positive("decay_s", decay_s)?;
                if !(onset_s.is_finite() && onset_s >= 0.0) {
                    return Err(format!(
                        "arrivals onset_s must be non-negative and finite, got {onset_s}"
                    ));
                }
                (base_rate, peak_rate)
            }
        };
        if peak_rate > MAX_PEAK_RATIO * base_rate {
            return Err(format!(
                "arrivals {} peak_rate must be at most {MAX_PEAK_RATIO} × base_rate, \
                 got peak_rate {peak_rate} and base_rate {base_rate}",
                self.name()
            ));
        }
        if peak_rate < base_rate {
            return Err(format!(
                "arrivals peak rate must be >= base rate, got peak_rate {peak_rate} and base_rate {base_rate}"
            ));
        }
        Ok(())
    }

    /// The first `n` arrival times, strictly increasing, seconds. Panics
    /// with [`validate`](ArrivalProcess::validate)'s diagnostic.
    pub fn times(&self, n: usize, seed: u64) -> Vec<f64> {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        let mut gen = ArrivalGen::new(*self, seed);
        (0..n).map(|_| gen.next_arrival()).collect()
    }

    /// All arrivals inside `[0, horizon)` seconds.
    pub fn times_in(&self, horizon: f64, seed: u64) -> Vec<f64> {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "horizon must be positive"
        );
        let mut gen = ArrivalGen::new(*self, seed);
        let mut out = Vec::new();
        loop {
            let t = gen.next_arrival();
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }
}

/// Exponential sample with the given rate, from 53 random bits (shared
/// with [`crate::session`]'s think-time draws).
pub(crate) fn exp_sample(rng: &mut SplitMix64, rate: f64) -> f64 {
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    -(1.0 - u).ln() / rate
}

/// Stateful arrival generator.
struct ArrivalGen {
    process: ArrivalProcess,
    rng: SplitMix64,
    t: f64,
    /// Bursty state: when the current phase ends, and whether it is a burst.
    phase_end: f64,
    in_burst: bool,
}

impl ArrivalGen {
    fn new(process: ArrivalProcess, seed: u64) -> ArrivalGen {
        let mut gen = ArrivalGen {
            process,
            rng: SplitMix64::new(seed ^ 0x0A88_17A1),
            t: 0.0,
            phase_end: 0.0,
            in_burst: false,
        };
        if let ArrivalProcess::Bursty { mean_gap_s, .. } = process {
            gen.phase_end = exp_sample(&mut gen.rng, 1.0 / mean_gap_s);
        }
        gen
    }

    fn next_arrival(&mut self) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate_per_sec } => {
                self.t += exp_sample(&mut self.rng, rate_per_sec);
                self.t
            }
            ArrivalProcess::Bursty {
                base_rate,
                burst_rate,
                mean_burst_s,
                mean_gap_s,
            } => loop {
                let rate = if self.in_burst { burst_rate } else { base_rate };
                let proposed = self.t + exp_sample(&mut self.rng, rate);
                if proposed < self.phase_end {
                    self.t = proposed;
                    return self.t;
                }
                // Phase flips before the proposed arrival: discard it and
                // restart from the phase boundary (memorylessness makes
                // the restart exact).
                self.t = self.phase_end;
                self.in_burst = !self.in_burst;
                let mean = if self.in_burst {
                    mean_burst_s
                } else {
                    mean_gap_s
                };
                self.phase_end = self.t + exp_sample(&mut self.rng, 1.0 / mean);
            },
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                period_s,
            } => loop {
                // Thinning against the constant peak rate.
                self.t += exp_sample(&mut self.rng, peak_rate);
                // Past the largest time `cos` is NaN and rejects everything.
                if !self.t.is_finite() {
                    return self.t;
                }
                let phase = core::f64::consts::TAU * self.t / period_s;
                let rate = base_rate + (peak_rate - base_rate) * 0.5 * (1.0 - phase.cos());
                let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                if u * peak_rate < rate {
                    return self.t;
                }
            },
            ArrivalProcess::FlashCrowd {
                base_rate,
                peak_rate,
                onset_s,
                decay_s,
            } => loop {
                // Thinning against the peak: rate(t) ≤ peak everywhere
                // (base before the onset, decaying excess after).
                self.t += exp_sample(&mut self.rng, peak_rate);
                let rate = if self.t < onset_s {
                    base_rate
                } else {
                    base_rate + (peak_rate - base_rate) * (-(self.t - onset_s) / decay_s).exp()
                };
                let u = (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                if u * peak_rate < rate {
                    return self.t;
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_increasing() {
        for p in [
            ArrivalProcess::poisson(50.0),
            ArrivalProcess::bursty(30.0),
            ArrivalProcess::diurnal(10.0, 80.0),
            ArrivalProcess::flash_crowd(20.0, 200.0, 5.0, 3.0),
        ] {
            let a = p.times(500, 9);
            let b = p.times(500, 9);
            assert_eq!(a, b, "{}", p.name());
            assert!(
                a.windows(2).all(|w| w[0] < w[1]),
                "{} must increase",
                p.name()
            );
            assert!(a[0] > 0.0);
            let c = p.times(500, 10);
            assert_ne!(a, c, "{} must vary with seed", p.name());
        }
    }

    #[test]
    fn poisson_rate_is_calibrated() {
        let times = ArrivalProcess::poisson(100.0).times(20_000, 1);
        let rate = times.len() as f64 / times.last().unwrap();
        assert!((rate - 100.0).abs() < 5.0, "empirical rate {rate}");
    }

    #[test]
    fn bursty_is_burstier_than_poisson() {
        // Index of dispersion of counts in 1 s bins: 1 for Poisson,
        // substantially above 1 for the on/off process.
        let dispersion = |times: &[f64]| {
            let horizon = times.last().unwrap().ceil() as usize;
            let mut bins = vec![0.0f64; horizon];
            for &t in times {
                bins[(t as usize).min(horizon - 1)] += 1.0;
            }
            let mean = bins.iter().sum::<f64>() / bins.len() as f64;
            let var = bins.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / bins.len() as f64;
            var / mean
        };
        let poisson = ArrivalProcess::poisson(50.0).times(20_000, 3);
        let bursty = ArrivalProcess::bursty(30.0).times(20_000, 3);
        assert!(
            dispersion(&poisson) < 2.0,
            "poisson {}",
            dispersion(&poisson)
        );
        assert!(
            dispersion(&bursty) > 2.0 * dispersion(&poisson),
            "bursty {} vs poisson {}",
            dispersion(&bursty),
            dispersion(&poisson)
        );
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        // With a 60 s period, the rate peaks at t = 30: the middle third
        // of each period must contain well more arrivals than the first.
        let times = ArrivalProcess::diurnal(5.0, 100.0).times_in(600.0, 5);
        let phase = |t: f64| (t % 60.0) as usize / 20; // thirds of the period
        let counts = times.iter().fold([0usize; 3], |mut acc, &t| {
            acc[phase(t)] += 1;
            acc
        });
        assert!(counts[1] > 2 * counts[0], "thirds {counts:?}");
    }

    #[test]
    fn mean_rate_matches_empirical_rate() {
        // The on/off process mixes slowly (one burst/gap cycle ≈ 8 s), so
        // it needs an order of magnitude more arrivals for the empirical
        // rate to settle near the phase-weighted mean.
        for (p, n) in [
            (ArrivalProcess::poisson(40.0), 30_000),
            (ArrivalProcess::bursty(30.0), 300_000),
            (ArrivalProcess::diurnal(10.0, 80.0), 30_000),
        ] {
            let times = p.times(n, 19);
            let empirical = times.len() as f64 / times.last().unwrap();
            let predicted = p.mean_rate();
            assert!(
                (empirical - predicted).abs() / predicted < 0.1,
                "{}: empirical {empirical} vs predicted {predicted}",
                p.name()
            );
        }
    }

    #[test]
    fn flash_crowd_spikes_at_onset_and_relaxes() {
        // Base 10 rps, spike to 200 rps at t = 10 s with a 4 s e-fold:
        // the 5 s window after the onset must be far denser than the
        // 5 s before it, and the late steady state must look like base.
        let p = ArrivalProcess::flash_crowd(10.0, 200.0, 10.0, 4.0);
        let times = p.times_in(60.0, 11);
        let count = |lo: f64, hi: f64| times.iter().filter(|&&t| t >= lo && t < hi).count();
        let before = count(5.0, 10.0);
        let crowd = count(10.0, 15.0);
        assert!(
            crowd > 5 * before.max(1),
            "crowd {crowd} vs before {before}"
        );
        // By 10 e-folds the excess is gone: within Poisson noise of base.
        let late = count(50.0, 60.0);
        assert!((50..=200).contains(&late), "late window {late}");
        assert_eq!(p.name(), "flash-crowd");
        assert_eq!(p.mean_rate(), 10.0, "long-run mean is the base rate");
    }

    #[test]
    #[should_panic(expected = "peak rate must be >= base rate")]
    fn flash_crowd_rejects_peak_below_base() {
        let _ = ArrivalProcess::flash_crowd(50.0, 10.0, 1.0, 1.0).times(1, 0);
    }

    #[test]
    fn times_in_respects_horizon() {
        let times = ArrivalProcess::poisson(20.0).times_in(30.0, 2);
        assert!(times.iter().all(|&t| t < 30.0));
        assert!(times.len() > 300, "got {}", times.len()); // ~600 expected
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::poisson(0.0).times(1, 0);
    }
}
