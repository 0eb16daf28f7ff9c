//! The benchmark's workloads, as inputs made from a seed.
//!
//! Three serve workloads are `ScenarioSpec` values; the datapath workload
//! is a list of Table 2 heads. Every cell and head derives its own seed
//! from the run's seed, so the same seed always gives the same inputs.

use swat_serve::arrival::ArrivalProcess;
use swat_serve::scale::AutoscalerConfig;
use swat_serve::scenario::{
    FaultKindSpec, FaultSpec, FleetSpec, PolicySpec, PreemptionSpec, ScenarioSpec, TrafficModel,
};
use swat_serve::sim::{AdmissionControl, DecodeBatching};
use swat_workloads::{DecodeMix, RequestClass, RequestMix, SessionProfile};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long one-shot trace on six cards: the kernel's common path at
    /// scale, with a shallow queue and per-request state that dominates
    /// memory.
    SteadyLong,
    /// Multi-step decode plans on four cards past capacity: dispatch over
    /// a queue thousands deep.
    DecodeBacklog,
    /// The sweep's five elastic studies as separate cells: preemption,
    /// admission shedding, autoscaling, session affinity and faults.
    ElasticCells,
    /// One head per Table 2 design through the fused datapath.
    Datapath,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyLong,
        Workload::DecodeBacklog,
        Workload::ElasticCells,
        Workload::Datapath,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyLong => "steady-long",
            Workload::DecodeBacklog => "decode-backlog",
            Workload::ElasticCells => "elastic-cells",
            Workload::Datapath => "datapath",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` for measurement, `Smoke` for the package's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs that exercise the same code paths in well under a
    /// second.
    Smoke,
}

/// The Table 2 designs the datapath workload runs, with the sequence
/// length each runs at full and at smoke size. The full lengths give the
/// three heads similar run times: binary16 runs as soft-float, about 20
/// times slower per flop than `f32`. BigBird needs at least its 128 global
/// plus 192 random tokens.
pub const DESIGNS: [(&str, usize, usize); 3] = [
    ("longformer_fp16", 448, 96),
    ("bigbird_fp16", 384, 320),
    ("longformer_fp32", 5120, 96),
];

/// One datapath head: a design, a sequence length and a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadDef {
    /// Table 2 design name.
    pub design: &'static str,
    /// Sequence length.
    pub n: usize,
    /// Q/K/V seed.
    pub seed: u64,
}

/// SplitMix64's finaliser: spreads a seed and an index into an
/// independent 64-bit seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scaled(full: usize, smoke: usize, size: Size) -> usize {
    match size {
        Size::Full => full,
        Size::Smoke => smoke,
    }
}

/// The serve cells of `workload` (empty for the datapath workload).
pub fn serve_cells(workload: Workload, seed: u64, size: Size) -> Vec<ScenarioSpec> {
    let cell = |index: u64, name: &str, cards: usize, arrivals: ArrivalProcess, requests: usize| {
        ScenarioSpec {
            name: name.to_string(),
            fleet: FleetSpec::standard(cards),
            arrivals,
            traffic: TrafficModel::mix(RequestMix::Production),
            seed: derive_seed(seed, index),
            requests,
            ..ScenarioSpec::default()
        }
    };
    match workload {
        Workload::SteadyLong => vec![cell(
            0,
            "steady-long",
            6,
            ArrivalProcess::poisson(14.0),
            scaled(600_000, 2_000, size),
        )],
        Workload::DecodeBacklog => vec![ScenarioSpec {
            traffic: TrafficModel::Mix {
                mix: RequestMix::Production,
                decode: Some(DecodeMix {
                    min_steps: 2,
                    max_steps: 6,
                    exit_prob: 0.2,
                }),
            },
            policy: PolicySpec::ShardedShortestJobFirst {
                max_shards: 4,
                adaptive: true,
            },
            batching: DecodeBatching::Continuous,
            ..cell(
                0,
                "decode-backlog",
                4,
                ArrivalProcess::poisson(6.0),
                scaled(34_000, 600, size),
            )
        }],
        Workload::ElasticCells => {
            let requests = scaled(200_000, 1_000, size);
            vec![
                ScenarioSpec {
                    preemption: PreemptionSpec::AfterWait { threshold_s: 0.1 },
                    ..cell(0, "preemption", 2, ArrivalProcess::bursty(2.5), requests)
                },
                ScenarioSpec {
                    admission: AdmissionControl::admit_all().with_cap(RequestClass::Background, 32),
                    ..cell(
                        1,
                        "admission-shed",
                        6,
                        ArrivalProcess::bursty(12.0),
                        requests,
                    )
                },
                ScenarioSpec {
                    autoscale: Some(AutoscalerConfig::standard().with_min_cards(2)),
                    ..cell(
                        2,
                        "autoscale",
                        6,
                        ArrivalProcess::diurnal(3.0, 22.0),
                        requests,
                    )
                },
                // `requests` counts sessions here; the standard profile
                // averages about five turns per session.
                ScenarioSpec {
                    traffic: TrafficModel::Sessions {
                        profile: SessionProfile::standard(),
                    },
                    policy: PolicySpec::SessionAffinity {
                        capacity_per_card: 64,
                    },
                    ..cell(
                        3,
                        "session-affinity",
                        4,
                        ArrivalProcess::flash_crowd(2.0, 20.0, 30.0, 5.0),
                        (requests / 5).max(1),
                    )
                },
                ScenarioSpec {
                    faults: vec![
                        FaultSpec {
                            at_frac: 0.4,
                            card: 0,
                            kind: FaultKindSpec::Kill,
                        },
                        FaultSpec {
                            at_frac: 0.4,
                            card: 1,
                            kind: FaultKindSpec::Degrade { factor: 2.0 },
                        },
                        FaultSpec {
                            at_frac: 0.7,
                            card: 0,
                            kind: FaultKindSpec::Revive { warmup_s: 2.0 },
                        },
                    ],
                    ..cell(4, "faults", 4, ArrivalProcess::diurnal(3.0, 14.0), requests)
                },
            ]
        }
        Workload::Datapath => Vec::new(),
    }
}

/// The heads of the datapath workload (empty for the serve workloads).
pub fn heads(workload: Workload, seed: u64, size: Size) -> Vec<HeadDef> {
    if workload != Workload::Datapath {
        return Vec::new();
    }
    DESIGNS
        .iter()
        .enumerate()
        .map(|(i, &(design, full, smoke))| HeadDef {
            design,
            n: scaled(full, smoke, size),
            seed: derive_seed(seed, i as u64),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_validates_and_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            for size in [Size::Full, Size::Smoke] {
                for spec in serve_cells(w, 7, size) {
                    spec.validate().expect("benchmark specs are valid");
                }
            }
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(serve_cells(Workload::ElasticCells, 1, Size::Smoke).len(), 5);
        assert_eq!(heads(Workload::Datapath, 1, Size::Smoke).len(), 3);
    }

    #[test]
    fn cells_get_distinct_seeds_that_follow_the_run_seed() {
        let a = serve_cells(Workload::ElasticCells, 1, Size::Smoke);
        let b = serve_cells(Workload::ElasticCells, 2, Size::Smoke);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.seed, y.seed);
        }
        let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len());
    }
}
