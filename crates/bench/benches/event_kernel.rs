//! Criterion micro-benchmarks of the serving kernel's two core
//! structures: the time-ordered [`EventQueue`] (a binary heap of
//! simulation events) and the rank-ordered [`PriorityQueue`] (the
//! waiting line, per-class lanes ordered by id, plus the work index
//! shortest-job-first dispatch picks from). A long run spends most of
//! its cycles pushing and popping these, so their scaling from 10³ to
//! 10⁶ entries is worth watching on its own — a regression here shows
//! up multiplied by two events per request in `perfbench`'s
//! `steady-long` wall time.
//!
//! Populations are drawn from the same seeded production-mix traffic the
//! sweeps use, so class mix and id distribution match what the kernel
//! sees in anger rather than a synthetic uniform fill.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use swat_serve::arrival::ArrivalProcess;
use swat_serve::event::{Event, EventQueue, PriorityQueue};
use swat_serve::request::Request;
use swat_serve::sim::TrafficSpec;
use swat_workloads::{DecodeMix, RequestMix};

/// Entry counts: three decades up to the million-request regime.
const SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// SJF dispatches per iteration of the `sjf_dispatch` case.
const PICKS: usize = 1_000;

/// Seeded production-mix traffic, shared by every population size.
fn traffic(n: usize) -> Vec<Request> {
    TrafficSpec {
        arrivals: ArrivalProcess::poisson(14.0),
        mix: RequestMix::Production,
        seed: 0x5EED,
    }
    .requests(n)
}

/// Push `n` completions (arrival times make a realistic non-sorted
/// insertion order), then drain the heap in time order.
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for &n in &SIZES {
        let requests = traffic(n);
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, _| {
            b.iter(|| {
                let mut queue = EventQueue::new();
                for r in &requests {
                    let event = Event::Completion {
                        card: (r.id % 6) as usize,
                        id: r.id,
                        shard: 0,
                        index: r.id as u32,
                    };
                    queue.push(r.arrival, event);
                }
                let mut last = 0.0;
                while let Some((time, event)) = queue.pop() {
                    last = time;
                    black_box(event);
                }
                last
            })
        });
    }
    group.finish();
}

/// The waiting queue under its kernel workloads: filling the class
/// lanes, the policies' merged-rank scan, keyed removal (admission shed
/// / preemption merge), and shortest-job-first dispatch from a
/// work-indexed queue. Removal walks ids in reverse so every hit lands
/// at its lane's tail — the kernel's own removals are likewise
/// single-element, not head-of-lane drains. The SJF cases run on
/// decode-plan traffic (2–6 steps, exit probability 0.2):
/// `shortest_in_head_class` is the indexed pick alone on the full
/// queue; `sjf_dispatch` picks and takes [`PICKS`] requests, then pushes
/// them back, so every iteration starts from the same depth — the
/// mid-lane take and push shift the lane, which the pick alone does not
/// show.
fn bench_priority_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("priority_queue");
    group.sample_size(10);
    for &n in &SIZES {
        let requests = traffic(n);
        group.bench_with_input(BenchmarkId::new("insert", n), &n, |b, _| {
            b.iter(|| {
                let mut queue = PriorityQueue::new();
                for (i, r) in requests.iter().enumerate() {
                    queue.push(r, i as u32);
                }
                queue.len()
            })
        });
        let mut full = PriorityQueue::new();
        for (i, r) in requests.iter().enumerate() {
            full.push(r, i as u32);
        }
        group.bench_with_input(BenchmarkId::new("iterate", n), &n, |b, _| {
            b.iter(|| {
                full.view(&requests)
                    .iter()
                    .map(|r| r.shape.work_tokens())
                    .sum::<u64>()
            })
        });
        group.bench_with_input(BenchmarkId::new("insert_remove", n), &n, |b, _| {
            b.iter(|| {
                let mut queue = PriorityQueue::new();
                for (i, r) in requests.iter().enumerate() {
                    queue.push(r, i as u32);
                }
                for r in requests.iter().rev() {
                    black_box(queue.remove((r.class.rank(), r.id)));
                }
                queue.len()
            })
        });
        let decoded = TrafficSpec {
            arrivals: ArrivalProcess::poisson(14.0),
            mix: RequestMix::Production,
            seed: 0x5EED,
        }
        .decode_requests(
            n,
            &DecodeMix {
                min_steps: 2,
                max_steps: 6,
                exit_prob: 0.2,
            },
        );
        let mut indexed = PriorityQueue::with_work_index();
        for (i, r) in decoded.iter().enumerate() {
            indexed.push(r, i as u32);
        }
        group.bench_with_input(BenchmarkId::new("shortest_in_head_class", n), &n, |b, _| {
            b.iter(|| {
                indexed
                    .view(&decoded)
                    .shortest_in_head_class()
                    .map(|(qi, r)| (qi, r.id))
            })
        });
        let mut taken = Vec::with_capacity(PICKS);
        group.bench_with_input(BenchmarkId::new("sjf_dispatch", n), &n, |b, _| {
            b.iter(|| {
                for _ in 0..PICKS.min(n) {
                    let (qi, _) = indexed
                        .view(&decoded)
                        .shortest_in_head_class()
                        .expect("the queue holds every request");
                    taken.push(indexed.take(qi));
                }
                for i in taken.drain(..) {
                    indexed.push(&decoded[i as usize], i);
                }
                indexed.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_priority_queue);
criterion_main!(benches);
