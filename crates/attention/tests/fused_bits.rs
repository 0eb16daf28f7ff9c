//! Pins every output bit and every count of the fused kernel.
//!
//! The fused kernel's host code may be restructured for speed, but each
//! rounding must keep its operands and its order, so its output bits and
//! its op/traffic accounting must not move. This test records, for one
//! case per FIFO regime and for both precisions, the FNV-1a digest of the
//! output's `f32` bytes together with `OpCounts`, `kv_loads`,
//! `kv_reloads` and `peak_occupancy`.

use swat_attention::fused::{fused_pattern_attention_in, FusedRun};
use swat_attention::SparsityPattern;
use swat_numeric::{SplitMix64, F16};
use swat_tensor::{Matrix, Scalar};

/// FNV-1a, 64-bit, over the little-endian bytes of `values`.
fn fnv1a_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// One pinned case: a pattern, its head shapes, a seed and a scale.
struct Case {
    name: &'static str,
    pattern: SparsityPattern,
    h: usize,
    hv: usize,
    seed: u64,
    scale: f32,
}

/// One case per regime the kernel's FIFO and row loop can be in.
fn cases() -> Vec<Case> {
    let case = |name, pattern, h, hv, seed, scale| Case {
        name,
        pattern,
        h,
        hv,
        seed,
        scale,
    };
    vec![
        // n > 2w: the FIFO wraps and evicts.
        case(
            "window",
            SparsityPattern::sliding_window(80, 8),
            16,
            16,
            1,
            0.25,
        ),
        // Global rows take the dense pass; every row attends the globals.
        case(
            "longformer",
            SparsityPattern::longformer(72, 6, &[0, 17, 50, 71]),
            16,
            8,
            2,
            0.5,
        ),
        // Random cores reload their K/V rows for every query row.
        case(
            "bigbird",
            SparsityPattern::bigbird(96, 4, 4, 6, 77),
            16,
            16,
            3,
            1.0,
        ),
        // No window component: a one-slot FIFO, every target a reload.
        case(
            "causal",
            SparsityPattern::causal_window(40, 3),
            8,
            8,
            4,
            0.7,
        ),
        // Every row dense, with no reload accounting.
        case("dense", SparsityPattern::dense(24), 8, 8, 5, 0.5),
        // n < w: one window covers the whole sequence.
        case(
            "short",
            SparsityPattern::sliding_window(5, 8),
            16,
            16,
            6,
            0.25,
        ),
    ]
}

fn qkv(n: usize, h: usize, hv: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
    let mut rng = SplitMix64::new(seed);
    let mut gen = |_: usize, _: usize| rng.next_f32_in(-1.0, 1.0);
    (
        Matrix::from_fn(n, h, &mut gen),
        Matrix::from_fn(n, h, &mut gen),
        Matrix::from_fn(n, hv, &mut gen),
    )
}

/// The case's run in precision `T`, as one line.
fn record<T: Scalar>(case: &Case) -> String {
    let (q, k, v) = qkv(case.pattern.seq_len(), case.h, case.hv, case.seed);
    let run: FusedRun = fused_pattern_attention_in::<T>(&q, &k, &v, &case.pattern, case.scale);
    let c = run.counts;
    format!(
        "{} {} digest={:016x} flops={} useful={} read={} written={} loads={} reloads={} peak={}",
        case.name,
        T::NAME,
        fnv1a_f32(run.output.as_slice()),
        c.flops,
        c.useful_flops,
        c.bytes_read,
        c.bytes_written,
        run.kv_loads,
        run.kv_reloads,
        run.peak_occupancy,
    )
}

/// The records the kernel produced when these cases were first pinned.
/// A change that moves one has changed the datapath's arithmetic or its
/// accounting, not only its speed.
const PINNED: [&str; 12] = [
    "window fp16 digest=62a9d973399de149 flops=81536 useful=81536 read=7680 written=2560 loads=80 reloads=0 peak=16",
    "window fp32 digest=3bbe421cb792aba4 flops=81536 useful=81536 read=15360 written=5120 loads=80 reloads=0 peak=16",
    "longformer fp16 digest=4fe4f548899c73f7 flops=66476 useful=66476 read=25600 written=1152 loads=72 reloads=288 peak=12",
    "longformer fp32 digest=9aa6e16ccba8fdfa flops=66476 useful=66476 read=51200 written=2304 loads=72 reloads=288 peak=12",
    "bigbird fp16 digest=fd954c90f375bfc9 flops=135120 useful=135120 read=69312 written=3072 loads=96 reloads=935 peak=8",
    "bigbird fp32 digest=e1f1db1294526163 flops=135120 useful=135120 read=138624 written=6144 loads=96 reloads=935 peak=8",
    "causal fp16 digest=ce0e2c4db3504eba flops=7970 useful=7970 read=7840 written=640 loads=0 reloads=225 peak=0",
    "causal fp32 digest=e363b6cdc37cfca6 flops=7970 useful=7970 read=15680 written=1280 loads=0 reloads=225 peak=0",
    "dense fp16 digest=c9297bf5476c465b flops=19776 useful=19776 read=384 written=384 loads=0 reloads=0 peak=0",
    "dense fp32 digest=9bfd5070aafb72d8 flops=19776 useful=19776 read=768 written=768 loads=0 reloads=0 peak=0",
    "short fp16 digest=5ac1d077ed3ba337 flops=1730 useful=1730 read=480 written=160 loads=5 reloads=0 peak=5",
    "short fp32 digest=bbe5a450c1427573 flops=1730 useful=1730 read=960 written=320 loads=5 reloads=0 peak=5",
];

#[test]
fn fused_kernel_output_bits_and_counts_are_pinned() {
    let got: Vec<String> = cases()
        .iter()
        .flat_map(|case| [record::<F16>(case), record::<f32>(case)])
        .collect();
    assert_eq!(got, PINNED);
}
