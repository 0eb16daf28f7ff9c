//! The fused, row-major, FIFO-buffered streaming attention kernel —
//! the algorithm SWAT's hardware executes (Sections 3.1–3.3 of the paper).
//!
//! Three ideas compose here:
//!
//! 1. **Kernel fusion** (Equation 1): softmax's denominator is deferred to
//!    a final division, so QK, exp and SV stream row-by-row with no
//!    intermediate `S`/`S'` matrices spilled to memory.
//! 2. **Row-major dataflow**: rows of `Q` are processed in order, so the
//!    windows of consecutive rows overlap in all but one position.
//! 3. **Input-stationary K/V FIFO**: a fixed-size buffer holds the `2w`
//!    K/V rows of the current window; each row is loaded from off-chip
//!    memory *exactly once* (100% transfer efficiency), replaced at slot
//!    `j mod 2w` exactly like the hardware's BRAM selection signal.
//!
//! The kernel is generic over [`Scalar`], so running it with
//! [`swat_numeric::F16`] reproduces the FPGA's binary16 datapath
//! rounding-for-rounding.
//!
//! Each query row runs in the hardware's stage order:
//!
//! - **LOAD** streams the K/V rows the window newly covers into the FIFO;
//! - **QK** computes every target's score and its exponential, four
//!   targets at a time so that four dot products are in flight at once;
//! - **SV** accumulates `z` and ROWSUM over the targets in ascending order;
//! - **DIV** divides `z` by ROWSUM.
//!
//! Running a row stage by stage, rather than one target at a time through
//! all of them, and interleaving four dot products, reorder only
//! operations on different accumulators. Each score is still its own
//! left-to-right chain rounded after every operation, and each column of
//! `z` and ROWSUM add the same terms in the same order, so every output
//! bit is the same either way.

use crate::counters::OpCounts;
use crate::pattern::SparsityPattern;
use swat_tensor::{Matrix, Scalar};

/// One FIFO slot: `(position, k_row, v_row)`; `None` until first fill.
type KvSlot<T> = Option<(usize, Vec<T>, Vec<T>)>;

/// Fixed-capacity K/V buffer with modulo-indexed replacement.
///
/// Slot `j mod capacity` holds position `j` while `j` is in the window;
/// writing position `j + capacity` overwrites it — which is exactly FIFO
/// order for a sliding window (Figure 4b of the paper).
#[derive(Debug, Clone)]
pub struct KvFifo<T> {
    capacity: usize,
    slots: Vec<KvSlot<T>>,
    /// Slots filled so far; a slot, once filled, stays filled.
    occupied: usize,
    loads: u64,
    evictions: u64,
}

impl<T: Scalar> KvFifo<T> {
    /// Creates an empty FIFO with `capacity` slots (the paper's `2w`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> KvFifo<T> {
        assert!(capacity > 0, "FIFO capacity must be positive");
        KvFifo {
            capacity,
            slots: vec![None; capacity],
            occupied: 0,
            loads: 0,
            evictions: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of K/V rows loaded so far.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Number of rows that have been overwritten.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Loads position `j` into slot `j mod capacity`, evicting whatever was
    /// there. Returns the evicted position, if any.
    pub fn load(&mut self, j: usize, k_row: &[T], v_row: &[T]) -> Option<usize> {
        let slot = j % self.capacity;
        self.loads += 1;
        let evicted = self.slots[slot]
            .replace((j, k_row.to_vec(), v_row.to_vec()))
            .map(|(pos, _, _)| pos);
        match evicted {
            Some(_) => self.evictions += 1,
            None => self.occupied += 1,
        }
        evicted
    }

    /// Returns the K and V rows for position `j` if resident.
    pub fn get(&self, j: usize) -> Option<(&[T], &[T])> {
        match &self.slots[j % self.capacity] {
            Some((pos, k, v)) if *pos == j => Some((k.as_slice(), v.as_slice())),
            _ => None,
        }
    }

    /// Returns `true` if position `j` is resident.
    pub fn contains(&self, j: usize) -> bool {
        self.get(j).is_some()
    }

    /// Current number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }
}

/// Result of a fused streaming attention run.
#[derive(Debug, Clone)]
pub struct FusedRun {
    /// Attention output (widened to `f32` regardless of compute precision).
    pub output: Matrix<f32>,
    /// FLOPs and off-chip traffic.
    pub counts: OpCounts,
    /// K/V rows fetched from off-chip memory. For pure window attention
    /// this equals the sequence length: each row is loaded exactly once.
    pub kv_loads: u64,
    /// K/V rows re-fetched for random-attention cores (BigBird), which
    /// reload per query row.
    pub kv_reloads: u64,
    /// Peak FIFO occupancy observed.
    pub peak_occupancy: usize,
}

/// Fused streaming sliding-window attention in precision `T`.
///
/// Functionally equivalent to exact window attention; the computation order
/// and rounding mirror the hardware: per-operation rounding in `T`, raw
/// (non-max-subtracted) exponentials, deferred division.
///
/// # Panics
///
/// Panics if shapes are inconsistent or `w == 0`.
///
/// # Examples
///
/// ```
/// use swat_tensor::Matrix;
/// use swat_numeric::F16;
/// use swat_attention::fused::fused_window_attention_in;
///
/// let x = Matrix::from_fn(32, 8, |i, j| ((i * 7 + j) % 5) as f32 * 0.1 - 0.2);
/// let run = fused_window_attention_in::<F16>(&x, &x, &x, 4, 0.353);
/// assert_eq!(run.kv_loads, 32); // each K/V row loaded exactly once
/// ```
pub fn fused_window_attention_in<T: Scalar>(
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    w: usize,
    scale: f32,
) -> FusedRun {
    let pattern = SparsityPattern::sliding_window(q.rows(), w);
    fused_pattern_attention_in::<T>(q, k, v, &pattern, scale)
}

/// Convenience wrapper: [`fused_window_attention_in`] in `f32`.
pub fn fused_window_attention(
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    w: usize,
    scale: f32,
) -> FusedRun {
    fused_window_attention_in::<f32>(q, k, v, w, scale)
}

/// Fused streaming attention for a full [`SparsityPattern`] in precision
/// `T`, modelling SWAT's parameterised design (Figure 7):
///
/// - **window** targets stream through the K/V FIFO (loaded once each);
/// - **global** targets live in dedicated cores pre-loaded before the run;
/// - **random** targets are re-loaded for every query row (the paper's
///   LOAD stage grows from 66 to 195 cycles for these cores).
///
/// Global *rows* (which attend every position) fall back to a dense
/// streaming pass for that row, as Longformer handles them outside the
/// windowed kernel.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the pattern.
pub fn fused_pattern_attention_in<T: Scalar>(
    q: &Matrix<f32>,
    k: &Matrix<f32>,
    v: &Matrix<f32>,
    pattern: &SparsityPattern,
    scale: f32,
) -> FusedRun {
    assert_eq!(q.cols(), k.cols(), "q and k must share the head dimension");
    assert_eq!(k.rows(), v.rows(), "k and v must have one row per position");
    assert_eq!(q.rows(), k.rows(), "self-attention shapes required");
    assert_eq!(
        pattern.seq_len(),
        q.rows(),
        "pattern/sequence length mismatch"
    );

    let n = q.rows();
    let h = q.cols();
    let hv = v.cols();
    let scale_t = T::from_f32(scale);

    // Quantise inputs once, as the LOAD stage does when filling BRAMs.
    let qt = q.map(T::from_f32);
    let kt = k.map(T::from_f32);
    let vt = v.map(T::from_f32);

    let mut counts = OpCounts::new();
    let mut out = Matrix::<f32>::zeros(n, hv);
    let elem = T::BYTES as u64;
    let row_bytes = h as u64 * elem;

    // Window FIFO sized 2w (or a single slot when no window component).
    let window = pattern.window_half_width();
    let mut fifo = KvFifo::<T>::new(window.map_or(1, |w| 2 * w));
    // Positions `[0, loaded)` have streamed into the FIFO.
    let mut loaded = 0usize;
    let mut peak_occupancy = 0usize;
    let mut kv_reloads = 0u64;

    // Global cores: pre-loaded K/V rows, fixed for the whole run.
    let globals = pattern.globals();
    counts.record_read(globals.len() as u64 * 2 * row_bytes);

    // One row's targets, their exponentiated scores, and its `z`: sized
    // for a dense row once and reused from row to row.
    let mut targets = Vec::with_capacity(n);
    let mut scores = Vec::with_capacity(n);
    let mut z = vec![T::ZERO; hv];

    for i in 0..n {
        // --- LOAD stage ---------------------------------------------------
        // Windows only slide forward and the FIFO's 2w slots hold a whole
        // window, so the rows this window lacks are exactly the new ones.
        if let Some(w) = window {
            let hi = (i + w).min(n);
            for j in loaded..hi {
                fifo.load(j, kt.row(j), vt.row(j));
            }
            counts.record_read((hi - loaded) as u64 * 2 * row_bytes);
            loaded = hi;
            peak_occupancy = peak_occupancy.max(fifo.occupancy());
        }
        counts.record_read(row_bytes); // the Q row itself

        // Global rows attend everything, in a dense pass as Longformer
        // handles them outside the windowed kernel.
        let global_row = globals.binary_search(&i).is_ok();
        let dense_row = global_row || pattern.is_dense();
        pattern.row_targets_into(i, &mut targets);

        // --- QK stage: score and exponential for every target -------------
        let qi = &qt.row(i)[..h];
        let mut row_reloads = 0u64;
        let mut k_row = |j: usize| match fifo.get(j) {
            // Window core: K/V resident in the FIFO.
            Some((kj, _)) => &kj[..h],
            None => {
                // A global core was pre-loaded; a random core reloads
                // its K/V row for this query row.
                if !dense_row && globals.binary_search(&j).is_err() {
                    row_reloads += 1;
                }
                &kt.row(j)[..h]
            }
        };
        scores.clear();
        // Four independent chains per pass, so the CPU overlaps them.
        let mut quads = targets.chunks_exact(4);
        for quad in &mut quads {
            let ks = [
                k_row(quad[0]),
                k_row(quad[1]),
                k_row(quad[2]),
                k_row(quad[3]),
            ];
            let mut s = [T::ZERO; 4];
            for (c, &a) in qi.iter().enumerate() {
                s[0] = s[0].add(a.mul(ks[0][c]));
                s[1] = s[1].add(a.mul(ks[1][c]));
                s[2] = s[2].add(a.mul(ks[2][c]));
                s[3] = s[3].add(a.mul(ks[3][c]));
            }
            scores.extend(s.map(|s| s.mul(scale_t).exp()));
        }
        for &j in quads.remainder() {
            let kj = k_row(j);
            let mut s = T::ZERO;
            for (a, b) in qi.iter().zip(kj) {
                s = s.add(a.mul(*b));
            }
            scores.push(s.mul(scale_t).exp());
        }
        if global_row {
            // Every K/V row streams from memory again for this row.
            row_reloads = n as u64;
        }
        kv_reloads += row_reloads;
        counts.record_read(row_reloads * 2 * row_bytes);

        // --- SV stage: z and ROWSUM in ascending target order --------------
        z.fill(T::ZERO);
        let mut row_sum = T::ZERO;
        for (&j, &e) in targets.iter().zip(&scores) {
            let vj = match fifo.get(j) {
                Some((_, vj)) => vj,
                None => vt.row(j),
            };
            for (zi, vi) in z.iter_mut().zip(vj) {
                *zi = zi.add(e.mul(*vi));
            }
            row_sum = row_sum.add(e);
        }
        // Per target: h + hv MACs, one exponential, one ROWSUM add.
        let attended = targets.len() as u64;
        counts.record_macs(attended * (h + hv) as u64);
        counts.record_unary(2 * attended);

        // --- DIV & OUT stage ----------------------------------------------
        let out_row = out.row_mut(i);
        if row_sum.to_f32() > 0.0 {
            for (o, zi) in out_row.iter_mut().zip(&z) {
                *o = zi.div(row_sum).to_f32();
            }
            counts.record_unary(hv as u64);
        }
        counts.record_write(hv as u64 * elem);
    }

    FusedRun {
        output: out,
        counts,
        kv_loads: fifo.loads(),
        kv_reloads,
        peak_occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use swat_numeric::{SplitMix64, F16};

    fn random_qkv(n: usize, h: usize, seed: u64) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        let mut rng = SplitMix64::new(seed);
        let mut gen = |_: usize, _: usize| rng.next_f32_in(-1.0, 1.0);
        (
            Matrix::from_fn(n, h, &mut gen),
            Matrix::from_fn(n, h, &mut gen),
            Matrix::from_fn(n, h, &mut gen),
        )
    }

    #[test]
    fn fifo_modulo_replacement_is_fifo_order() {
        let mut fifo = KvFifo::<f32>::new(4);
        for j in 0..4 {
            assert_eq!(fifo.load(j, &[j as f32], &[0.0]), None);
        }
        assert_eq!(fifo.occupancy(), 4);
        // Loading 4 evicts 0, loading 5 evicts 1, ... strict FIFO.
        assert_eq!(fifo.load(4, &[4.0], &[0.0]), Some(0));
        assert_eq!(fifo.load(5, &[5.0], &[0.0]), Some(1));
        assert!(fifo.contains(4) && fifo.contains(5));
        assert!(!fifo.contains(0) && !fifo.contains(1));
        assert_eq!(fifo.evictions(), 2);
        assert_eq!(fifo.loads(), 6);
    }

    #[test]
    fn fifo_get_checks_position_tag() {
        let mut fifo = KvFifo::<f32>::new(2);
        fifo.load(0, &[1.0], &[2.0]);
        // Position 2 maps to the same slot but is not resident.
        assert!(fifo.get(2).is_none());
        assert_eq!(fifo.get(0).unwrap().0, &[1.0]);
    }

    #[test]
    fn fused_equals_masked_reference_f32() {
        let (q, k, v) = random_qkv(64, 8, 20);
        for w in [1, 4, 16] {
            let run = fused_window_attention(&q, &k, &v, w, 0.354);
            let p = SparsityPattern::sliding_window(64, w);
            let reference = reference::masked_attention(&q, &k, &v, &p, 0.354);
            assert!(
                run.output.max_abs_diff(&reference) < 1e-4,
                "w={w}: fused kernel diverges"
            );
        }
    }

    #[test]
    fn fused_f16_close_to_reference() {
        let (q, k, v) = random_qkv(48, 16, 21);
        let run = fused_window_attention_in::<F16>(&q, &k, &v, 8, 0.25);
        let p = SparsityPattern::sliding_window(48, 8);
        let reference = reference::masked_attention(&q, &k, &v, &p, 0.25);
        // binary16 accumulation over 16 window positions: a few ULPs of
        // headroom around 2^-10 relative precision.
        assert!(
            run.output.max_abs_diff(&reference) < 0.02,
            "diff {}",
            run.output.max_abs_diff(&reference)
        );
    }

    #[test]
    fn each_kv_row_loaded_exactly_once() {
        let (q, k, v) = random_qkv(128, 8, 22);
        let run = fused_window_attention(&q, &k, &v, 8, 1.0);
        assert_eq!(run.kv_loads, 128, "100% off-chip transfer efficiency");
        assert_eq!(run.kv_reloads, 0);
    }

    #[test]
    fn peak_occupancy_is_window_size() {
        let (q, k, v) = random_qkv(100, 4, 23);
        let run = fused_window_attention(&q, &k, &v, 8, 1.0);
        assert_eq!(run.peak_occupancy, 16, "FIFO fills to 2w");
    }

    #[test]
    fn traffic_is_linear_in_n() {
        let (q1, k1, v1) = random_qkv(128, 8, 24);
        let (q2, k2, v2) = random_qkv(256, 8, 24);
        let c1 = fused_window_attention(&q1, &k1, &v1, 8, 1.0).counts;
        let c2 = fused_window_attention(&q2, &k2, &v2, 8, 1.0).counts;
        let ratio = c2.total_bytes() as f64 / c1.total_bytes() as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn fused_bigbird_equals_masked_reference() {
        let (q, k, v) = random_qkv(96, 8, 25);
        let p = SparsityPattern::bigbird(96, 4, 6, 4, 77);
        let run = fused_pattern_attention_in::<f32>(&q, &k, &v, &p, 0.354);
        let reference = reference::masked_attention(&q, &k, &v, &p, 0.354);
        assert!(
            run.output.max_abs_diff(&reference) < 1e-4,
            "diff {}",
            run.output.max_abs_diff(&reference)
        );
        // Random cores caused reloads; window rows still loaded once each.
        assert!(run.kv_reloads > 0);
        assert_eq!(run.kv_loads, 96);
    }

    #[test]
    fn fused_no_reloads_for_pure_window() {
        let (q, k, v) = random_qkv(64, 4, 26);
        let p = SparsityPattern::sliding_window(64, 4);
        let run = fused_pattern_attention_in::<f32>(&q, &k, &v, &p, 1.0);
        assert_eq!(run.kv_reloads, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_fifo_rejected() {
        let _ = KvFifo::<f32>::new(0);
    }
}
