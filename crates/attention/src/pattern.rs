//! Static attention sparsity patterns.
//!
//! SWAT supports the attention patterns of Longformer (sliding window +
//! global tokens) and BigBird (window + global + static random), set as
//! design-time parameters (Figure 7 of the paper). The Butterfly baseline
//! uses a butterfly connectivity pattern. [`SparsityPattern`] represents all
//! of them uniformly as a per-row set of attended columns.

use swat_numeric::SplitMix64;
use swat_tensor::Matrix;

/// A static attention sparsity pattern over a sequence of length `seq_len`.
///
/// The pattern is the union of up to four components:
/// - a **sliding window** of half-width `w` (row `i` attends
///   `[i−w, i+w−1]`, clamped — see the crate-level window convention);
/// - **global tokens**: designated positions attended by every row, which
///   themselves attend to every position (symmetric, as in Longformer);
/// - **static random tokens**: per-row fixed random positions (BigBird);
/// - a **dense** flag that short-circuits everything to full attention.
///
/// # Examples
///
/// ```
/// use swat_attention::SparsityPattern;
///
/// let p = SparsityPattern::sliding_window(16, 2);
/// assert!(p.attends(8, 7));   // inside the window
/// assert!(!p.attends(8, 12)); // outside
/// assert_eq!(p.row_targets(0), vec![0, 1]); // clamped at the boundary
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    seq_len: usize,
    window: Option<usize>,
    globals: Vec<usize>,
    random: Vec<Vec<usize>>,
    dense: bool,
}

impl SparsityPattern {
    /// Full (dense) attention: every row attends every column.
    pub fn dense(seq_len: usize) -> SparsityPattern {
        SparsityPattern {
            seq_len,
            window: None,
            globals: Vec::new(),
            random: Vec::new(),
            dense: true,
        }
    }

    /// Pure sliding-window attention with half-width `w` (the Longformer
    /// pattern without global tokens). The window of row `i` is the up-to-
    /// `2w` positions `[i−w, i+w−1]` clamped to the sequence.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn sliding_window(seq_len: usize, w: usize) -> SparsityPattern {
        assert!(w > 0, "window half-width must be positive");
        SparsityPattern {
            seq_len,
            window: Some(w),
            globals: Vec::new(),
            random: Vec::new(),
            dense: false,
        }
    }

    /// Longformer pattern: sliding window plus symmetric global tokens at
    /// the given positions.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or any global index is out of range.
    pub fn longformer(seq_len: usize, w: usize, globals: &[usize]) -> SparsityPattern {
        assert!(w > 0, "window half-width must be positive");
        assert!(
            globals.iter().all(|&g| g < seq_len),
            "global token index out of range"
        );
        let mut globals = globals.to_vec();
        globals.sort_unstable();
        globals.dedup();
        SparsityPattern {
            seq_len,
            window: Some(w),
            globals,
            random: Vec::new(),
            dense: false,
        }
    }

    /// BigBird pattern: sliding window of half-width `w`, `n_global` global
    /// tokens (the first positions, as in BigBird's ITC configuration), and
    /// `n_random` statically random attended positions per row drawn with
    /// the given `seed`.
    ///
    /// The random positions are fixed at construction ("design-time
    /// parameters" in the paper) and exclude positions already covered by
    /// the window or globals where possible.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `n_global + n_random > seq_len`.
    pub fn bigbird(
        seq_len: usize,
        w: usize,
        n_global: usize,
        n_random: usize,
        seed: u64,
    ) -> SparsityPattern {
        assert!(w > 0, "window half-width must be positive");
        assert!(
            n_global + n_random <= seq_len,
            "global + random tokens exceed sequence length"
        );
        let globals: Vec<usize> = (0..n_global).collect();
        let mut rng = SplitMix64::new(seed);
        let mut random = Vec::with_capacity(seq_len);
        for i in 0..seq_len {
            let mut picks = Vec::with_capacity(n_random);
            let mut guard = 0usize;
            while picks.len() < n_random && guard < 64 * n_random.max(1) {
                guard += 1;
                let j = rng.next_below(seq_len as u64) as usize;
                let in_window = window_contains(i, j, w, seq_len);
                if !in_window && j >= n_global && !picks.contains(&j) {
                    picks.push(j);
                }
            }
            // Fall back to *any* distinct positions if the sequence is so
            // short that non-overlapping picks do not exist.
            let mut next = 0usize;
            while picks.len() < n_random {
                if !picks.contains(&next) {
                    picks.push(next);
                }
                next += 1;
            }
            picks.sort_unstable();
            random.push(picks);
        }
        SparsityPattern {
            seq_len,
            window: Some(w),
            globals,
            random,
            dense: false,
        }
    }

    /// A causal sliding window: row `i` attends `{max(0, i−2w+1) … i}` —
    /// the autoregressive-decoding variant (each token sees only the past,
    /// up to the same `2w` hardware budget). Mistral-style models use
    /// exactly this pattern; SWAT's core array supports it with the same
    /// FIFO, just without the look-ahead half.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`.
    pub fn causal_window(seq_len: usize, w: usize) -> SparsityPattern {
        assert!(w > 0, "window half-width must be positive");
        let span = 2 * w;
        let targets: Vec<Vec<usize>> = (0..seq_len)
            .map(|i| {
                let lo = (i + 1).saturating_sub(span);
                (lo..=i).collect()
            })
            .collect();
        SparsityPattern::from_row_targets(targets)
    }

    /// A dilated sliding window (the Longformer variant): row `i` attends
    /// the `2w` positions `{ i + d·t : t ∈ [−w, w) }` clamped to the
    /// sequence, where `d` is the dilation. `dilation == 1` gives the
    /// plain sliding window. Dilation widens the receptive field at the
    /// same hardware budget of `2w` attention cores — one of the paper's
    /// "various attention mechanisms" arguments for FPGA programmability.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `dilation == 0`.
    pub fn dilated_window(seq_len: usize, w: usize, dilation: usize) -> SparsityPattern {
        assert!(w > 0, "window half-width must be positive");
        assert!(dilation > 0, "dilation must be positive");
        if dilation == 1 {
            return SparsityPattern::sliding_window(seq_len, w);
        }
        let targets: Vec<Vec<usize>> = (0..seq_len)
            .map(|i| {
                (-(w as isize)..w as isize)
                    .filter_map(|t| {
                        let j = i as isize + t * dilation as isize;
                        if (0..seq_len as isize).contains(&j) {
                            Some(j as usize)
                        } else {
                            None
                        }
                    })
                    .collect()
            })
            .collect();
        SparsityPattern::from_row_targets(targets)
    }

    /// An arbitrary static pattern given explicitly as per-row target
    /// lists. Used for patterns outside the window/global/random family,
    /// e.g. the butterfly connectivity of the baseline accelerator.
    ///
    /// # Panics
    ///
    /// Panics if any target index is out of range.
    pub fn from_row_targets(targets: Vec<Vec<usize>>) -> SparsityPattern {
        let seq_len = targets.len();
        let mut random = targets;
        for (i, row) in random.iter_mut().enumerate() {
            assert!(
                row.iter().all(|&j| j < seq_len),
                "row {i} has a target out of range"
            );
            row.sort_unstable();
            row.dedup();
        }
        SparsityPattern {
            seq_len,
            window: None,
            globals: Vec::new(),
            random,
            dense: false,
        }
    }

    /// Sequence length this pattern is defined over.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The window half-width, if a window component is present.
    pub fn window_half_width(&self) -> Option<usize> {
        self.window
    }

    /// The global token positions (sorted).
    pub fn globals(&self) -> &[usize] {
        &self.globals
    }

    /// The static random positions of row `i` (empty if no random
    /// component).
    pub fn random_targets(&self, i: usize) -> &[usize] {
        self.random.get(i).map_or(&[], Vec::as_slice)
    }

    /// Returns `true` if this is the dense pattern.
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Whether row `i` attends column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn attends(&self, i: usize, j: usize) -> bool {
        assert!(i < self.seq_len && j < self.seq_len, "index out of range");
        if self.dense {
            return true;
        }
        if let Some(w) = self.window {
            if window_contains(i, j, w, self.seq_len) {
                return true;
            }
        }
        // Symmetric globals: global rows attend everything; every row
        // attends global columns.
        if self.globals.binary_search(&i).is_ok() || self.globals.binary_search(&j).is_ok() {
            return true;
        }
        self.random
            .get(i)
            .is_some_and(|r| r.binary_search(&j).is_ok())
    }

    /// The sorted set of columns attended by row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_targets(&self, i: usize) -> Vec<usize> {
        let mut targets = Vec::new();
        self.row_targets_into(i, &mut targets);
        targets
    }

    /// Writes [`row_targets`](Self::row_targets)`(i)` into `targets`,
    /// replacing its contents, so a caller that visits every row can reuse
    /// one buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_targets_into(&self, i: usize, targets: &mut Vec<usize>) {
        assert!(i < self.seq_len, "row out of range");
        targets.clear();
        if self.dense || self.globals.binary_search(&i).is_ok() {
            targets.extend(0..self.seq_len);
            return;
        }
        if let Some(w) = self.window {
            let lo = i.saturating_sub(w);
            let hi = (i + w).min(self.seq_len); // exclusive; window is [i-w, i+w-1]
            targets.extend(lo..hi);
        }
        targets.extend_from_slice(&self.globals);
        if let Some(r) = self.random.get(i) {
            targets.extend_from_slice(r);
        }
        targets.sort_unstable();
        targets.dedup();
    }

    /// Number of attended `(i, j)` pairs in the whole pattern.
    pub fn nnz(&self) -> usize {
        (0..self.seq_len).map(|i| self.row_targets(i).len()).sum()
    }

    /// Fraction of the dense `n²` score matrix that this pattern computes.
    pub fn density(&self) -> f64 {
        if self.seq_len == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.seq_len as f64 * self.seq_len as f64)
    }

    /// Materialises the pattern as an additive mask: `0` where attended,
    /// `-inf` where masked. Suitable for the reference kernels.
    pub fn to_additive_mask(&self) -> Matrix<f32> {
        Matrix::from_fn(self.seq_len, self.seq_len, |i, j| {
            if self.attends(i, j) {
                0.0
            } else {
                f32::NEG_INFINITY
            }
        })
    }
}

/// Whether `j` lies in the window of `i`: `i−w ≤ j ≤ i+w−1`, clamped.
fn window_contains(i: usize, j: usize, w: usize, seq_len: usize) -> bool {
    debug_assert!(j < seq_len);
    let lo = i.saturating_sub(w);
    let hi = (i + w).min(seq_len); // exclusive
    (lo..hi).contains(&j)
}

/// The butterfly sparsity pattern used by the Butterfly accelerator
/// baseline (reference \[7\]): at stage `s`, position `i` connects to `i` and
/// `i XOR 2^s`. The full pattern is the union over `log2(n)` stages.
///
/// This is *not* run on SWAT; it exists so the fidelity experiments can
/// compare the patterns' expressiveness (Table 3 proxy).
///
/// # Panics
///
/// Panics if `seq_len` is not a power of two.
pub fn butterfly_pairs(seq_len: usize) -> Vec<(usize, usize)> {
    assert!(
        seq_len.is_power_of_two(),
        "butterfly pattern requires a power-of-two length"
    );
    let stages = seq_len.trailing_zeros();
    let mut pairs = Vec::new();
    for i in 0..seq_len {
        pairs.push((i, i));
        for s in 0..stages {
            let j = i ^ (1usize << s);
            pairs.push((i, j));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_attends_everything() {
        let p = SparsityPattern::dense(8);
        assert!(p.is_dense());
        assert_eq!(p.nnz(), 64);
        assert!((p.density() - 1.0).abs() < 1e-12);
        assert_eq!(p.row_targets(3).len(), 8);
    }

    #[test]
    fn window_is_banded_and_clamped() {
        let p = SparsityPattern::sliding_window(10, 2);
        assert_eq!(p.row_targets(5), vec![3, 4, 5, 6]);
        assert_eq!(p.row_targets(0), vec![0, 1]);
        assert_eq!(p.row_targets(9), vec![7, 8, 9]); // hi clamps to seq end
        assert!(p.attends(5, 3));
        assert!(p.attends(5, 6));
        assert!(!p.attends(5, 7)); // i+w is exclusive
        assert!(!p.attends(5, 2));
    }

    #[test]
    fn window_has_2w_targets_in_the_interior() {
        let p = SparsityPattern::sliding_window(100, 8);
        for i in 10..90 {
            assert_eq!(p.row_targets(i).len(), 16, "row {i}");
        }
    }

    #[test]
    fn longformer_globals_are_symmetric() {
        let p = SparsityPattern::longformer(32, 2, &[0, 7]);
        // Global rows attend everything.
        assert_eq!(p.row_targets(0).len(), 32);
        assert_eq!(p.row_targets(7).len(), 32);
        // Every row attends the global columns.
        assert!(p.attends(30, 0));
        assert!(p.attends(30, 7));
        // Non-global, non-window pairs stay masked.
        assert!(!p.attends(30, 15));
    }

    #[test]
    fn longformer_dedups_globals() {
        let p = SparsityPattern::longformer(16, 1, &[3, 3, 1]);
        assert_eq!(p.globals(), &[1, 3]);
    }

    #[test]
    fn bigbird_row_budget() {
        // 2w=8 window + 4 globals + 4 random = 16 targets in the interior.
        let p = SparsityPattern::bigbird(128, 4, 4, 4, 42);
        for i in 20..100 {
            let t = p.row_targets(i);
            assert_eq!(t.len(), 8 + 4 + 4, "row {i}: {t:?}");
        }
    }

    #[test]
    fn bigbird_random_is_deterministic_per_seed() {
        let a = SparsityPattern::bigbird(64, 2, 2, 3, 7);
        let b = SparsityPattern::bigbird(64, 2, 2, 3, 7);
        let c = SparsityPattern::bigbird(64, 2, 2, 3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bigbird_random_targets_exclude_window_and_globals() {
        let p = SparsityPattern::bigbird(256, 4, 8, 4, 3);
        for i in 0..256 {
            for &j in p.random_targets(i) {
                assert!(j >= 8, "random target {j} overlaps globals");
                assert!(
                    !(i.saturating_sub(4)..(i + 4).min(256)).contains(&j),
                    "random target {j} overlaps window of {i}"
                );
            }
        }
    }

    #[test]
    fn attends_agrees_with_row_targets() {
        let p = SparsityPattern::bigbird(64, 3, 4, 2, 11);
        for i in 0..64 {
            let t = p.row_targets(i);
            for j in 0..64 {
                assert_eq!(p.attends(i, j), t.contains(&j), "({i},{j})");
            }
        }
    }

    #[test]
    fn row_targets_into_replaces_what_a_reused_buffer_held() {
        // Dense global rows, window rows and random targets, into a buffer
        // that starts out stale, in an order where short rows follow
        // longer ones.
        let p = SparsityPattern::bigbird(48, 3, 2, 2, 5);
        let mut buffer = vec![usize::MAX; 100];
        for i in (0..48).rev().chain([1, 30, 0, 47]) {
            p.row_targets_into(i, &mut buffer);
            let attended: Vec<usize> = (0..48).filter(|&j| p.attends(i, j)).collect();
            assert_eq!(buffer, attended, "row {i}");
        }
    }

    #[test]
    fn additive_mask_matches_pattern() {
        let p = SparsityPattern::sliding_window(12, 2);
        let m = p.to_additive_mask();
        for i in 0..12 {
            for j in 0..12 {
                let expect = if p.attends(i, j) {
                    0.0
                } else {
                    f32::NEG_INFINITY
                };
                assert_eq!(m.get(i, j), expect);
            }
        }
    }

    #[test]
    fn density_of_window_is_linear() {
        let p1 = SparsityPattern::sliding_window(1024, 16);
        let p2 = SparsityPattern::sliding_window(2048, 16);
        // Density halves when the sequence doubles: nnz is linear in n.
        assert!((p1.density() / p2.density() - 2.0).abs() < 0.05);
    }

    #[test]
    fn butterfly_pattern_shape() {
        let pairs = butterfly_pairs(16);
        // Each row: itself + log2(16)=4 partners, all distinct.
        assert_eq!(pairs.len(), 16 * 5);
        assert!(pairs.contains(&(3, 3)));
        assert!(pairs.contains(&(3, 2))); // 3 ^ 1
        assert!(pairs.contains(&(3, 1))); // 3 ^ 2
        assert!(pairs.contains(&(3, 7))); // 3 ^ 4
        assert!(pairs.contains(&(3, 11))); // 3 ^ 8
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn butterfly_rejects_non_power_of_two() {
        let _ = butterfly_pairs(12);
    }

    #[test]
    fn causal_window_properties() {
        let p = SparsityPattern::causal_window(32, 2);
        // Row 10 attends {7, 8, 9, 10}: a 2w=4 span ending at itself.
        assert_eq!(p.row_targets(10), vec![7, 8, 9, 10]);
        // No future positions, ever.
        for i in 0..32 {
            for j in (i + 1)..32 {
                assert!(!p.attends(i, j), "({i},{j}) violates causality");
            }
            assert!(p.attends(i, i), "every token sees itself");
        }
        // Early rows clamp at zero.
        assert_eq!(p.row_targets(0), vec![0]);
        assert_eq!(p.row_targets(2), vec![0, 1, 2]);
    }

    #[test]
    fn dilated_window_properties() {
        let p = SparsityPattern::dilated_window(64, 4, 3);
        // Row 30 attends {30 + 3t : t in [-4, 4)} = {18,21,24,27,30,33,36,39}.
        assert_eq!(p.row_targets(30), vec![18, 21, 24, 27, 30, 33, 36, 39]);
        // Same budget as the plain window (2w = 8 targets) ...
        assert_eq!(p.row_targets(30).len(), 8);
        // ... but triple the receptive field.
        let plain = SparsityPattern::sliding_window(64, 4);
        let reach = |p: &SparsityPattern, i: usize| {
            let t = p.row_targets(i);
            t[t.len() - 1] - t[0]
        };
        assert_eq!(reach(&p, 30), 3 * reach(&plain, 30));
        // Dilation 1 degenerates to the plain window.
        assert_eq!(
            SparsityPattern::dilated_window(64, 4, 1),
            SparsityPattern::sliding_window(64, 4)
        );
    }

    #[test]
    #[should_panic(expected = "dilation must be positive")]
    fn zero_dilation_rejected() {
        let _ = SparsityPattern::dilated_window(8, 2, 0);
    }

    #[test]
    fn from_row_targets_roundtrips() {
        let p = SparsityPattern::from_row_targets(vec![vec![0, 2], vec![1], vec![2, 0, 2]]);
        assert_eq!(p.seq_len(), 3);
        assert_eq!(p.row_targets(0), vec![0, 2]);
        assert_eq!(p.row_targets(2), vec![0, 2]); // deduped, sorted
        assert!(p.attends(1, 1));
        assert!(!p.attends(1, 0));
    }

    #[test]
    fn butterfly_pattern_via_row_targets() {
        let pairs = butterfly_pairs(8);
        let mut rows = vec![Vec::new(); 8];
        for (i, j) in pairs {
            rows[i].push(j);
        }
        let p = SparsityPattern::from_row_targets(rows);
        assert_eq!(p.row_targets(0).len(), 4); // self + log2(8) partners
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_row_targets_rejects_bad_index() {
        let _ = SparsityPattern::from_row_targets(vec![vec![5]]);
    }

    #[test]
    #[should_panic(expected = "half-width must be positive")]
    fn zero_window_rejected() {
        let _ = SparsityPattern::sliding_window(8, 0);
    }
}
