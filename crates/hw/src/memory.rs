//! Off-chip memory interfaces and traffic accounting.

/// An off-chip memory interface with a fixed sustained bandwidth.
///
/// SWAT streams K/V/Q rows from HBM; the dataflow guarantees each element
/// crosses the interface once, so a bandwidth × bytes model suffices — no
/// bank conflicts or row-buffer modelling is needed for the paper's claims
/// (the compute pipeline, not memory, is the bottleneck; see
/// [`MemoryInterface::is_compute_bound`]).
///
/// # Examples
///
/// ```
/// use swat_hw::MemoryInterface;
///
/// let hbm = MemoryInterface::hbm2();
/// let t = hbm.transfer_seconds(460_000_000_000);
/// assert!((t - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryInterface {
    bytes_per_sec: f64,
}

impl MemoryInterface {
    /// Creates an interface with the given sustained bandwidth.
    ///
    /// # Panics
    ///
    /// Panics with [`check_bandwidth`](MemoryInterface::check_bandwidth)'s
    /// diagnostic if the bandwidth is not strictly positive and finite.
    pub fn new(bytes_per_sec: f64) -> MemoryInterface {
        MemoryInterface::check_bandwidth(bytes_per_sec).unwrap_or_else(|e| panic!("{e}"));
        MemoryInterface { bytes_per_sec }
    }

    /// Checks a sustained bandwidth: strictly positive and finite.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the rejected value.
    pub fn check_bandwidth(bytes_per_sec: f64) -> Result<(), String> {
        if !(bytes_per_sec.is_finite() && bytes_per_sec > 0.0) {
            return Err(format!(
                "memory bandwidth must be positive and finite, got {bytes_per_sec}"
            ));
        }
        Ok(())
    }

    /// HBM2 on the U55C/VCU128: 460 GB/s aggregate.
    pub fn hbm2() -> MemoryInterface {
        MemoryInterface::new(460e9)
    }

    /// A single DDR4-2400 channel (19.2 GB/s), for the ablation that runs
    /// SWAT from DRAM instead of HBM.
    pub fn ddr4_channel() -> MemoryInterface {
        MemoryInterface::new(19.2e9)
    }

    /// PCIe Gen4 ×16 host link (32 GB/s raw, ~25 GB/s sustained): the path
    /// model weights take when a serving card switches model families.
    pub fn pcie4_x16() -> MemoryInterface {
        MemoryInterface::new(25e9)
    }

    /// Sustained bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Seconds to move `bytes` at the sustained bandwidth.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bytes_per_sec
    }

    /// Whether a kernel that moves `bytes` while computing for
    /// `compute_seconds` is compute-bound on this interface.
    pub fn is_compute_bound(&self, bytes: u64, compute_seconds: f64) -> bool {
        self.transfer_seconds(bytes) <= compute_seconds
    }

    /// The effective time of an overlapped transfer+compute phase:
    /// `max(transfer, compute)` — the standard double-buffering bound.
    pub fn overlapped_seconds(&self, bytes: u64, compute_seconds: f64) -> f64 {
        self.transfer_seconds(bytes).max(compute_seconds)
    }

    /// Contention of `streams` equal readers sharing this interface, each
    /// demanding `per_stream_bytes_per_sec`: the factor by which every
    /// stream's transfer stretches. 1.0 while aggregate demand fits the
    /// sustained bandwidth; `demand / bandwidth` once it saturates (fair
    /// sharing — HBM's channel arbitration round-robins among masters).
    ///
    /// SWAT's pipelines demand well under 1% of HBM2 each, so on-card
    /// contention is 1.0 in every paper configuration; the serving layer
    /// uses this to model down-binned cards (e.g. DDR4) and future designs
    /// with many more pipelines per card.
    pub fn contention_factor(&self, streams: usize, per_stream_bytes_per_sec: f64) -> f64 {
        assert!(
            per_stream_bytes_per_sec.is_finite() && per_stream_bytes_per_sec >= 0.0,
            "per-stream demand must be non-negative"
        );
        let demand = streams as f64 * per_stream_bytes_per_sec;
        (demand / self.bytes_per_sec).max(1.0)
    }

    /// Service seconds for one stream moving `bytes` while `streams`
    /// streams (itself included) share the interface: the isolated
    /// transfer time stretched by
    /// [`contention_factor`](MemoryInterface::contention_factor).
    pub fn contended_transfer_seconds(
        &self,
        bytes: u64,
        streams: usize,
        per_stream_bytes_per_sec: f64,
    ) -> f64 {
        self.transfer_seconds(bytes) * self.contention_factor(streams, per_stream_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let m = MemoryInterface::new(1e9);
        assert!((m.transfer_seconds(2_000_000_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_check() {
        let m = MemoryInterface::hbm2();
        // Moving 1 KB in a millisecond of compute: trivially compute-bound.
        assert!(m.is_compute_bound(1024, 1e-3));
        // Moving 460 GB in a microsecond is not.
        assert!(!m.is_compute_bound(460_000_000_000, 1e-6));
    }

    #[test]
    fn overlap_takes_max() {
        let m = MemoryInterface::new(1e9);
        assert!((m.overlapped_seconds(500_000_000, 0.1) - 0.5).abs() < 1e-9);
        assert!((m.overlapped_seconds(500_000_000, 0.9) - 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = MemoryInterface::new(0.0);
    }

    #[test]
    fn ddr_is_slower_than_hbm() {
        assert!(
            MemoryInterface::ddr4_channel().bytes_per_sec()
                < MemoryInterface::hbm2().bytes_per_sec()
        );
    }

    #[test]
    fn contention_kicks_in_only_at_saturation() {
        let m = MemoryInterface::new(10e9);
        // Two streams of 1 GB/s: 20% load, no stretch.
        assert_eq!(m.contention_factor(2, 1e9), 1.0);
        // Five streams of 4 GB/s: 2x oversubscribed, everything halves.
        assert!((m.contention_factor(5, 4e9) - 2.0).abs() < 1e-12);
        let isolated = m.transfer_seconds(1_000_000_000);
        let contended = m.contended_transfer_seconds(1_000_000_000, 5, 4e9);
        assert!((contended / isolated - 2.0).abs() < 1e-9);
    }

    #[test]
    fn swat_pipelines_never_contend_on_hbm2() {
        // Worst case in the paper: dual pipeline, FP32, streaming Q/K/V/Z
        // at the initiation interval — still far below 460 GB/s.
        let hbm = MemoryInterface::hbm2();
        let per_pipeline = 4.0 * 64.0 * 4.0 * 450e6 / 201.0; // bytes/s
        assert_eq!(hbm.contention_factor(2, per_pipeline), 1.0);
    }
}
