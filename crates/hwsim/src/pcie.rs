/// PCIe transfer cost: fixed link latency plus bandwidth-bound payload
/// time.
///
/// The paper measures host-accelerator PCIe overheads on the real
/// CPU-GPU system and feeds them into the accelerator model (Section 4,
/// "Host-to-accelerator PCIe overheads are based on real measurements");
/// [`PcieModel::measured`] carries those effective numbers for a PCIe
/// 3.0 x16 link.
///
/// # Examples
///
/// ```
/// use recpipe_hwsim::PcieModel;
///
/// let pcie = PcieModel::measured();
/// let t = pcie.transfer_time(1 << 20); // 1 MiB
/// assert!(t > 80e-6 && t < 200e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    latency_s: f64,
    bandwidth_bps: f64,
}

impl PcieModel {
    /// Creates a link model from latency (seconds) and bandwidth
    /// (bytes per second).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative or NaN.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        assert!(latency_s >= 0.0 && !latency_s.is_nan(), "invalid latency");
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        Self {
            latency_s,
            bandwidth_bps,
        }
    }

    /// Effective PCIe 3.0 x16 numbers measured on the CPU-GPU system:
    /// 10 us launch/completion latency, 12 GB/s sustained.
    pub fn measured() -> Self {
        Self::new(10e-6, 12e9)
    }

    /// Link latency in seconds.
    pub fn latency(&self) -> f64 {
        self.latency_s
    }

    /// Sustained bandwidth in bytes per second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bps
    }

    /// Time to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }

    /// Round-trip time for a request/response pair of the given sizes —
    /// the cost the baseline accelerator pays to filter top-k items on
    /// the host between stages (RPAccel's O.2 eliminates this).
    pub fn round_trip_time(&self, request_bytes: u64, response_bytes: u64) -> f64 {
        self.transfer_time(request_bytes) + self.transfer_time(response_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_costs_latency_only() {
        let p = PcieModel::measured();
        assert_eq!(p.transfer_time(0), p.latency());
    }

    #[test]
    fn time_scales_linearly_with_bytes() {
        let p = PcieModel::new(0.0, 1e9);
        assert!((p.transfer_time(1_000_000) - 1e-3).abs() < 1e-12);
        assert!((p.transfer_time(2_000_000) - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn round_trip_is_two_transfers() {
        let p = PcieModel::measured();
        let rt = p.round_trip_time(1000, 500);
        assert!((rt - p.transfer_time(1000) - p.transfer_time(500)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        PcieModel::new(0.0, 0.0);
    }
}
