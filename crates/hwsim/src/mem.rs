/// Latency/bandwidth model of one level of the memory hierarchy.
///
/// Used by the accelerator simulator for its SRAM caches, DRAM (Table 3:
/// 64 GB/s, 100 cycles at 250 MHz), and the SSD tier of the future-scaling
/// study (Figure 13).
///
/// # Examples
///
/// ```
/// use recpipe_hwsim::MemoryModel;
///
/// let dram = MemoryModel::accel_dram();
/// let sram = MemoryModel::accel_sram();
/// assert!(dram.access_time(128) > sram.access_time(128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    latency_s: f64,
    bandwidth_bps: f64,
}

impl MemoryModel {
    /// Creates a memory level from access latency (seconds) and sustained
    /// bandwidth (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if latency is negative or bandwidth non-positive.
    pub fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        assert!(latency_s >= 0.0 && !latency_s.is_nan(), "invalid latency");
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        Self {
            latency_s,
            bandwidth_bps,
        }
    }

    /// RPAccel's DRAM (Table 3): 100 cycles at 250 MHz = 400 ns, 64 GB/s.
    pub fn accel_dram() -> Self {
        Self::new(400e-9, 64e9)
    }

    /// RPAccel's on-chip SRAM: single-cycle access at 250 MHz, wide port.
    pub fn accel_sram() -> Self {
        Self::new(4e-9, 1e12)
    }

    /// NVMe SSD tier for beyond-DRAM embedding tables (Figure 13):
    /// ~100 us access, 3 GB/s.
    pub fn ssd() -> Self {
        Self::new(100e-6, 3e9)
    }

    /// Access latency in seconds.
    pub fn latency(&self) -> f64 {
        self.latency_s
    }

    /// Sustained bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth_bps
    }

    /// Time to fetch `bytes` in one access.
    pub fn access_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_ordering_holds() {
        let sram = MemoryModel::accel_sram();
        let dram = MemoryModel::accel_dram();
        let ssd = MemoryModel::ssd();
        let t = |m: MemoryModel| m.access_time(128);
        assert!(t(sram) < t(dram));
        assert!(t(dram) < t(ssd));
    }

    #[test]
    fn table3_dram_latency_is_100_cycles() {
        // 100 cycles at 250 MHz = 400 ns.
        assert!((MemoryModel::accel_dram().latency() - 400e-9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn invalid_bandwidth_panics() {
        MemoryModel::new(1e-9, -1.0);
    }
}
