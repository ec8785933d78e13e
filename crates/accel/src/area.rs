/// One hardware component's area/power contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name as in Figure 11.
    pub name: String,
    /// Area in mm^2 (12 nm-class coefficients).
    pub area_mm2: f64,
    /// Power in watts.
    pub power_w: f64,
    /// Whether the component exists in the baseline accelerator or is
    /// RPAccel-only overhead.
    pub rpaccel_only: bool,
}

/// Analytic area/power model reproducing Figure 11's breakdown: RPAccel's
/// additions (banked activation memory, top-k filtering units, the
/// reconfigurable-array interconnect) cost **~11% area** and **~36%
/// power** over the baseline TPU-like accelerator.
///
/// Coefficients are representative 12 nm-class densities (MACs,
/// SRAM mm^2/MB); what the figure argues — and what this model
/// reproduces — is the *relative* overhead, not absolute silicon area.
///
/// # Examples
///
/// ```
/// use recpipe_accel::AreaPowerModel;
///
/// let model = AreaPowerModel::paper_default();
/// let (area_ovh, power_ovh) = model.overheads();
/// assert!(area_ovh < 0.15);      // ~11%
/// assert!(power_ovh < 0.45);     // ~36%
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerModel {
    components: Vec<Component>,
}

impl AreaPowerModel {
    /// Builds the Figure 11 component set.
    ///
    /// Baseline components: 128x128 MAC array, 8 MB weight/activation
    /// SRAM, 16 MB embedding SRAM, baseline activation buffers.
    /// RPAccel additions: banked activation memory (multi-stage
    /// concurrency), top-k filtering units (one per sub-array), and the
    /// fission interconnect.
    pub fn paper_default() -> Self {
        // 12 nm-class coefficients: ~0.0006 mm^2 and ~0.5 mW per MAC at
        // 250 MHz; ~1.3 mm^2 and ~0.35 W per MB of SRAM (leakage +
        // access energy at the paper's utilization).
        const MACS: f64 = 128.0 * 128.0;
        const MAC_AREA: f64 = 0.0006;
        const MAC_POWER: f64 = 0.000488;
        const SRAM_AREA_PER_MB: f64 = 1.3;
        const SRAM_POWER_PER_MB: f64 = 0.35;

        let sram = |name: &str, mb: f64, rp: bool, power_scale: f64| Component {
            name: name.to_string(),
            area_mm2: SRAM_AREA_PER_MB * mb,
            power_w: SRAM_POWER_PER_MB * mb * power_scale,
            rpaccel_only: rp,
        };

        let components = vec![
            Component {
                name: "systolic array".into(),
                area_mm2: MAC_AREA * MACS,
                power_w: MAC_POWER * MACS,
                rpaccel_only: false,
            },
            sram("MLP weight SRAM", 8.0, false, 1.0),
            sram("embedding SRAM", 16.0, false, 1.0),
            sram("baseline activation memory", 2.0, false, 1.0),
            // RPAccel overheads. Banked activation memory dominates: the
            // heavily multi-ported banks burn disproportionate dynamic
            // power (+32% of baseline power for +10% area in the paper).
            sram("banked activation memory", 3.35, true, 4.67),
            Component {
                name: "top-k filtering units".into(),
                area_mm2: 0.25,
                power_w: 0.34,
                rpaccel_only: true,
            },
            Component {
                name: "reconfigurable interconnect".into(),
                area_mm2: 0.22,
                power_w: 0.34,
                rpaccel_only: true,
            },
        ];
        Self { components }
    }

    /// All components.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Baseline accelerator totals `(area_mm2, power_w)`.
    pub fn baseline_totals(&self) -> (f64, f64) {
        self.totals(false)
    }

    /// RPAccel totals `(area_mm2, power_w)` (baseline + additions).
    pub fn rpaccel_totals(&self) -> (f64, f64) {
        self.totals(true)
    }

    fn totals(&self, include_rpaccel: bool) -> (f64, f64) {
        self.components
            .iter()
            .filter(|c| include_rpaccel || !c.rpaccel_only)
            .fold((0.0, 0.0), |(a, p), c| (a + c.area_mm2, p + c.power_w))
    }

    /// Relative `(area, power)` overheads of RPAccel versus the baseline
    /// (Figure 11: ~0.11, ~0.36).
    pub fn overheads(&self) -> (f64, f64) {
        let (ba, bp) = self.baseline_totals();
        let (ra, rp) = self.rpaccel_totals();
        ((ra - ba) / ba, (rp - bp) / bp)
    }

    /// Per-component share of RPAccel's total area, `(name, fraction)`.
    pub fn area_breakdown(&self) -> Vec<(String, f64)> {
        let (total, _) = self.rpaccel_totals();
        self.components
            .iter()
            .map(|c| (c.name.clone(), c.area_mm2 / total))
            .collect()
    }

    /// Per-component share of RPAccel's total power.
    pub fn power_breakdown(&self) -> Vec<(String, f64)> {
        let (_, total) = self.rpaccel_totals();
        self.components
            .iter()
            .map(|c| (c.name.clone(), c.power_w / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_overheads_match() {
        let m = AreaPowerModel::paper_default();
        let (area, power) = m.overheads();
        assert!(
            (0.08..0.14).contains(&area),
            "area overhead {area} (paper: 0.11)"
        );
        assert!(
            (0.30..0.42).contains(&power),
            "power overhead {power} (paper: 0.36)"
        );
    }

    #[test]
    fn filtering_and_reconfig_are_small() {
        // Paper: top-k + reconfigurable array are <1% area each.
        let m = AreaPowerModel::paper_default();
        for (name, share) in m.area_breakdown() {
            if name.contains("top-k") || name.contains("interconnect") {
                assert!(share < 0.02, "{name} share {share}");
            }
        }
    }

    #[test]
    fn breakdowns_sum_to_one() {
        let m = AreaPowerModel::paper_default();
        let area: f64 = m.area_breakdown().iter().map(|(_, s)| s).sum();
        let power: f64 = m.power_breakdown().iter().map(|(_, s)| s).sum();
        assert!((area - 1.0).abs() < 1e-9);
        assert!((power - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rpaccel_is_strictly_bigger() {
        let m = AreaPowerModel::paper_default();
        let (ba, bp) = m.baseline_totals();
        let (ra, rp) = m.rpaccel_totals();
        assert!(ra > ba && rp > bp);
    }

    #[test]
    fn power_budget_is_datacenter_inference_class() {
        // Table 3 pairs RPAccel with a ~40 W TPU-class budget; the model
        // should land in tens of watts.
        let (_, power) = AreaPowerModel::paper_default().rpaccel_totals();
        assert!((10.0..80.0).contains(&power), "power {power} W");
    }
}
