use recpipe_data::Zipf;
use recpipe_hwsim::{amat, MemoryModel, StaticCacheModel};

/// RPAccel's on-chip embedding memory (paper Takeaway 7, Figure 10(c)).
///
/// The 16 MB embedding SRAM (Table 3) is divided into:
///
/// * a **look-ahead cache** (4 MB, conservatively provisioned) that holds
///   prefetched backend vectors for in-flight queries — filled while the
///   frontend processes earlier sub-batches, so covered backend lookups
///   cost SRAM time instead of DRAM time;
/// * a **static cache** (the remaining 12 MB) pinned with the hottest
///   vectors, split between frontend and backend tables by
///   `frontend_fraction` — the asymmetric-provisioning axis of
///   Figure 10(c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmbeddingCacheConfig {
    /// Total embedding SRAM in bytes (Table 3: 16 MB).
    pub total_bytes: u64,
    /// Bytes reserved for the look-ahead (prefetch) cache.
    pub lookahead_bytes: u64,
    /// Fraction of the static cache devoted to frontend tables.
    pub frontend_fraction: f64,
    /// Fraction of backend misses the look-ahead prefetch covers (hidden
    /// behind frontend compute by the sub-batch pipeline).
    pub prefetch_coverage: f64,
}

impl EmbeddingCacheConfig {
    /// The paper's provisioning: 16 MB total, 4 MB look-ahead, balanced
    /// static split (equal capacity for a 1/8 filtering ratio), 50%
    /// prefetch coverage.
    pub fn paper_default() -> Self {
        Self {
            total_bytes: 16 * 1024 * 1024,
            lookahead_bytes: 4 * 1024 * 1024,
            frontend_fraction: 0.5,
            prefetch_coverage: 0.5,
        }
    }

    /// Static-cache capacity (total minus look-ahead).
    pub fn static_bytes(&self) -> u64 {
        self.total_bytes.saturating_sub(self.lookahead_bytes)
    }
}

/// Analytic hit-rate and AMAT model of the dual embedding cache for a
/// two-stage pipeline.
///
/// # Examples
///
/// ```
/// use recpipe_accel::{EmbeddingCache, EmbeddingCacheConfig};
/// use recpipe_data::Zipf;
///
/// let cache = EmbeddingCache::new(
///     EmbeddingCacheConfig::paper_default(),
///     Zipf::new(2_600_000, 0.9),
///     16,  // frontend row bytes (RMsmall dim 4)
///     128, // backend row bytes (RMlarge dim 32)
///     26,  // tables per stage
/// );
/// let amat = cache.weighted_amat(4096, 512);
/// assert!(amat > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmbeddingCache {
    config: EmbeddingCacheConfig,
    popularity: Zipf,
    frontend_row_bytes: u64,
    backend_row_bytes: u64,
    tables: u64,
    sram: MemoryModel,
    dram: MemoryModel,
}

impl EmbeddingCache {
    /// Builds the cache model for a workload with the given popularity
    /// skew and per-stage row sizes.
    ///
    /// # Panics
    ///
    /// Panics if row sizes or table count are zero, or
    /// `frontend_fraction` is outside `[0, 1]`.
    pub fn new(
        config: EmbeddingCacheConfig,
        popularity: Zipf,
        frontend_row_bytes: u64,
        backend_row_bytes: u64,
        tables: u64,
    ) -> Self {
        assert!(
            frontend_row_bytes > 0 && backend_row_bytes > 0 && tables > 0,
            "degenerate cache geometry"
        );
        assert!(
            (0.0..=1.0).contains(&config.frontend_fraction),
            "frontend fraction must be in [0, 1]"
        );
        Self {
            config,
            popularity,
            frontend_row_bytes,
            backend_row_bytes,
            tables,
            sram: MemoryModel::accel_sram(),
            dram: MemoryModel::accel_dram(),
        }
    }

    /// The provisioning configuration.
    pub fn config(&self) -> EmbeddingCacheConfig {
        self.config
    }

    /// Static-cache hit rate for frontend lookups.
    pub fn frontend_hit_rate(&self) -> f64 {
        let bytes = (self.config.static_bytes() as f64 * self.config.frontend_fraction) as u64;
        self.static_hit_rate(bytes, self.frontend_row_bytes)
    }

    /// Static-cache hit rate for backend lookups (before prefetching).
    pub fn backend_static_hit_rate(&self) -> f64 {
        let bytes =
            (self.config.static_bytes() as f64 * (1.0 - self.config.frontend_fraction)) as u64;
        self.static_hit_rate(bytes, self.backend_row_bytes)
    }

    /// Effective backend hit rate including look-ahead prefetching:
    /// covered misses are served at SRAM speed once the pipeline hides
    /// their DRAM fetch.
    pub fn backend_hit_rate(&self) -> f64 {
        let static_hr = self.backend_static_hit_rate();
        static_hr + (1.0 - static_hr) * self.config.prefetch_coverage.clamp(0.0, 1.0)
    }

    fn static_hit_rate(&self, capacity_bytes: u64, row_bytes: u64) -> f64 {
        // Capacity is shared equally by the stage's tables.
        let per_table = capacity_bytes / self.tables.max(1);
        StaticCacheModel::with_capacity_bytes(self.popularity, per_table, row_bytes).hit_rate()
    }

    /// Cost of one DRAM miss fetching a `row_bytes` vector: random
    /// gathers pay the access latency *per cache line* (a wide RMlarge
    /// vector spans two 64-byte lines and cannot amortize them).
    fn dram_miss_time(&self, row_bytes: u64) -> f64 {
        let lines = row_bytes.max(1).div_ceil(64);
        self.dram.latency() * lines as f64 + row_bytes as f64 / self.dram.bandwidth()
    }

    /// AMAT of one frontend lookup in seconds (static cache only — the
    /// frontend has no look-ahead tier).
    pub fn frontend_amat(&self) -> f64 {
        amat(
            self.frontend_hit_rate(),
            self.sram.access_time(self.frontend_row_bytes),
            self.dram_miss_time(self.frontend_row_bytes.max(64)),
        )
    }

    /// AMAT of one backend lookup under the *static cache alone* — the
    /// Figure 10(c) provisioning axis.
    pub fn backend_static_amat(&self) -> f64 {
        amat(
            self.backend_static_hit_rate(),
            self.sram.access_time(self.backend_row_bytes),
            self.dram_miss_time(self.backend_row_bytes.max(64)),
        )
    }

    /// Effective AMAT of one backend lookup including look-ahead
    /// prefetching (O.4).
    pub fn backend_amat(&self) -> f64 {
        amat(
            self.backend_hit_rate(),
            self.sram.access_time(self.backend_row_bytes),
            self.dram_miss_time(self.backend_row_bytes.max(64)),
        )
    }

    /// Lookup-weighted *static-cache* AMAT across both stages — the
    /// y-axis of Figure 10(c), which studies how to split the static
    /// capacity. `frontend_items` and `backend_items` set the lookup mix
    /// (their ratio is the filtering ratio).
    pub fn weighted_amat(&self, frontend_items: u64, backend_items: u64) -> f64 {
        let fl = (frontend_items * self.tables) as f64;
        let bl = (backend_items * self.tables) as f64;
        if fl + bl == 0.0 {
            return 0.0;
        }
        (fl * self.frontend_amat() + bl * self.backend_static_amat()) / (fl + bl)
    }

    /// Total embedding fetch time for a stage: misses stream from DRAM,
    /// hits from SRAM (used by the RPAccel latency model, where many
    /// outstanding lookups overlap and bandwidth dominates).
    pub fn stage_fetch_time(&self, items: u64, frontend: bool) -> f64 {
        let (row_bytes, hit_rate) = if frontend {
            (self.frontend_row_bytes, self.frontend_hit_rate())
        } else {
            (self.backend_row_bytes, self.backend_hit_rate())
        };
        let lookups = (items * self.tables) as f64;
        let line = row_bytes.max(64) as f64;
        let miss_bytes = lookups * (1.0 - hit_rate) * line;
        let hit_bytes = lookups * hit_rate * row_bytes as f64;
        // Random DRAM gathers reach a fraction of peak bandwidth.
        let gather_bw = self.dram.bandwidth() * 0.15;
        miss_bytes / gather_bw + hit_bytes / self.sram.bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with_fraction(frac: f64) -> EmbeddingCache {
        let config = EmbeddingCacheConfig {
            frontend_fraction: frac,
            ..EmbeddingCacheConfig::paper_default()
        };
        EmbeddingCache::new(config, Zipf::new(2_600_000, 0.9), 16, 128, 26)
    }

    #[test]
    fn hit_rates_are_probabilities() {
        let c = cache_with_fraction(0.5);
        for hr in [
            c.frontend_hit_rate(),
            c.backend_static_hit_rate(),
            c.backend_hit_rate(),
        ] {
            assert!((0.0..=1.0).contains(&hr), "hit rate {hr}");
        }
    }

    #[test]
    fn prefetching_raises_backend_hit_rate() {
        let c = cache_with_fraction(0.5);
        assert!(c.backend_hit_rate() > c.backend_static_hit_rate());
    }

    #[test]
    fn figure10c_amat_has_interior_optimum() {
        // Devoting everything to one stage starves the other: some
        // interior split beats both extremes. (Our synthetic Zipf
        // locality puts the optimum more frontend-heavy than the paper's
        // equal split.)
        let sweep: Vec<f64> = (1..=19)
            .map(|i| cache_with_fraction(i as f64 / 20.0).weighted_amat(4096, 512))
            .collect();
        let best_interior = sweep.iter().cloned().fold(f64::INFINITY, f64::min);
        let all_front = cache_with_fraction(0.995).weighted_amat(4096, 512);
        let all_back = cache_with_fraction(0.005).weighted_amat(4096, 512);
        assert!(
            all_front > best_interior,
            "front extreme {all_front} vs interior best {best_interior}"
        );
        assert!(
            all_back > best_interior,
            "back extreme {all_back} vs interior best {best_interior}"
        );
    }

    #[test]
    fn filtering_ratio_shifts_optimal_fraction() {
        // With a 1/16 filtering ratio the backend sees fewer lookups, so
        // the optimum moves toward the frontend (Figure 10(c), 12 MB
        // curves).
        let fracs: Vec<f64> = (1..20).map(|i| i as f64 / 20.0).collect();
        let best = |backend_items: u64| -> f64 {
            fracs
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let ca = cache_with_fraction(a).weighted_amat(4096, backend_items);
                    let cb = cache_with_fraction(b).weighted_amat(4096, backend_items);
                    ca.partial_cmp(&cb).unwrap()
                })
                .unwrap()
        };
        let best_8th = best(512);
        let best_16th = best(256);
        assert!(
            best_16th >= best_8th,
            "1/8 ratio best {best_8th}, 1/16 best {best_16th}"
        );
    }

    #[test]
    fn dual_cache_cuts_backend_amat_about_40_percent() {
        // O.4: the look-ahead prefetcher reduces the backend's average
        // embedding access time by ~40% versus the static cache alone.
        let c = cache_with_fraction(0.5);
        let reduction = 1.0 - c.backend_amat() / c.backend_static_amat();
        assert!(
            (0.25..0.60).contains(&reduction),
            "backend AMAT reduction {reduction}"
        );
    }

    #[test]
    fn larger_static_cache_lowers_amat() {
        let small = EmbeddingCache::new(
            EmbeddingCacheConfig {
                total_bytes: 8 * 1024 * 1024,
                ..EmbeddingCacheConfig::paper_default()
            },
            Zipf::new(2_600_000, 0.9),
            16,
            128,
            26,
        );
        let large = cache_with_fraction(0.5);
        assert!(large.weighted_amat(4096, 512) < small.weighted_amat(4096, 512));
    }

    #[test]
    fn fetch_time_scales_with_items() {
        let c = cache_with_fraction(0.5);
        let t1 = c.stage_fetch_time(1024, true);
        let t2 = c.stage_fetch_time(4096, true);
        assert!((t2 / t1 - 4.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_tables_panics() {
        EmbeddingCache::new(
            EmbeddingCacheConfig::paper_default(),
            Zipf::new(100, 0.9),
            16,
            128,
            0,
        );
    }
}
