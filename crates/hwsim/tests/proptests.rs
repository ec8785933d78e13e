//! Property-based tests for the hardware cost models.

use proptest::prelude::*;
use recpipe_data::DatasetKind;
use recpipe_hwsim::{amat, CpuModel, GpuModel, LruCache, PcieModel, StageWork};
use recpipe_models::{ModelConfig, ModelKind};

fn model_kind() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::RmSmall),
        Just(ModelKind::RmMed),
        Just(ModelKind::RmLarge),
    ]
}

fn work(kind: ModelKind, items: u64) -> StageWork {
    StageWork::new(
        ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
        items,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cpu_latency_positive_and_monotone_in_items(
        kind in model_kind(),
        items in 1u64..8_192,
        extra in 1u64..8_192,
    ) {
        let cpu = CpuModel::cascade_lake();
        let lo = cpu.stage_latency(&work(kind, items), 1);
        let hi = cpu.stage_latency(&work(kind, items + extra), 1);
        prop_assert!(lo > 0.0);
        prop_assert!(hi > lo);
    }

    #[test]
    fn cpu_parallel_speedup_is_bounded(k_log in 0u32..6) {
        let cpu = CpuModel::cascade_lake();
        let k = 1usize << k_log;
        let speedup = cpu.parallel_speedup(k);
        prop_assert!(speedup >= 1.0 - 1e-9);
        prop_assert!(speedup <= k as f64 + 1e-9);
    }

    #[test]
    fn gpu_latency_positive(kind in model_kind(), items in 1u64..8_192) {
        let gpu = GpuModel::t4();
        prop_assert!(gpu.stage_latency(&work(kind, items)) > 0.0);
    }

    #[test]
    fn pcie_transfer_monotone_in_bytes(bytes in 0u64..100_000_000, extra in 1u64..1_000_000) {
        let pcie = PcieModel::measured();
        prop_assert!(pcie.transfer_time(bytes + extra) > pcie.transfer_time(bytes));
    }

    #[test]
    fn amat_between_hit_and_miss_times(
        hit_rate in 0.0f64..1.0,
        hit_ns in 1.0f64..100.0,
        extra_ns in 1.0f64..10_000.0,
    ) {
        let miss_ns = hit_ns + extra_ns;
        let t = amat(hit_rate, hit_ns, miss_ns);
        prop_assert!(t >= hit_ns - 1e-9 && t <= miss_ns + 1e-9);
    }

    #[test]
    fn lru_hit_count_never_exceeds_accesses(
        ids in proptest::collection::vec(0u64..100, 1..500),
        capacity in 1usize..50,
    ) {
        let mut lru = LruCache::new(capacity);
        for &id in &ids {
            lru.access(id);
        }
        prop_assert_eq!(lru.hits() + lru.misses(), ids.len() as u64);
        prop_assert!(lru.len() <= capacity);
        prop_assert!((0.0..=1.0).contains(&lru.hit_rate()));
    }

    #[test]
    fn lru_repeated_single_id_always_hits_after_first(n in 2usize..100) {
        let mut lru = LruCache::new(4);
        prop_assert!(!lru.access(42));
        for _ in 1..n {
            prop_assert!(lru.access(42));
        }
    }
}
