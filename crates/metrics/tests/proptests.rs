//! Property-based tests for metric invariants.

use proptest::prelude::*;
use recpipe_metrics::{
    auc, dcg, ideal_sorted, ideal_top_k, ndcg, ndcg_at_k, top_k_positions, top_k_set, Dominance,
    LatencyStats, ParetoFront,
};
use std::time::Duration;

proptest! {
    #[test]
    fn ndcg_is_bounded(gains in proptest::collection::vec(0.0f64..100.0, 1..64)) {
        let ideal = ideal_sorted(&gains);
        let q = ndcg(&gains, &ideal);
        prop_assert!((0.0..=1.0).contains(&q));
    }

    #[test]
    fn ndcg_of_ideal_is_one(gains in proptest::collection::vec(0.0f64..100.0, 1..64)) {
        let ideal = ideal_sorted(&gains);
        let q = ndcg(&ideal, &ideal);
        prop_assert!((q - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dcg_is_monotone_in_gains(
        gains in proptest::collection::vec(0.0f64..10.0, 1..32),
        bump in 0.0f64..5.0,
        idx in 0usize..32,
    ) {
        let idx = idx % gains.len();
        let mut bumped = gains.clone();
        bumped[idx] += bump;
        prop_assert!(dcg(&bumped) >= dcg(&gains) - 1e-12);
    }

    #[test]
    fn ndcg_at_k_truncation_consistency(
        gains in proptest::collection::vec(0.0f64..10.0, 8..40),
        k in 1usize..8,
    ) {
        // NDCG@k on full lists equals NDCG over explicitly truncated lists.
        let ideal = ideal_sorted(&gains);
        let direct = ndcg_at_k(&gains, &ideal, k);
        let truncated = ndcg(&gains[..k], &ideal[..k]);
        prop_assert!((direct - truncated).abs() < 1e-12);
    }

    #[test]
    fn ideal_top_k_gives_bit_identical_ndcg_at_k(
        // Levels below 4 are small integers, so pools repeat gains
        // (zero included); the rest are continuous.
        picks in proptest::collection::vec((0usize..8, 0.0f64..10.0), 0..80),
        ranked in proptest::collection::vec(0.0f64..10.0, 0..80),
    ) {
        let gains: Vec<f64> = picks
            .iter()
            .map(|&(level, g)| if level < 4 { level as f64 } else { g })
            .collect();
        let ideal = ideal_sorted(&gains);
        for k in 0..=gains.len() + 2 {
            let top = ideal_top_k(&gains, k);
            prop_assert_eq!(&top[..], &ideal[..k.min(ideal.len())]);
            prop_assert_eq!(
                ndcg_at_k(&ranked, &top, k).to_bits(),
                ndcg_at_k(&ranked, &ideal, k).to_bits()
            );
        }
    }

    #[test]
    fn auc_stays_in_unit_interval(
        scores in proptest::collection::vec(0.0f64..1.0, 2..64),
        labels in proptest::collection::vec(any::<bool>(), 2..64),
    ) {
        let n = scores.len().min(labels.len());
        let a = auc(&scores[..n], &labels[..n]);
        prop_assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn percentiles_never_decrease_with_rank(
        samples in proptest::collection::vec(1u64..1_000_000, 1..256),
        p_lo in 0.0f64..50.0,
        p_hi in 50.0f64..100.0,
    ) {
        let mut stats = LatencyStats::new();
        for &ns in &samples {
            stats.record(Duration::from_nanos(ns));
        }
        prop_assert!(stats.percentile(p_lo) <= stats.percentile(p_hi));
    }

    #[test]
    fn below_the_fold_threshold_percentiles_are_exact(
        samples in proptest::collection::vec(1u64..1_000_000_000, 1..512),
        p in 0.0f64..100.0,
    ) {
        // Small collectors never fold, and their percentiles equal the
        // nearest-rank value computed from the sorted sample directly —
        // the frozen pre-histogram behavior, bit for bit.
        let mut stats = LatencyStats::new();
        for &ns in &samples {
            stats.record(Duration::from_nanos(ns));
        }
        prop_assert!(!stats.is_folded());
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let exact = sorted[rank.clamp(1, sorted.len()) - 1];
        prop_assert_eq!(stats.percentile(p).as_nanos() as u64, exact);
    }

    #[test]
    fn pareto_front_is_subset_and_nonempty(
        objectives in proptest::collection::vec((0.0f64..10.0, 0.0f64..1.0), 1..40),
    ) {
        let n = objectives.len();
        let axes = [Dominance::Minimize, Dominance::Maximize];
        let front = ParetoFront::extract((0..n).collect(), &axes, |&i: &usize| {
            let (lat, q) = objectives[i];
            vec![lat, q]
        });
        prop_assert!(!front.is_empty());
        prop_assert!(front.len() <= n);
        // No point on the front dominates another point on the front.
        for &a in &front {
            for &b in &front {
                let strictly_better_everywhere = objectives[a].0 < objectives[b].0
                    && objectives[a].1 > objectives[b].1;
                prop_assert!(!(strictly_better_everywhere && a != b)
                    || front.len() == 1,
                    "front member {} dominated by {}", b, a);
            }
        }
    }
}

proptest! {
    // Each case checks every k of a list up to 1,080 items long.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn top_k_set_is_the_stable_sort_prefix_in_input_order(
        // Lists on both sides of the 1,024 items from which the sample
        // prefilter runs.
        n in prop_oneof![0usize..=48, 1000usize..=1080],
        extra in proptest::collection::vec(-4.0f64..4.0, 1..4),
        seed in 0u64..u64::MAX,
    ) {
        // A handful of distinct scores, signed zeros among them, so
        // nearly every cut falls inside a run of ties.
        let levels: Vec<f64> = [-0.0, 0.0].into_iter().chain(extra).collect();
        let mut z = seed;
        let scores: Vec<f64> = (0..n)
            .map(|_| {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                levels[(z >> 33) as usize % levels.len()]
            })
            .collect();
        let mut stable: Vec<usize> = (0..n).collect();
        stable.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        for k in 0..=n + 1 {
            let prefix = &stable[..k.min(n)];
            let mut in_order = prefix.to_vec();
            in_order.sort_unstable();
            prop_assert_eq!(top_k_set(&scores, k, |&s| s), in_order, "n {}, k {}", n, k);
            prop_assert_eq!(top_k_positions(&scores, k, |&s| s), prefix, "n {}, k {}", n, k);
        }
    }
}

proptest! {
    // Each case records >2^17 samples, so run fewer of them.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn folded_percentiles_stay_within_one_bin_width_of_exact(
        seed in 1u64..1_000_000,
        spread_shift in 12u32..40,
        extra in 0usize..4096,
    ) {
        // Past the fold threshold the collector answers from the
        // log-spaced histogram. Whatever the sample magnitude range
        // (here spanning ~4 ns to ~10^12 ns across cases), p50/p95/p99
        // land within one bin width of the true nearest-rank value, and
        // p100 never exceeds the true maximum.
        let n = LatencyStats::fold_threshold() + 1 + extra;
        let mut folded = LatencyStats::new();
        let mut exact: Vec<u64> = Vec::with_capacity(n);
        let mut z = seed;
        for _ in 0..n {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ns = 1 + ((z >> 16) & ((1u64 << spread_shift) - 1));
            folded.record(Duration::from_nanos(ns));
            exact.push(ns);
        }
        prop_assert!(folded.is_folded());
        exact.sort_unstable();
        for p in [50.0, 95.0, 99.0] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            let truth = exact[rank.clamp(1, n) - 1];
            let approx = folded.percentile(p).as_nanos() as u64;
            let tol = LatencyStats::bin_width_at(truth);
            prop_assert!(
                approx.abs_diff(truth) <= tol,
                "p{}: approx {} vs exact {} (tol {})", p, approx, truth, tol
            );
        }
        let true_max = *exact.last().unwrap();
        let p100 = folded.percentile(100.0).as_nanos() as u64;
        prop_assert!(p100 <= true_max);
        prop_assert!(true_max - p100 <= LatencyStats::bin_width_at(true_max));
    }
}
