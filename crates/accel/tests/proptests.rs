//! Property-based tests for the accelerator simulator's invariants.

use proptest::prelude::*;
use recpipe_accel::{Partition, SubBatchSchedule, SystolicArray, TopKFilter};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn systolic_utilization_in_unit_interval(
        in_dim in 1usize..600,
        out_dim in 1usize..600,
        batch in 1u64..10_000,
    ) {
        let array = SystolicArray::paper_default();
        let run = array.layer_run(in_dim, out_dim, batch);
        prop_assert!(run.utilization > 0.0 && run.utilization <= 1.0);
        prop_assert!(run.cycles > 0);
        prop_assert_eq!(run.macs, in_dim as u64 * out_dim as u64 * batch);
    }

    #[test]
    fn systolic_cycles_monotone_in_batch(
        in_dim in 1usize..300,
        out_dim in 1usize..300,
        batch in 1u64..5_000,
        extra in 1u64..5_000,
    ) {
        let array = SystolicArray::new(64, 64, 250_000_000);
        let small = array.layer_run(in_dim, out_dim, batch).cycles;
        let large = array.layer_run(in_dim, out_dim, batch + extra).cycles;
        prop_assert!(large > small);
    }

    #[test]
    fn partition_conserves_fabric(f_log in 0u32..6, b_log in 0u32..6) {
        let p = Partition::symmetric(1 << f_log, 1 << b_log);
        prop_assert_eq!(p.total_macs(), Partition::TOTAL_MACS);
        prop_assert_eq!(p.query_lanes(), (1usize << f_log).min(1 << b_log));
    }

    #[test]
    fn topk_selects_at_least_k_when_possible(
        scores in proptest::collection::vec(0.0f64..1.0, 64..1024),
        k in 1usize..64,
    ) {
        let filter = TopKFilter::new(16, k, 0.5);
        let data: Vec<(u64, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, s))
            .collect();
        let out = filter.filter(&data);
        prop_assert!(out.selected.len() >= k.min(data.len()));
        // Selected ids are unique and valid.
        let unique: std::collections::HashSet<u64> = out.selected.iter().copied().collect();
        prop_assert_eq!(unique.len(), out.selected.len());
        for &id in &out.selected {
            prop_assert!((id as usize) < data.len());
        }
    }

    #[test]
    fn topk_never_drops_items_above_selected_bins(
        scores in proptest::collection::vec(0.0f64..1.0, 128..512),
    ) {
        // Everything in a strictly higher bin than the lowest selected
        // bin must be selected.
        let filter = TopKFilter::new(16, 32, 0.0);
        let data: Vec<(u64, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u64, s))
            .collect();
        let out = filter.filter(&data);
        let selected: std::collections::HashSet<u64> = out.selected.iter().copied().collect();
        let min_selected_score = out
            .selected
            .iter()
            .map(|&id| data[id as usize].1)
            .fold(f64::INFINITY, f64::min);
        let min_bin = (min_selected_score * 16.0).floor();
        for &(id, s) in &data {
            let bin = (s * 16.0).floor().min(15.0);
            if bin > min_bin {
                prop_assert!(selected.contains(&id), "dropped {id} with score {s}");
            }
        }
    }

    #[test]
    fn makespan_is_bounded_by_serial_and_bottleneck(
        f_us in 10.0f64..2000.0,
        b_us in 10.0f64..2000.0,
        n in 1usize..16,
    ) {
        let schedule = SubBatchSchedule::new(n, 0.0);
        let makespan = schedule.makespan(&[f_us * 1e-6, b_us * 1e-6]);
        let serial = (f_us + b_us) * 1e-6;
        let bottleneck = f_us.max(b_us) * 1e-6;
        prop_assert!(makespan <= serial + 1e-12, "{makespan} > serial {serial}");
        prop_assert!(makespan >= bottleneck - 1e-12, "{makespan} < bottleneck {bottleneck}");
    }

    #[test]
    fn deeper_pipelining_without_overhead_never_hurts(
        f_us in 10.0f64..1000.0,
        b_us in 10.0f64..1000.0,
    ) {
        let shallow = SubBatchSchedule::new(2, 0.0).makespan(&[f_us * 1e-6, b_us * 1e-6]);
        let deep = SubBatchSchedule::new(8, 0.0).makespan(&[f_us * 1e-6, b_us * 1e-6]);
        prop_assert!(deep <= shallow + 1e-12);
    }
}
