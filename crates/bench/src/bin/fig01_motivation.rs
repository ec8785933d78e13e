//! Regenerates **Figure 1(c)**: at iso-quality, decomposing the
//! monolithic model into a two-stage pipeline reduces compute demand
//! ~7.5x and embedding memory accesses ~4.0x.

use recpipe_bench::{criteo_single_stage, criteo_two_stage};
use recpipe_core::{QualityEvaluator, Table};

fn main() {
    let single = criteo_single_stage(4096);
    // Iso-quality two-stage: RMsmall@4096 -> RMlarge@512.
    let multi = criteo_two_stage(512);

    let quality = QualityEvaluator::criteo_like(64).queries(500);
    let reports = quality.evaluate_all(&[single.clone(), multi.clone()]);
    let (q_single, q_multi) = (reports[0], reports[1]);

    let mut table = Table::new(vec!["design", "NDCG", "GFLOPs/query", "embedding MB/query"]);
    for (p, q) in [(&single, &q_single), (&multi, &q_multi)] {
        table.row(vec![
            p.describe(),
            format!("{:.2}", q.ndcg_percent()),
            format!("{:.3}", p.total_flops() as f64 / 1e9),
            format!("{:.2}", p.total_embedding_bytes() as f64 / 1e6),
        ]);
    }
    println!("Figure 1(c): multi-stage resource savings at iso-quality\n");
    println!("{table}");
    println!(
        "compute reduction: {:.1}x (paper: 7.5x)\nmemory reduction:  {:.1}x (paper: 4.0x)",
        single.total_flops() as f64 / multi.total_flops() as f64,
        single.total_embedding_bytes() as f64 / multi.total_embedding_bytes() as f64,
    );
    println!(
        "quality delta: {:+.2} NDCG points (iso-quality)",
        q_multi.ndcg_percent() - q_single.ndcg_percent()
    );
}
