//! Regenerates **Figure 3**: accuracy depends only on the model, while
//! *quality* depends on both the model and the number of items ranked.

use recpipe_core::{PipelineConfig, QualityEvaluator, Table};
use recpipe_models::ModelKind;

fn main() {
    let eval = QualityEvaluator::criteo_like(64).queries(500);

    println!("Figure 3 (left): accuracy depends only on model size\n");
    let mut acc = Table::new(vec!["model", "CTR error"]);
    for kind in ModelKind::ALL {
        acc.row(vec![
            kind.to_string(),
            format!("{:.2}%", eval.evaluate_accuracy(kind) * 100.0),
        ]);
    }
    println!("{acc}");

    println!("Figure 3 (center/right): quality vs items ranked x model\n");
    let mut table = Table::new(vec!["items ranked", "RMsmall", "RMmed", "RMlarge"]);
    let items_grid = [256u64, 512, 1024, 2048, 3200, 4096];
    let pipelines: Vec<PipelineConfig> = items_grid
        .iter()
        .flat_map(|&items| {
            ModelKind::ALL.map(|kind| PipelineConfig::single_stage(kind, items, 64).unwrap())
        })
        .collect();
    // One batch: every pipeline shares the Monte-Carlo pools and noise.
    let reports = eval.evaluate_all(&pipelines);
    for (items, row_reports) in items_grid.iter().zip(reports.chunks(ModelKind::ALL.len())) {
        let mut row = vec![items.to_string()];
        row.extend(
            row_reports
                .iter()
                .map(|r| format!("{:.2}", r.ndcg_percent())),
        );
        table.row(row);
    }
    println!("{table}");
    println!(
        "Paper anchors: RMsmall@4096 = 91.3; RMlarge@4096 = 92.25 (the\n\
         max-quality target); quality rises with items ranked for every model."
    );
}
