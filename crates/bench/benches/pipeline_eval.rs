//! Criterion bench: end-to-end pipeline evaluation — the Monte-Carlo
//! quality evaluator (one pipeline, and the 14-pipeline quick sweep grid
//! sharing its pools) and the accelerator latency model, as used by the
//! scheduler's design-space exploration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recpipe_accel::{Partition, RpAccel, RpAccelConfig};
use recpipe_core::{PipelineConfig, QualityEvaluator, Scheduler, SchedulerSettings, StageConfig};
use recpipe_models::ModelKind;

fn two_stage() -> PipelineConfig {
    PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
        .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
        .build()
        .unwrap()
}

fn bench_pipeline_eval(c: &mut Criterion) {
    let pipeline = two_stage();

    c.bench_function("quality_eval_50_queries", |b| {
        let eval = QualityEvaluator::criteo_like(64).queries(50);
        b.iter(|| black_box(eval.evaluate(black_box(&pipeline))))
    });

    c.bench_function("quality_eval_all_quick_grid", |b| {
        let grid = Scheduler::new(SchedulerSettings::quick()).enumerate_pipelines(3);
        let eval = QualityEvaluator::criteo_like(64).queries(50);
        b.iter(|| black_box(eval.evaluate_all(black_box(&grid))))
    });

    c.bench_function("rpaccel_query_latency", |b| {
        let accel = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(8, 8)));
        let stages = pipeline.stage_works();
        b.iter(|| black_box(accel.query_latency(black_box(&stages), 1)))
    });
}

criterion_group!(benches, bench_pipeline_eval);
criterion_main!(benches);
