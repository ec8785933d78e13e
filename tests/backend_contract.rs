//! The `Backend` contract every shipped hardware model keeps: a batch
//! of one query is priced exactly like one query's stage, bit for bit,
//! and each backend's per-query price stays where it was pinned.

use recpipe::accel::{BaselineAccel, Partition, RpAccel, RpAccelConfig};
use recpipe::core::Backend;
use recpipe::data::{DatasetKind, DatasetSpec};
use recpipe::hwsim::{CpuModel, GpuModel, StageWork};
use recpipe::models::{ModelConfig, ModelKind};

/// The four shipped backends, both accelerators sized for Criteo.
fn backends() -> Vec<Box<dyn Backend>> {
    let criteo = DatasetSpec::criteo_kaggle();
    vec![
        Box::new(CpuModel::cascade_lake()),
        Box::new(GpuModel::t4()),
        Box::new(RpAccel::new(
            RpAccelConfig::paper_default(Partition::symmetric(8, 2)).with_dataset(&criteo),
        )),
        Box::new(BaselineAccel::paper_default().with_dataset(&criteo)),
    ]
}

fn work(kind: ModelKind, items: u64) -> StageWork {
    StageWork::new(
        ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
        items,
    )
}

#[test]
fn batch_of_one_prices_exactly_one_query() {
    let mut checked = 0;
    for backend in backends() {
        for kind in [ModelKind::RmSmall, ModelKind::RmMed, ModelKind::RmLarge] {
            for items in [64, 256, 1000, 4096] {
                let w = work(kind, items);
                for parallelism in [1, 2, 4] {
                    assert_eq!(
                        backend.batch_latency(&w, parallelism, 1).to_bits(),
                        backend.stage_latency(&w, parallelism).to_bits(),
                        "{} {kind:?}@{items} x{parallelism}",
                        backend.name()
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 144);
}

#[test]
fn stage_latency_keeps_its_pinned_bits() {
    let w = work(ModelKind::RmMed, 1000);
    let priced: Vec<(String, u64)> = backends()
        .iter()
        .map(|b| (b.name(), b.stage_latency(&w, 2).to_bits()))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED
        .iter()
        .map(|&(name, bits)| (name.to_string(), bits))
        .collect();
    assert_eq!(priced, pinned);
}

/// `stage_latency(RMmed@1000, 2)` per backend, as `f64` bit patterns.
const PINNED: [(&str, u64); 4] = [
    ("cpu", 0x3f6c_7cfa_5617_0b92),
    ("gpu", 0x3f4d_c3ba_2e9f_fc49),
    ("rpaccel(8,2)", 0x3f2a_6b02_7fa2_d42b),
    ("baseline-accel", 0x3f31_8405_078f_e90c),
];
