//! The `Backend` contract every shipped hardware model keeps: each
//! backend's price for every batch size stays where it was pinned, the
//! accelerators' whole-pipeline queueing decomposition keeps its bits,
//! and a placement's fleets change it only where a site runs.

use std::collections::HashSet;
use std::sync::Arc;

use recpipe::accel::{BaselineAccel, Partition, RpAccel, RpAccelConfig};
use recpipe::core::{
    build_serving_spec, Backend, FleetSpec, PipelineConfig, Placement, StageConfig, StageSite,
};
use recpipe::data::{DatasetKind, DatasetSpec};
use recpipe::hwsim::{CpuModel, GpuModel, PcieModel, StageWork};
use recpipe::models::{ModelConfig, ModelKind};

/// The four shipped backends, both accelerators sized for Criteo.
fn backends() -> [Arc<dyn Backend>; 4] {
    let criteo = DatasetSpec::criteo_kaggle();
    [
        Arc::new(CpuModel::cascade_lake()),
        Arc::new(GpuModel::t4()),
        Arc::new(RpAccel::new(
            RpAccelConfig::paper_default(Partition::symmetric(8, 2)).with_dataset(&criteo),
        )),
        Arc::new(BaselineAccel::paper_default().with_dataset(&criteo)),
    ]
}

#[test]
fn stage_latency_keeps_its_pinned_bits() {
    let model = ModelConfig::for_kind(ModelKind::RmMed, DatasetKind::CriteoKaggle);
    let w = StageWork::new(model, 1000);
    let priced: Vec<String> = backends()
        .iter()
        .map(|b| {
            let bits = (1..=b.max_batch())
                .map(|n| format!("{:#x}", b.batch_latency(&w, 2, n).to_bits()))
                .collect::<Vec<_>>();
            format!("{}: {}", b.name(), bits.join(" "))
        })
        .collect();
    assert_eq!(priced, PINNED);
}

/// The `RMmed@1000` stage on 2 units per backend at every batch size
/// from 1 to the backend's `max_batch()`, as `f64` bit patterns.
const PINNED: [&str; 4] = [
    "cpu: 0x3f6c7cfa56170b92 0x3f769f84f90ac67e 0x3f7ddfd625aba162 0x3f823e2eabebeea2 0x3f868171c0d7077b 0x3f8ae246a3e7e70e 0x3f8f431b86f8c6a3 0x3f91d1f83504d31d",
    "gpu: 0x3f4dc3ba2e9ffc49 0x3f5144aa0f60c64c 0x3f546e9649dd24fc 0x3f57a35e844a709e 0x3f5ad826beb7bc3e 0x3f5e0ceef92507dd 0x3f60a0db99c929bf 0x3f623b3fb6ffcf8f 0x3f63d5a3d436755e 0x3f657007f16d1b2f 0x3f670a6c0ea3c0ff 0x3f68a4d02bda66cf 0x3f6a3f3449110c9f 0x3f6bd9986647b26f 0x3f6d73fc837e583f 0x3f6f0e60a0b4fe0f",
    "rpaccel(8,2): 0x3f2a6b027fa2d42b 0x3f399c9538916181 0x3f4301d498a8ac77 0x3f493555fe02b418",
    "baseline-accel: 0x3f318405078fe90c 0x3f4060a85884c58f 0x3f47ff45963ba284 0x3f4f9deb6af8738d",
];

/// The queueing spec `build_serving_spec` emits for each accelerator's
/// whole-pipeline decomposition, one line per case: each stage's
/// resource, units, base service time and batch model (`f64`s as bit
/// patterns), then each resource group's capacity and replica speeds.
fn accel_spec_lines() -> Vec<String> {
    let funnel = PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
        .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
        .build()
        .unwrap();
    let single = PipelineConfig::single_stage(ModelKind::RmLarge, 4096, 64).unwrap();
    let [_, _, rpaccel, baseline] = backends();
    let mut lines = Vec::new();
    for (backend, pipeline) in [(rpaccel, funnel), (baseline, single)] {
        for batching in [false, true] {
            let mixed = FleetSpec::mixed(&[(1, 1.0), (2, 0.6)]);
            for (fleet_name, fleet) in [("uniform", FleetSpec::uniform(2)), ("mixed", mixed)] {
                let placement =
                    Placement::uniform(0, pipeline.num_stages(), 1).with_fleet(0, fleet);
                let pool = std::slice::from_ref(&backend);
                let pcie = PcieModel::measured();
                let spec =
                    build_serving_spec(pool, &pcie, &pipeline, &placement, batching).unwrap();
                let stages = spec.stages().iter().map(|s| {
                    let (base, marginal) = (s.service_time.to_bits(), s.batch.marginal().to_bits());
                    let (name, batch) = (&s.name, s.batch.max_batch());
                    format!(
                        "{name} on {} x{} {base:#x} batch {batch} {marginal:#x}",
                        s.resource, s.units
                    )
                });
                let groups = spec.resources().iter().map(|g| {
                    let speeds: Vec<f64> = g.profiles().iter().map(|p| p.speed()).collect();
                    format!("{} x{} {speeds:?}", g.name, g.capacity())
                });
                let parts: Vec<String> = stages.chain(groups).collect();
                let name = backend.name();
                lines.push(format!(
                    "{name} batching={batching} {fleet_name}: {}",
                    parts.join("; ")
                ));
            }
        }
    }
    lines
}

#[test]
fn accelerator_specs_keep_their_pinned_bits() {
    assert_eq!(accel_spec_lines(), ACCEL_SPECS);
}

/// `accel_spec_lines()` for RPAccel(8,2) on RMsmall@4096→256→RMlarge
/// and the baseline accelerator on RMlarge@4096, with batching off and
/// on, on a uniform and a mixed fleet.
const ACCEL_SPECS: [&str; 8] = [
    "rpaccel(8,2) batching=false uniform: mem on 0 x1 0x3f3af22cb07275e5 batch 1 0x3ff0000000000000; compute on 1 x1 0x3f309ae1d7b4b4ab batch 1 0x3ff0000000000000; accel-mem x1 [1.0, 1.0]; accel-lanes x2 [1.0, 1.0]",
    "rpaccel(8,2) batching=false mixed: mem on 0 x1 0x3f3af22cb07275e5 batch 1 0x3ff0000000000000; compute on 1 x1 0x3f309ae1d7b4b4ab batch 1 0x3ff0000000000000; accel-mem x1 [1.0, 0.6, 0.6]; accel-lanes x2 [1.0, 0.6, 0.6]",
    "rpaccel(8,2) batching=true uniform: mem on 0 x1 0x3f3af22cb07275e5 batch 4 0x3fef1c0ffb3b5f26; compute on 1 x1 0x3f309ae1d7b4b4ab batch 4 0x3fe84867e19a5328; accel-mem x1 [1.0, 1.0]; accel-lanes x2 [1.0, 1.0]",
    "rpaccel(8,2) batching=true mixed: mem on 0 x1 0x3f3af22cb07275e5 batch 4 0x3fef1c0ffb3b5f26; compute on 1 x1 0x3f309ae1d7b4b4ab batch 4 0x3fe84867e19a5328; accel-mem x1 [1.0, 0.6, 0.6]; accel-lanes x2 [1.0, 0.6, 0.6]",
    "baseline-accel batching=false uniform: mem on 0 x1 0x3f607135cc721a1d batch 1 0x3ff0000000000000; compute on 1 x1 0x3f40d8e86125061c batch 1 0x3ff0000000000000; accel-mem x1 [1.0, 1.0]; accel-lanes x1 [1.0, 1.0]",
    "baseline-accel batching=false mixed: mem on 0 x1 0x3f607135cc721a1d batch 1 0x3ff0000000000000; compute on 1 x1 0x3f40d8e86125061c batch 1 0x3ff0000000000000; accel-mem x1 [1.0, 0.6, 0.6]; accel-lanes x1 [1.0, 0.6, 0.6]",
    "baseline-accel batching=true uniform: mem on 0 x1 0x3f607135cc721a1d batch 4 0x3ff0000000000000; compute on 1 x1 0x3f40d8e86125061c batch 4 0x3fec81f14b1e43fe; accel-mem x1 [1.0, 1.0]; accel-lanes x1 [1.0, 1.0]",
    "baseline-accel batching=true mixed: mem on 0 x1 0x3f607135cc721a1d batch 4 0x3ff0000000000000; compute on 1 x1 0x3f40d8e86125061c batch 4 0x3fec81f14b1e43fe; accel-mem x1 [1.0, 0.6, 0.6]; accel-lanes x1 [1.0, 0.6, 0.6]",
];

#[test]
fn default_or_unused_fleets_leave_a_placement_unchanged() {
    let hetero = Placement::new(vec![StageSite::new(1, 1), StageSite::new(0, 4)])
        .with_fleet(1, FleetSpec::mixed(&[(1, 1.0), (1, 0.5)]));
    for p in [Placement::cpu_only(2), hetero] {
        let default = p.clone().with_fleet(0, FleetSpec::default());
        let unused = p.clone().with_fleet(7, FleetSpec::uniform(3));
        assert!(default == p && unused == p);
        // Equal and hashed alike: a sweep's dedup keeps one of the three.
        assert_eq!(HashSet::from([p, default, unused]).len(), 1);
    }
}
