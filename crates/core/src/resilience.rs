//! Resilience sweep vocabulary: grid per-query timeout / retry / hedge
//! configurations over one serving spec under an injected fault plan.
//!
//! The brown-out sweep ([`AdmissionSweep`](crate::AdmissionSweep))
//! grids *admission-time* degradation; this module grids the
//! *query-lifetime* resilience knobs the RecPipe robustness story needs
//! on gray-failing fleets: how long to wait before declaring an attempt
//! stuck ([`ResilienceConfig::timeout_s`]), what a fired timeout does
//! next ([`RetryPolicy`]), and whether to hedge slow attempts onto a
//! second replica ([`HedgePolicy`]). Faults are injected with a seeded
//! [`FaultPlan`] so every design point faces the same limping or dying
//! replicas, and outcomes carry the client-side telemetry
//! ([`ResilienceStats`]) needed to rank tail latency against wasted
//! work.

use recpipe_data::ArrivalProcess;
use recpipe_qsim::{
    FaultPlan, HedgeDelay, HedgePolicy, LifecycleConfig, ResilienceConfig, ResilienceStats,
    RetryPolicy, Router, Scenario, SchedulingPolicy, SimResult,
};
use serde::{Deserialize, Serialize};

use crate::{Engine, EngineError};

/// One design point of a resilience sweep: the configuration's knobs
/// and how the run fared under them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceOutcome {
    /// Human-readable description of the swept knobs.
    pub config: String,
    /// Achieved completion rate in queries per second.
    pub qps: f64,
    /// p99 end-to-end latency in seconds.
    pub p99_s: f64,
    /// Queries that completed.
    pub completed: usize,
    /// Queries resolved as timed-out-final.
    pub timed_out: usize,
    /// Fraction of offered queries lost to final timeouts.
    pub timeout_rate: f64,
    /// Whether the run exceeded sustainable capacity.
    pub saturated: bool,
    /// Client-side resilience telemetry for the run.
    pub stats: ResilienceStats,
}

/// A grid of [`ResilienceConfig`]s swept over one engine — the
/// robustness analogue of the brown-out sweep's admission grid.
/// Configurations are enumerated deterministically: for each timeout,
/// the bare timeout first, then each retry policy, then each (retry,
/// hedge) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceSweep {
    /// Per-attempt timeouts to sweep, in seconds.
    pub timeouts_s: Vec<f64>,
    /// Retry policies to sweep on top of each timeout.
    pub retries: Vec<RetryPolicy>,
    /// Hedge policies to sweep on top of each (timeout, retry) pair.
    pub hedges: Vec<HedgePolicy>,
    /// Fault injection shared by every design point; `None` sweeps a
    /// healthy fleet.
    pub faults: Option<FaultPlan>,
    /// Which resource group the fault plan expands over.
    pub fault_group: usize,
}

impl ResilienceSweep {
    /// A small default grid: two timeouts, a budgeted 3-attempt retry
    /// policy, and a p95-derived hedge, with no fault injection.
    pub fn quick() -> Self {
        Self {
            timeouts_s: vec![0.050, 0.200],
            retries: vec![RetryPolicy::new(3, 0.005, 2.0)
                .with_budget(recpipe_qsim::RetryBudget::new(10.0, 0.1))],
            hedges: vec![HedgePolicy::at_quantile(0.95)],
            faults: None,
            fault_group: 0,
        }
    }

    /// Injects a seeded fault plan shared by every design point.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The grid's configurations, in enumeration order.
    pub fn configs(&self) -> Vec<ResilienceConfig> {
        let mut out = Vec::new();
        for &t in &self.timeouts_s {
            out.push(ResilienceConfig::new().with_timeout(t));
            for retry in &self.retries {
                out.push(
                    ResilienceConfig::new()
                        .with_timeout(t)
                        .with_retry(retry.clone()),
                );
                for hedge in &self.hedges {
                    out.push(
                        ResilienceConfig::new()
                            .with_timeout(t)
                            .with_retry(retry.clone())
                            .with_hedge(*hedge),
                    );
                }
            }
        }
        out
    }

    /// Runs every configuration of the grid over `engine`'s spec under
    /// the same arrivals, scheduling, routing, lifecycle configuration,
    /// and injected faults, and returns one [`ResilienceOutcome`] per
    /// configuration in enumeration order.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Sim`] when a run hits an unrecoverable
    /// availability hole.
    pub fn run(
        &self,
        engine: &Engine,
        arrivals: &dyn ArrivalProcess,
        policy: &dyn SchedulingPolicy,
        router: &dyn Router,
        queries: usize,
        cfg: &LifecycleConfig,
    ) -> Result<Vec<ResilienceOutcome>, EngineError> {
        let spec = match &self.faults {
            Some(plan) if !plan.is_empty() => {
                let replicas = engine.spec().resources()[self.fault_group].replicas();
                engine
                    .spec()
                    .clone()
                    .with_group_lifecycle(self.fault_group, plan.expand(replicas))
            }
            _ => engine.spec().clone(),
        };
        let mut out = Vec::new();
        for resilience in self.configs() {
            let mut sim = Scenario::new(&spec, arrivals, queries, engine.seed())
                .policy(policy)
                .router(router)
                .lifecycle(cfg)
                .resilience(&resilience)
                .run()?;
            out.push(summarize(describe(&resilience), &mut sim, queries));
        }
        Ok(out)
    }
}

/// Collapses one resilient run into its sweep outcome.
fn summarize(config: String, sim: &mut SimResult, queries: usize) -> ResilienceOutcome {
    let stats = sim.resilience.clone().expect("resilient runs report stats");
    ResilienceOutcome {
        config,
        qps: sim.qps,
        p99_s: sim.p99_seconds(),
        completed: sim.completed,
        timed_out: stats.timed_out,
        timeout_rate: stats.timed_out as f64 / queries.max(1) as f64,
        saturated: sim.saturated,
        stats,
    }
}

/// Renders a configuration's knobs as a stable, human-readable label
/// (the sweep analogue of an admission policy's self-reported name).
fn describe(cfg: &ResilienceConfig) -> String {
    let mut parts = Vec::new();
    if let Some(t) = cfg.timeout_s {
        parts.push(format!("timeout={:.0}ms", t * 1e3));
    }
    if cfg.retry.max_attempts > 1 {
        let mut retry = format!(
            "retries={}(backoff {:.0}ms x{:.1})",
            cfg.retry.max_attempts - 1,
            cfg.retry.backoff_base_s * 1e3,
            cfg.retry.backoff_factor
        );
        if let Some(b) = cfg.retry.budget {
            retry.push_str(&format!(
                ",budget={:.0}+{:.2}",
                b.capacity, b.refill_per_success
            ));
        }
        parts.push(retry);
    }
    if let Some(h) = cfg.hedge {
        parts.push(match h.delay {
            HedgeDelay::Fixed(d) => format!("hedge@{:.0}ms", d * 1e3),
            HedgeDelay::Quantile(q) => format!("hedge@p{:.0}", q * 100.0),
        });
    }
    if parts.is_empty() {
        "inert".to_string()
    } else {
        parts.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineConfig, Placement, StageConfig};
    use recpipe_data::PoissonArrivals;
    use recpipe_models::ModelKind;
    use recpipe_qsim::{Fifo, RoundRobin};

    fn quick_engine() -> Engine {
        let pipeline = PipelineConfig::builder()
            .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
            .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
            .build()
            .unwrap();
        Engine::commodity(pipeline)
            .placement(Placement::cpu_only(2))
            .quality_queries(50)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_enumerates_timeout_retry_hedge_in_order() {
        let sweep = ResilienceSweep::quick();
        let configs = sweep.configs();
        // Two timeouts x (bare + 1 retry x (bare + 1 hedge)) = 6.
        assert_eq!(configs.len(), 6);
        assert!(configs[0].retry.max_attempts == 1 && configs[0].hedge.is_none());
        assert!(configs[1].retry.max_attempts > 1 && configs[1].hedge.is_none());
        assert!(configs[2].hedge.is_some());
        assert!(!configs.iter().any(ResilienceConfig::is_inert));
    }

    #[test]
    fn sweep_runs_every_design_point_under_injected_faults() {
        let engine = quick_engine();
        let sweep = ResilienceSweep {
            timeouts_s: vec![0.100],
            retries: vec![RetryPolicy::new(2, 0.002, 2.0)],
            hedges: vec![HedgePolicy::after(0.020)],
            faults: None,
            fault_group: 0,
        }
        .with_faults(FaultPlan::new(7).degrade_burst(0.05, 1, 0.5));
        let arrivals = PoissonArrivals::new(200.0);
        let outcomes = sweep
            .run(
                &engine,
                &arrivals,
                &Fifo,
                &RoundRobin,
                500,
                &LifecycleConfig::new(),
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(!o.config.is_empty());
            assert!(o.completed + o.timed_out <= 500);
            assert!(o.timeout_rate >= 0.0 && o.timeout_rate <= 1.0);
        }
        // Labels are distinct across the grid.
        assert_ne!(outcomes[0].config, outcomes[1].config);
        assert_ne!(outcomes[1].config, outcomes[2].config);
        // The same sweep replays deterministically.
        let again = sweep
            .run(
                &engine,
                &arrivals,
                &Fifo,
                &RoundRobin,
                500,
                &LifecycleConfig::new(),
            )
            .unwrap();
        assert_eq!(outcomes, again);
    }
}
