//! Monte Carlo simulation engine and experiment harness for SOS
//! resilience.
//!
//! The analytical model (`sos-analysis`) predicts `P_S` from average-case
//! set sizes; this crate measures it empirically:
//!
//! 1. instantiate a concrete overlay ([`sos_overlay::Overlay`]),
//! 2. execute an attack on it ([`sos_attack`]),
//! 3. route messages from clients to the target through the damaged
//!    overlay ([`routing`]),
//! 4. repeat over many attack instances and seeds, aggregate with
//!    confidence intervals ([`engine`]).
//!
//! The [`engine::Simulation`] runner is deterministic for a fixed seed;
//! its [`run_traced`](engine::Simulation::run_traced) variant
//! additionally streams every instrumented decision point to a
//! [`sos_observe::Recorder`] and aggregates per-trial metrics. Every
//! parallel run executes through the worker pool's batch loop:
//! `run_parallel` and `run_parallel_traced` on workers spawned for the
//! call, everything else on a persistent process-wide pool. Multi-point
//! experiments (figure families, ablations, parameter sweeps) go through
//! the [`sweep`] executor — the persistent pool with interleaved
//! trial scheduling plus a content-addressed result cache
//! ([`run_sweep`], [`set_global_cache`]) — instead of one
//! `run_parallel` call per point; [`pool_map`] runs independent indexed
//! jobs (the report's DES and protocol sections) on that same pool. The
//! [`compare`] module pairs
//! simulated results with both analytical evaluators — the data behind
//! the `ablation-evaluator` experiment and the validation tables in
//! `EXPERIMENTS.md`. The [`repair`] module implements the paper's named
//! future work (dynamic repair during an on-going attack).
//!
//! Orthogonally to the attack, every hop can be subjected to *benign*
//! faults (loss, delay, crash, slow-down, misroute) via a deterministic
//! [`sos_faults::FaultPlan`]: pass a [`sos_faults::FaultConfig`] to
//! [`SimulationConfig::faults`](engine::SimulationConfig::faults) and a
//! [`sos_faults::RetryPolicy`] to control per-hop retries; routing then
//! degrades gracefully (successor-list walking, alternate next-layer
//! neighbors) and reports every incident through `sos-observe` events.
//!
//! # Example
//!
//! ```
//! use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
//! use sos_sim::engine::{Simulation, SimulationConfig};
//!
//! let scenario = Scenario::builder()
//!     .system(SystemParams::new(1_000, 60, 0.5)?)
//!     .layers(3)
//!     .mapping(MappingDegree::OneTo(2))
//!     .build()?;
//! let config = SimulationConfig::new(
//!     scenario,
//!     AttackConfig::OneBurst { budget: AttackBudget::new(0, 200) },
//! )
//! .trials(50)
//! .routes_per_trial(40)
//! .seed(7);
//! let result = Simulation::new(config).run();
//! // 20% of the overlay congested, one-to-two mapping: most routes hold.
//! assert!(result.success_rate() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod engine;
pub mod flow;
pub(crate) mod pool;
pub mod repair;
pub mod route_batch;
pub mod routing;
pub mod sweep;
pub mod timing;

pub use compare::{compare_models, ComparisonRow};
pub use engine::{
    num_threads, route_lane_seed, stream, trial_stream_seed, Simulation, SimulationConfig,
    SimulationResult, TransportKind,
};
pub use flow::{FlowModel, FlowResult, FlowSimulation};
pub use pool::pool_map;
pub use repair::{RepairConfig, RepairSimulation, RepairTimeline};
pub use route_batch::RouteBatchScratch;
pub use routing::{
    route, RouteCtx, RouteIncident, RouteIncidentKind, RouteResult, RouteScratch, RoutingPolicy,
};
pub use sweep::{
    config_fingerprint, persist_global_cache, run_sweep, set_global_cache, sweep_stats,
    CacheLoadReport, SweepExecutor, SweepStats,
};
pub use timing::{measure_latency, LatencyDistribution};
