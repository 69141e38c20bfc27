//! `reads-core` — the paper's contribution: the beam-loss de-blending
//! central node, end to end.
//!
//! Everything below composes the substrate crates into the system of Fig. 2
//! and the experiments of Sec. V:
//!
//! * [`trained`] — the "pre-trained Keras model" stage: trains the exact
//!   U-Net/MLP architectures on the synthetic de-blending workload and
//!   caches the result under `target/reads-artifacts/` so every test,
//!   example and bench shares one model per seed.
//! * [`mod@codesign`] — the ML/HLS co-design methodology (Sec. IV-D): profile →
//!   quantize → estimate → raise reuse factors on the heaviest layers until
//!   the design fits the device, trading latency for resources.
//! * [`verification`] — the six-stage verification flow of Sec. IV-C,
//!   including the bridge "simple adder" component test.
//! * [`system`] — the deployed node: Ethernet ingress (hub packets), HPS
//!   standardization, the SoC frame run, ACNET egress, and the 320 fps /
//!   3 ms real-time admission check.
//! * [`campaign`] — Monte-Carlo latency campaigns (Fig. 5c) and throughput.
//! * [`resilience`] — the handshake watchdog, recovery ladder and health
//!   tracking over the `reads-soc` fault-injection plane.
//! * [`engine`] — the sharded multi-hub inference engine: N worker threads,
//!   per-shard bounded queues with explicit backpressure, frame batching,
//!   in-place restart of wedged shards, and per-shard watchdog health over
//!   either the compiled native engine or replicated simulated control IPs.
//! * [`registry`] — the multi-tenant serving plane: digest-pinned firmware
//!   variants with a typed lifecycle FSM, resource-aware placement over the
//!   Arria 10 estimator, and zero-downtime shadow-scored hot-swap.
//! * [`baselines`] — platform baselines: host-measured CPU, the analytic
//!   GPU model, and the Table I related-work latency models.
//! * [`experiments`] — Table II and the Fig. 5a/5b bit-width sweeps.

#![warn(missing_docs)]

pub mod ablations;
pub mod adapt;
pub mod baselines;
pub mod campaign;
pub mod codesign;
pub mod console;
pub mod drift;
pub mod engine;
pub mod experiments;
pub mod qat;
pub mod registry;
pub mod resilience;
pub mod seu;
pub mod system;
pub mod throughput;
pub mod trained;
pub mod verification;

pub use adapt::{
    fold_restandardization, AdaptConfig, AdaptCounters, AdaptError, AdaptEvent, AdaptObserver,
    AdaptReport, AdaptState, AdaptSupervisor, FrameTap, Reservoir, ReservoirSample,
};
pub use campaign::{run_latency_campaign, LatencyCampaign};
pub use codesign::{codesign, CodesignResult};
pub use console::{
    AdaptConsoleLine, ConsoleSummary, GatewayHealth, NetHealth, NodeHealth, OperatorConsole,
    ShardHealth, TenantConsoleLine,
};
pub use engine::{
    DriftSummary, DropPolicy, EngineConfig, EngineController, FleetReport, FrameResult,
    NativeExecutor, ShardExecutor, ShardReport, ShardedEngine, SocExecutor, TenantShardReport,
};
pub use registry::{
    run_hot_swap, LifecycleState, ModelRegistry, PlacementError, PlacementMap, PlacementPlanner,
    RegistryError, ShadowGate, ShadowStats, ShadowVerdict, ShardBudget, SwapOutcome, SwapReport,
    TenantDemand, TenantId, DEFAULT_TENANT,
};
pub use resilience::{
    run_fault_campaign, FaultCampaignConfig, FaultCampaignRow, HealthCounters, HealthState,
    NetCounters, Watchdog, WatchdogPolicy,
};
pub use system::DeblendingSystem;
pub use trained::{TrainedBundle, TrainingTier};
pub use verification::{run_verification_flow, StageResult};
