//! # avis
//!
//! A from-scratch Rust reproduction of **Avis: In-Situ Model Checking for
//! Unmanned Aerial Vehicles** (DSN 2021).
//!
//! Avis systematically injects *clean sensor failures* into a UAV control
//! firmware running in simulation and searches for failures that drive the
//! vehicle into unsafe conditions (crashes, fly-aways, stalled missions).
//! Its key idea is to anchor fault injection at the firmware's
//! *operating-mode transitions* — the points where mode-specific failure
//! handling is most likely to be wrong — using the SABRE stratified
//! breadth-first search, while pruning redundant scenarios via sensor-
//! instance symmetry and found-bug pruning.
//!
//! This crate is the checker itself. The substrates it drives live in the
//! sibling crates: `avis-sim` (physics + sensors), `avis-firmware` (the
//! ArduPilot/PX4-like flight stack with the paper's 15 injectable bugs),
//! `avis-hinj` (the fault-injection interface), `avis-mavlite` (the
//! protocol layer) and `avis-workload` (the workload framework).
//!
//! ## Quick start
//!
//! Campaigns are configured through the fluent [`campaign::Campaign`]
//! builder; every knob has a sensible default:
//!
//! ```no_run
//! use avis::campaign::Campaign;
//! use avis::checker::{Approach, Budget};
//! use avis_firmware::{BugSet, FirmwareProfile};
//! use avis_workload::auto_box_mission;
//!
//! // Check the "current code base" (all unknown bugs present) with Avis.
//! let result = Campaign::builder()
//!     .firmware(FirmwareProfile::ArduPilotLike)
//!     .bugs(BugSet::current_code_base(FirmwareProfile::ArduPilotLike))
//!     .workload(auto_box_mission())
//!     .approach(Approach::Avis)
//!     .budget(Budget::simulations(50))
//!     .build()
//!     .run();
//! for condition in &result.unsafe_conditions {
//!     println!("unsafe: {} ({:?})", condition.plan, condition.triggered_bugs);
//! }
//! ```
//!
//! Long campaigns report live through a [`campaign::CampaignObserver`],
//! custom search orders plug in through the [`strategy::Strategy`] trait,
//! and firmware × workload × strategy grids run as one
//! [`matrix::ScenarioMatrix`]. `MIGRATION.md` at the repository root maps
//! calls of removed APIs to their replacements.
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`runner`] | Fig. 7 | provisioning + lock-step execution of one test run |
//! | [`snapshot`] | — | the CoW checkpoint store: fork-from-snapshot replay, shared tier |
//! | [`trace`] | §IV.C | the `(P, α, M)` state traces the monitor consumes |
//! | [`monitor`] | §IV.C | safety + liveliness invariants, mode graph, τ calibration |
//! | [`sabre`] | §IV.B, Alg. 1 | the stratified breadth-first transition queue |
//! | [`pruning`] | §IV.B.1 | sensor-instance symmetry and found-bug pruning |
//! | [`baselines`] | §VI | the BFI model, random draws and DFS site enumeration |
//! | [`strategy`] | §VI | the pluggable [`strategy::Strategy`] trait + built-ins |
//! | [`campaign`] | §VI | the fluent campaign builder and streaming observers |
//! | [`matrix`] | §VI | firmware × workload × strategy scenario matrices |
//! | [`checker`] | §VI | budgets, the approach factory, unsafe-condition records |
//! | [`engine`] | — | the campaign engine (serial + deterministic parallel) |
//! | [`metrics`] | Tables III/IV | aggregation into the paper's tables |
//! | [`report`] | §IV.D | bug reports and replay |
//! | [`study`] | §III, Fig. 3 | the sensor-bug impact study pipeline |
//! | [`json`] | — | dependency-free JSON for the artefact formats |
//!
//! ## The campaign engine
//!
//! [`engine`] drives any [`strategy::Strategy`] through its
//! propose / decide / observe lifecycle, serially or on a scoped worker
//! pool, with a [`checker::CampaignResult`] — and an observer event
//! stream — *bit-identical* at every parallelism. The trick is
//! speculative round execution with a sequential commit replay:
//!
//! 1. **Proposal** — the strategy emits its next natural unit of work
//!    (a SABRE anchor's candidate failure sets, a batch of BFI sites),
//!    hinting which plans it expects to run.
//! 2. **Parallel execution** — the hinted plans, sorted by injection
//!    prefix, are cut into one contiguous slice per worker, and each
//!    worker runs its slice as one lockstep batch on its own
//!    [`runner::ExperimentRunner`]. Runs are pure functions of their
//!    fault plan, so results are order-independent.
//! 3. **Sequential commit** — in round order, the strategy makes its
//!    authoritative decisions against the *real* budget and pruning
//!    state; speculative runs the strategy no longer admits are
//!    discarded.
//!
//! [`checker::CheckerConfig::parallelism`] (or
//! [`campaign::CampaignBuilder::parallelism`]) selects the worker count;
//! `1` executes every run inline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub(crate) mod batch;
pub mod campaign;
pub mod checker;
pub(crate) mod contain;
pub mod engine;
pub mod json;
pub mod matrix;
pub mod metrics;
pub mod monitor;
pub mod protocol;
pub mod pruning;
pub mod report;
pub mod runner;
pub mod sabre;
pub mod snapshot;
pub mod store;
pub mod strategy;
pub mod study;
pub mod trace;

pub use campaign::{Campaign, CampaignBuilder, CampaignEvent, CampaignObserver, EventLog};
pub use checker::{Approach, Budget, CampaignResult, CheckerConfig, CrashRecord, UnsafeCondition};
pub use engine::WorkerStatsCollector;
pub use matrix::{MatrixReport, ScenarioMatrix};
pub use monitor::{
    InvariantMonitor, LivelinessEnvelope, ModeDistanceTable, ModeGraph, MonitorConfig, Violation,
    ViolationKind,
};
pub use protocol::ProtocolTracker;
pub use pruning::{PruningState, RoleSignature};
pub use report::{replay, BugReport, ReplayOutcome};
pub use runner::{ExperimentConfig, ExperimentRunner, RunResult, RunVerdict, WatchdogConfig};
pub use sabre::{QueueEntry, SabreConfig, SabreQueue};
pub use snapshot::{CheckpointConfig, CheckpointStats, SharedSnapshotTier, SharedTierStats};
pub use store::{SnapshotStore, StoreReport, StoreStats};
pub use strategy::{
    BfiStrategy, Candidate, Decision, LinkProbeStrategy, LinkScenarioStrategy, Observation,
    PruningCounters, RandomStrategy, RoundRobinMode, SabreStrategy, Strategy, StrategyContext,
};
pub use trace::{ModeTransition, ProtocolEvent, ProtocolEventKind, StateSample, Trace};
