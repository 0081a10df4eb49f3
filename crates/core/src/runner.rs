//! The experiment runner: provisions a fresh simulator + firmware +
//! workload per test, executes one fault-injection scenario in lock-step
//! and records the [`Trace`] (the `RunExperiment` procedure of
//! Algorithm 1, and the step loop of Figure 7).

use crate::contain;
use crate::protocol::ProtocolTracker;
use crate::snapshot::{
    injection_prefix, ChainParent, CheckpointConfig, CheckpointStats, RunSnapshot,
    SharedSnapshotTier, SnapshotCache, SnapshotKey,
};
use crate::trace::{transition_from_code, ModeTransition, StateSample, Trace};
use avis_firmware::{BugId, BugSet, Firmware, FirmwareProfile};
use avis_hinj::{FaultInjector, FaultPlan, FaultyLink, LinkSnapshot, SharedInjector};
use avis_mavlite::{Endpoint, Message};
use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{CowVec, MotorCommands, SensorNoise, SimRng};
use avis_workload::{ScriptedWorkload, WorkloadStatus};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Salt folded into the link fault shim's RNG seed so its stream is
/// independent of the simulator's sensor-noise stream derived from the
/// same experiment seed. Never derived from the fault plan: two plans
/// sharing an injection prefix must consume identical link-RNG streams
/// up to the first divergent fault, which is what makes checkpointed
/// link-fault runs bit-identical to cold ones.
pub(crate) const LINK_RNG_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configuration of an experiment: which firmware, which injected defects,
/// which workload, and the simulation parameters shared by every run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Firmware profile under test.
    pub profile: FirmwareProfile,
    /// Defects compiled into the firmware ("current code base" or a single
    /// re-inserted bug).
    pub bugs: BugSet,
    /// The workload to execute.
    pub workload: ScriptedWorkload,
    /// Simulation time-step (s).
    pub dt: f64,
    /// Hard cap on simulated time per run (s).
    pub max_duration: f64,
    /// Interval at which the trace is sampled (s).
    pub sample_interval: f64,
    /// Base RNG seed for sensor noise. Each run adds its own offset so
    /// profiling runs differ realistically.
    pub seed: u64,
    /// Sensor noise level (`None` keeps the simulator default).
    pub noise: Option<SensorNoise>,
    /// Extra simulated seconds to keep running after the workload reaches a
    /// terminal state (so post-landing behaviour is captured).
    pub grace_period: f64,
    /// Checkpoint-tree configuration: whether (and how densely) the
    /// runner snapshots injection runs so later scenarios can fork from a
    /// shared prefix instead of cold-starting (see [`crate::snapshot`]).
    /// Checkpointing never changes a run's result — a forked run is
    /// bit-identical to a cold one — so this is purely a speed/memory
    /// trade-off.
    pub checkpoints: CheckpointConfig,
    /// Scenario watchdog budgets, so a non-terminating scenario cannot
    /// starve a worker forever (see [`WatchdogConfig`]).
    pub watchdog: WatchdogConfig,
    /// Lockstep batching through SoA [`avis_sim::LaneBatch`]es (see
    /// [`crate::batch`]). `1` disables batching. With `n > 1`, each
    /// worker runs its contiguous slice of a sorted speculative wavefront
    /// as one batch; on the serial path, `n` sizes the wavefront at
    /// `n × 4` plans, and the whole admitted wavefront is one batch.
    /// Purely a speed knob: a batched run is bit-identical to a scalar
    /// one, so this is excluded from the experiment fingerprint, exactly
    /// like checkpoint placement.
    pub lockstep_lanes: usize,
}

/// Per-experiment watchdog budgets. The *step* budget is the canonical
/// limit: it counts simulated lock-step iterations, so it trips at the
/// identical simulated state cold or forked, at any parallelism, and a
/// tripped run carries the deterministic [`RunVerdict::Diverged`]. The
/// *wall-clock* budget is a deliberately nondeterministic backstop for a
/// hung substrate (an infinite loop inside one simulated step, which the
/// step budget can never observe); it is lint-exempted, checked coarsely,
/// and should be set far above any plausible honest run time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WatchdogConfig {
    /// Maximum simulated lock-step iterations per run (`None` = no step
    /// budget). Deterministic: part of the experiment fingerprint.
    pub max_steps: Option<u64>,
    /// Maximum wall-clock seconds per run (`None` = no wall-clock
    /// backstop). Nondeterministic by nature; excluded from the
    /// experiment fingerprint because it can only convert a *hang* into
    /// a [`RunVerdict::Diverged`], never alter a run that terminates.
    pub wall_clock_seconds: Option<f64>,
}

impl ExperimentConfig {
    /// A stable identity of everything that determines a run's state
    /// evolution — used by [`SharedSnapshotTier`] to refuse cross-
    /// experiment snapshot reuse. Checkpoint placement is deliberately
    /// excluded: it changes which snapshots exist, never what state they
    /// capture.
    pub(crate) fn fingerprint(&self) -> String {
        // The watchdog *step* budget joins the fingerprint (it changes
        // where a run can end); the wall-clock backstop does not (it can
        // only convert a hang into `Diverged`, never alter a terminating
        // run's state evolution).
        format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{}|{:?}",
            self.profile,
            self.bugs,
            self.workload.name(),
            self.workload.steps(),
            self.workload.environment(),
            self.dt,
            self.max_duration,
            self.sample_interval,
            self.seed,
            self.noise,
            self.grace_period,
            self.watchdog.max_steps
        )
    }

    /// A configuration with sensible defaults for the given profile,
    /// defects and workload.
    pub fn new(profile: FirmwareProfile, bugs: BugSet, workload: ScriptedWorkload) -> Self {
        ExperimentConfig {
            profile,
            bugs,
            workload,
            dt: 0.0025,
            max_duration: 150.0,
            sample_interval: 0.1,
            seed: 7,
            noise: None,
            grace_period: 2.0,
            checkpoints: CheckpointConfig::default(),
            watchdog: WatchdogConfig::default(),
            lockstep_lanes: 4,
        }
    }
}

/// How a run ended, beyond what the trace itself records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum RunVerdict {
    /// The run executed to its natural end (workload terminal state,
    /// grace period, or the simulated-duration cap).
    #[default]
    Completed,
    /// The firmware (or another substrate layer) panicked while
    /// executing the plan. Contained at the runner boundary (see
    /// [`crate::contain`]) and reported as a first-class outcome — the
    /// paper's `Serious` symptom class — instead of aborting the
    /// campaign. Deterministic: the same (seed, plan) crashes at the
    /// same step with the same message at any parallelism.
    Crashed {
        /// The rendered panic payload, tagged with the experiment
        /// fingerprint (seed + canonical plan key).
        message: String,
        /// The simulated lock-step index at which the panic unwound.
        step: u64,
    },
    /// A scenario watchdog tripped before the run reached a natural end
    /// (see [`WatchdogConfig`]). The step budget trips deterministically;
    /// the wall-clock backstop only fires on a hung substrate.
    Diverged,
}

/// The outcome of one simulated test run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// The fault plan that was injected.
    pub plan: FaultPlan,
    /// The recorded trace.
    pub trace: Trace,
    /// Simulated duration of the run (s) — the "cost" charged against the
    /// checker's test budget.
    pub simulated_seconds: f64,
    /// Injected defects that activated during the run (used to map unsafe
    /// conditions back to the bugs of Tables II and V).
    pub triggered_defects: Vec<BugId>,
    /// How the run ended: completed, crashed (contained panic) or
    /// diverged (watchdog). Serde-defaulted so records serialised before
    /// this field existed deserialise as [`RunVerdict::Completed`].
    #[serde(default)]
    pub verdict: RunVerdict,
}

impl RunResult {
    /// Whether the run ended in a physical collision.
    pub fn crashed(&self) -> bool {
        self.trace.collision.is_some()
    }
}

/// The experiment runner.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    pub(crate) config: ExperimentConfig,
    pub(crate) runs: u64,
    /// The checkpoint tree (see [`crate::snapshot`]): snapshots of
    /// injection runs keyed by quantised injection prefix, so later
    /// scenarios fork from the deepest shared prefix. Owned per runner —
    /// each engine worker holds its own runner, which keeps the parallel
    /// path lock-free.
    pub(crate) cache: SnapshotCache,
    /// The optional cross-worker / cross-campaign second tier: lookups
    /// probe it lock-free alongside the local cache and take whichever
    /// snapshot is deeper; newly recorded snapshots are offered to it
    /// for the engine to republish between wavefronts.
    pub(crate) shared: Option<Arc<SharedSnapshotTier>>,
    /// The simulated lock-step index the in-flight run last reached —
    /// read by [`ExperimentRunner::run_contained`] after a contained
    /// panic, when the run's locals are gone with the unwind.
    pub(crate) step_cursor: u64,
    /// Local-cache keys the in-flight run recorded, so a contained panic
    /// can quarantine exactly the chain the panicked run tainted.
    pub(crate) fresh_keys: Vec<SnapshotKey>,
}

impl ExperimentRunner {
    /// Creates a runner for the given configuration.
    pub fn new(mut config: ExperimentConfig) -> Self {
        assert!(config.dt > 0.0, "dt must be positive");
        assert!(
            config.sample_interval >= config.dt,
            "sample interval must be >= dt"
        );
        assert!(
            config.checkpoints.interval > 0.0,
            "checkpoint interval must be positive"
        );
        config.checkpoints.normalize_anchors();
        config.checkpoints.keyframe_stride = config.checkpoints.keyframe_stride.max(1);
        let mut cache = SnapshotCache::new(config.checkpoints.max_bytes);
        cache.set_keyframe_stride(config.checkpoints.keyframe_stride);
        ExperimentRunner {
            config,
            runs: 0,
            cache,
            shared: None,
            step_cursor: 0,
            fresh_keys: Vec::new(),
        }
    }

    /// Attaches the shared snapshot tier this runner publishes to and
    /// forks from (see [`crate::snapshot::SharedSnapshotTier`]). Sharing
    /// never changes a run's result — a forked run is bit-identical to a
    /// cold one whichever tier served the snapshot. The tier is claimed
    /// for this runner's experiment on first attach; a runner whose
    /// experiment differs from the claim leaves the tier unattached
    /// (snapshot keys encode only the injection prefix, so cross-
    /// experiment reuse would resume foreign state).
    pub fn set_shared_tier(&mut self, tier: Arc<SharedSnapshotTier>) {
        if tier.claim(&self.config.fingerprint()) {
            self.shared = Some(tier);
        }
    }

    /// Replaces the checkpoint anchor times (sorted, de-duplicated). The
    /// campaign calls this after profiling with the golden run's mode
    /// transitions when [`CheckpointConfig::anchor_placement`] is on.
    pub fn set_checkpoint_anchors(&mut self, anchors: Vec<f64>) {
        self.config.checkpoints.anchors = anchors;
        self.config.checkpoints.normalize_anchors();
    }

    /// The runner's configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Number of runs executed so far.
    pub fn runs_executed(&self) -> u64 {
        self.runs
    }

    /// Checkpoint-cache statistics (forked vs cold runs, memory held,
    /// simulated seconds skipped by forking).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.cache.stats()
    }

    /// Test hook: silently corrupts every cached chain entry, as a stuck
    /// bit in the store would. The next fork attempt must detect the
    /// mismatch, quarantine the chain and fall back to cold execution.
    #[doc(hidden)]
    pub fn corrupt_cached_chains_for_test(&mut self) {
        self.cache.corrupt_entries_for_test();
    }

    /// Executes the workload with no injected faults (a golden / profiling
    /// run). `profiling_index` varies the sensor-noise seed so profiling
    /// runs differ the way real repeated flights do.
    pub fn run_profiling(&mut self, profiling_index: u64) -> RunResult {
        self.execute(FaultPlan::empty(), profiling_index + 1)
    }

    /// Executes one fault-injection scenario.
    pub fn run_with_plan(&mut self, plan: FaultPlan) -> RunResult {
        self.execute(plan, 0)
    }

    /// Executes one fault-injection scenario with panic containment: a
    /// panic raised anywhere inside the run — simulated firmware, the
    /// substrate, the workload — is caught at this boundary and reported
    /// as [`RunVerdict::Crashed`] instead of unwinding into the engine.
    /// Any snapshots the panicked run recorded are quarantined from the
    /// local cache and retracted from the shared tier's pending buffer
    /// (the panicked run's chain is never served to a later fork), so a
    /// crashing (seed, plan) crashes bit-identically cold, checkpointed
    /// or on any worker.
    pub fn run_contained(&mut self, plan: FaultPlan) -> RunResult {
        let retained = plan.clone();
        match contain::catch(|| self.execute(plan, 0)) {
            Ok(result) => result,
            Err(payload) => {
                let tainted = std::mem::take(&mut self.fresh_keys);
                self.cache.quarantine(&tainted);
                if let Some(tier) = &self.shared {
                    tier.retract(&tainted);
                }
                let context = format!(
                    "experiment seed {}, plan {}",
                    self.config.seed,
                    retained.canonical_key()
                );
                let message = contain::render_panic(payload.as_ref(), &context);
                let step = self.step_cursor;
                RunResult {
                    plan: retained,
                    trace: Trace {
                        sample_interval: self.config.sample_interval,
                        samples: Vec::new(),
                        mode_transitions: Vec::new(),
                        collision: None,
                        fence_violations: 0,
                        workload_status: WorkloadStatus::Running,
                        duration: 0.0,
                        protocol: Vec::new(),
                    },
                    simulated_seconds: 0.0,
                    triggered_defects: Vec::new(),
                    verdict: RunVerdict::Crashed { message, step },
                }
            }
        }
    }

    /// Whether the checkpoint breaker has tripped: repeated checksum
    /// failures disabled checkpointing for this runner, and every
    /// subsequent run cold-starts (see [`crate::snapshot`]).
    pub fn checkpointing_degraded(&self) -> bool {
        self.cache.degraded()
    }

    /// The deterministic `t = 0` state of a run of this configuration —
    /// the *genesis* snapshot the persistent store diffs keyframes
    /// against. Mirrors the cold-start arm of
    /// [`ExperimentRunner::execute`] exactly (same construction order,
    /// same priming step), so a chain persisted as
    /// `genesis → keyframe-delta → deltas…` re-materialises bit-exactly
    /// on any host that can rebuild the same [`ExperimentConfig`]. The
    /// fault plan is irrelevant here: a restore always swaps the plan in
    /// (see `into_restored_with_plan`), so genesis carries the empty one.
    pub(crate) fn genesis_snapshot(cfg: &ExperimentConfig, seed_offset: u64) -> RunSnapshot {
        let plan = FaultPlan::empty();
        let link_plan = plan.link_plan().clone();
        let mut sim_config = SimConfig {
            dt: cfg.dt,
            seed: cfg.seed.wrapping_add(seed_offset),
            ..SimConfig::default()
        };
        if let Some(noise) = &cfg.noise {
            sim_config.sensors.noise = noise.clone();
        }
        let mut sim = Simulator::new_shared(sim_config, cfg.workload.shared_environment());
        let injector = SharedInjector::new(FaultInjector::new(plan));
        let mut firmware = Firmware::new(cfg.profile, cfg.bugs.clone(), injector.clone());
        let link = FaultyLink::new(
            link_plan,
            SimRng::seed_from_u64(cfg.seed.wrapping_add(seed_offset) ^ LINK_RNG_SALT),
        );
        let mut output = StepOutput::empty();
        sim.step_into(&MotorCommands::IDLE, &mut output);
        let time = sim.time();
        RunSnapshot {
            sim: sim.snapshot(),
            firmware: firmware.snapshot(),
            injector: injector.snapshot(),
            link: LinkSnapshot::capture(&link),
            tracker: ProtocolTracker::new(),
            workload: cfg.workload.fresh(),
            samples: CowVec::with_capacity((cfg.max_duration / cfg.sample_interval) as usize + 2),
            output,
            fence_violations: 0,
            next_sample_time: 0.0,
            workload_status: WorkloadStatus::Running,
            terminal_since: None,
            time,
            prefix: crate::snapshot::InjectionPrefix::default(),
        }
    }

    fn execute(&mut self, plan: FaultPlan, seed_offset: u64) -> RunResult {
        self.runs += 1;
        self.step_cursor = 0;
        self.fresh_keys.clear();
        // The wall-clock watchdog baseline. Sampled once per run and
        // compared coarsely (every `WALL_CLOCK_STRIDE` iterations); see
        // [`WatchdogConfig::wall_clock_seconds`] for why this cannot
        // perturb a deterministic run.
        let started = self
            .config
            .watchdog
            .wall_clock_seconds
            // avis-lint: allow(d1, reason = "wall-clock watchdog backstop: only ever converts a hung substrate into RunVerdict::Diverged, never observed by a terminating run")
            .map(|_| std::time::Instant::now());
        let cfg = &self.config;
        // Only injection runs (seed offset 0) go through the checkpoint
        // tree: profiling runs each use a distinct sensor-noise seed and
        // execute exactly once, so snapshotting them is pure overhead.
        // A tripped checksum breaker (`SnapshotCache::degraded`) forces
        // cold execution for the rest of the runner's life.
        let checkpointing = cfg.checkpoints.enabled && seed_offset == 0 && !self.cache.degraded();

        // Fork from the deepest cached snapshot whose injection prefix
        // matches the plan — probing both the local cache and the shared
        // tier and taking whichever is deeper — or provision a cold run
        // from t = 0. A forked run is bit-identical to a cold one: the
        // restored state is the exact state a cold run of this plan would
        // reach at the fork time, because the two plans agree on every
        // failure scheduled before it (see `crate::snapshot` for the
        // argument).
        // The delta-chain context: the key + exact snapshot of the last
        // cut this run stored into (or took from) the local cache. The
        // next recorded cut is diffed against it (see
        // [`SnapshotCache::record`]); forks served by the shared tier
        // start a fresh chain (their snapshot has no local entry). At
        // stride 1 (keyframes only) no cut can ever be delta-encoded, so
        // the context — and the snapshot clone it would keep resident —
        // is skipped entirely.
        let chains_enabled = cfg.checkpoints.keyframe_stride > 1;
        let mut chain_parent: Option<ChainParent> = None;
        let resumed = if checkpointing {
            // Probe both tiers for depth first; only the winner is
            // materialised (snapshot clones are cheap but not free — the
            // fixed substrate state is copied even under CoW).
            let local = self.cache.peek_deepest(seed_offset, &plan, f64::INFINITY);
            let local_depth = local.as_ref().map(|(t, _)| *t);
            // Carry the tier handle with its probed depth, so the
            // take-from-shared arm below cannot exist without a tier.
            let shared_probe = self.shared.as_ref().and_then(|tier| {
                tier.peek_depth(seed_offset, &plan, f64::INFINITY)
                    .map(|d| (d, tier))
            });
            let take_local = |cache: &mut SnapshotCache, chain_parent: &mut Option<ChainParent>| {
                local.clone().and_then(|(time, key)| {
                    // `take` re-validates the chain's record-time
                    // checksums while materialising. A corrupt chain is
                    // quarantined inside the cache (counted in
                    // `CheckpointStats::{quarantined, checksum_failures}`)
                    // and `None` comes back — the run then transparently
                    // cold-starts, which is always correct, just slower.
                    let snapshot = cache.take(&key, time)?;
                    if chains_enabled {
                        *chain_parent = Some(ChainParent {
                            key,
                            snapshot: snapshot.clone(),
                        });
                    }
                    Some(snapshot)
                })
            };
            match shared_probe {
                Some((probed, tier)) if Some(probed) > local_depth => {
                    match tier.take_deepest(seed_offset, &plan, f64::INFINITY) {
                        Some((depth, snapshot)) => {
                            self.cache.note_shared_fork(depth);
                            Some(snapshot)
                        }
                        // A republish evicted the entry between probe and
                        // take: fall back to the local candidate, if any.
                        None => take_local(&mut self.cache, &mut chain_parent),
                    }
                }
                _ => take_local(&mut self.cache, &mut chain_parent),
            }
        } else {
            None
        };

        // The workload's commands and the firmware's telemetry cross a
        // fault shim around the MAVLite link; its plan travels inside the
        // [`FaultPlan`] and is swapped at restore exactly like the sensor
        // injector's.
        let link_plan = plan.link_plan().clone();
        let mut outbox: Vec<Message> = Vec::new();
        let (
            mut sim,
            injector,
            mut firmware,
            mut link,
            mut tracker,
            mut workload,
            mut samples,
            mut output,
            mut fence_violations,
            mut next_sample_time,
            mut workload_status,
            mut terminal_since,
        );
        match resumed {
            Some(snapshot) => {
                let RunSnapshot {
                    sim: sim_snap,
                    firmware: firmware_snap,
                    injector: injector_snap,
                    link: link_snap,
                    tracker: tracker_snap,
                    workload: workload_snap,
                    samples: samples_snap,
                    output: output_snap,
                    fence_violations: fences_snap,
                    next_sample_time: sample_time_snap,
                    workload_status: status_snap,
                    terminal_since: terminal_snap,
                    ..
                } = snapshot;
                injector = SharedInjector::new(injector_snap.into_restored_with_plan(plan));
                firmware = firmware_snap.into_restored(injector.clone());
                sim = sim_snap.into_restored();
                link = link_snap.into_restored_with_plan(link_plan);
                tracker = tracker_snap;
                workload = workload_snap;
                samples = samples_snap;
                output = output_snap;
                fence_violations = fences_snap;
                next_sample_time = sample_time_snap;
                workload_status = status_snap;
                terminal_since = terminal_snap;
            }
            None => {
                if checkpointing {
                    self.cache.note_cold_run();
                }
                let mut sim_config = SimConfig {
                    dt: cfg.dt,
                    seed: cfg.seed.wrapping_add(seed_offset),
                    ..SimConfig::default()
                };
                if let Some(noise) = &cfg.noise {
                    sim_config.sensors.noise = noise.clone();
                }
                sim = Simulator::new_shared(sim_config, cfg.workload.shared_environment());
                injector = SharedInjector::new(FaultInjector::new(plan));
                firmware = Firmware::new(cfg.profile, cfg.bugs.clone(), injector.clone());
                link = FaultyLink::new(
                    link_plan,
                    SimRng::seed_from_u64(cfg.seed.wrapping_add(seed_offset) ^ LINK_RNG_SALT),
                );
                tracker = ProtocolTracker::new();
                workload = cfg.workload.fresh();

                // Pre-size the trace for the full run and reuse the
                // step/telemetry buffers across iterations: the lock-step
                // loop below performs no per-step heap allocations in
                // steady state.
                samples =
                    CowVec::with_capacity((cfg.max_duration / cfg.sample_interval) as usize + 2);
                fence_violations = 0usize;
                next_sample_time = 0.0;
                workload_status = WorkloadStatus::Running;
                terminal_since = None;

                // Prime the loop with one idle simulator step to obtain
                // readings.
                output = StepOutput::empty();
                sim.step_into(&MotorCommands::IDLE, &mut output);
            }
        }

        // The next snapshot boundary: the first multiple of the
        // checkpoint interval strictly after the current (cold or fork)
        // time, so a forked run extends the tree instead of re-recording
        // the chain it resumed from. Anchor cuts fire at the *last*
        // loop-top at or before each anchor time (`time + dt > anchor`),
        // so a plan injecting exactly at the anchor can fork from the cut
        // — a failure scheduled at `t` first fires at the firmware step
        // at `t`, after a snapshot taken at loop-top time `t`.
        let checkpoint_interval = cfg.checkpoints.interval;
        let mut next_checkpoint = if checkpointing {
            (sim.time() / checkpoint_interval).floor() * checkpoint_interval + checkpoint_interval
        } else {
            f64::INFINITY
        };
        let anchors: &[f64] = if checkpointing {
            &cfg.checkpoints.anchors
        } else {
            &[]
        };
        // Skip anchors whose cut already lies at or before the resume
        // point (the chain we forked from recorded them).
        let mut anchor_idx = anchors.partition_point(|&a| a < sim.time() + cfg.dt);

        // How often (in lock-step iterations) the wall-clock backstop is
        // actually consulted — coarse on purpose, so the hot loop never
        // syscalls per step.
        const WALL_CLOCK_STRIDE: u64 = 4096;
        let mut verdict = RunVerdict::Completed;
        while sim.time() < cfg.max_duration {
            let time = sim.time();
            // Scenario watchdogs, checked at the top of the loop. The
            // step cursor is derived from *simulated* time, so it is
            // identical cold or forked — the step budget trips at the
            // same simulated state at any parallelism. It also survives
            // on the runner across a panic unwind, which is how
            // `run_contained` learns the crash step.
            self.step_cursor = (time / cfg.dt).round() as u64;
            if let Some(max_steps) = cfg.watchdog.max_steps {
                if self.step_cursor >= max_steps {
                    verdict = RunVerdict::Diverged;
                    break;
                }
            }
            if let (Some(limit), Some(started)) = (cfg.watchdog.wall_clock_seconds, started) {
                if self.step_cursor.is_multiple_of(WALL_CLOCK_STRIDE)
                    && started.elapsed().as_secs_f64() > limit
                {
                    verdict = RunVerdict::Diverged;
                    break;
                }
            }
            // Checkpoint recording, cut at the top of the loop body: the
            // snapshot captures the state *before* this step's
            // ground-station exchange, firmware step and physics step.
            let anchor_due = anchor_idx < anchors.len() && time + cfg.dt > anchors[anchor_idx];
            if time >= next_checkpoint || anchor_due {
                let snapshot = RunSnapshot {
                    sim: sim.snapshot(),
                    firmware: firmware.snapshot(),
                    injector: injector.snapshot(),
                    link: LinkSnapshot::capture(&link),
                    tracker: tracker.clone(),
                    workload: workload.clone(),
                    // Seal the sample tail into a shared chunk: the
                    // snapshot (and every later one along this chain)
                    // shares the history structurally — recording is
                    // O(1) in the run length.
                    samples: samples.sealed_clone(),
                    output: output.clone(),
                    fence_violations,
                    next_sample_time,
                    workload_status: workload_status.clone(),
                    terminal_since,
                    time,
                    prefix: injection_prefix(&injector.plan(), time),
                };
                // Remember the cut's key before the snapshot moves: a
                // contained panic quarantines exactly these keys from
                // the local cache and retracts them from the shared
                // tier's pending buffer.
                self.fresh_keys
                    .push(SnapshotKey::for_snapshot(seed_offset, &snapshot));
                if let Some(tier) = &self.shared {
                    // The tier always receives the full snapshot: its
                    // entries cross worker (and campaign) boundaries, so
                    // they must be independently restorable.
                    tier.offer(seed_offset, &snapshot);
                }
                // The local cache stores the cut as a delta against the
                // previous cut of this run where the keyframe stride
                // allows, otherwise as a full keyframe; either way the
                // stored cut becomes the next cut's chain parent. A
                // duplicate cell keeps the previous chain context.
                let parent_candidate = chains_enabled.then(|| snapshot.clone());
                let stored = self
                    .cache
                    .record(seed_offset, snapshot, chain_parent.as_ref());
                if let (Some(key), Some(snapshot)) = (stored, parent_candidate) {
                    chain_parent = Some(ChainParent { key, snapshot });
                }
                while time >= next_checkpoint {
                    next_checkpoint += checkpoint_interval;
                }
                while anchor_idx < anchors.len() && time + cfg.dt > anchors[anchor_idx] {
                    anchor_idx += 1;
                }
            }
            // Ground-station exchange, both legs crossing the fault shim:
            // vehicle telemetry travels to the GCS, workload commands
            // travel back — dropped, duplicated, reordered, corrupted,
            // delayed or stormed as the link plan dictates. With no link
            // faults the shim is a lossless wire round-trip.
            firmware.drain_outbox_into(&mut outbox);
            for msg in &outbox {
                link.send(Endpoint::Vehicle, msg, time);
            }
            let telemetry = link.deliver(Endpoint::GroundStation, time);
            tracker.note_delivered(&telemetry, time, firmware.mission().items());
            let (commands, status) = workload.tick(&telemetry, time);
            for msg in &commands {
                // The tracker records *intent* — what the workload sent —
                // before the shim decides what survives the link.
                tracker.note_sent(msg, time);
                link.send(Endpoint::GroundStation, msg, time);
            }
            let inbound = link.deliver(Endpoint::Vehicle, time);
            firmware.handle_messages(inbound.iter());
            workload_status = status;
            if workload_status.is_terminal() {
                let since = *terminal_since.get_or_insert(time);
                if time - since >= cfg.grace_period {
                    break;
                }
            }

            // Firmware control step, then physics.
            let motor = firmware.step(&output.readings, time, cfg.dt);
            sim.step_into(&motor, &mut output);
            if !output.violated_fences.is_empty() {
                fence_violations += 1;
            }

            // Trace sampling.
            if time >= next_sample_time {
                samples.push(StateSample {
                    time,
                    position: output.state.position,
                    acceleration: output.state.acceleration,
                    mode: firmware.mode(),
                });
                next_sample_time += cfg.sample_interval;
            }
        }

        let mode_transitions: Vec<ModeTransition> = injector
            .mode_transitions()
            .into_iter()
            .filter_map(|r| transition_from_code(r.time, r.to))
            .collect();

        let duration = sim.time();
        let trace = Trace {
            sample_interval: cfg.sample_interval,
            samples: samples.into_vec(),
            mode_transitions,
            collision: sim.first_collision(),
            fence_violations,
            workload_status,
            duration,
            protocol: tracker.into_events(),
        };
        let mut triggered_defects: Vec<BugId> = firmware
            .defect_log()
            .iter()
            .flat_map(|(_, o)| o.active.iter().copied())
            .collect();
        triggered_defects.sort_unstable();
        triggered_defects.dedup();
        // The injector owned the plan for the duration of the run; take it
        // back rather than cloning it up front.
        let plan = injector.take_plan();
        RunResult {
            plan,
            trace,
            simulated_seconds: duration,
            triggered_defects,
            verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::CheckpointStats;
    use avis_firmware::{BugId, OperatingMode};
    use avis_hinj::FaultSpec;
    use avis_sim::{SensorInstance, SensorKind};
    use avis_workload::auto_box_mission;

    fn quiet_config(bugs: BugSet) -> ExperimentConfig {
        let mut cfg =
            ExperimentConfig::new(FirmwareProfile::ArduPilotLike, bugs, auto_box_mission());
        cfg.noise = Some(SensorNoise::noiseless());
        cfg.max_duration = 120.0;
        cfg
    }

    #[test]
    fn golden_run_passes_and_does_not_crash() {
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let result = runner.run_profiling(0);
        assert_eq!(result.trace.workload_status, WorkloadStatus::Passed);
        assert!(!result.crashed());
        assert!(
            result.trace.max_altitude() > 15.0,
            "the mission climbs to ~20 m"
        );
        assert!(
            result.trace.len() > 100,
            "trace is sampled throughout the run"
        );
        assert!(result.simulated_seconds > 30.0);
        assert_eq!(runner.runs_executed(), 1);
        // The mode transitions include takeoff, auto legs and landing.
        let modes: Vec<OperatingMode> = result
            .trace
            .mode_transitions
            .iter()
            .map(|t| t.mode)
            .collect();
        assert!(modes.contains(&OperatingMode::Takeoff));
        assert!(modes.iter().any(|m| m.is_auto()));
        assert!(modes.contains(&OperatingMode::Land));
    }

    #[test]
    fn profiling_runs_with_different_indices_differ_slightly() {
        let mut cfg = quiet_config(BugSet::none());
        cfg.noise = None; // keep the default noise so runs differ
        let mut runner = ExperimentRunner::new(cfg);
        let a = runner.run_profiling(0);
        let b = runner.run_profiling(1);
        assert_eq!(a.trace.workload_status, WorkloadStatus::Passed);
        assert_eq!(b.trace.workload_status, WorkloadStatus::Passed);
        assert_ne!(a.trace.samples, b.trace.samples, "different noise seeds");
    }

    #[test]
    fn identical_plans_replay_identically() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Gps, 1),
            30.0,
        )]);
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let a = runner.run_with_plan(plan.clone());
        let b = runner.run_with_plan(plan);
        assert_eq!(
            a.trace.samples, b.trace.samples,
            "replay must be deterministic"
        );
    }

    #[test]
    fn forked_replay_is_bit_identical_to_cold_execution() {
        let gps1 = SensorInstance::new(SensorKind::Gps, 1);
        let plan_a = FaultPlan::from_specs(vec![FaultSpec::new(gps1, 40.0)]);
        let plan_b = FaultPlan::from_specs(vec![FaultSpec::new(gps1, 50.0)]);

        // Reference results from a checkpoint-disabled runner.
        let mut cold_cfg = quiet_config(BugSet::none());
        cold_cfg.checkpoints = CheckpointConfig::disabled();
        let mut cold_runner = ExperimentRunner::new(cold_cfg);
        let cold_a = cold_runner.run_with_plan(plan_a.clone());
        let cold_b = cold_runner.run_with_plan(plan_b.clone());
        assert_eq!(cold_runner.checkpoint_stats(), CheckpointStats::default());

        // The checkpointing runner cold-starts the first plan and forks
        // the second off the shared fault-free prefix (< 40 s).
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let a = runner.run_with_plan(plan_a);
        let b = runner.run_with_plan(plan_b);
        assert_eq!(a, cold_a, "cold-started checkpointing run diverged");
        assert_eq!(b, cold_b, "forked run diverged from cold execution");

        let stats = runner.checkpoint_stats();
        assert_eq!(stats.cold_runs, 1);
        assert_eq!(stats.forked_runs, 1);
        assert!(
            stats.simulated_seconds_skipped >= 35.0,
            "the fork should resume close to the 40 s injection: {stats:?}"
        );
        assert!(stats.snapshots_recorded as usize >= stats.snapshots_cached);
        assert!(stats.cached_bytes > 0);
    }

    #[test]
    fn tiny_memory_budget_evicts_but_stays_correct() {
        let gps1 = SensorInstance::new(SensorKind::Gps, 1);
        let mut cfg = quiet_config(BugSet::none());
        // Room for roughly one snapshot: almost every record evicts.
        cfg.checkpoints = CheckpointConfig::with_max_bytes(64 * 1024);
        let mut runner = ExperimentRunner::new(cfg);
        let mut cold_cfg = quiet_config(BugSet::none());
        cold_cfg.checkpoints = CheckpointConfig::disabled();
        let mut cold_runner = ExperimentRunner::new(cold_cfg);
        for time in [30.0, 45.0, 60.0] {
            let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps1, time)]);
            let budgeted = runner.run_with_plan(plan.clone());
            let cold = cold_runner.run_with_plan(plan);
            assert_eq!(budgeted, cold, "eviction must never change results");
        }
        let stats = runner.checkpoint_stats();
        assert!(
            stats.snapshots_evicted > 0,
            "budget should evict: {stats:?}"
        );
        assert!(stats.cached_bytes <= 64 * 1024);
    }

    #[test]
    fn fault_free_run_with_current_code_base_is_still_safe() {
        // The injected defects only corrupt behaviour when their trigger
        // sensor fails; without injection the mission completes normally.
        let bugs = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
        let mut runner = ExperimentRunner::new(quiet_config(bugs));
        let result = runner.run_profiling(0);
        assert_eq!(result.trace.workload_status, WorkloadStatus::Passed);
        assert!(!result.crashed());
    }

    #[test]
    fn injected_accel_failure_during_takeoff_crashes_buggy_firmware() {
        // APM-16021: primary accelerometer failure during the climb.
        let bugs = BugSet::only(BugId::Apm16021);
        let mut runner = ExperimentRunner::new(quiet_config(bugs));
        // Profile first to find the takeoff window.
        let golden = runner.run_profiling(0);
        let takeoff_time = golden
            .trace
            .mode_transitions
            .iter()
            .find(|t| t.mode == OperatingMode::Takeoff)
            .map(|t| t.time)
            .expect("golden run takes off");
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Accelerometer, 0),
            takeoff_time + 4.0,
        )]);
        let result = runner.run_with_plan(plan);
        assert!(result.crashed(), "the APM-16021 defect crashes the vehicle");
    }

    #[test]
    fn same_failure_without_the_bug_is_handled_safely() {
        let mut runner = ExperimentRunner::new(quiet_config(BugSet::none()));
        let golden = runner.run_profiling(0);
        let takeoff_time = golden
            .trace
            .mode_transitions
            .iter()
            .find(|t| t.mode == OperatingMode::Takeoff)
            .map(|t| t.time)
            .unwrap();
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Accelerometer, 0),
            takeoff_time + 4.0,
        )]);
        let result = runner.run_with_plan(plan);
        assert!(
            !result.crashed(),
            "failover to the backup accelerometer handles this"
        );
    }
}
