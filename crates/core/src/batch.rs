//! Batched lockstep execution: one runner advances a set of
//! fault-injection scenarios through a single SoA [`LaneBatch`] instead
//! of running them back to back.
//!
//! Any plan set forms a batch (see [`crate::engine`] for who builds
//! them). The engine sorts each speculative wavefront by injection
//! prefix; a pool worker batches its contiguous slice of it, and the
//! serial engine batches the whole wavefront. Every scenario runs on the
//! one experiment seed, so all plans execute identical state evolutions
//! until their first divergent failure fires. Plans with unrelated
//! prefixes simply diverge earlier. Batching exploits exactly that
//! window:
//!
//! - The **leader** — the plan whose first divergence from the batch's
//!   common plan intersection is latest (ties break to the lowest batch
//!   index) — resumes from the deepest cached checkpoint cut at or
//!   before the batch's earliest lane-fork time (or cold-starts at
//!   `t = 0`) and is the only lane that records cuts, exactly as a
//!   scalar run of that plan would. The resume lookup is capped because
//!   lane forks are taken from the *live* leader at loop-tops — a
//!   deeper cut would skip state a sibling still needs.
//! - Every other lane is **virtual** until its divergence time: its
//!   state is the leader's, so nothing is simulated for it. At the first
//!   loop-top at or past its divergence time it **forks from the leader
//!   lane** — the same capture-and-restore used by checkpoint forks,
//!   with the plan swapped at restore — and becomes a live SoA lane.
//! - A live lane **stays in lockstep until it retires** (grace period
//!   elapsed, duration cap, or watchdog), even after its firmware mode
//!   splits from its siblings': firmware, link and workload run per
//!   lane, and the one sensor-noise draw per step serves every lane.
//! - A lane whose plan never diverges from the common intersection
//!   (possible only when it equals the leader's plan) simply rides the
//!   leader's result.
//!
//! Batching is bit-identical to scalar execution by construction: the
//! SoA stepper is byte-equivalent to [`Simulator::step_into`] per lane
//! (tested in `avis-sim`), all lanes share one experiment seed so their
//! scalar runs would consume identical sensor-noise streams at equal
//! simulated time, and forks reuse the snapshot-cut argument from
//! [`crate::snapshot`] (a failure scheduled at `t` first fires at the
//! firmware step at `t`, after a fork taken at loop-top time `t`).
//! Like checkpointing, it is purely a speed knob and is excluded from
//! the experiment fingerprint.

use crate::contain;
use crate::protocol::ProtocolTracker;
use crate::runner::{ExperimentRunner, RunResult, RunVerdict, LINK_RNG_SALT};
use crate::snapshot::{injection_prefix, ChainParent, RunSnapshot, SnapshotCache, SnapshotKey};
use crate::trace::{transition_from_code, ModeTransition, StateSample, Trace};
use avis_firmware::{BugId, Firmware};
use avis_hinj::{FaultInjector, FaultPlan, FaultyLink, LinkSnapshot, SharedInjector};
use avis_mavlite::{Endpoint, Message};
use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{CowVec, LaneBatch, MotorCommands, SimRng};
use avis_workload::WorkloadStatus;

/// How often (in lock-step iterations) the wall-clock backstop is
/// consulted — same coarse stride as the scalar loop in
/// [`crate::runner`], so the hot loop never syscalls per step.
const WALL_CLOCK_STRIDE: u64 = 4096;

/// Everything one lane owns besides its simulator state (which lives in
/// the shared [`LaneBatch`]): the firmware instance, the fault shims,
/// the protocol tracker, the workload script and the trace-in-progress.
/// These are exactly the non-`sim` fields of a [`RunSnapshot`], which is
/// what lets a lane fork from the leader with the standard
/// capture-and-restore path.
struct LaneCtx {
    /// Position of this lane's plan in the batch's input plan list.
    index: usize,
    /// The lane's id inside the shared [`LaneBatch`].
    lane: u64,
    injector: SharedInjector,
    firmware: Firmware,
    link: FaultyLink,
    tracker: ProtocolTracker,
    workload: avis_workload::ScriptedWorkload,
    samples: CowVec<StateSample>,
    fence_violations: usize,
    next_sample_time: f64,
    workload_status: WorkloadStatus,
    terminal_since: Option<f64>,
}

impl LaneCtx {
    /// One ground-station exchange for this lane, transcribed from the
    /// scalar loop in [`crate::runner`]: telemetry and commands cross
    /// the lane's own fault shim, the tracker records protocol events,
    /// and the workload ticks. Returns `true` when the grace period
    /// after a terminal workload status has elapsed — the lane then
    /// finishes *before* stepping, exactly where the scalar loop breaks.
    fn exchange(&mut self, outbox: &mut Vec<Message>, time: f64, grace_period: f64) -> bool {
        self.firmware.drain_outbox_into(outbox);
        for msg in outbox.iter() {
            self.link.send(Endpoint::Vehicle, msg, time);
        }
        let telemetry = self.link.deliver(Endpoint::GroundStation, time);
        self.tracker
            .note_delivered(&telemetry, time, self.firmware.mission().items());
        let (commands, status) = self.workload.tick(&telemetry, time);
        for msg in &commands {
            self.tracker.note_sent(msg, time);
            self.link.send(Endpoint::GroundStation, msg, time);
        }
        let inbound = self.link.deliver(Endpoint::Vehicle, time);
        self.firmware.handle_messages(inbound.iter());
        self.workload_status = status;
        if self.workload_status.is_terminal() {
            let since = *self.terminal_since.get_or_insert(time);
            if time - since >= grace_period {
                return true;
            }
        }
        false
    }

    /// Post-physics bookkeeping for one step: fence-violation counting
    /// and trace sampling, against the loop-top `time` exactly like the
    /// scalar loop.
    fn post_step(&mut self, output: &StepOutput, time: f64, sample_interval: f64) {
        if !output.violated_fences.is_empty() {
            self.fence_violations += 1;
        }
        if time >= self.next_sample_time {
            self.samples.push(StateSample {
                time,
                position: output.state.position,
                acceleration: output.state.acceleration,
                mode: self.firmware.mode(),
            });
            self.next_sample_time += sample_interval;
        }
    }

    /// Retires the lane: extracts it from the batch and assembles its
    /// [`RunResult`], transcribed from the scalar finalisation tail in
    /// [`crate::runner`].
    fn retire(self, batch: &mut LaneBatch, sample_interval: f64, verdict: RunVerdict) -> RunResult {
        let (sim, _output) = batch.extract_lane(self.lane);
        let mode_transitions: Vec<ModeTransition> = self
            .injector
            .mode_transitions()
            .into_iter()
            .filter_map(|r| transition_from_code(r.time, r.to))
            .collect();
        let duration = sim.time();
        let trace = Trace {
            sample_interval,
            samples: self.samples.into_vec(),
            mode_transitions,
            collision: sim.first_collision(),
            fence_violations: self.fence_violations,
            workload_status: self.workload_status,
            duration,
            protocol: self.tracker.into_events(),
        };
        let mut triggered_defects: Vec<BugId> = self
            .firmware
            .defect_log()
            .iter()
            .flat_map(|(_, o)| o.active.iter().copied())
            .collect();
        triggered_defects.sort_unstable();
        triggered_defects.dedup();
        let plan = self.injector.take_plan();
        RunResult {
            plan,
            trace,
            simulated_seconds: duration,
            triggered_defects,
            verdict,
        }
    }
}

impl ExperimentRunner {
    /// Executes a batch of sibling fault-injection scenarios in lockstep
    /// through one SoA [`LaneBatch`], with the same panic containment as
    /// [`ExperimentRunner::run_contained`]: a panic anywhere inside the
    /// batched run quarantines the snapshots it recorded and falls back
    /// to scalar contained execution of every plan in the batch. Runs
    /// are pure functions of their plan, so the fallback reproduces the
    /// non-panicking lanes' results exactly and the panicking lane gets
    /// its deterministic [`RunVerdict::Crashed`].
    ///
    /// Results come back in input order and are bit-identical to
    /// `plans.map(run_with_plan)` — batching, like checkpointing, is
    /// purely a speed knob.
    pub fn run_batch_contained(&mut self, plans: Vec<FaultPlan>) -> Vec<RunResult> {
        if plans.len() < 2 {
            return plans.into_iter().map(|p| self.run_contained(p)).collect();
        }
        let retained = plans.clone();
        match contain::catch(|| self.execute_batch(plans)) {
            Ok(results) => results,
            Err(_payload) => {
                let tainted = std::mem::take(&mut self.fresh_keys);
                self.cache.quarantine(&tainted);
                if let Some(tier) = &self.shared {
                    tier.retract(&tainted);
                }
                // The panic payload is deliberately dropped: the scalar
                // rerun reproduces the crash in its own containment
                // boundary, which renders the canonical message with the
                // per-plan context.
                retained
                    .into_iter()
                    .map(|p| self.run_contained(p))
                    .collect()
            }
        }
    }

    /// The batched lockstep loop. See the module docs for the lane
    /// lifecycle; the loop body is a lane-indexed transcription of the
    /// scalar loop in [`crate::runner`], in the same phase order:
    /// watchdogs, checkpoint cut (leader only), ground-station exchange,
    /// terminal/grace retirement, firmware step, physics step, trace
    /// sampling — plus fork processing at the very top.
    fn execute_batch(&mut self, plans: Vec<FaultPlan>) -> Vec<RunResult> {
        debug_assert!(plans.len() >= 2, "a batch needs at least two lanes");
        self.runs += plans.len() as u64;
        self.step_cursor = 0;
        self.fresh_keys.clear();

        let started = self
            .config
            .watchdog
            .wall_clock_seconds
            // avis-lint: allow(d1, reason = "wall-clock watchdog backstop: only ever converts a hung substrate into RunVerdict::Diverged, never observed by a terminating run")
            .map(|_| std::time::Instant::now());

        // Config scalars copied out so no `&self.config` borrow is held
        // across the cache calls below.
        let dt = self.config.dt;
        let max_duration = self.config.max_duration;
        let sample_interval = self.config.sample_interval;
        let grace_period = self.config.grace_period;
        let max_steps = self.config.watchdog.max_steps;
        let wall_clock_limit = self.config.watchdog.wall_clock_seconds;

        // Plan algebra: the common intersection, each plan's first
        // divergence from it, and the leader (latest divergence; `None`
        // means the plan never diverges, i.e. it *is* the intersection).
        let common = plans
            .iter()
            .skip(1)
            .fold(plans[0].clone(), |acc, p| acc.intersection(p));
        let divergences: Vec<Option<f64>> = plans
            .iter()
            .map(|p| p.first_divergence_from(&common))
            .collect();
        let mut leader = 0usize;
        for (i, d) in divergences.iter().enumerate().skip(1) {
            if d.unwrap_or(f64::INFINITY) > divergences[leader].unwrap_or(f64::INFINITY) {
                leader = i;
            }
        }
        // Virtual lanes never fork (their plan equals the leader's);
        // pending lanes fork at their divergence time, in time order.
        let mut virtuals: Vec<usize> = Vec::new();
        let mut pending: Vec<(f64, usize)> = Vec::new();
        for (i, d) in divergences.iter().enumerate() {
            if i == leader {
                continue;
            }
            match d {
                Some(d) => pending.push((*d, i)),
                None => virtuals.push(i),
            }
        }
        pending.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

        // Provision the leader, mirroring the scalar runner: fork from
        // the deepest cached cut whose injection prefix matches the
        // leader's plan — probing both the local cache and the shared
        // tier — or cold-start from t = 0. The lookup is *capped at the
        // earliest pending lane-fork time*: lane forks are taken from
        // the live leader at loop-tops, so a cut past one would skip
        // state a sibling still needs (the cap keeps the deepest cut at
        // or before it instead of rejecting resume outright). Either way
        // the leader records cuts, so later scenarios fork from the
        // shared prefix it executes.
        let checkpointing = self.config.checkpoints.enabled && !self.cache.degraded();
        let chains_enabled = self.config.checkpoints.keyframe_stride > 1;
        let checkpoint_interval = self.config.checkpoints.interval;
        let anchors: Vec<f64> = if checkpointing {
            self.config.checkpoints.anchors.clone()
        } else {
            Vec::new()
        };
        let fork_cap = pending.first().map_or(f64::INFINITY, |&(d, _)| d);
        let mut chain_parent: Option<ChainParent> = None;
        let resumed = if checkpointing {
            let local = self.cache.peek_deepest(0, &plans[leader], fork_cap);
            let local_depth = local.as_ref().map(|(t, _)| *t);
            let shared_probe = self.shared.as_ref().and_then(|tier| {
                tier.peek_depth(0, &plans[leader], fork_cap)
                    .map(|d| (d, tier))
            });
            let take_local = |cache: &mut SnapshotCache, chain_parent: &mut Option<ChainParent>| {
                local.clone().and_then(|(time, key)| {
                    // `take` re-validates record-time checksums; a corrupt
                    // chain quarantines inside the cache and the batch
                    // transparently cold-starts.
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
                    match tier.take_deepest(0, &plans[leader], fork_cap) {
                        Some((depth, snapshot)) => {
                            self.cache.note_shared_fork(depth);
                            Some(snapshot)
                        }
                        None => take_local(&mut self.cache, &mut chain_parent),
                    }
                }
                _ => take_local(&mut self.cache, &mut chain_parent),
            }
        } else {
            None
        };

        let cfg = &self.config;
        let leader_plan = plans[leader].clone();
        let leader_link_plan = leader_plan.link_plan().clone();
        let (
            sim,
            injector,
            firmware,
            link,
            tracker,
            workload,
            samples,
            output,
            fence_violations,
            next_sample_time,
            workload_status,
            terminal_since,
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
                injector = SharedInjector::new(injector_snap.into_restored_with_plan(leader_plan));
                firmware = firmware_snap.into_restored(injector.clone());
                sim = sim_snap.into_restored();
                link = link_snap.into_restored_with_plan(leader_link_plan);
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
                    seed: cfg.seed,
                    ..SimConfig::default()
                };
                if let Some(noise) = &cfg.noise {
                    sim_config.sensors.noise = noise.clone();
                }
                let mut cold_sim =
                    Simulator::new_shared(sim_config, cfg.workload.shared_environment());
                injector = SharedInjector::new(FaultInjector::new(leader_plan));
                firmware = Firmware::new(cfg.profile, cfg.bugs.clone(), injector.clone());
                link = FaultyLink::new(
                    leader_link_plan,
                    SimRng::seed_from_u64(cfg.seed ^ LINK_RNG_SALT),
                );
                samples =
                    CowVec::with_capacity((cfg.max_duration / cfg.sample_interval) as usize + 2);
                workload = cfg.workload.fresh();
                tracker = ProtocolTracker::new();
                let mut primed = StepOutput::empty();
                cold_sim.step_into(&MotorCommands::IDLE, &mut primed);
                sim = cold_sim;
                output = primed;
                fence_violations = 0;
                next_sample_time = 0.0;
                workload_status = WorkloadStatus::Running;
                terminal_since = None;
            }
        }
        let (mut batch, leader_lane) = LaneBatch::from_simulator(sim, output);

        let mut ctxs: Vec<LaneCtx> = Vec::with_capacity(plans.len());
        ctxs.push(LaneCtx {
            index: leader,
            lane: leader_lane,
            injector,
            firmware,
            link,
            tracker,
            workload,
            samples,
            fence_violations,
            next_sample_time,
            workload_status,
            terminal_since,
        });
        let mut next_checkpoint = if checkpointing {
            (batch.time() / checkpoint_interval).floor() * checkpoint_interval + checkpoint_interval
        } else {
            f64::INFINITY
        };
        let mut anchor_idx = anchors.partition_point(|&a| a < batch.time() + dt);

        let mut results: Vec<Option<RunResult>> = plans.iter().map(|_| None).collect();
        // `ctxs` is kept in batch slot order (`ctxs[s]` drives the lane
        // in slot `s`): forks push to the back like `clone_lane`, and
        // retirement swap-removes like `extract_lane`, so every per-step
        // lookup is positional. The leader holds slot 0 until it retires:
        // a swap-remove only moves the last lane into the freed slot.
        let mut leader_live = true;
        let mut verdict = RunVerdict::Completed;
        let mut outbox: Vec<Message> = Vec::new();
        // Reused per iteration: the motor command for each lane in slot
        // order (steady state allocates nothing).
        let mut commands: Vec<MotorCommands> = Vec::new();

        loop {
            if ctxs.is_empty() {
                break;
            }
            let time = batch.time();
            if time >= max_duration {
                break;
            }

            // Fork every pending lane whose divergence time has arrived,
            // while the leader is still live to fork from. A fork at
            // loop-top `time` is the exact state a scalar run of that
            // lane's plan would hold here: every fault the two plans
            // disagree on is scheduled at or after this loop-top, and a
            // failure scheduled at `t` first fires at the firmware step
            // at `t`.
            while leader_live && pending.first().is_some_and(|&(d, _)| time >= d) {
                let (_, idx) = pending.remove(0);
                let lane = batch.clone_lane(ctxs[0].lane);
                let forked = {
                    let leader_ctx = &mut ctxs[0];
                    let injector = SharedInjector::new(
                        leader_ctx
                            .injector
                            .snapshot()
                            .into_restored_with_plan(plans[idx].clone()),
                    );
                    let firmware = leader_ctx
                        .firmware
                        .snapshot()
                        .into_restored(injector.clone());
                    let link = LinkSnapshot::capture(&leader_ctx.link)
                        .into_restored_with_plan(plans[idx].link_plan().clone());
                    LaneCtx {
                        index: idx,
                        lane,
                        injector,
                        firmware,
                        link,
                        tracker: leader_ctx.tracker.clone(),
                        workload: leader_ctx.workload.clone(),
                        samples: leader_ctx.samples.sealed_clone(),
                        fence_violations: leader_ctx.fence_violations,
                        next_sample_time: leader_ctx.next_sample_time,
                        workload_status: leader_ctx.workload_status.clone(),
                        terminal_since: leader_ctx.terminal_since,
                    }
                };
                ctxs.push(forked);
            }

            // Scenario watchdogs, shared across lanes: the step cursor
            // derives from the shared simulated clock, so the step
            // budget trips every lane at the identical simulated state a
            // scalar run would trip at.
            self.step_cursor = (time / dt).round() as u64;
            let mut tripped = max_steps.is_some_and(|m| self.step_cursor >= m);
            if let (Some(limit), Some(started)) = (wall_clock_limit, started) {
                if self.step_cursor.is_multiple_of(WALL_CLOCK_STRIDE)
                    && started.elapsed().as_secs_f64() > limit
                {
                    tripped = true;
                }
            }
            if tripped {
                verdict = RunVerdict::Diverged;
                break;
            }

            // Checkpoint recording, leader lane only, cut at the top of
            // the loop body exactly like the scalar runner: the snapshot
            // captures the leader's state before this step's exchange,
            // firmware step and physics step.
            if checkpointing && leader_live {
                let anchor_due = anchor_idx < anchors.len() && time + dt > anchors[anchor_idx];
                if time >= next_checkpoint || anchor_due {
                    let leader_ctx = &mut ctxs[0];
                    let snapshot = RunSnapshot {
                        sim: batch.lane_snapshot(leader_ctx.lane),
                        firmware: leader_ctx.firmware.snapshot(),
                        injector: leader_ctx.injector.snapshot(),
                        link: LinkSnapshot::capture(&leader_ctx.link),
                        tracker: leader_ctx.tracker.clone(),
                        workload: leader_ctx.workload.clone(),
                        samples: leader_ctx.samples.sealed_clone(),
                        output: batch.outputs()[0].clone(),
                        fence_violations: leader_ctx.fence_violations,
                        next_sample_time: leader_ctx.next_sample_time,
                        workload_status: leader_ctx.workload_status.clone(),
                        terminal_since: leader_ctx.terminal_since,
                        time,
                        prefix: injection_prefix(&leader_ctx.injector.plan(), time),
                    };
                    self.fresh_keys
                        .push(SnapshotKey::for_snapshot(0, &snapshot));
                    if let Some(tier) = &self.shared {
                        tier.offer(0, &snapshot);
                    }
                    let parent_candidate = chains_enabled.then(|| snapshot.clone());
                    let stored = self.cache.record(0, snapshot, chain_parent.as_ref());
                    if let (Some(key), Some(snapshot)) = (stored, parent_candidate) {
                        chain_parent = Some(ChainParent { key, snapshot });
                    }
                    while time >= next_checkpoint {
                        next_checkpoint += checkpoint_interval;
                    }
                    while anchor_idx < anchors.len() && time + dt > anchors[anchor_idx] {
                        anchor_idx += 1;
                    }
                }
            }

            // Ground-station exchange per lane; lanes whose post-terminal
            // grace elapsed retire before stepping, where the scalar loop
            // breaks. The swap-remove mirrors the batch's own, and the
            // lane moved into `slot` is exchanged next.
            let mut slot = 0;
            while slot < ctxs.len() {
                if ctxs[slot].exchange(&mut outbox, time, grace_period) {
                    let ctx = ctxs.swap_remove(slot);
                    let idx = ctx.index;
                    leader_live &= idx != leader;
                    results[idx] =
                        Some(ctx.retire(&mut batch, sample_interval, RunVerdict::Completed));
                } else {
                    slot += 1;
                }
            }
            if ctxs.is_empty() {
                break;
            }

            // Firmware control step per lane (in batch slot order, which
            // is what `step_lanes` expects), then one batched physics +
            // sensor step for every surviving lane.
            debug_assert!(
                ctxs.iter()
                    .map(|c| c.lane)
                    .eq(batch.lane_ids().iter().copied()),
                "lane contexts out of batch slot order"
            );
            commands.clear();
            for (ctx, output) in ctxs.iter_mut().zip(batch.outputs()) {
                commands.push(ctx.firmware.step(&output.readings, time, dt));
            }
            batch.step_lanes(&commands);

            // Trace bookkeeping against the loop-top time, like the
            // scalar loop.
            for (ctx, output) in ctxs.iter_mut().zip(batch.outputs()) {
                ctx.post_step(output, time, sample_interval);
            }
        }

        // Every still-batched lane retires together: completed at the
        // duration cap, like the scalar loop condition, or diverged when a
        // watchdog tripped.
        for ctx in ctxs.drain(..) {
            let idx = ctx.index;
            results[idx] = Some(ctx.retire(&mut batch, sample_interval, verdict.clone()));
        }

        // Virtual lanes — and pending lanes whose divergence time lies
        // beyond the leader's finish — ride the leader's result: their
        // scalar runs would be step-for-step identical to the leader's
        // (no fault the plans disagree on ever fired).
        if let Some(leader_result) = results[leader].clone() {
            for idx in virtuals
                .iter()
                .copied()
                .chain(pending.iter().map(|&(_, i)| i))
            {
                results[idx] = Some(RunResult {
                    plan: plans[idx].clone(),
                    ..leader_result.clone()
                });
            }
        }

        // Safety net: any lane the lockstep loop failed to account for
        // runs scalar. Unreachable by construction; kept because a
        // silently missing result would corrupt the engine's commit
        // replay.
        results
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| slot.unwrap_or_else(|| self.run_with_plan(plans[idx].clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentConfig;
    use crate::snapshot::CheckpointConfig;
    use avis_firmware::{BugSet, FirmwareProfile, OperatingMode};
    use avis_hinj::{FaultSpec, LinkDirection, LinkFaultKind, LinkFaultSpec};
    use avis_sim::{SensorInstance, SensorKind, SensorNoise};
    use avis_workload::auto_box_mission;

    fn quiet_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::current_code_base(FirmwareProfile::ArduPilotLike),
            auto_box_mission(),
        );
        cfg.noise = Some(SensorNoise::noiseless());
        cfg.max_duration = 120.0;
        cfg
    }

    fn gps_plan(time: f64) -> FaultPlan {
        FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Gps, 1),
            time,
        )])
    }

    fn cold_runner(mut cfg: ExperimentConfig) -> ExperimentRunner {
        cfg.checkpoints = CheckpointConfig::disabled();
        ExperimentRunner::new(cfg)
    }

    fn scalar_reference(cfg: ExperimentConfig, plans: &[FaultPlan]) -> Vec<RunResult> {
        let mut runner = cold_runner(cfg);
        plans
            .iter()
            .map(|p| runner.run_with_plan(p.clone()))
            .collect()
    }

    #[test]
    fn batched_sweep_is_bit_identical_to_scalar() {
        let plans: Vec<FaultPlan> = [40.0, 48.0, 56.0, 64.0].map(gps_plan).to_vec();
        let reference = scalar_reference(quiet_config(), &plans);
        let batched = cold_runner(quiet_config()).run_batch_contained(plans);
        assert_eq!(batched, reference, "batched lockstep diverged from scalar");
    }

    #[test]
    fn batched_run_with_checkpointing_matches_cold_scalar() {
        let plans: Vec<FaultPlan> = [35.0, 50.0, 65.0].map(gps_plan).to_vec();
        let reference = scalar_reference(quiet_config(), &plans);
        let mut runner = ExperimentRunner::new(quiet_config());
        let batched = runner.run_batch_contained(plans.clone());
        assert_eq!(batched, reference, "checkpoint recording perturbed a lane");
        // The leader's cuts must be forkable by a later scalar run.
        let follow_up = runner.run_with_plan(gps_plan(70.0));
        let expected = scalar_reference(quiet_config(), &[gps_plan(70.0)]);
        assert_eq!(follow_up, expected[0]);
        assert!(
            runner.checkpoint_stats().forked_runs >= 1,
            "the follow-up scenario should fork from the batch leader's cuts: {:?}",
            runner.checkpoint_stats()
        );
    }

    #[test]
    fn duplicate_and_identical_plans_ride_the_leader() {
        // Two identical plans: one is the leader, the other is virtual
        // (never diverges from the intersection) and clones the result.
        let plans = vec![gps_plan(45.0), gps_plan(45.0)];
        let reference = scalar_reference(quiet_config(), &plans);
        let batched = cold_runner(quiet_config()).run_batch_contained(plans);
        assert_eq!(batched, reference);
    }

    #[test]
    fn mixed_sensor_and_link_fault_batch_matches_scalar() {
        let mut link_plan = gps_plan(50.0);
        link_plan.add_link(LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration: 6.0,
                probability: 0.8,
            },
            LinkDirection::ToVehicle,
            42.0,
        ));
        let plans = vec![
            gps_plan(40.0),
            link_plan,
            gps_plan(60.0),
            FaultPlan::empty(),
        ];
        let reference = scalar_reference(quiet_config(), &plans);
        let batched = cold_runner(quiet_config()).run_batch_contained(plans);
        assert_eq!(
            batched, reference,
            "link-faulted lane diverged from its scalar run"
        );
    }

    #[test]
    fn early_divergence_forks_at_time_zero() {
        // A plan injecting at t=0 forks at the very first loop-top.
        let plans = vec![gps_plan(0.0), gps_plan(55.0)];
        let reference = scalar_reference(quiet_config(), &plans);
        let batched = cold_runner(quiet_config()).run_batch_contained(plans);
        assert_eq!(batched, reference);
    }

    #[test]
    fn step_budget_trips_batched_lanes_like_scalar() {
        let plans = vec![gps_plan(30.0), gps_plan(45.0)];
        let mut cfg = quiet_config();
        cfg.watchdog.max_steps = Some(8_000);
        let reference = scalar_reference(cfg.clone(), &plans);
        assert!(reference.iter().all(|r| r.verdict == RunVerdict::Diverged));
        let batched = cold_runner(cfg).run_batch_contained(plans);
        assert_eq!(batched, reference);
    }

    fn sensor_plan(kind: SensorKind, count: u8, time: f64) -> FaultPlan {
        FaultPlan::from_specs(
            (0..count).map(|i| FaultSpec::new(SensorInstance::new(kind, i), time)),
        )
    }

    #[test]
    fn noisy_lanes_with_split_modes_match_cold_scalar() {
        // Default (noisy) sensors on the current code base. From the
        // forks at t = 20 one lane flies its Auto legs, one enters a
        // battery failsafe (RTL) and one loses every gyroscope and
        // crashes; all three keep stepping in one batch on each step's
        // shared noise draw and must still equal cold scalar runs.
        let mut cfg = quiet_config();
        cfg.noise = None;
        let plans = vec![
            gps_plan(40.0),
            sensor_plan(SensorKind::Battery, 1, 20.0),
            sensor_plan(SensorKind::Gyroscope, 3, 20.0),
        ];
        let cold = scalar_reference(cfg.clone(), &plans);
        let modes = |i: usize| -> Vec<OperatingMode> {
            cold[i]
                .trace
                .mode_transitions
                .iter()
                .map(|t| t.mode)
                .collect()
        };
        let (last_leg, rtl) = (
            OperatingMode::Auto { leg: 4 },
            OperatingMode::ReturnToLaunch,
        );
        assert!(modes(0).contains(&last_leg) && !modes(0).contains(&rtl));
        assert!(modes(1).contains(&rtl) && !modes(1).contains(&last_leg));
        let crashed: Vec<bool> = cold.iter().map(|r| r.trace.collision.is_some()).collect();
        assert_eq!(crashed, [false, false, true]);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            assert_ne!(
                cold[a].trace.mode_transitions,
                cold[b].trace.mode_transitions
            );
        }

        let batched = cold_runner(cfg.clone()).run_batch_contained(plans.clone());
        assert_eq!(batched, cold, "cold batch diverged from cold scalar");
        // Checkpointed: the first batch records the leader's cuts, the
        // second resumes its leader from one of them.
        let mut runner = ExperimentRunner::new(cfg);
        for pass in ["recording", "resuming"] {
            let batched = runner.run_batch_contained(plans.clone());
            assert_eq!(batched, cold, "{pass} batch diverged from cold scalar");
        }
        assert!(runner.checkpoint_stats().forked_runs >= 1);
    }

    #[test]
    fn wavefront_of_mixed_families_matches_cold_scalar() {
        // A whole serial wavefront (16 plans) from several prefix
        // families as one batch, under default noisy sensors on the
        // current code base. The fault-free plan never diverges, so it
        // leads and its duplicate rides as a virtual lane; single GPS,
        // compass and baro failures fork from it across many checkpoint
        // buckets (the earliest at 2 s); two two-failure plans share the
        // GPS@30 parent; the last plan's only failure lies past the
        // leader's retirement, so it never forks.
        let mut cfg = quiet_config();
        cfg.noise = None;
        // One-second cuts, so the resuming pass finds a cut below the
        // earliest fork.
        cfg.checkpoints.interval = 1.0;
        let compass = |t| sensor_plan(SensorKind::Compass, 1, t);
        let baro = |t| sensor_plan(SensorKind::Barometer, 1, t);
        let spec = |kind, t| FaultSpec::new(SensorInstance::new(kind, 0), t);
        let mut link_plan = baro(25.0);
        link_plan.add_link(LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration: 6.0,
                probability: 0.8,
            },
            LinkDirection::ToVehicle,
            42.0,
        ));
        let plans = vec![
            gps_plan(2.0),
            baro(3.5),
            compass(7.5),
            baro(12.0),
            gps_plan(18.0),
            link_plan,
            compass(33.0),
            compass(33.0),
            gps_plan(30.0).with(spec(SensorKind::Compass, 45.0)),
            gps_plan(30.0).with(spec(SensorKind::Barometer, 52.0)),
            baro(47.0),
            gps_plan(61.0),
            compass(90.0),
            FaultPlan::empty(),
            FaultPlan::empty(),
            gps_plan(cfg.max_duration + 10.0),
        ];
        let cold = scalar_reference(cfg.clone(), &plans);
        let batched = cold_runner(cfg.clone()).run_batch_contained(plans.clone());
        assert_eq!(batched, cold, "cold batch diverged from cold scalar");
        // Checkpointed: the first pass records the leader's cuts, the
        // second resumes its leader from the deepest one at or before
        // the 2 s fork (the resume cap).
        let mut runner = ExperimentRunner::new(cfg);
        for pass in ["recording", "resuming"] {
            let batched = runner.run_batch_contained(plans.clone());
            assert_eq!(batched, cold, "{pass} batch diverged from cold scalar");
        }
        let stats = runner.checkpoint_stats();
        assert!(stats.forked_runs >= 1, "{stats:?}");
        assert!(stats.simulated_seconds_skipped <= 2.0, "{stats:?}");
    }

    #[test]
    fn singleton_batch_falls_back_to_scalar_contained() {
        let batched = cold_runner(quiet_config()).run_batch_contained(vec![gps_plan(40.0)]);
        assert_eq!(batched, scalar_reference(quiet_config(), &[gps_plan(40.0)]));
    }
}
