//! The traced run: per-layer costs measured from outside the checker.
//!
//! 1. One plain repetition (the untraced wall time the tracing overhead
//!    is taken against), then one traced repetition: the campaign runs a
//!    timing [`Strategy`] that wraps `Approach::Avis.strategy()` and
//!    forwards every trait method, plus a `WorkerStatsCollector`, and
//!    the observer keeps every committed plan.
//! 2. Verification: the traced result must equal the untimed cold,
//!    scalar, serial reference in every field but `approach` (a custom
//!    strategy reports `None`), and the plain one must match the digest.
//! 3. Replay, on this thread, of each traced session's public calls:
//!    profiling and monitor calibration, store open/hydrate/flush, the
//!    committed plans in lane batches, and `InvariantMonitor::check` per
//!    trace. These spans, plus the strategy's own, are the attributed
//!    layer time; the rest of the traced wall time is
//!    `engine.unattributed_s`.
//! 4. Scalar replays of the first session's plans, checkpointed and
//!    cold, for per-run latencies and the fork counts.
//! 5. A mirror of the runner's lockstep loop built from the substrate
//!    crates, timing each layer call per step, checked sample for sample
//!    against `run_with_plan`.

use crate::measure::{digest, median, percentile};
use crate::{
    campaign_seeds, mismatches, run_rep, Report, Scratch, Session, Workload, DEFAULT_SEED,
};
use avis::checker::{Approach, CampaignResult};
use avis::monitor::{InvariantMonitor, MonitorConfig};
use avis::protocol::ProtocolTracker;
use avis::runner::{ExperimentConfig, ExperimentRunner, RunResult};
use avis::snapshot::{CheckpointConfig, CheckpointStats, SharedSnapshotTier};
use avis::store::{SnapshotStore, DEFAULT_STORE_BUDGET};
use avis::strategy::{
    Candidate, Decision, Observation, PruningCounters, Strategy, StrategyContext,
};
use avis::trace::StateSample;
use avis::WorkerStatsCollector;
use avis_firmware::Firmware;
use avis_hinj::{FaultInjector, FaultPlan, FaultyLink, LinkSnapshot, SharedInjector};
use avis_mavlite::{Endpoint, Message};
use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{MotorCommands, SimRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The runner's salt separating the link shim's RNG stream from the
/// sensor-noise stream (`avis::runner`, crate-private there): the mirror
/// loop must seed its link exactly as a cold run does.
const LINK_RNG_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Committed plans the mirror loop flies besides the golden plan.
const MIRRORED_PLANS: usize = 3;

/// Strategy time and round boundaries, shared with the bench thread.
#[derive(Debug, Default)]
struct StrategyClock {
    propose_s: f64,
    decide_s: f64,
    observe_s: f64,
    /// Committed runs observed before each `propose` call: the round
    /// boundaries the lane-batch replay groups plans by.
    round_starts: Vec<usize>,
    observed: usize,
}

/// Forwards every [`Strategy`] method to `inner`, timing the three
/// lifecycle calls.
struct TimedStrategy {
    inner: Box<dyn Strategy>,
    clock: Arc<Mutex<StrategyClock>>,
}

impl TimedStrategy {
    fn clock(&self) -> std::sync::MutexGuard<'_, StrategyClock> {
        self.clock
            .lock()
            .expect("strategy clock poisoned by a panicking campaign")
    }
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initialize(&mut self, ctx: &StrategyContext<'_>) {
        self.inner.initialize(ctx);
    }

    fn propose(&mut self) -> Vec<Candidate> {
        let start = Instant::now();
        let round = self.inner.propose();
        let elapsed = start.elapsed().as_secs_f64();
        let mut clock = self.clock();
        clock.propose_s += elapsed;
        let observed = clock.observed;
        clock.round_starts.push(observed);
        round
    }

    fn revalidate(&self, candidate: &Candidate) -> bool {
        self.inner.revalidate(candidate)
    }

    fn prune_probability(&self, candidate: &Candidate) -> f64 {
        self.inner.prune_probability(candidate)
    }

    fn decide(&mut self, candidate: &Candidate) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(candidate);
        self.clock().decide_s += start.elapsed().as_secs_f64();
        decision
    }

    fn observe(&mut self, observation: &Observation<'_>) {
        let start = Instant::now();
        self.inner.observe(observation);
        let elapsed = start.elapsed().as_secs_f64();
        let mut clock = self.clock();
        clock.observe_s += elapsed;
        clock.observed += 1;
    }

    fn pruning(&self) -> PruningCounters {
        self.inner.pruning()
    }
}

struct TracedSession {
    session: Session,
    clock: StrategyClock,
    stats: Vec<CheckpointStats>,
}

/// Spans of one session's replay (s).
#[derive(Debug, Default)]
struct Replay {
    profiling_s: f64,
    calibrate_s: f64,
    store_open_s: f64,
    hydrate_s: f64,
    flush_s: f64,
    /// All committed plans through `run_batch_contained`, in lane batches.
    runs_s: f64,
    check_s: Vec<f64>,
    plans: usize,
    /// The batch results equal the cold scalar results.
    consistent: bool,
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The campaign's experiment with the anchors it derives after
/// profiling: the golden run's mode transitions inside the run window.
fn anchored(experiment: &ExperimentConfig, golden: &RunResult) -> ExperimentConfig {
    let mut anchored = experiment.clone();
    anchored.checkpoints.anchors = golden
        .trace
        .transition_times()
        .into_iter()
        .filter(|&t| t > 0.0 && t < experiment.max_duration)
        .collect();
    anchored
}

/// The plan's prefix family, as the dispatcher shards them: every
/// failure but the deepest, or for single failures the 5 s checkpoint
/// bucket of the failure time.
fn family(plan: &FaultPlan) -> String {
    let mut specs: Vec<_> = plan.specs().collect();
    specs.sort_by(|a, b| a.time.total_cmp(&b.time));
    match specs.pop() {
        None => String::new(),
        Some(deepest) if specs.is_empty() => format!("#{}", (deepest.time / 5.0).floor() as i64),
        Some(_) => FaultPlan::from_specs(specs).canonical_key(),
    }
}

/// Wavefront size as a multiple of the lane count: the serial engine
/// pre-executes a round's candidates this many lane batches at a time
/// (`avis::engine`, crate-private there).
const WAVEFRONT_LANE_BATCHES: usize = 4;

/// Groups committed plans the way the serial engine hands them to
/// `run_batch_contained`: per strategy round, per wavefront, per prefix
/// family, sorted by earliest failure, chunked by the lane count.
/// Returns indices into `plans`.
fn lane_batches(plans: &[FaultPlan], round_starts: &[usize], lanes: usize) -> Vec<Vec<usize>> {
    let mut bounds = vec![0];
    bounds.extend(round_starts.iter().copied().filter(|&b| b < plans.len()));
    bounds.push(plans.len());
    bounds.dedup();
    let mut batches = Vec::new();
    let wavefronts = bounds.windows(2).flat_map(|round| {
        (round[0]..round[1])
            .step_by(lanes * WAVEFRONT_LANE_BATCHES)
            .map(move |start| start..round[1].min(start + lanes * WAVEFRONT_LANE_BATCHES))
    });
    for wavefront in wavefronts {
        let mut families: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for i in wavefront {
            families.entry(family(&plans[i])).or_default().push(i);
        }
        for (_, mut members) in families {
            members.sort_by_cached_key(|&i| {
                let earliest = plans[i]
                    .specs()
                    .map(|s| (s.time * 1000.0).round() as i64)
                    .min();
                (
                    earliest.unwrap_or(i64::MAX),
                    plans[i].len(),
                    plans[i].canonical_key(),
                )
            });
            batches.extend(members.chunks(lanes).map(<[usize]>::to_vec));
        }
    }
    batches
}

/// Replays one session's public calls on this thread. `store_root` is
/// the replay's own store root (shared by the `store-rerun` sessions);
/// `cold` holds the cold scalar results of the same plans.
fn replay_session(
    experiment: &ExperimentConfig,
    traced: &TracedSession,
    store_root: Option<&Path>,
    cold: &[RunResult],
) -> Replay {
    let mut replay = Replay::default();
    let mut profiler = ExperimentRunner::new(experiment.clone());
    let (profiling, profiling_s) = time(|| {
        (0..2)
            .map(|i| profiler.run_profiling(i))
            .collect::<Vec<_>>()
    });
    replay.profiling_s = profiling_s;
    let traces = profiling.iter().map(|r| r.trace.clone()).collect();
    let (monitor, calibrate_s) =
        time(|| InvariantMonitor::calibrate(traces, MonitorConfig::default()));
    replay.calibrate_s = calibrate_s;

    let anchored = anchored(experiment, &profiling[0]);
    let mut runner = ExperimentRunner::new(anchored.clone());
    let mut store = None;
    let mut tier = None;
    if let Some(root) = store_root {
        let shared = Arc::new(SharedSnapshotTier::new(anchored.checkpoints.max_bytes));
        runner.set_shared_tier(Arc::clone(&shared));
        let (opened, open_s) = time(|| SnapshotStore::open(root, experiment, DEFAULT_STORE_BUDGET));
        replay.store_open_s = open_s;
        let mut opened = opened.expect("the replay's store root is writable");
        let (_, hydrate_s) = time(|| opened.hydrate(&shared, experiment));
        replay.hydrate_s = hydrate_s;
        store = Some(opened);
        tier = Some(shared);
    }

    let plans = &traced.session.plans;
    let batches = lane_batches(plans, &traced.clock.round_starts, anchored.lockstep_lanes);
    let mut results: Vec<Option<RunResult>> = vec![None; plans.len()];
    for batch in &batches {
        let group: Vec<FaultPlan> = batch.iter().map(|&i| plans[i].clone()).collect();
        let (out, elapsed) = time(|| runner.run_batch_contained(group));
        replay.runs_s += elapsed;
        for (&i, result) in batch.iter().zip(out) {
            results[i] = Some(result);
        }
    }
    replay.plans = plans.len();
    replay.consistent = results.len() == cold.len()
        && results
            .iter()
            .zip(cold)
            .all(|(batched, cold)| batched.as_ref() == Some(cold));
    for result in results.iter().flatten() {
        let (_, check_s) = time(|| monitor.check(&result.trace));
        replay.check_s.push(check_s);
    }

    if let (Some(store), Some(tier)) = (&mut store, &tier) {
        tier.republish();
        let (_, flush_s) = time(|| store.flush(tier, experiment));
        replay.flush_s = flush_s;
    }
    replay
}

/// Per-call layer time accumulated by [`mirror_run`] (s).
#[derive(Debug, Default)]
struct LayerClock {
    steps: u64,
    sim_s: f64,
    firmware_s: f64,
    link_s: f64,
    workload_s: f64,
    cuts: u64,
    capture_s: f64,
    restore_s: f64,
}

/// The runner's cold lockstep loop, rebuilt from the substrate crates
/// with every layer call timed. Every checkpoint interval it also
/// captures each layer's snapshot and restores it into a discarded
/// copy. Returns the trace samples, which must equal `run_with_plan`'s.
fn mirror_run(cfg: &ExperimentConfig, plan: FaultPlan, clock: &mut LayerClock) -> Vec<StateSample> {
    let link_plan = plan.link_plan().clone();
    let mut sim_config = SimConfig {
        dt: cfg.dt,
        seed: cfg.seed,
        ..SimConfig::default()
    };
    if let Some(noise) = &cfg.noise {
        sim_config.sensors.noise = noise.clone();
    }
    let mut sim = Simulator::new_shared(sim_config, cfg.workload.shared_environment());
    let injector = SharedInjector::new(FaultInjector::new(plan.clone()));
    let mut firmware = Firmware::new(cfg.profile, cfg.bugs.clone(), injector.clone());
    let mut link = FaultyLink::new(
        link_plan.clone(),
        SimRng::seed_from_u64(cfg.seed ^ LINK_RNG_SALT),
    );
    let mut tracker = ProtocolTracker::new();
    let mut workload = cfg.workload.fresh();
    let mut samples = Vec::new();
    let mut outbox: Vec<Message> = Vec::new();
    let mut next_sample_time = 0.0;
    let mut terminal_since: Option<f64> = None;
    let mut output = StepOutput::empty();
    sim.step_into(&MotorCommands::IDLE, &mut output);
    let interval = CheckpointConfig::default().interval;
    let mut next_cut = interval;

    while sim.time() < cfg.max_duration {
        let time = sim.time();
        if time >= next_cut {
            next_cut += interval;
            let start = Instant::now();
            let sim_snap = sim.snapshot();
            let firmware_snap = firmware.snapshot();
            let injector_snap = injector.snapshot();
            let link_snap = LinkSnapshot::capture(&link);
            clock.capture_s += start.elapsed().as_secs_f64();
            let (restore_plan, restore_link_plan) = (plan.clone(), link_plan.clone());
            let start = Instant::now();
            let restored = (
                sim_snap.into_restored(),
                firmware_snap.into_restored(SharedInjector::new(
                    injector_snap.into_restored_with_plan(restore_plan),
                )),
                link_snap.into_restored_with_plan(restore_link_plan),
            );
            clock.restore_s += start.elapsed().as_secs_f64();
            drop(restored);
            clock.cuts += 1;
        }

        firmware.drain_outbox_into(&mut outbox);
        let start = Instant::now();
        for msg in &outbox {
            link.send(Endpoint::Vehicle, msg, time);
        }
        let telemetry = link.deliver(Endpoint::GroundStation, time);
        clock.link_s += start.elapsed().as_secs_f64();
        tracker.note_delivered(&telemetry, time, firmware.mission().items());
        let start = Instant::now();
        let (commands, status) = workload.tick(&telemetry, time);
        clock.workload_s += start.elapsed().as_secs_f64();
        for msg in &commands {
            tracker.note_sent(msg, time);
        }
        let start = Instant::now();
        for msg in &commands {
            link.send(Endpoint::GroundStation, msg, time);
        }
        let inbound = link.deliver(Endpoint::Vehicle, time);
        clock.link_s += start.elapsed().as_secs_f64();
        firmware.handle_messages(inbound.iter());
        if status.is_terminal() {
            let since = *terminal_since.get_or_insert(time);
            if time - since >= cfg.grace_period {
                break;
            }
        }

        let start = Instant::now();
        let motor = firmware.step(&output.readings, time, cfg.dt);
        let mid = Instant::now();
        sim.step_into(&motor, &mut output);
        let end = Instant::now();
        clock.firmware_s += (mid - start).as_secs_f64();
        clock.sim_s += (end - mid).as_secs_f64();
        clock.steps += 1;

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
    samples
}

fn sum_stats<'a>(stats: impl IntoIterator<Item = &'a CheckpointStats>) -> CheckpointStats {
    let mut total = CheckpointStats::default();
    for s in stats {
        total.forked_runs += s.forked_runs;
        total.cold_runs += s.cold_runs;
        total.shared_hits += s.shared_hits;
        total.snapshots_recorded += s.snapshots_recorded;
        total.snapshots_evicted += s.snapshots_evicted;
        total.cached_bytes += s.cached_bytes;
        total.simulated_seconds_skipped += s.simulated_seconds_skipped;
    }
    total
}

/// Equal in every field except `approach`, which a custom strategy sets
/// to `None`.
fn same_result(traced: &CampaignResult, reference: &CampaignResult) -> bool {
    let mut normalized = traced.clone();
    normalized.approach = reference.approach;
    normalized == *reference
}

/// The traced run of benchmark seed `seed`: one campaign seed, the first
/// the timed run would use.
pub(crate) fn run(workload: Workload, seed: u64, scratch: &mut Scratch) -> Report {
    let benchmark_seed = seed;
    let seed = campaign_seeds(seed)[0];
    let plain = run_rep(workload, seed, scratch, false, |b| b);
    let plain_s: f64 = plain.iter().map(|s| s.wall_s).sum();

    let mut handles = Vec::new();
    let sessions = run_rep(workload, seed, scratch, true, |builder| {
        let clock = Arc::new(Mutex::new(StrategyClock::default()));
        let collector = Arc::new(WorkerStatsCollector::new());
        handles.push((Arc::clone(&clock), Arc::clone(&collector)));
        builder
            .boxed_strategy(Box::new(TimedStrategy {
                inner: Approach::Avis.strategy(),
                clock,
            }))
            .worker_stats(collector)
    });
    let traced: Vec<TracedSession> = sessions
        .into_iter()
        .zip(handles)
        .map(|(session, (clock, collector))| TracedSession {
            session,
            clock: std::mem::take(&mut *clock.lock().expect("strategy clock poisoned")),
            stats: collector.collected(),
        })
        .collect();
    let traced_s: f64 = traced.iter().map(|t| t.session.wall_s).sum();

    // Verification.
    let reference = workload.reference(seed);
    let expected = if benchmark_seed == DEFAULT_SEED {
        workload.expected_digests(benchmark_seed, 1)[0]
    } else {
        digest(&reference)
    };
    let mut failed = mismatches(workload, &plain, expected);
    let mut wrapper_ok = true;
    for t in &traced {
        if !same_result(&t.session.result, &reference) {
            failed += 1;
            wrapper_ok = false;
        }
    }
    let reference_ok = digest(&reference) == expected;
    let attempted = plain.len() + traced.len();

    // Scalar replays of the first session's plans: checkpointed (the
    // campaign's anchors) and cold.
    let experiment = workload.experiment(seed);
    let plans = traced[0].session.plans.clone();
    let mut profiler = ExperimentRunner::new(experiment.clone());
    let golden = profiler.run_profiling(0);
    let mut warm_runner = ExperimentRunner::new(anchored(&experiment, &golden));
    let mut cold_cfg = experiment.clone();
    cold_cfg.checkpoints = CheckpointConfig::disabled();
    let mut cold_runner = ExperimentRunner::new(cold_cfg);
    let mut run_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut cold_results = Vec::new();
    let mut scalar_ok = true;
    for plan in &plans {
        let (warm, warm_s) = time(|| warm_runner.run_contained(plan.clone()));
        let (cold, cold_s) = time(|| cold_runner.run_contained(plan.clone()));
        scalar_ok &= warm == cold;
        run_ms.push(warm_s * 1e3);
        cold_ms.push(cold_s * 1e3);
        cold_results.push(cold);
    }
    let replay_stats = warm_runner.checkpoint_stats();
    let simulated: f64 = cold_results.iter().map(|r| r.simulated_seconds).sum();
    let steps = ((simulated - replay_stats.simulated_seconds_skipped) / experiment.dt).round();

    // Layer replays of every traced session.
    let store_root = workload.uses_store().then(|| scratch.fresh());
    let replays: Vec<Replay> = traced
        .iter()
        .map(|t| {
            let cold = if t.session.plans == plans {
                cold_results.clone()
            } else {
                t.session
                    .plans
                    .iter()
                    .map(|p| cold_runner.run_contained(p.clone()))
                    .collect()
            };
            replay_session(&experiment, t, store_root.as_deref(), &cold)
        })
        .collect();
    if let Some(root) = &store_root {
        let _ = std::fs::remove_dir_all(root);
    }
    let batches_ok = replays.iter().all(|r| r.consistent);

    // Mirror loop over the golden plan and a few committed plans.
    let mut layers = LayerClock::default();
    let mut mirror_ok = true;
    let mut mirrored = vec![FaultPlan::empty()];
    mirrored.extend(plans.iter().take(MIRRORED_PLANS).cloned());
    for plan in mirrored {
        let expected = cold_runner.run_with_plan(plan.clone()).trace.samples;
        mirror_ok &= mirror_run(&experiment, plan, &mut layers) == expected;
    }

    // Reconciliation of traced wall time.
    let strategy_s: f64 = traced
        .iter()
        .map(|t| t.clock.propose_s + t.clock.decide_s + t.clock.observe_s)
        .sum();
    let sum = |f: &dyn Fn(&Replay) -> f64| -> f64 { replays.iter().map(f).sum() };
    let attributed = [
        ("campaign.profiling", sum(&|r| r.profiling_s)),
        ("monitor.calibrate", sum(&|r| r.calibrate_s)),
        ("store.open+hydrate", sum(&|r| r.store_open_s + r.hydrate_s)),
        ("runner+batch (lane-batched runs)", sum(&|r| r.runs_s)),
        ("monitor.check", sum(&|r| r.check_s.iter().sum())),
        ("store.flush", sum(&|r| r.flush_s)),
        ("strategy", strategy_s),
    ];
    let attributed_s: f64 = attributed.iter().map(|(_, s)| s).sum();
    let unattributed_s = traced_s - attributed_s;

    let stats = sum_stats(traced.iter().flat_map(|t| &t.stats));
    let committed: usize = traced.iter().map(|t| t.session.committed).sum();
    let runs_executed = stats.forked_runs + stats.cold_runs;
    let search_cpu: f64 = traced.iter().map(|t| t.session.search_cpu_s).sum();
    let search_wall: f64 = traced.iter().map(|t| t.session.search_s()).sum();
    // The read path is the last session's hydrate, the write path the
    // first session's flush.
    let hydrated = traced
        .iter()
        .rev()
        .find_map(|t| t.session.hydrated)
        .unwrap_or((0, 0));
    let flushed = traced
        .iter()
        .find_map(|t| t.session.flushed)
        .unwrap_or((0, 0, 0));
    let checks: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.check_s.iter().map(|s| s * 1e3))
        .collect();
    let batched_plans: usize = replays.iter().map(|r| r.plans).sum();
    let per_step = |s: f64| s / layers.steps.max(1) as f64 * 1e6;
    let per_cut = |s: f64| s / layers.cuts.max(1) as f64 * 1e6;
    let forks = replay_stats.forked_runs + replay_stats.cold_runs;

    println!(
        "traced {} campaign seed {seed}: traced campaign_s {traced_s:.6}, untraced {plain_s:.6}, tracing overhead {:.6} s",
        workload.name(),
        traced_s - plain_s
    );
    println!("  reconciliation (layer spans replayed serially on the bench thread):");
    for (name, seconds) in &attributed {
        println!("    {name:<34} {seconds:>10.6} s");
    }
    println!("    {:<34} {unattributed_s:>10.6} s", "engine.unattributed");
    println!("    {:<34} {traced_s:>10.6} s", "= traced campaign_s");
    if unattributed_s < 0.0 {
        println!(
            "  NOTE: negative remainder: replayed layer time exceeds traced wall time ({})",
            if workload.parallelism() > 1 {
                "layers overlap across workers"
            } else {
                "the serial replay ran slower than the campaign"
            }
        );
    }
    let split = if mirror_ok {
        "verified"
    } else {
        "UNVERIFIED (mirror samples differ from run_with_plan)"
    };
    println!(
        "  sim/firmware/hinj/workload split: {split} over {} steps",
        layers.steps
    );
    if !wrapper_ok {
        println!("  MISMATCH: the timing wrapper changed the campaign result");
    }
    if !reference_ok {
        println!("  MISMATCH: the reference result differs from the expected digest");
    }
    if !(scalar_ok && batches_ok) {
        println!("  MISMATCH: replayed runs differ between cold, checkpointed and lane-batched execution");
    }
    let p1 = workload.parallelism() == 1;
    println!(
        "  exact across runs: simulations {} unsafe {} labels {} symmetry_pruned {} found_bug_pruned {} runner.steps {steps} replay forks {}/{} skipped {:.3} s{}",
        reference.simulations,
        reference.unsafe_count(),
        reference.labels_evaluated,
        reference.symmetry_pruned,
        reference.found_bug_pruned,
        replay_stats.forked_runs,
        forks,
        replay_stats.simulated_seconds_skipped,
        if workload.uses_store() {
            format!(" store.chains_loaded {} store.hydrate_bytes {} store.flushed_chains {} store.bytes_on_disk {} store.dedup_hits {}", hydrated.0, hydrated.1, flushed.0, flushed.1, flushed.2)
        } else {
            String::new()
        }
    );
    println!(
        "  {} across runs: campaign worker stats (snapshot.forked_runs/cold_runs/shared_hits/recorded/evicted/cached_bytes/skipped_sim_s, engine.runs_executed)",
        if p1 { "exact" } else { "scheduling-dependent at parallelism 2" }
    );
    println!(
        "  prefix sharing: {:.1}% of scenarios forked, {:.1}% of simulated seconds skipped (serial checkpointed replay)",
        100.0 * replay_stats.forked_runs as f64 / forks.max(1) as f64,
        100.0 * replay_stats.simulated_seconds_skipped / simulated.max(f64::MIN_POSITIVE)
    );

    let metrics = vec![
        (
            "campaign.profiling_s",
            sum(&|r| r.profiling_s) / replays.len() as f64,
            "s",
        ),
        (
            "monitor.calibrate_ms",
            sum(&|r| r.calibrate_s) / replays.len() as f64 * 1e3,
            "ms",
        ),
        (
            "store.hydrate_s",
            replays.last().map_or(0.0, |r| r.hydrate_s),
            "s",
        ),
        ("store.hydrate_bytes", hydrated.1 as f64, "bytes"),
        ("store.chains_loaded", hydrated.0 as f64, "count"),
        ("store.flush_s", replays[0].flush_s, "s"),
        ("store.bytes_on_disk", flushed.1 as f64, "bytes"),
        ("store.dedup_hits", flushed.2 as f64, "count"),
        ("runner.run_ms_p50", median(&run_ms), "ms"),
        ("runner.run_ms_p95", percentile(&run_ms, 0.95), "ms"),
        ("runner.cold_run_ms_p50", median(&cold_ms), "ms"),
        ("runner.steps", steps, "count"),
        ("snapshot.forked_runs", stats.forked_runs as f64, "count"),
        ("snapshot.cold_runs", stats.cold_runs as f64, "count"),
        (
            "snapshot.skipped_sim_s",
            stats.simulated_seconds_skipped,
            "s",
        ),
        ("snapshot.shared_hits", stats.shared_hits as f64, "count"),
        (
            "snapshot.recorded",
            stats.snapshots_recorded as f64,
            "count",
        ),
        ("snapshot.evicted", stats.snapshots_evicted as f64, "count"),
        ("snapshot.capture_us", per_cut(layers.capture_s), "us"),
        ("snapshot.restore_us", per_cut(layers.restore_s), "us"),
        ("snapshot.cached_bytes", stats.cached_bytes as f64, "bytes"),
        (
            "snapshot.fork_share",
            replay_stats.forked_runs as f64 / forks.max(1) as f64,
            "ratio",
        ),
        (
            "snapshot.skipped_share",
            replay_stats.simulated_seconds_skipped / simulated.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        (
            "batch.run_ms_per_plan",
            sum(&|r| r.runs_s) / batched_plans.max(1) as f64 * 1e3,
            "ms",
        ),
        ("sim.step_us", per_step(layers.sim_s), "us"),
        ("firmware.step_us", per_step(layers.firmware_s), "us"),
        ("hinj.link_us", per_step(layers.link_s), "us"),
        ("workload.tick_us", per_step(layers.workload_s), "us"),
        ("monitor.check_ms_p50", median(&checks), "ms"),
        ("monitor.check_ms_p95", percentile(&checks, 0.95), "ms"),
        (
            "strategy.propose_ms",
            traced.iter().map(|t| t.clock.propose_s).sum::<f64>() * 1e3,
            "ms",
        ),
        (
            "strategy.decide_ms",
            traced.iter().map(|t| t.clock.decide_s).sum::<f64>() * 1e3,
            "ms",
        ),
        (
            "strategy.observe_ms",
            traced.iter().map(|t| t.clock.observe_s).sum::<f64>() * 1e3,
            "ms",
        ),
        ("engine.busy_cores", search_cpu / search_wall, "cores"),
        ("engine.runs_executed", runs_executed as f64, "count"),
        (
            "engine.speculation_yield",
            committed as f64 / runs_executed.max(1) as f64,
            "ratio",
        ),
        ("engine.unattributed_s", unattributed_s, "s"),
    ];
    for (name, value, unit) in &metrics {
        println!("  {name:<26} {value:.6} {unit}");
    }
    Report {
        correct: failed == 0 && reference_ok && scalar_ok && batches_ok,
        attempted,
        failed,
        metrics,
    }
}
