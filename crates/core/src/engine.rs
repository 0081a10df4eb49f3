//! The campaign engine: drives any [`Strategy`] through its
//! propose / decide / observe lifecycle, serially or on a scoped worker
//! pool, while producing a [`crate::checker::CampaignResult`]
//! **bit-identical** at every parallelism and streaming
//! [`CampaignEvent`]s to the observer in commit order.
//!
//! # Why parallelism cannot change the result
//!
//! A test run is a pure function of its [`FaultPlan`]: the runner
//! provisions a fresh simulator + firmware + workload per run and seeds
//! every noise source from the experiment configuration alone, so two
//! executions of the same plan — on any thread, in any order — yield the
//! same [`RunResult`]. What is *not* order-independent is the campaign
//! bookkeeping around the runs: budget accounting, pruning feedback and
//! the discovery order of unsafe conditions. The engine therefore splits
//! each strategy round into three phases:
//!
//! 1. **Proposal.** [`Strategy::propose`] emits the round's candidates.
//!    Rounds are the strategy's natural work units (a SABRE anchor's
//!    candidate sets, a fixed batch of BFI sites) and never depend on the
//!    worker count — see the determinism contract in [`crate::strategy`].
//! 2. **Speculative execution.** Candidates carrying a speculative plan
//!    are executed ahead of the commit in *wavefronts* of a small
//!    multiple of the pool size ([`BATCH_FACTOR`]), so that a bug
//!    committed mid-round cancels its now-pruned siblings
//!    ([`Strategy::revalidate`]) instead of wasting runs on them. Each
//!    admitted wavefront is sorted by injection prefix and cut into one
//!    contiguous slice per worker; a slice runs as one lockstep batch
//!    ([`crate::batch`]). The serial engine runs the whole wavefront as
//!    one slice on its inline runner. Speculation past the remaining
//!    simulation budget is capped; wrong or missing speculation is
//!    repaired at commit by executing inline.
//! 3. **Sequential commit.** For every candidate, in round order, the
//!    engine applies the authoritative control flow: budget check,
//!    [`Strategy::decide`] (label charges, pruning), post-charge budget
//!    re-check, run execution (pool result or inline fallback),
//!    absorption into the campaign state, observer events and
//!    [`Strategy::observe`] feedback.
//!
//! The commit phase performs precisely the serial sequence of decisions
//! and mutations, so the pruning counters, cost accounting,
//! unsafe-condition order, observer event stream and every other
//! observable of the campaign match the serial engine exactly — the
//! determinism suite in `tests/engine_determinism.rs` asserts structural
//! equality of the full campaign result and of the event stream.

use crate::campaign::{CampaignEvent, CampaignObserver};
use crate::checker::{Budget, CampaignState};
use crate::contain;
use crate::runner::{ExperimentConfig, ExperimentRunner, RunResult};
use crate::snapshot::{CheckpointStats, SharedSnapshotTier};
use crate::strategy::{Candidate, Observation, Strategy};
use avis_hinj::FaultPlan;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// The default worker count: the number of available CPU cores.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Collects each engine worker's [`CheckpointStats`] when a campaign
/// finishes, so callers (benches, tuning tools) can observe cache-tier
/// behaviour — local-cache vs shared-tier fork shares, fork depths — that
/// the deterministic [`crate::checker::CampaignResult`] deliberately
/// excludes (the numbers vary with scheduling; results never do).
#[derive(Debug, Default)]
pub struct WorkerStatsCollector {
    stats: Mutex<Vec<CheckpointStats>>,
}

impl WorkerStatsCollector {
    /// An empty collector.
    pub fn new() -> Self {
        WorkerStatsCollector::default()
    }

    /// The per-runner statistics pushed so far (engine workers at pool
    /// shutdown, plus the campaign's inline runner at campaign end).
    pub fn collected(&self) -> Vec<CheckpointStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub(crate) fn push(&self, stats: CheckpointStats) {
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stats);
    }
}

/// The engine-facing slice of a campaign configuration.
pub(crate) struct EngineParams<'a> {
    /// The experiment each worker provisions its runner from.
    pub experiment: &'a ExperimentConfig,
    /// The shared test budget.
    pub budget: &'a Budget,
    /// Worker count; `1` executes every run inline on the calling thread.
    pub parallelism: usize,
    /// The read-mostly shared snapshot tier, attached to every worker's
    /// runner and republished by the engine between speculative
    /// wavefronts so one worker's cold run warms every worker's cache.
    pub shared: Option<Arc<SharedSnapshotTier>>,
    /// Sink for per-worker checkpoint statistics, filled at pool
    /// shutdown.
    pub worker_stats: Option<Arc<WorkerStatsCollector>>,
    /// The persistent snapshot store, if the campaign configured one:
    /// the engine flushes newly published chains write-behind at each
    /// commit boundary (right after the tier republish), so a crash
    /// mid-campaign still leaves the completed wavefronts' chains on
    /// disk for the next session.
    pub store: Option<Arc<parking_lot::Mutex<crate::store::SnapshotStore>>>,
}

/// Simulations left before the hard budget cap (`usize::MAX` for
/// cost-only budgets). Speculating past this is guaranteed waste.
fn remaining_simulations(budget: &Budget, state: &CampaignState) -> usize {
    if budget.max_simulations == usize::MAX {
        usize::MAX
    } else {
        budget.max_simulations.saturating_sub(state.simulations)
    }
}

/// Takes the speculative result for `token`, or — when speculation was
/// capped, filtered or wrong — executes the plan inline. Runs are pure
/// functions of their plan, so the fallback preserves bit-identical
/// results; a stale speculative result whose plan diverged from the
/// committed plan is discarded rather than absorbed.
fn take_or_run(
    results: &mut BTreeMap<u64, RunResult>,
    token: u64,
    plan: FaultPlan,
    state: &mut CampaignState,
) -> RunResult {
    match results.remove(&token) {
        Some(result) if result.plan == plan => result,
        // Contained: a panicking run comes back as a first-class
        // `RunVerdict::Crashed` result instead of unwinding through the
        // commit loop — the inline path is the repair of last resort, so
        // it must be exactly as fault-tolerant as the workers.
        _ => state.runner.run_contained(plan),
    }
}

/// A unit of speculative work: the candidate token the result must be
/// committed under, plus the plan to execute.
type Job = (u64, FaultPlan);

/// Speculation admission for one wavefront, shared by the pool and the
/// serial lockstep path: drops hints the strategy has withdrawn
/// ([`Strategy::revalidate`]) and hints its pruning state rates as
/// probably doomed ([`Strategy::prune_probability`]) — skipping a doomed
/// job entirely beats merely shrinking the wavefront around it — caps
/// the rest at the remaining simulation budget, and returns the jobs
/// sorted by [`prefix_dispatch_key`].
fn admit(
    strategy: &dyn Strategy,
    wavefront: &[Candidate],
    budget: &Budget,
    state: &CampaignState,
) -> Vec<Job> {
    let mut jobs: Vec<Job> = wavefront
        .iter()
        .filter(|c| strategy.revalidate(c))
        .filter(|c| strategy.prune_probability(c) < SPECULATION_ADMISSION_CEILING)
        .filter_map(|c| c.speculative().map(|plan| (c.token(), plan.clone())))
        .take(remaining_simulations(budget, state))
        .collect();
    jobs.sort_by_cached_key(|(_, plan)| prefix_dispatch_key(plan));
    jobs
}

/// Execution-order key grouping plans that share an injection prefix:
/// earliest failure time first, then failure count, then the canonical
/// plan key. In this order prefix-sharing siblings sit side by side, so
/// a slice of the sorted wavefront keeps them on one runner, where the
/// lockstep batch and the per-runner snapshot cache ([`crate::snapshot`])
/// reuse their shared prefix. Results are keyed by candidate token and
/// committed strictly in round order, so execution order can never
/// change a campaign observable.
fn prefix_dispatch_key(plan: &FaultPlan) -> (i64, usize, String) {
    let earliest = plan
        .specs()
        .map(|s| s.time)
        .chain(plan.link_plan().fault_times())
        .map(|t| (t * 1000.0).round() as i64)
        .min()
        .unwrap_or(i64::MAX);
    (earliest, plan.len(), plan.canonical_key())
}

/// What a worker sends back: a completed run (with the worker runner's
/// checkpoint-breaker flag riding along, so the engine can announce
/// degraded mode), or the rendered panic of a worker that died *outside*
/// the per-run containment — a harness fault, not a scenario crash; the
/// collector then stops waiting and the commit's inline fallback covers
/// the lost jobs instead of deadlocking the wavefront.
type WorkerOutcome = Result<(u64, RunResult, bool), String>;

/// Runs one slice of a sorted wavefront on `runner`: one lockstep batch
/// when the slice holds at least two plans and lockstep is enabled,
/// scalar contained runs otherwise. The serial path and every pool
/// worker execute speculation through this one function. Sorted input
/// puts prefix-sharing siblings side by side, so the batch's plan
/// algebra (see [`crate::batch`]) advances their shared prefix once.
fn run_slice(runner: &mut ExperimentRunner, jobs: Vec<Job>) -> Vec<(u64, RunResult)> {
    if jobs.len() >= 2 && runner.config().lockstep_lanes > 1 {
        let (tokens, plans): (Vec<u64>, Vec<FaultPlan>) = jobs.into_iter().unzip();
        tokens
            .into_iter()
            .zip(runner.run_batch_contained(plans))
            .collect()
    } else {
        jobs.into_iter()
            .map(|(token, plan)| (token, runner.run_contained(plan)))
            .collect()
    }
}

/// The worker pool as the round loop sees it: one job channel per
/// worker and the shared result channel. Dropping the pool closes the
/// job channels, which is how the workers learn to exit — on the normal
/// return path and on unwind alike, so the scope's joins never hang.
struct Pool {
    job_txs: Vec<Sender<Vec<Job>>>,
    result_rx: Receiver<WorkerOutcome>,
}

impl Pool {
    /// Cuts one sorted wavefront into at most one contiguous slice per
    /// worker and blocks until every result is in, returning the results
    /// plus whether any worker's checkpoint breaker has tripped
    /// (degraded mode).
    ///
    /// Scenario crashes never surface here — they come back as ordinary
    /// results carrying [`crate::runner::RunVerdict::Crashed`]. A worker
    /// that dies *outside* the per-run containment (a harness fault)
    /// sends one final `Err`; the collector then stops waiting — its
    /// in-flight slice is unrecoverable, and results from still-healthy
    /// workers keep arriving into later collections, where stale tokens
    /// are ignored by the commit's plan-equality check. In later
    /// wavefronts the dead worker's job channel is closed, so its slice
    /// is not expected at all. Every job whose speculative result is
    /// missing is re-executed inline at commit (see [`take_or_run`]), so
    /// no proposed job is ever leaked.
    fn execute(&self, jobs: Vec<Job>) -> (BTreeMap<u64, RunResult>, bool) {
        let mut expected = jobs.len();
        let slice_len = jobs.len().div_ceil(self.job_txs.len());
        let mut jobs = jobs.into_iter();
        for tx in &self.job_txs {
            let slice: Vec<Job> = jobs.by_ref().take(slice_len).collect();
            if slice.is_empty() {
                break;
            }
            if let Err(unsent) = tx.send(slice) {
                expected -= unsent.0.len();
            }
        }
        let mut results = BTreeMap::new();
        let mut degraded = false;
        while results.len() < expected {
            // A closed channel means every worker exited — nothing more
            // can arrive; stop collecting and let the commit repair the
            // missing results inline.
            let Ok(outcome) = self.result_rx.recv() else {
                break;
            };
            match outcome {
                Ok((token, result, worker_degraded)) => {
                    degraded |= worker_degraded;
                    results.insert(token, result);
                }
                Err(harness_panic) => {
                    // A worker died outside the per-run containment.
                    // Waiting for its lost slice would hang forever, so
                    // stop here and let the inline fallback account for
                    // every undelivered job. The message carries the
                    // scenario fingerprint (see `run_campaign`), so the
                    // surviving log identifies which scenario took the
                    // worker down.
                    eprintln!("avis: campaign worker died: {harness_panic}");
                    break;
                }
            }
        }
        (results, degraded)
    }
}

/// Runs the campaign body (everything after profiling/calibration):
/// drives `strategy` round by round until the budget or its search space
/// is exhausted. Serial when `params.parallelism <= 1`, otherwise on a
/// scoped worker pool.
pub(crate) fn run_campaign(
    params: EngineParams<'_>,
    strategy: &mut dyn Strategy,
    state: &mut CampaignState,
    observer: &mut dyn CampaignObserver,
) {
    let workers = params.parallelism.max(1);
    if workers == 1 {
        run_rounds(&params, strategy, state, observer, None);
        return;
    }
    std::thread::scope(|scope| {
        let (result_tx, result_rx) = channel::<WorkerOutcome>();
        let mut job_txs = Vec::with_capacity(workers);
        for me in 0..workers {
            let (job_tx, job_rx) = channel::<Vec<Job>>();
            job_txs.push(job_tx);
            let result_tx = result_tx.clone();
            let experiment = params.experiment.clone();
            let shared = params.shared.clone();
            let collector = params.worker_stats.clone();
            scope.spawn(move || {
                // One fresh runner per worker, kept alive across jobs on
                // purpose: each runner owns a snapshot cache
                // (`crate::snapshot`) that its later jobs fork from, and
                // shares the campaign-wide tier with its siblings.
                // Cache state affects only run *timing* — a forked run is
                // bit-identical to a cold one — so results stay pure
                // functions of their plan.
                let mut runner = ExperimentRunner::new(experiment);
                if let Some(tier) = shared {
                    runner.set_shared_tier(tier);
                }
                let seed = runner.config().seed;
                // The plans currently executing, tracked so a panic that
                // escapes the per-run containment still renders with the
                // scenario fingerprint (seed + canonical plan keys).
                let in_flight = std::cell::RefCell::new(String::new());
                // Scenario crashes are contained *inside* `run_slice`
                // and come back as `RunVerdict::Crashed` results. This
                // outer boundary is belt-and-braces for harness faults
                // (channel, stats code): the worker sends one final
                // `Err` instead of silently dying with the result
                // channel open, which would hang the wavefront collector.
                // The closure owns `job_rx`, so a panic drops (closes)
                // the receiver before that `Err` is sent: by the time
                // the collector gives up on this worker, later
                // wavefronts already see its channel closed.
                let body = contain::catch(|| {
                    for slice in job_rx {
                        *in_flight.borrow_mut() = slice
                            .iter()
                            .map(|(_, plan)| plan.canonical_key())
                            .collect::<Vec<_>>()
                            .join(" | ");
                        let results = run_slice(&mut runner, slice);
                        let degraded = runner.checkpointing_degraded();
                        for (token, result) in results {
                            if result_tx.send(Ok((token, result, degraded))).is_err() {
                                return;
                            }
                        }
                    }
                });
                if let Err(payload) = body {
                    let context = format!(
                        "worker {me}, experiment seed {seed}, plan {}",
                        in_flight.borrow()
                    );
                    let _ = result_tx.send(Err(contain::render_panic(payload.as_ref(), &context)));
                }
                if let Some(collector) = collector {
                    collector.push(runner.checkpoint_stats());
                }
            });
        }
        drop(result_tx);
        let pool = Pool { job_txs, result_rx };
        run_rounds(&params, strategy, state, observer, Some(&pool));
        // Dropping `pool` here (or while unwinding) closes the job
        // channels; the workers finish their slice, report their stats
        // and exit, and the scope joins them.
    })
}

/// How many speculative jobs the engine dispatches per wavefront, as a
/// multiple of the worker count. Larger factors amortise channel traffic
/// and keep workers busy across the sequential commit, but every
/// speculative run the commit rejects (pruned by a bug found earlier in
/// the same round, or past the budget) is wasted work — so wavefronts
/// are kept a small multiple of the pool size rather than, say, a whole
/// SABRE anchor's candidate list at once. Between wavefronts the engine
/// re-asks the strategy ([`Strategy::revalidate`]) whether each hint is
/// still worth running, so a bug committed in one wavefront cancels its
/// now-pruned siblings in the next.
const BATCH_FACTOR: usize = 4;

/// Pruning-aware wavefront sizing. Speculation only pays off when the
/// speculated runs actually commit; every unsafe commit triggers
/// found-bug pruning that invalidates speculated siblings, turning them
/// into pure waste (painfully visible on one core, where wasted runs
/// steal cycles from useful ones). The sizer tracks an exponentially
/// weighted unsafe-commit rate and
///
/// * **withdraws speculation entirely** while the rate is high — the
///   commit then executes runs inline, which *is* the serial engine, so
///   a bug-dense campaign degrades to serial cost instead of paying for
///   doomed wavefronts;
/// * **shrinks the wavefront** (quartering, regrowing by doubling)
///   around isolated bug findings, so a mixed regime speculates
///   shallowly instead of `BATCH_FACTOR × workers` deep.
///
/// The rate decays with every clean commit, so the engine re-enters the
/// speculative regime a handful of clean commits after a bug-dense
/// stretch ends. Sizing and gating only decide which runs are
/// *pre-executed*, never which runs commit, so they cannot change a
/// campaign observable.
#[derive(Debug, Clone, Copy)]
struct WavefrontSizer {
    max: usize,
    size: usize,
    /// Exponentially weighted rate of unsafe commits (decay 0.9).
    bug_rate: f64,
}

/// Unsafe-commit rate above which speculation is withdrawn: at one bug
/// per four commits, a full wavefront loses more to pruned siblings
/// than it gains from overlap.
const SPECULATION_BUG_RATE_CEILING: f64 = 0.25;

/// Per-candidate admission ceiling: a speculative job whose
/// [`Strategy::prune_probability`] estimate reaches this is not
/// dispatched at all — the strategy's own pruning state considers it
/// likely doomed (a sibling bug at the same injection site tends to
/// prune it before commit), so pre-executing it is expected waste. The
/// commit's inline fallback covers any candidate the estimate wrongly
/// withholds, so admission can never change a campaign observable.
const SPECULATION_ADMISSION_CEILING: f64 = 0.75;

impl WavefrontSizer {
    fn new(workers: usize) -> Self {
        let max = workers.max(1) * BATCH_FACTOR;
        WavefrontSizer {
            max,
            size: max,
            bug_rate: 0.0,
        }
    }

    fn size(&self) -> usize {
        self.size
    }

    /// Whether the next wavefront is worth dispatching to the pool at
    /// all.
    fn speculate(&self) -> bool {
        self.bug_rate < SPECULATION_BUG_RATE_CEILING
    }

    /// Feeds one committed run's verdict into the rate estimate.
    fn observe_commit(&mut self, is_unsafe: bool) {
        self.bug_rate = 0.9 * self.bug_rate + if is_unsafe { 0.1 } else { 0.0 };
    }

    fn observe_wavefront(&mut self, found_bug: bool) {
        self.size = if found_bug {
            (self.size / 4).max(1)
        } else {
            (self.size * 2).min(self.max)
        };
    }
}

/// The round loop shared by the serial and parallel paths. The only
/// difference between them is where speculative plans execute; the
/// commit-order control flow — and with it every campaign observable —
/// is byte-for-byte the same, because wavefront boundaries only decide
/// which runs are *pre-executed*, never which runs commit.
fn run_rounds(
    params: &EngineParams<'_>,
    strategy: &mut dyn Strategy,
    state: &mut CampaignState,
    observer: &mut dyn CampaignObserver,
    pool: Option<&Pool>,
) {
    let mut sizer = WavefrontSizer::new(params.parallelism.max(1));
    // Serial lockstep: with no pool and more than one configured lane,
    // the inline runner pre-executes each wavefront's admitted plans as
    // one slice — the serial engine's version of speculative execution,
    // identical in admission and repair semantics to the pool path, and
    // bit-identical in every campaign observable (batched results equal
    // scalar results, and a stale or missing one is re-run inline at
    // commit). The lane count sizes the wavefront, and with it the batch.
    let serial_lanes = params.experiment.lockstep_lanes.max(1);
    let serial_batching = pool.is_none() && serial_lanes > 1;
    // Degraded mode is announced at most once per campaign: the first
    // time any runner's checkpoint breaker trips (worker or inline).
    let mut degraded_announced = false;
    let mut announce_degraded = |observer: &mut dyn CampaignObserver, degraded: bool| {
        if degraded && !degraded_announced {
            degraded_announced = true;
            observer.on_event(&CampaignEvent::DegradedMode {
                reason: "repeated snapshot checksum failures tripped the checkpoint \
                         breaker; checkpointing is disabled and remaining runs \
                         cold-start"
                    .to_string(),
            });
        }
    };
    loop {
        if state.out_of_budget(params.budget) {
            break;
        }
        let round = strategy.propose();
        if round.is_empty() {
            break;
        }

        let mut start = 0;
        while start < round.len() {
            let wavefront_size = match pool {
                Some(_) => sizer.size(),
                // Serial lockstep: bounded wavefronts, so a bug found at
                // commit cancels the speculative batch of the *next*
                // wavefront instead of the whole round's.
                None if serial_batching => serial_lanes * BATCH_FACTOR,
                // Serial scalar: no speculation, one "wavefront" per
                // round.
                None => usize::MAX,
            };
            let end = round.len().min(start.saturating_add(wavefront_size));
            let wavefront = &round[start..end];

            // Phase 2: speculative execution of the wavefront's hinted
            // plans — skipping hints the strategy has since withdrawn
            // (a bug committed in an earlier wavefront pruned them) and
            // capping at the remaining simulation budget (running past
            // it is guaranteed waste). The commit's inline fallback
            // covers any plan these filters wrongly skip. In a
            // bug-dense stretch the sizer withdraws speculation
            // entirely (`speculate()` false) and the commit runs
            // inline, exactly like the serial engine.
            let (mut results, workers_degraded): (BTreeMap<u64, RunResult>, bool) = match pool {
                Some(pool) if sizer.speculate() => {
                    // Republish the shared snapshot tier before
                    // dispatching: snapshots recorded since the last
                    // wavefront (on any worker, or inline) become
                    // visible to every worker's lock-free lookups.
                    // Inline wavefronts skip this — republishing is an
                    // O(published-map) rebuild, and the inline runner's
                    // own cache already holds what it recorded.
                    if let Some(tier) = &params.shared {
                        tier.republish();
                        // Commit-boundary write-behind: persist chains
                        // published this wavefront. Incremental (already
                        // persisted cuts are skipped) and purely
                        // observational — a flush failure degrades the
                        // next session's warm start, never this
                        // campaign's results.
                        if let Some(store) = &params.store {
                            store.lock().flush(tier, params.experiment);
                        }
                    }
                    pool.execute(admit(strategy, wavefront, params.budget, state))
                }
                None if serial_batching && sizer.speculate() => {
                    // The whole admitted wavefront is one slice: the
                    // batch's plan algebra forks plans with unrelated
                    // prefixes from the leader earlier, so every live
                    // lane shares one sensor-noise draw per step.
                    let jobs = admit(strategy, wavefront, params.budget, state);
                    let results = run_slice(&mut state.runner, jobs);
                    (results.into_iter().collect(), false)
                }
                _ => (BTreeMap::new(), false),
            };
            announce_degraded(
                observer,
                workers_degraded || state.runner.checkpointing_degraded(),
            );

            // Phase 3: sequential commit in round order.
            let mut wavefront_found_bug = false;
            for candidate in wavefront {
                if state.out_of_budget(params.budget) {
                    return;
                }
                let decision = strategy.decide(candidate);
                state.labels += decision.labels;
                state.cost_seconds += decision.cost_seconds;
                let Some(plan) = decision.plan else { continue };
                // Label charges may themselves exhaust a cost budget;
                // never start a run the budget no longer covers.
                if state.out_of_budget(params.budget) {
                    return;
                }
                let result = take_or_run(&mut results, candidate.token(), plan, state);
                let is_unsafe = state.absorb(&result);
                wavefront_found_bug |= is_unsafe;
                sizer.observe_commit(is_unsafe);
                observer.on_event(&CampaignEvent::RunFinished {
                    simulations: state.simulations,
                    cost_seconds: state.cost_seconds,
                    plan: result.plan.clone(),
                    is_unsafe,
                });
                if is_unsafe {
                    let condition = state
                        .unsafe_conditions
                        .last()
                        // avis-lint: allow(p1, reason = "absorb just returned is_unsafe = true, which always pushes a condition; losing the event would silently drop a found bug")
                        .expect("absorb recorded the condition")
                        .clone();
                    observer.on_event(&CampaignEvent::ViolationFound { condition });
                }
                observer.on_event(&CampaignEvent::BudgetProgress {
                    simulations: state.simulations,
                    cost_seconds: state.cost_seconds,
                    consumed_fraction: params
                        .budget
                        .consumed_fraction(state.simulations, state.cost_seconds),
                });
                strategy.observe(&Observation {
                    candidate,
                    result: &result,
                    is_unsafe,
                });
            }
            // Re-check after the commits: the inline runner may have
            // tripped its breaker while repairing this very wavefront
            // (relevant on the serial path, where this is the only
            // runner there is).
            announce_degraded(observer, state.runner.checkpointing_degraded());
            sizer.observe_wavefront(wavefront_found_bug);
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use avis_hinj::FaultSpec;
    use avis_sim::{SensorInstance, SensorKind};
    use avis_workload::WorkloadStatus;

    fn plan(time: f64) -> FaultPlan {
        FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Gps, 0),
            time,
        )])
    }

    fn result(plan: FaultPlan) -> RunResult {
        RunResult {
            plan,
            trace: Trace {
                sample_interval: 0.1,
                samples: Vec::new(),
                mode_transitions: Vec::new(),
                collision: None,
                fence_violations: 0,
                workload_status: WorkloadStatus::Passed,
                duration: 0.0,
                protocol: Vec::new(),
            },
            simulated_seconds: 0.0,
            triggered_defects: Vec::new(),
            verdict: Default::default(),
        }
    }

    #[test]
    fn collector_skips_the_slice_of_a_worker_whose_receiver_is_closed() {
        // Worker 0 died in an earlier wavefront: its job receiver is gone.
        // Worker 1 is healthy and echoes every job it gets. The collector
        // must return with worker 1's slice instead of waiting forever
        // for worker 0's.
        let (dead_tx, dead_rx) = channel::<Vec<Job>>();
        drop(dead_rx);
        let (live_tx, live_rx) = channel::<Vec<Job>>();
        let (result_tx, result_rx) = channel::<WorkerOutcome>();
        let echo = std::thread::spawn(move || {
            for slice in live_rx {
                for (token, plan) in slice {
                    let _ = result_tx.send(Ok((token, result(plan), false)));
                }
            }
        });
        let pool = Pool {
            job_txs: vec![dead_tx, live_tx],
            result_rx,
        };
        let jobs: Vec<Job> = (0..5).map(|t| (t, plan(10.0 + t as f64))).collect();
        let (results, degraded) = pool.execute(jobs);
        // Five jobs over two workers: slices of 3 and 2; only the live
        // worker's second slice comes back.
        assert_eq!(results.keys().copied().collect::<Vec<_>>(), vec![3, 4]);
        assert!(!degraded);
        drop(pool);
        echo.join()
            .expect("echo worker exits once the pool is dropped");
    }
}
