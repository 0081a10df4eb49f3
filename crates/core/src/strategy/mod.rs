//! The pluggable search-strategy interface.
//!
//! The paper's core contribution is an *extensible* search-order idea
//! (SABRE) compared against swappable baselines. This module makes that
//! extensibility first-class: every injection strategy — the four the
//! paper evaluates plus any user-defined one — implements the
//! [`Strategy`] trait, and the campaign engine (serial *and* parallel)
//! drives them through one common lifecycle:
//!
//! 1. **[`Strategy::initialize`]** — once per campaign, after the
//!    profiling runs: the strategy receives the golden trace, the
//!    experiment configuration, the vehicle's sensor complement and the
//!    deterministic campaign seed, and builds whatever internal state it
//!    needs (a SABRE transition queue, a site iterator, a seeded RNG).
//! 2. **[`Strategy::propose`]** — the strategy emits one *round* of
//!    [`Candidate`]s: the natural unit of work it would explore next (a
//!    SABRE anchor's candidate failure sets, a batch of BFI sites, a
//!    batch of random draws). Each candidate may carry a *speculative*
//!    fault plan, which the parallel engine pre-executes on its worker
//!    pool while the serial commit catches up.
//! 3. **[`Strategy::decide`]** — for each candidate, in round order, the
//!    strategy makes the *authoritative* call: what to charge against the
//!    budget (model-labelling latency), and which plan — if any — to
//!    execute. This is where pruning state mutates.
//! 4. **[`Strategy::observe`]** — the completed run is fed back, still in
//!    round order, so the strategy can react (SABRE enqueues the run's
//!    mode transitions; found-bug pruning learns the plan).
//!
//! # The determinism contract
//!
//! A campaign must produce a bit-identical
//! [`crate::checker::CampaignResult`] whatever the engine's parallelism.
//! The lifecycle guarantees this as long as a strategy follows two rules:
//!
//! * **Round composition must not depend on engine parameters.** The
//!   engine calls `propose` identically at every parallelism; a round's
//!   candidates may depend only on the strategy's own state, which
//!   evolves through the same `decide`/`observe` sequence everywhere.
//! * **Speculation must under-approximate, never contradict.** A
//!   candidate's speculative plan is a *hint*: the engine executes the
//!   plan returned by `decide`, falling back to inline execution when the
//!   hint was absent or wrong. Runs are pure functions of their plan, so
//!   a wrong hint costs time, not correctness.

mod bfi;
mod link;
mod random;
mod round_robin;
mod sabre_strategy;

pub use bfi::BfiStrategy;
pub use link::{LinkProbeStrategy, LinkScenarioStrategy};
pub use random::RandomStrategy;
pub use round_robin::RoundRobinMode;
pub use sabre_strategy::SabreStrategy;

use crate::runner::{ExperimentConfig, RunResult};
use crate::sabre::SabreConfig;
use crate::trace::Trace;
use avis_hinj::FaultPlan;
use avis_sim::SensorSuiteConfig;

/// Everything a strategy may consult when it initialises: the calibrated
/// golden trace, the experiment under test, the SABRE scheduling
/// parameters, the campaign seed and the vehicle's sensor complement.
///
/// Strategies clone what they need out of the context; it is not retained
/// past [`Strategy::initialize`].
#[derive(Debug)]
pub struct StrategyContext<'a> {
    /// The first profiling run's trace — the reference flight whose mode
    /// transitions anchor transition-targeted strategies.
    pub golden: &'a Trace,
    /// The experiment configuration (firmware, defects, workload, dt).
    pub experiment: &'a ExperimentConfig,
    /// SABRE scheduler configuration (horizon already clamped to the
    /// golden trace's duration by the engine).
    pub sabre: SabreConfig,
    /// The deterministic campaign seed (drives e.g. the random baseline).
    pub seed: u64,
    /// The vehicle's sensor complement.
    pub sensors: SensorSuiteConfig,
}

/// One unit of work within a round: an opaque token the strategy uses to
/// recognise the candidate at [`Strategy::decide`] /
/// [`Strategy::observe`] time, plus an optional speculative fault plan
/// for the parallel engine to pre-execute.
#[derive(Debug, Clone)]
pub struct Candidate {
    token: u64,
    speculative: Option<FaultPlan>,
}

impl Candidate {
    /// A candidate the strategy expects to execute: the parallel engine
    /// pre-runs `plan` on the worker pool.
    pub fn speculate(token: u64, plan: FaultPlan) -> Self {
        Candidate {
            token,
            speculative: Some(plan),
        }
    }

    /// A candidate the strategy expects to skip (model-filtered, pruned),
    /// kept in the round because commit-time accounting (label charges)
    /// still applies to it.
    pub fn skip(token: u64) -> Self {
        Candidate {
            token,
            speculative: None,
        }
    }

    /// The strategy-private token identifying this candidate.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The speculative plan, if any.
    pub fn speculative(&self) -> Option<&FaultPlan> {
        self.speculative.as_ref()
    }
}

/// The authoritative commit-time outcome for one candidate: what to
/// charge against the budget and which plan, if any, to execute.
#[derive(Debug, Clone, Default)]
pub struct Decision {
    /// Model labelling calls performed for this candidate.
    pub labels: usize,
    /// Budget cost charged for this candidate before any run (the
    /// modelled labelling latency).
    pub cost_seconds: f64,
    /// The plan to execute, or `None` to skip the candidate.
    pub plan: Option<FaultPlan>,
}

impl Decision {
    /// Skip the candidate, charging nothing.
    pub fn skip() -> Self {
        Decision::default()
    }

    /// Execute `plan`, charging nothing beyond the run itself.
    pub fn run(plan: FaultPlan) -> Self {
        Decision {
            plan: Some(plan),
            ..Decision::default()
        }
    }

    /// Adds a model-labelling charge to the decision.
    pub fn labelled(mut self, labels: usize, cost_seconds: f64) -> Self {
        self.labels += labels;
        self.cost_seconds += cost_seconds;
        self
    }
}

/// A completed run fed back to the strategy, in commit order.
#[derive(Debug)]
pub struct Observation<'a> {
    /// The candidate that produced the run.
    pub candidate: &'a Candidate,
    /// The run's full result (plan, trace, triggered defects).
    pub result: &'a RunResult,
    /// Whether the invariant monitor flagged the run unsafe.
    pub is_unsafe: bool,
}

/// Pruning statistics reported at the end of a campaign
/// ([`crate::checker::CampaignResult::symmetry_pruned`] /
/// [`crate::checker::CampaignResult::found_bug_pruned`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruningCounters {
    /// Scenarios skipped by instance-symmetry / duplicate pruning.
    pub symmetry_pruned: u64,
    /// Scenarios skipped by found-bug pruning.
    pub found_bug_pruned: u64,
}

/// A pluggable injection-search strategy. See the [module
/// documentation](self) for the lifecycle and determinism contract.
///
/// Custom strategies plug into a campaign through
/// [`crate::campaign::CampaignBuilder::strategy`]; no core code needs to
/// change.
pub trait Strategy: Send {
    /// Display name, used in reports and observer events.
    fn name(&self) -> &str;

    /// Called once per campaign, after profiling, before the first round.
    fn initialize(&mut self, ctx: &StrategyContext<'_>);

    /// Emits the next round of candidates. An empty round ends the
    /// campaign (the strategy's search space is exhausted).
    fn propose(&mut self) -> Vec<Candidate>;

    /// Whether a candidate's speculative plan is still worth executing,
    /// given everything the strategy has observed so far. Non-mutating:
    /// the engine calls this right before executing a wavefront of
    /// speculative work, so a bug committed earlier in the round can
    /// cancel now-pruned siblings before they burn a worker. This is an
    /// optimisation hook only — answering `true` for a plan `decide`
    /// later rejects wastes time, never correctness. The default accepts
    /// everything.
    fn revalidate(&self, _candidate: &Candidate) -> bool {
        true
    }

    /// The strategy's estimate, in `0.0..=1.0`, that its own commit-time
    /// pruning will reject this candidate — `1.0` for a plan it would
    /// prune right now, intermediate values for plans that *tend to
    /// become* pruned as sibling results commit (e.g. supersets forming
    /// at an injection site where bugs are already accumulating). The
    /// parallel engine skips speculating candidates above its admission
    /// ceiling instead of merely shrinking the wavefront around them.
    /// Non-mutating and purely an optimisation hook: wrong estimates
    /// cost time (a skipped run executes inline at commit), never
    /// correctness. The default — `0.0` — admits everything.
    fn prune_probability(&self, _candidate: &Candidate) -> f64 {
        0.0
    }

    /// The authoritative commit-time decision for `candidate`. Called in
    /// round order; this is where the strategy mutates pruning state and
    /// charges model labels.
    fn decide(&mut self, candidate: &Candidate) -> Decision;

    /// Feeds a completed run back to the strategy, in commit order.
    fn observe(&mut self, observation: &Observation<'_>);

    /// Pruning statistics for the campaign result. Strategies that do not
    /// prune report zeros.
    fn pruning(&self) -> PruningCounters {
        PruningCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_hinj::FaultSpec;
    use avis_sim::{SensorInstance, SensorKind};

    fn plan() -> FaultPlan {
        FaultPlan::from_specs(vec![FaultSpec::new(
            SensorInstance::new(SensorKind::Gps, 0),
            5.0,
        )])
    }

    #[test]
    fn candidate_constructors() {
        let c = Candidate::speculate(3, plan());
        assert_eq!(c.token(), 3);
        assert_eq!(c.speculative(), Some(&plan()));
        let s = Candidate::skip(9);
        assert_eq!(s.token(), 9);
        assert!(s.speculative().is_none());
    }

    #[test]
    fn decision_helpers_accumulate_charges() {
        let d = Decision::skip();
        assert!(d.plan.is_none());
        assert_eq!(d.labels, 0);
        let d = Decision::run(plan()).labelled(1, 10.0);
        assert_eq!(d.labels, 1);
        assert_eq!(d.cost_seconds, 10.0);
        assert!(d.plan.is_some());
        let d = Decision::skip().labelled(2, 5.0).labelled(1, 2.5);
        assert_eq!(d.labels, 3);
        assert_eq!(d.cost_seconds, 7.5);
    }
}
