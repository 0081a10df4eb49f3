//! Campaign configuration and results: budgets, the [`Approach`] factory
//! for the paper's four built-in strategies and unsafe-condition records.
//!
//! A *campaign* corresponds to one row-cell of the paper's Table III: one
//! strategy, one firmware, one workload, a fixed budget. The paper budgets
//! by wall-clock time (2 hours of SITL per approach and workload); this
//! reproduction budgets by *simulated seconds* plus the modelled BFI
//! labelling latency, which preserves the relative comparison while being
//! independent of host speed.
//!
//! Campaigns are configured and run through
//! [`crate::campaign::Campaign::builder`].

use crate::monitor::{MonitorConfig, Violation};
use crate::runner::{ExperimentConfig, ExperimentRunner, RunResult, RunVerdict};
use crate::sabre::SabreConfig;
use crate::strategy::{BfiStrategy, RandomStrategy, SabreStrategy, Strategy};
use crate::trace::Trace;
use avis_firmware::{BugId, FirmwareProfile, ModeCategory, OperatingMode};
use avis_hinj::FaultPlan;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The fault-injection approaches compared in the paper (Table I), kept
/// as a thin factory over the [`Strategy`] implementations in
/// [`crate::strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Approach {
    /// Avis: SABRE ordering, no learned model, redundancy elimination.
    Avis,
    /// Stratified BFI: SABRE ordering, injection sites filtered by BFI's model.
    StratifiedBfi,
    /// Vanilla BFI: depth-first site enumeration filtered by the model.
    Bfi,
    /// Uniformly random injection.
    Random,
}

impl Approach {
    /// All approaches in the order the paper's tables list them.
    pub const ALL: [Approach; 4] = [
        Approach::Avis,
        Approach::StratifiedBfi,
        Approach::Bfi,
        Approach::Random,
    ];

    /// Display name used in regenerated tables.
    pub fn name(self) -> &'static str {
        match self {
            Approach::Avis => "Avis",
            Approach::StratifiedBfi => "Stratified BFI",
            Approach::Bfi => "BFI",
            Approach::Random => "Random",
        }
    }

    /// Builds the [`Strategy`] implementing this approach — the factory
    /// [`crate::campaign::CampaignBuilder`] constructs campaigns through.
    pub fn strategy(self) -> Box<dyn Strategy> {
        match self {
            Approach::Avis => Box::new(SabreStrategy::avis()),
            Approach::StratifiedBfi => Box::new(SabreStrategy::stratified_bfi()),
            Approach::Bfi => Box::new(BfiStrategy::with_default_model()),
            Approach::Random => Box::new(RandomStrategy::new()),
        }
    }

    /// Table I: does the approach target operating-mode transitions?
    pub fn targets_mode_transitions(self) -> bool {
        matches!(self, Approach::Avis | Approach::StratifiedBfi)
    }

    /// Table I: do prior bugs inform the injection sites?
    pub fn uses_prior_bugs(self) -> bool {
        matches!(self, Approach::StratifiedBfi | Approach::Bfi)
    }

    /// Table I: does the approach search dissimilar scenarios first?
    pub fn searches_dissimilar_first(self) -> bool {
        matches!(
            self,
            Approach::Avis | Approach::StratifiedBfi | Approach::Random
        )
    }
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The test budget shared by every strategy in a comparison.
///
/// Both limits are *inclusive*: the budget is exhausted only once
/// consumption strictly exceeds it, so a campaign may execute exactly
/// [`Budget::max_simulations`] runs, and the run whose cost lands exactly
/// on [`Budget::max_cost_seconds`] still completes. Both engines (serial
/// and parallel) stop at the identical boundary — pinned by
/// `tests/budget_accounting.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Budget {
    /// Maximum number of simulated test runs (profiling included). The
    /// campaign never starts an *injection* run that would exceed this
    /// count; the monitor-calibration profiling runs always execute, so
    /// a budget smaller than the profiling count is consumed entirely by
    /// profiling.
    pub max_simulations: usize,
    /// Maximum accumulated cost in seconds: simulated flight time plus the
    /// modelled BFI labelling latency. The campaign stops once accumulated
    /// cost strictly exceeds this.
    pub max_cost_seconds: f64,
}

impl Budget {
    /// A budget expressed purely in cost seconds.
    pub fn seconds(max_cost_seconds: f64) -> Self {
        Budget {
            max_simulations: usize::MAX,
            max_cost_seconds,
        }
    }

    /// A budget expressed purely in simulations.
    pub fn simulations(max_simulations: usize) -> Self {
        Budget {
            max_simulations,
            max_cost_seconds: f64::INFINITY,
        }
    }

    /// Whether the given consumption *strictly exceeds* the budget. A
    /// consumption sitting exactly on either limit is still within
    /// budget.
    pub fn exhausted(&self, simulations: usize, cost_seconds: f64) -> bool {
        simulations > self.max_simulations || cost_seconds > self.max_cost_seconds
    }

    /// Whether one more simulation may start at the given consumption:
    /// the run must not push the simulation count past the cap, and the
    /// accumulated cost must not already exceed the cost cap.
    pub fn allows_another(&self, simulations: usize, cost_seconds: f64) -> bool {
        !self.exhausted(simulations.saturating_add(1), cost_seconds)
    }

    /// The consumed share of the tighter budget axis, in `0.0..=1.0`
    /// (`0.0` when both axes are unbounded). Streamed to observers as
    /// [`crate::campaign::CampaignEvent::BudgetProgress`].
    pub fn consumed_fraction(&self, simulations: usize, cost_seconds: f64) -> f64 {
        let sims = if self.max_simulations == usize::MAX {
            0.0
        } else {
            simulations as f64 / self.max_simulations.max(1) as f64
        };
        let cost = if self.max_cost_seconds.is_finite() && self.max_cost_seconds > 0.0 {
            cost_seconds / self.max_cost_seconds
        } else {
            0.0
        };
        sims.max(cost).min(1.0)
    }
}

/// Configuration for one campaign, as resolved by
/// [`crate::campaign::CampaignBuilder::build`].
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Which approach to run.
    pub approach: Approach,
    /// The experiment (firmware, defects, workload, simulation parameters).
    pub experiment: ExperimentConfig,
    /// The test budget.
    pub budget: Budget,
    /// Number of fault-free profiling runs used to calibrate the monitor.
    pub profiling_runs: usize,
    /// Invariant-monitor configuration.
    pub monitor: MonitorConfig,
    /// SABRE scheduler configuration (Avis and Stratified BFI).
    pub sabre: SabreConfig,
    /// Seed for the random baseline.
    pub seed: u64,
    /// Number of worker threads executing fault plans. `1` runs every
    /// plan inline; anything larger routes speculative execution through
    /// the worker pool ([`crate::engine`]) while producing a bit-identical
    /// [`CampaignResult`]. Defaults to the number of available CPU cores.
    pub parallelism: usize,
}

/// One unsafe condition discovered by a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnsafeCondition {
    /// The fault plan that exposed it.
    pub plan: FaultPlan,
    /// The invariant violations the monitor reported.
    pub violations: Vec<Violation>,
    /// The mode category in which the (earliest) failure was injected —
    /// the Table IV axis.
    pub injection_category: ModeCategory,
    /// The operating mode active just before the earliest injected failure.
    pub injection_mode: Option<OperatingMode>,
    /// Injected defects that activated in the run (maps the unsafe
    /// condition back to Tables II / V).
    pub triggered_bugs: Vec<BugId>,
    /// Number of simulations executed when this condition was found
    /// (including this one).
    pub simulations_used: usize,
    /// Cost consumed when this condition was found (s).
    pub cost_seconds_used: f64,
}

/// One contained crash observed by a campaign: a run whose simulated
/// firmware (or another substrate layer) panicked. Contained at the
/// runner boundary and reported here — the paper's `Serious` symptom
/// class — instead of aborting the campaign. Deterministic: the same
/// (seed, plan) produces the identical record at any parallelism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRecord {
    /// The fault plan whose run crashed.
    pub plan: FaultPlan,
    /// The rendered panic payload, tagged with the experiment
    /// fingerprint (seed + canonical plan key).
    pub message: String,
    /// The simulated lock-step index at which the panic unwound.
    pub step: u64,
    /// Number of simulations executed when the crash was observed
    /// (including this one).
    pub simulations_used: usize,
}

/// The outcome of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Display name of the strategy that was run (an [`Approach`] name
    /// for the built-ins, [`Strategy::name`] for custom strategies).
    pub strategy: String,
    /// The built-in approach, when the campaign ran one (`None` for
    /// custom strategies plugged in through the builder).
    pub approach: Option<Approach>,
    /// The firmware profile under test.
    pub profile: FirmwareProfile,
    /// The workload name.
    pub workload: String,
    /// Every unsafe condition found, in discovery order.
    pub unsafe_conditions: Vec<UnsafeCondition>,
    /// Total simulations executed (including profiling runs).
    pub simulations: usize,
    /// Total cost consumed (s).
    pub cost_seconds: f64,
    /// Number of model labelling calls (BFI variants only).
    pub labels_evaluated: usize,
    /// Scenarios skipped by instance-symmetry / duplicate pruning.
    pub symmetry_pruned: u64,
    /// Scenarios skipped by found-bug pruning.
    pub found_bug_pruned: u64,
    /// The link-fault scenario this campaign ran under, when it was a
    /// cell of a [`crate::matrix::ScenarioMatrix`] link-fault sweep
    /// (`None` for standalone campaigns, including ones configured
    /// through [`crate::campaign::CampaignBuilder::link_faults`]).
    #[serde(default)]
    pub link_scenario: Option<String>,
    /// Contained crashes, in discovery order: runs whose simulated
    /// firmware panicked, reported as first-class
    /// [`crate::runner::RunVerdict::Crashed`] outcomes instead of
    /// aborting the campaign. Serde-defaulted so results serialised
    /// before this field existed deserialise as crash-free.
    #[serde(default)]
    pub crashes: Vec<CrashRecord>,
}

impl CampaignResult {
    /// Number of unsafe conditions found.
    pub fn unsafe_count(&self) -> usize {
        self.unsafe_conditions.len()
    }

    /// The distinct injected defects this campaign exposed.
    pub fn bugs_found(&self) -> BTreeSet<BugId> {
        self.unsafe_conditions
            .iter()
            .flat_map(|u| u.triggered_bugs.iter().copied())
            .collect()
    }

    /// Unsafe conditions grouped by the mode category of the injection
    /// (Table IV).
    pub fn per_category(&self) -> BTreeMap<ModeCategory, usize> {
        let mut map = BTreeMap::new();
        for u in &self.unsafe_conditions {
            *map.entry(u.injection_category).or_insert(0) += 1;
        }
        map
    }

    /// Number of simulations needed before the first unsafe condition
    /// attributable to `bug` was found (Table V), if it was found at all.
    pub fn simulations_to_find(&self, bug: BugId) -> Option<usize> {
        self.unsafe_conditions
            .iter()
            .find(|u| u.triggered_bugs.contains(&bug))
            .map(|u| u.simulations_used)
    }
}

pub(crate) struct CampaignState {
    pub(crate) runner: ExperimentRunner,
    pub(crate) monitor: crate::monitor::InvariantMonitor,
    pub(crate) golden: Trace,
    pub(crate) simulations: usize,
    pub(crate) cost_seconds: f64,
    pub(crate) labels: usize,
    pub(crate) unsafe_conditions: Vec<UnsafeCondition>,
    pub(crate) crashes: Vec<CrashRecord>,
}

impl CampaignState {
    /// Whether the campaign must stop: the budget does not cover another
    /// simulation at the current consumption.
    pub(crate) fn out_of_budget(&self, budget: &Budget) -> bool {
        !budget.allows_another(self.simulations, self.cost_seconds)
    }

    /// Charges a completed run against the budget and records any unsafe
    /// condition. Returns whether the run was unsafe. The engine commits
    /// results through this in canonical round order, which is what makes
    /// the accounting identical at every parallelism.
    pub(crate) fn absorb(&mut self, result: &RunResult) -> bool {
        self.simulations += 1;
        self.cost_seconds += result.simulated_seconds;
        // A contained crash is a first-class outcome: record it and keep
        // the campaign running. The crashed run carries no trace (its
        // state died with the unwind), so the monitor has nothing to
        // check; it is reported through `CampaignResult::crashes`, not as
        // an unsafe condition. `Diverged` runs (watchdog) fall through —
        // their partial trace is checked like any other.
        if let RunVerdict::Crashed { message, step } = &result.verdict {
            self.crashes.push(CrashRecord {
                plan: result.plan.clone(),
                message: message.clone(),
                step: *step,
                simulations_used: self.simulations,
            });
            return false;
        }
        let violations = self.monitor.check(&result.trace);
        if violations.is_empty() {
            return false;
        }
        let injection_time = result
            .plan
            .specs()
            .map(|s| s.time)
            .fold(f64::INFINITY, f64::min);
        let injection_mode = if injection_time.is_finite() {
            self.golden.mode_before(injection_time)
        } else {
            None
        };
        // Table IV attributes an unsafe scenario to the mode in which it
        // manifested (the injected failure persists, so the violation
        // often occurs one or more modes after the injection anchor).
        let injection_category = violations
            .first()
            .map(|v| v.mode.category())
            .or_else(|| injection_mode.map(|m| m.category()))
            .unwrap_or(ModeCategory::Manual);
        self.unsafe_conditions.push(UnsafeCondition {
            plan: result.plan.clone(),
            violations,
            injection_category,
            injection_mode,
            triggered_bugs: result.triggered_defects.clone(),
            simulations_used: self.simulations,
            cost_seconds_used: self.cost_seconds,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use avis_firmware::BugSet;
    use avis_sim::SensorNoise;
    use avis_workload::auto_box_mission;

    fn small_experiment(bugs: BugSet) -> ExperimentConfig {
        let mut exp =
            ExperimentConfig::new(FirmwareProfile::ArduPilotLike, bugs, auto_box_mission());
        exp.noise = Some(SensorNoise::default());
        exp.max_duration = 110.0;
        exp
    }

    #[test]
    fn approach_feature_matrix_matches_table_i() {
        assert!(Approach::Avis.targets_mode_transitions());
        assert!(Approach::StratifiedBfi.targets_mode_transitions());
        assert!(!Approach::Bfi.targets_mode_transitions());
        assert!(!Approach::Random.targets_mode_transitions());

        assert!(!Approach::Avis.uses_prior_bugs());
        assert!(Approach::StratifiedBfi.uses_prior_bugs());
        assert!(Approach::Bfi.uses_prior_bugs());
        assert!(!Approach::Random.uses_prior_bugs());

        assert!(Approach::Avis.searches_dissimilar_first());
        assert!(Approach::StratifiedBfi.searches_dissimilar_first());
        assert!(!Approach::Bfi.searches_dissimilar_first());
        assert!(Approach::Random.searches_dissimilar_first());
        assert_eq!(Approach::ALL.len(), 4);
    }

    #[test]
    fn approach_factory_names_match() {
        for approach in Approach::ALL {
            assert_eq!(approach.strategy().name(), approach.name());
        }
    }

    #[test]
    fn budget_exhaustion_is_strict() {
        let b = Budget {
            max_simulations: 10,
            max_cost_seconds: 100.0,
        };
        // Consumption on the boundary is still within budget...
        assert!(!b.exhausted(10, 100.0));
        // ...and only strictly exceeding it exhausts.
        assert!(b.exhausted(11, 50.0));
        assert!(b.exhausted(5, 100.1));
        // `allows_another` is the engine-facing check: an 11th run would
        // exceed the cap, and cost already past the cap blocks new runs.
        assert!(b.allows_another(9, 100.0));
        assert!(!b.allows_another(10, 50.0));
        assert!(!b.allows_another(5, 100.5));
        assert!(Budget::seconds(100.0).allows_another(1_000_000, 99.0));
        assert!(!Budget::simulations(3).allows_another(3, 0.0));
    }

    #[test]
    fn budget_fraction_tracks_the_tighter_axis() {
        let b = Budget {
            max_simulations: 10,
            max_cost_seconds: 100.0,
        };
        assert_eq!(b.consumed_fraction(5, 20.0), 0.5);
        assert_eq!(b.consumed_fraction(2, 90.0), 0.9);
        assert_eq!(b.consumed_fraction(20, 0.0), 1.0);
        assert_eq!(Budget::simulations(4).consumed_fraction(1, 1e9), 0.25);
        assert_eq!(Budget::seconds(10.0).consumed_fraction(99, 5.0), 0.5);
    }

    // The end-to-end campaign comparisons live in the integration tests and
    // bench harnesses (they need release-grade run times); here we only run
    // a tiny Avis campaign to validate the plumbing.
    #[test]
    fn tiny_avis_campaign_finds_a_bug_in_the_buggy_code_base() {
        let bugs = BugSet::current_code_base(FirmwareProfile::ArduPilotLike);
        let result = Campaign::builder()
            .experiment(small_experiment(bugs))
            .budget(Budget::simulations(14))
            .profiling_runs(2)
            .build()
            .run();
        assert!(result.simulations <= 14);
        assert!(
            !result.unsafe_conditions.is_empty(),
            "a small SABRE campaign on the buggy code base should expose at least one unsafe condition"
        );
        assert!(!result.bugs_found().is_empty());
        // Every unsafe condition carries a plan and at least one violation.
        for u in &result.unsafe_conditions {
            assert!(!u.plan.is_empty());
            assert!(!u.violations.is_empty());
            assert!(u.simulations_used <= result.simulations);
        }
    }

    #[test]
    fn fixed_code_base_yields_no_unsafe_conditions_in_a_small_campaign() {
        let result = Campaign::builder()
            .experiment(small_experiment(BugSet::none()))
            .budget(Budget::simulations(10))
            .profiling_runs(2)
            .build()
            .run();
        assert!(
            result.unsafe_conditions.is_empty(),
            "no false positives on the fixed code base: {:?}",
            result.unsafe_conditions
        );
    }
}
