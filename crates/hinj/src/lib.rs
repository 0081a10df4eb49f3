//! # avis-hinj
//!
//! The Hardware-fault INJection interface of the Avis reproduction — the
//! analogue of the paper's `libhinj` library (§V.B).
//!
//! `libhinj` sits between the model checker and the UAV firmware:
//!
//! 1. every instrumented sensor-driver `read()` is decided by the injector:
//!    the read fails when its instance has a *clean failure* scheduled at
//!    or before the read time (the instance stops communicating and the
//!    driver reports it failed, permanently for the rest of the run).
//!    [`FaultInjector::should_fail`] is the reference semantics for one
//!    read. The firmware consults the injector once per step instead:
//!    [`FaultInjector::read_step`] decides the step's reads in order and
//!    reports the [`ReadWindow`] over which those decisions repeat (up to
//!    the next planned failure time), and [`FaultInjector::repeat_step`]
//!    accounts each later step inside that window without re-deciding it.
//!    Reads are re-decided only when a planned failure comes due, time
//!    leaves the window, or the plan is replaced;
//! 2. the firmware's set-mode routine reports every operating-mode change
//!    through [`FaultInjector::report_mode`], which is how SABRE learns
//!    where the mode transitions are;
//! 3. the injector records everything it did (injections, mode
//!    transitions) so a bug-triggering scenario can be replayed.
//!
//! In the paper this interface is an RPC between the C-instrumented
//! firmware and the checker process; here both live in one process, so the
//! interface is a [`SharedInjector`] handle (an `Arc<Mutex<_>>`) held by
//! both the firmware's sensor frontend and the experiment runner.
//!
//! # Example
//!
//! ```
//! use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, ModeCode};
//! use avis_sim::{SensorInstance, SensorKind};
//!
//! let gps0 = SensorInstance::new(SensorKind::Gps, 0);
//! let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps0, 2.5)]);
//! let mut injector = FaultInjector::new(plan);
//!
//! assert!(!injector.should_fail(gps0, 1.0));
//! assert!(injector.should_fail(gps0, 2.5));
//! // Clean failures are permanent for the rest of the run.
//! assert!(injector.should_fail(gps0, 100.0));
//! injector.report_mode(0.0, ModeCode(3));
//! assert_eq!(injector.mode_transitions().len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod link;

pub use link::{
    FaultyLink, LinkDelta, LinkDirection, LinkFaultKind, LinkFaultPlan, LinkFaultSpec,
    LinkFaultStats, LinkSnapshot, StormCommand,
};

use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::{ChunkSink, ChunkSource, CowDelta, CowVec, SensorInstance};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An opaque operating-mode code reported by the firmware.
///
/// The firmware maps its mode enumeration onto these codes; the injector
/// does not interpret them, it only records transitions between them —
/// exactly the information `hinj_update_mode()` carries in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModeCode(pub u32);

impl fmt::Display for ModeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mode#{}", self.0)
    }
}

/// A single clean sensor failure: `instance` stops communicating at `time`
/// (seconds of simulation time) and never recovers within the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The sensor instance that fails.
    pub instance: SensorInstance,
    /// Simulation time at which the failure begins (s).
    pub time: f64,
}

impl FaultSpec {
    /// Creates a fault specification.
    pub fn new(instance: SensorInstance, time: f64) -> Self {
        FaultSpec { instance, time }
    }

    /// Serialises the spec (bit-exact) for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.instance.encode(w);
        w.f64(self.time);
    }

    /// Restores a spec serialised by [`FaultSpec::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FaultSpec> {
        Ok(FaultSpec {
            instance: SensorInstance::decode(r)?,
            time: r.f64()?,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{:.3}s", self.instance, self.time)
    }
}

/// The complete set of failures to inject during one test run.
///
/// This is the `failures` set manipulated by Algorithm 1 (SABRE): a set of
/// `(sensor instance, timestamp)` pairs. At most one failure per instance
/// is meaningful (the fault model is permanent clean failure), so the plan
/// keeps the earliest start time per instance.
///
/// Since PR 6 a plan also carries an optional [`LinkFaultPlan`]: protocol
/// faults on the GCS ↔ vehicle link, injected by the same scenario. The
/// two surfaces are orthogonal — sensor faults go through the injector's
/// `should_fail` path, link faults through the [`FaultyLink`] shim — but
/// they travel in one plan so the campaign engine's de-duplication,
/// prefix dispatch and snapshot forking treat a scenario as one unit.
///
/// Plans serialise as a list of [`FaultSpec`]s (so they can be embedded in
/// JSON bug reports) and deserialise back through [`FaultPlan::from_specs`];
/// when link faults are present the serialised form is a struct carrying
/// both lists, and both forms deserialise.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(from = "PlanRepr", into = "PlanRepr")]
pub struct FaultPlan {
    faults: BTreeMap<SensorInstance, f64>,
    link: LinkFaultPlan,
}

/// The serialised shape of a [`FaultPlan`]: the historical bare list of
/// sensor specs, or (once link faults are involved) a struct with both
/// fault surfaces.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
enum PlanRepr {
    /// Pre-PR-6 form: a bare list of sensor fault specs.
    Specs(Vec<FaultSpec>),
    /// Full form: sensor and link fault specs.
    Full {
        #[serde(default)]
        faults: Vec<FaultSpec>,
        #[serde(default)]
        link: Vec<LinkFaultSpec>,
    },
}

impl From<PlanRepr> for FaultPlan {
    fn from(repr: PlanRepr) -> Self {
        match repr {
            PlanRepr::Specs(specs) => FaultPlan::from_specs(specs),
            PlanRepr::Full { faults, link } => {
                let mut plan = FaultPlan::from_specs(faults);
                plan.link = LinkFaultPlan::from_specs(link);
                plan
            }
        }
    }
}

impl From<FaultPlan> for PlanRepr {
    fn from(plan: FaultPlan) -> Self {
        if plan.link.is_empty() {
            // Keep the historical wire form when no link faults are set,
            // so sensor-only reports stay byte-compatible.
            PlanRepr::Specs(plan.specs().collect())
        } else {
            PlanRepr::Full {
                faults: plan.specs().collect(),
                link: plan.link.specs().to_vec(),
            }
        }
    }
}

impl From<Vec<FaultSpec>> for FaultPlan {
    fn from(specs: Vec<FaultSpec>) -> Self {
        FaultPlan::from_specs(specs)
    }
}

impl From<FaultPlan> for Vec<FaultSpec> {
    fn from(plan: FaultPlan) -> Self {
        plan.specs().collect()
    }
}

impl FaultPlan {
    /// An empty plan: the fault-free golden/profiling run.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from fault specifications, keeping the earliest start
    /// time when an instance appears more than once.
    pub fn from_specs<I: IntoIterator<Item = FaultSpec>>(specs: I) -> Self {
        let mut plan = FaultPlan::default();
        for spec in specs {
            plan.add(spec);
        }
        plan
    }

    /// Adds a failure to the plan. If the instance is already scheduled to
    /// fail, the earlier start time wins (a sensor cannot fail twice).
    pub fn add(&mut self, spec: FaultSpec) {
        self.faults
            .entry(spec.instance)
            .and_modify(|t| *t = t.min(spec.time))
            .or_insert(spec.time);
    }

    /// Returns a new plan equal to `self` plus the given failure.
    pub fn with(&self, spec: FaultSpec) -> Self {
        let mut next = self.clone();
        next.add(spec);
        next
    }

    /// Returns `true` if no failures are scheduled on either surface —
    /// neither sensor faults nor link faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.link.is_empty()
    }

    /// Number of scheduled sensor failures (link faults are counted by
    /// [`LinkFaultPlan::len`] on [`FaultPlan::link_plan`]).
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The protocol faults carried by this plan (empty by default).
    pub fn link_plan(&self) -> &LinkFaultPlan {
        &self.link
    }

    /// Adds a protocol fault to the plan.
    pub fn add_link(&mut self, spec: LinkFaultSpec) {
        self.link.add(spec);
    }

    /// Returns a new plan equal to `self` plus the given protocol fault.
    pub fn with_link(&self, spec: LinkFaultSpec) -> Self {
        let mut next = self.clone();
        next.add_link(spec);
        next
    }

    /// Replaces the plan's protocol faults wholesale.
    pub fn set_link_plan(&mut self, link: LinkFaultPlan) {
        self.link = link;
    }

    /// Merges every protocol fault of `link` into this plan's link plan.
    pub fn merge_link(&mut self, link: &LinkFaultPlan) {
        self.link.merge(link);
    }

    /// The scheduled failure start time for an instance, if any.
    pub fn failure_time(&self, instance: SensorInstance) -> Option<f64> {
        self.faults.get(&instance).copied()
    }

    /// Iterates over the scheduled failures in instance order.
    pub fn specs(&self) -> impl Iterator<Item = FaultSpec> + '_ {
        self.faults
            .iter()
            .map(|(&instance, &time)| FaultSpec { instance, time })
    }

    /// Returns `true` if `instance` has failed by `time` under this plan.
    pub fn is_failed(&self, instance: SensorInstance, time: f64) -> bool {
        self.failure_time(instance).is_some_and(|t| time >= t)
    }

    /// The earliest scheduled sensor failure strictly after `time`, or
    /// infinity when none is left: no [`FaultPlan::is_failed`] answer
    /// changes between `time` and this instant.
    fn next_failure_after(&self, time: f64) -> f64 {
        self.faults
            .values()
            .copied()
            .filter(|&t| t > time)
            .fold(f64::INFINITY, f64::min)
    }

    /// Serialises the plan for the persistent store: the sensor specs in
    /// instance order plus the link specs, both reconstructible through
    /// the plan builders.
    pub fn encode(&self, w: &mut ByteWriter) {
        let specs: Vec<FaultSpec> = self.specs().collect();
        w.seq(&specs, |w, s| s.encode(w));
        w.seq(self.link.specs(), |w, s| s.encode(w));
    }

    /// Restores a plan serialised by [`FaultPlan::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<FaultPlan> {
        let specs = r.seq(FaultSpec::decode)?;
        let link = r.seq(LinkFaultSpec::decode)?;
        let mut plan = FaultPlan::from_specs(specs);
        plan.set_link_plan(LinkFaultPlan::from_specs(link));
        Ok(plan)
    }

    /// The largest plan contained in both `self` and `other`: the sensor
    /// faults scheduled at the *same* time on the *same* instance in both
    /// plans, plus the link faults present in both. Folding this over a
    /// set of sibling plans yields their shared injection prefix — the
    /// portion of the campaign schedule every sibling executes
    /// identically, which is what lockstep batching runs once.
    pub fn intersection(&self, other: &FaultPlan) -> FaultPlan {
        let mut common = FaultPlan::default();
        for (&instance, &time) in &self.faults {
            if other.faults.get(&instance) == Some(&time) {
                common.faults.insert(instance, time);
            }
        }
        for spec in self.link.specs() {
            if other.link.specs().contains(spec) {
                common.link.add(*spec);
            }
        }
        common
    }

    /// The earliest time at which this plan's behaviour can depart from
    /// `base` (typically the intersection of a sibling set): the minimum
    /// start time over sensor faults absent from `base` or scheduled at a
    /// different time, and link faults absent from `base`. Returns `None`
    /// when the plan never diverges (it is contained in `base`), i.e. a
    /// lockstep lane for this plan can ride its leader to the end.
    pub fn first_divergence_from(&self, base: &FaultPlan) -> Option<f64> {
        let sensor = self
            .faults
            .iter()
            .filter(|(instance, time)| base.faults.get(instance) != Some(time))
            .map(|(_, &time)| time);
        let link = self
            .link
            .specs()
            .iter()
            .filter(|spec| !base.link.specs().contains(spec))
            .map(|spec| spec.time);
        sensor.chain(link).fold(None, |acc: Option<f64>, t| {
            Some(acc.map_or(t, |a| a.min(t)))
        })
    }

    /// A canonical, order-independent key for de-duplicating plans (the
    /// hash-set of explored scenarios in §V.B.2). Times are quantised to
    /// milliseconds so replay jitter does not create spurious new plans.
    pub fn canonical_key(&self) -> String {
        let mut parts: Vec<String> = self
            .specs()
            .map(|s| {
                format!(
                    "{}:{}:{}",
                    s.instance.kind.name(),
                    s.instance.index,
                    (s.time * 1000.0).round() as i64
                )
            })
            .collect();
        parts.extend(self.link.specs().iter().map(|s| s.canonical_part()));
        parts.sort();
        parts.join("|")
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(no faults)");
        }
        let mut parts: Vec<String> = self.specs().map(|s| s.to_string()).collect();
        parts.extend(self.link.specs().iter().map(|s| s.to_string()));
        f.write_str(&parts.join(", "))
    }
}

/// A record of one injected failure actually delivered to a driver read.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// The failed instance.
    pub instance: SensorInstance,
    /// The time of the first failed read delivered to the firmware (s).
    pub first_failed_read: f64,
}

/// A record of one operating-mode transition reported by the firmware.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModeTransitionRecord {
    /// Simulation time of the transition (s).
    pub time: f64,
    /// Mode before the transition, if any mode had been reported before.
    pub from: Option<ModeCode>,
    /// Mode after the transition.
    pub to: ModeCode,
}

/// The span of simulation time over which one step's read decisions
/// repeat, reported by [`FaultInjector::read_step`]: from the evaluation
/// time up to (excluding) the plan's next failure time after it. Under an
/// unchanged plan, every read of the same instances at a time inside the
/// window gets the answer it got at the window's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadWindow {
    start: f64,
    end: f64,
    reads: u64,
    failed: u64,
}

impl ReadWindow {
    /// Whether `time` lies inside the window.
    fn contains(&self, time: f64) -> bool {
        self.start <= time && time < self.end
    }
}

/// The fault injector: decides per-read whether a sensor instance has
/// failed and records mode transitions and delivered injections.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    injections: CowVec<InjectionRecord>,
    transitions: CowVec<ModeTransitionRecord>,
    current_mode: Option<ModeCode>,
    reads: u64,
    failed_reads: u64,
    /// The window of the last [`FaultInjector::read_step`], voided by any
    /// plan change.
    // snapshot: skip(derived from the last step's reads; the next read_step rebuilds it)
    window: Option<ReadWindow>,
}

impl FaultInjector {
    /// Creates an injector executing the given fault plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            ..Default::default()
        }
    }

    /// Creates an injector that never injects (golden / profiling runs).
    pub fn passthrough() -> Self {
        FaultInjector::new(FaultPlan::empty())
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Removes and returns the plan, leaving an empty one behind. The
    /// experiment runner uses this to hand the plan back to the caller at
    /// the end of a run without cloning it up front.
    pub fn take_plan(&mut self) -> FaultPlan {
        self.window = None;
        std::mem::take(&mut self.plan)
    }

    /// Replaces the plan being executed, keeping every record (delivered
    /// injections, mode transitions, read counters) intact. This is the
    /// fork primitive of checkpointed replay: a run restored from a
    /// snapshot keeps the injector bookkeeping of the shared prefix and
    /// swaps in the new scenario's plan for the remainder of the run.
    /// Voids the current [`ReadWindow`]: the next step's reads are
    /// re-decided under the new plan.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.window = None;
        self.plan = plan;
    }

    /// Captures the injector's complete state — plan, delivered
    /// injections, mode transitions and read counters — so a later run
    /// can resume from this exact point (see [`InjectorSnapshot`]).
    /// Seals the record logs' tails first, so the capture shares the
    /// history structurally (O(1) in the record count) instead of
    /// deep-cloning it.
    pub fn snapshot(&mut self) -> InjectorSnapshot {
        self.injections.seal();
        self.transitions.seal();
        InjectorSnapshot {
            injector: self.clone(),
        }
    }

    /// Called from an instrumented sensor-driver read. Returns `true` if
    /// the read must be reported as failed, and records the first failed
    /// read per instance for the replay log.
    pub fn should_fail(&mut self, instance: SensorInstance, time: f64) -> bool {
        self.reads += 1;
        let failed = self.plan.is_failed(instance, time);
        if failed {
            self.failed_reads += 1;
            if !self.injections.iter().any(|r| r.instance == instance) {
                self.injections.push(InjectionRecord {
                    instance,
                    first_failed_read: time,
                });
            }
        }
        failed
    }

    /// Decides one step's driver reads under one call: applies
    /// [`FaultInjector::should_fail`] to each of `instances` in order at
    /// `time` (same counters, same first-failed-read records), passing
    /// each read's position and decision to `on_read`. Returns the window
    /// over which these decisions repeat; it stays current until the next
    /// `read_step` or plan change, and [`FaultInjector::repeat_step`]
    /// accounts later steps against it.
    pub fn read_step(
        &mut self,
        instances: impl IntoIterator<Item = SensorInstance>,
        time: f64,
        mut on_read: impl FnMut(usize, bool),
    ) -> ReadWindow {
        let (reads, failed) = (self.reads, self.failed_reads);
        for (position, instance) in instances.into_iter().enumerate() {
            on_read(position, self.should_fail(instance, time));
        }
        let window = ReadWindow {
            start: time,
            end: self.plan.next_failure_after(time),
            reads: self.reads - reads,
            failed: self.failed_reads - failed,
        };
        self.window = Some(window);
        window
    }

    /// Accounts a whole step at `time` that reads the same instances as
    /// the [`FaultInjector::read_step`] that returned `window`, and whose
    /// answers therefore repeat: the read counters advance exactly as that
    /// step's `should_fail` calls would advance them, and every failed
    /// instance already has its first-failed-read record. Returns `false`,
    /// accounting nothing, when the answers may differ — `window` is not
    /// this injector's current window (a later `read_step` or a plan
    /// change replaced or voided it) or `time` lies outside it, in either
    /// direction. The caller then re-decides the step with `read_step`.
    pub fn repeat_step(&mut self, window: &ReadWindow, time: f64) -> bool {
        if self.window.as_ref() != Some(window) || !window.contains(time) {
            return false;
        }
        self.reads += window.reads;
        self.failed_reads += window.failed;
        true
    }

    /// Non-mutating variant of [`FaultInjector::should_fail`] for callers
    /// that only need the decision, not the bookkeeping.
    pub fn would_fail(&self, instance: SensorInstance, time: f64) -> bool {
        self.plan.is_failed(instance, time)
    }

    /// Called from the firmware's set-mode routine (the
    /// `hinj_update_mode()` call site). Records a transition when the mode
    /// actually changes.
    pub fn report_mode(&mut self, time: f64, mode: ModeCode) {
        if self.current_mode == Some(mode) {
            return;
        }
        self.transitions.push(ModeTransitionRecord {
            time,
            from: self.current_mode,
            to: mode,
        });
        self.current_mode = Some(mode);
    }

    /// The most recently reported mode, if any.
    pub fn current_mode(&self) -> Option<ModeCode> {
        self.current_mode
    }

    /// Injections actually delivered so far (first failed read per
    /// instance). Backed by a copy-on-write vector so snapshots share
    /// the records.
    pub fn injections(&self) -> &CowVec<InjectionRecord> {
        &self.injections
    }

    /// Mode transitions reported so far. Backed by a copy-on-write
    /// vector so snapshots share the records.
    pub fn mode_transitions(&self) -> &CowVec<ModeTransitionRecord> {
        &self.transitions
    }

    /// Total number of driver reads that consulted the injector.
    pub fn total_reads(&self) -> u64 {
        self.reads
    }

    /// Number of reads that were failed.
    pub fn failed_reads(&self) -> u64 {
        self.failed_reads
    }
}

/// A point-in-time capture of a [`FaultInjector`], taken mid-run by
/// [`FaultInjector::snapshot`]. Restoring yields an injector that behaves
/// bit-identically to the captured one;
/// [`InjectorSnapshot::restore_with_plan`] additionally swaps the fault
/// plan, which is how a checkpointed runner forks a new scenario off a
/// shared injection prefix.
#[derive(Debug, Clone)]
pub struct InjectorSnapshot {
    injector: FaultInjector,
}

impl InjectorSnapshot {
    /// Rebuilds the captured injector exactly.
    pub fn restore(&self) -> FaultInjector {
        self.injector.clone()
    }

    /// Rebuilds the captured injector with `plan` substituted for the
    /// captured plan. Only valid when `plan` agrees with the captured
    /// plan on every failure that starts before the capture time — the
    /// caller (the runner's snapshot cache) guarantees this by keying
    /// snapshots on the quantised injection prefix.
    pub fn restore_with_plan(&self, plan: FaultPlan) -> FaultInjector {
        let mut injector = self.injector.clone();
        injector.set_plan(plan);
        injector
    }

    /// Consuming form of [`InjectorSnapshot::restore_with_plan`], for
    /// callers that own the snapshot and want to avoid the extra clone.
    pub fn into_restored_with_plan(self, plan: FaultPlan) -> FaultInjector {
        let mut injector = self.injector;
        injector.set_plan(plan);
        injector
    }

    /// The plan that was active when the snapshot was taken.
    pub fn plan(&self) -> &FaultPlan {
        self.injector.plan()
    }

    /// Approximate heap footprint *exclusively owned* by the captured
    /// state (bytes), used by the snapshot cache's memory budget. The
    /// `Arc`-shared record chunks are accounted once per distinct chunk
    /// through [`InjectorSnapshot::for_each_chunk`].
    pub fn approx_bytes(&self) -> usize {
        self.injector.plan.len() * std::mem::size_of::<(SensorInstance, f64)>()
            + self.injector.injections.exclusive_bytes()
            + self.injector.transitions.exclusive_bytes()
            + std::mem::size_of::<FaultInjector>()
    }

    /// Visits the `Arc`-shared record chunks as `(identity, bytes)`
    /// pairs (see [`CowVec::for_each_chunk`]).
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.injector.injections.for_each_chunk(f);
        self.injector.transitions.for_each_chunk(f);
    }

    /// The delta from `prev` to this capture. The record histories are
    /// `Arc`-chunk-shared (cloning them is O(chunks)); the plan is stored
    /// only when it differs from `prev`'s — along one recording run it
    /// never does.
    pub fn diff(&self, prev: &InjectorSnapshot) -> InjectorDelta {
        InjectorDelta {
            plan: (self.injector.plan != prev.injector.plan).then(|| self.injector.plan.clone()),
            injections: self
                .injector
                .injections
                .delta_from(&prev.injector.injections),
            transitions: self
                .injector
                .transitions
                .delta_from(&prev.injector.transitions),
            current_mode: self.injector.current_mode,
            reads: self.injector.reads,
            failed_reads: self.injector.failed_reads,
        }
    }

    /// Re-materialises the capture `delta` was diffed *to*, using `self`
    /// as the capture it was diffed *from*.
    pub fn apply(&self, delta: &InjectorDelta) -> InjectorSnapshot {
        InjectorSnapshot {
            injector: FaultInjector {
                plan: delta
                    .plan
                    .clone()
                    .unwrap_or_else(|| self.injector.plan.clone()),
                injections: CowVec::apply_delta(&self.injector.injections, &delta.injections),
                transitions: CowVec::apply_delta(&self.injector.transitions, &delta.transitions),
                current_mode: delta.current_mode,
                reads: delta.reads,
                failed_reads: delta.failed_reads,
                window: None,
            },
        }
    }
}

/// The dynamic slice of an [`InjectorSnapshot`] relative to an earlier
/// capture of the same run (see [`InjectorSnapshot::diff`]).
#[derive(Debug, Clone)]
pub struct InjectorDelta {
    /// `None` when the plan equals the base capture's (the common case —
    /// a run's plan never changes mid-run).
    plan: Option<FaultPlan>,
    injections: avis_sim::CowDelta<InjectionRecord>,
    transitions: avis_sim::CowDelta<ModeTransitionRecord>,
    current_mode: Option<ModeCode>,
    reads: u64,
    failed_reads: u64,
}

impl InjectorDelta {
    /// Approximate heap + inline bytes exclusively owned by the delta
    /// (the `Arc`-shared record chunks are accounted once per distinct
    /// chunk through [`InjectorDelta::for_each_chunk`]).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .plan
                .as_ref()
                .map(|p| p.len() * std::mem::size_of::<(SensorInstance, f64)>())
                .unwrap_or(0)
            + self.injections.exclusive_bytes()
            + self.transitions.exclusive_bytes()
    }

    /// Visits the `Arc`-shared record chunks as `(identity, bytes)`
    /// pairs (see [`CowVec::for_each_chunk`]).
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.injections.for_each_chunk(f);
        self.transitions.for_each_chunk(f);
    }

    /// Serialises the delta for the persistent store. Record-log chunks
    /// go to `sink` content-addressed (see [`CowVec::encode_chunked`]).
    pub fn encode(&self, w: &mut ByteWriter, sink: &mut dyn ChunkSink) {
        w.option(self.plan.as_ref(), |w, p| p.encode(w));
        self.injections
            .encode_chunked(w, sink, &mut |w, rec: &InjectionRecord| rec.encode(w));
        self.transitions
            .encode_chunked(w, sink, &mut |w, rec: &ModeTransitionRecord| rec.encode(w));
        w.option(self.current_mode.as_ref(), |w, m| w.u32(m.0));
        w.u64(self.reads);
        w.u64(self.failed_reads);
    }

    /// Restores a delta serialised by [`InjectorDelta::encode`].
    pub fn decode(
        r: &mut ByteReader<'_>,
        source: &mut dyn ChunkSource,
    ) -> CodecResult<InjectorDelta> {
        Ok(InjectorDelta {
            plan: r.option(FaultPlan::decode)?,
            injections: CowDelta::decode_chunked(r, source, &mut InjectionRecord::decode)?,
            transitions: CowDelta::decode_chunked(r, source, &mut ModeTransitionRecord::decode)?,
            current_mode: r.option(|r| Ok(ModeCode(r.u32()?)))?,
            reads: r.u64()?,
            failed_reads: r.u64()?,
        })
    }
}

impl InjectionRecord {
    /// Serialises the record for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.instance.encode(w);
        w.f64(self.first_failed_read);
    }

    /// Restores a record serialised by [`InjectionRecord::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<InjectionRecord> {
        Ok(InjectionRecord {
            instance: SensorInstance::decode(r)?,
            first_failed_read: r.f64()?,
        })
    }
}

impl ModeTransitionRecord {
    /// Serialises the record for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.f64(self.time);
        w.option(self.from.as_ref(), |w, m| w.u32(m.0));
        w.u32(self.to.0);
    }

    /// Restores a record serialised by [`ModeTransitionRecord::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<ModeTransitionRecord> {
        Ok(ModeTransitionRecord {
            time: r.f64()?,
            from: r.option(|r| Ok(ModeCode(r.u32()?)))?,
            to: ModeCode(r.u32()?),
        })
    }
}

/// A cloneable, thread-safe handle to a [`FaultInjector`], shared between
/// the firmware's sensor frontend and the experiment runner.
#[derive(Debug, Clone, Default)]
pub struct SharedInjector {
    inner: Arc<Mutex<FaultInjector>>,
}

impl SharedInjector {
    /// Wraps an injector in a shared handle.
    pub fn new(injector: FaultInjector) -> Self {
        SharedInjector {
            inner: Arc::new(Mutex::new(injector)),
        }
    }

    /// A shared injector that never injects.
    pub fn passthrough() -> Self {
        SharedInjector::new(FaultInjector::passthrough())
    }

    /// Firmware-side mode report.
    pub fn report_mode(&self, time: f64, mode: ModeCode) {
        self.inner.lock().report_mode(time, mode);
    }

    /// Runs a closure with exclusive access to the underlying injector.
    pub fn with<R>(&self, f: impl FnOnce(&mut FaultInjector) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Snapshot of the mode transitions recorded so far.
    pub fn mode_transitions(&self) -> Vec<ModeTransitionRecord> {
        self.inner.lock().mode_transitions().to_vec()
    }

    /// Snapshot of the injections delivered so far.
    pub fn injections(&self) -> Vec<InjectionRecord> {
        self.inner.lock().injections().to_vec()
    }

    /// The plan being executed.
    pub fn plan(&self) -> FaultPlan {
        self.inner.lock().plan().clone()
    }

    /// Removes and returns the plan (see [`FaultInjector::take_plan`]).
    pub fn take_plan(&self) -> FaultPlan {
        self.inner.lock().take_plan()
    }

    /// Captures the underlying injector's state (see
    /// [`FaultInjector::snapshot`]).
    pub fn snapshot(&self) -> InjectorSnapshot {
        self.inner.lock().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_sim::SensorKind;

    fn gps(i: u8) -> SensorInstance {
        SensorInstance::new(SensorKind::Gps, i)
    }
    fn baro(i: u8) -> SensorInstance {
        SensorInstance::new(SensorKind::Barometer, i)
    }

    #[test]
    fn empty_plan_never_fails() {
        let mut inj = FaultInjector::passthrough();
        for t in 0..100 {
            assert!(!inj.should_fail(gps(0), t as f64));
        }
        assert_eq!(inj.failed_reads(), 0);
        assert_eq!(inj.total_reads(), 100);
        assert!(inj.injections().is_empty());
    }

    #[test]
    fn failure_is_permanent_after_start_time() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 5.0)]);
        let mut inj = FaultInjector::new(plan);
        assert!(!inj.should_fail(gps(0), 4.999));
        assert!(inj.should_fail(gps(0), 5.0));
        assert!(inj.should_fail(gps(0), 5.001));
        assert!(inj.should_fail(gps(0), 500.0));
        // Other instances of the same kind are unaffected.
        assert!(!inj.should_fail(gps(1), 500.0));
    }

    #[test]
    fn duplicate_instance_keeps_earliest_time() {
        let mut plan = FaultPlan::empty();
        plan.add(FaultSpec::new(baro(0), 7.0));
        plan.add(FaultSpec::new(baro(0), 3.0));
        plan.add(FaultSpec::new(baro(0), 9.0));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.failure_time(baro(0)), Some(3.0));
    }

    #[test]
    fn with_does_not_mutate_original() {
        let base = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        let extended = base.with(FaultSpec::new(baro(0), 2.0));
        assert_eq!(base.len(), 1);
        assert_eq!(extended.len(), 2);
    }

    #[test]
    fn canonical_key_is_order_independent() {
        let a = FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 1.0),
            FaultSpec::new(baro(1), 2.0),
        ]);
        let b = FaultPlan::from_specs(vec![
            FaultSpec::new(baro(1), 2.0),
            FaultSpec::new(gps(0), 1.0),
        ]);
        assert_eq!(a.canonical_key(), b.canonical_key());
        let c = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.001)]);
        let d = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        assert_ne!(c.canonical_key(), d.canonical_key());
        assert_eq!(FaultPlan::empty().canonical_key(), "");
    }

    #[test]
    fn injection_records_first_failed_read_only() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 2.0)]);
        let mut inj = FaultInjector::new(plan);
        inj.should_fail(gps(0), 1.0);
        inj.should_fail(gps(0), 2.25);
        inj.should_fail(gps(0), 3.0);
        assert_eq!(inj.injections().len(), 1);
        assert_eq!(inj.injections()[0].first_failed_read, 2.25);
        assert_eq!(inj.failed_reads(), 2);
    }

    #[test]
    fn read_window_repeats_until_next_failure_or_plan_change() {
        let plan = FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 2.0),
            FaultSpec::new(baro(0), 5.0),
        ]);
        let mut inj = FaultInjector::new(plan.clone());
        let mut decisions = Vec::new();
        let window = inj.read_step([gps(0), gps(1), baro(0)], 2.0, |position, failed| {
            decisions.push((position, failed))
        });
        assert_eq!(decisions, vec![(0, true), (1, false), (2, false)]);
        assert_eq!((window.start, window.end), (2.0, 5.0));
        assert_eq!((inj.total_reads(), inj.failed_reads()), (3, 1));

        // Inside the window the step repeats and is accounted whole.
        assert!(inj.repeat_step(&window, 4.999));
        assert_eq!((inj.total_reads(), inj.failed_reads()), (6, 2));
        // Outside it, in either direction, nothing is accounted.
        assert!(!inj.repeat_step(&window, 5.0));
        assert!(!inj.repeat_step(&window, 1.999));
        assert_eq!((inj.total_reads(), inj.failed_reads()), (6, 2));
        // A plan change voids the window, even for the same plan.
        inj.set_plan(plan);
        assert!(!inj.repeat_step(&window, 3.0));
        // The last failure's window is unbounded.
        let last = inj.read_step([baro(0)], 5.0, |_, _| {});
        assert_eq!(last.end, f64::INFINITY);
        assert!(!inj.repeat_step(&window, 3.0), "superseded window");
        assert!(inj.repeat_step(&last, 1e9));
        assert_eq!(inj.injections().len(), 2);
    }

    #[test]
    fn mode_transitions_deduplicated() {
        let mut inj = FaultInjector::passthrough();
        inj.report_mode(0.0, ModeCode(0));
        inj.report_mode(0.5, ModeCode(0));
        inj.report_mode(1.0, ModeCode(3));
        inj.report_mode(1.5, ModeCode(3));
        inj.report_mode(2.0, ModeCode(0));
        let t = inj.mode_transitions();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].from, None);
        assert_eq!(t[0].to, ModeCode(0));
        assert_eq!(t[1].from, Some(ModeCode(0)));
        assert_eq!(t[1].to, ModeCode(3));
        assert_eq!(t[2].to, ModeCode(0));
        assert_eq!(inj.current_mode(), Some(ModeCode(0)));
    }

    #[test]
    fn shared_injector_clones_share_state() {
        let shared = SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 1.0),
        ])));
        let other = shared.clone();
        assert!(other.with(|i| i.should_fail(gps(0), 2.0)));
        shared.report_mode(0.1, ModeCode(7));
        assert_eq!(other.mode_transitions().len(), 1);
        assert_eq!(other.injections().len(), 1);
        assert_eq!(shared.plan().len(), 1);
    }

    #[test]
    fn would_fail_does_not_record() {
        let plan = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        let inj = FaultInjector::new(plan);
        assert!(inj.would_fail(gps(0), 2.0));
        assert_eq!(inj.total_reads(), 0);
        assert!(inj.injections().is_empty());
    }

    #[test]
    fn link_faults_extend_the_canonical_key() {
        let sensor_only = FaultPlan::from_specs(vec![FaultSpec::new(gps(0), 1.0)]);
        let storm = LinkFaultSpec::new(
            LinkFaultKind::Storm {
                command: StormCommand::Arm,
                count: 4,
            },
            LinkDirection::ToVehicle,
            2.0,
        );
        let with_link = sensor_only.with_link(storm);
        assert_ne!(sensor_only, with_link);
        assert_ne!(sensor_only.canonical_key(), with_link.canonical_key());
        assert!(with_link.canonical_key().contains("link:storm"));
        assert!(with_link.canonical_key().contains("gps"));
        // The sensor-side view is unchanged.
        assert_eq!(with_link.len(), 1);
        assert_eq!(with_link.specs().count(), 1);
        assert_eq!(with_link.link_plan().len(), 1);
        // A link-only plan is not empty.
        let link_only = FaultPlan::empty().with_link(storm);
        assert!(!link_only.is_empty());
        assert_eq!(link_only.len(), 0);
        assert!(link_only.to_string().contains("link:storm"));
    }

    #[test]
    fn merge_link_combines_protocol_faults() {
        let a = LinkFaultSpec::new(
            LinkFaultKind::Drop {
                duration: 1.0,
                probability: 1.0,
            },
            LinkDirection::ToGcs,
            5.0,
        );
        let b = LinkFaultSpec::new(
            LinkFaultKind::Delay {
                duration: 1.0,
                seconds: 0.5,
            },
            LinkDirection::ToVehicle,
            2.0,
        );
        let mut plan = FaultPlan::empty().with_link(a);
        plan.merge_link(&LinkFaultPlan::from_specs(vec![b]));
        assert_eq!(plan.link_plan().len(), 2);
        // Canonical ordering: the earlier fault comes first.
        assert_eq!(plan.link_plan().specs()[0].time, 2.0);
    }

    #[test]
    fn injector_delta_codec_round_trips_through_chunk_store() {
        let plan = FaultPlan::from_specs(vec![
            FaultSpec::new(gps(0), 2.0),
            FaultSpec::new(baro(1), 4.0),
        ])
        .with_link(LinkFaultSpec::new(
            LinkFaultKind::Corrupt {
                duration: 3.0,
                probability: 0.25,
            },
            LinkDirection::ToGcs,
            1.0,
        ));
        let mut inj = FaultInjector::new(plan);
        for t in 0..40 {
            inj.should_fail(gps(0), t as f64 * 0.2);
            inj.should_fail(baro(1), t as f64 * 0.2);
            if t % 10 == 0 {
                inj.report_mode(t as f64 * 0.2, ModeCode(t as u32 / 10));
            }
        }
        let base = inj.snapshot();
        for t in 40..80 {
            inj.should_fail(gps(0), t as f64 * 0.2);
        }
        inj.report_mode(16.0, ModeCode(9));
        let cut = inj.snapshot();
        let delta = cut.diff(&base);

        let mut store = avis_sim::cow::MemoryChunkStore::new();
        let mut w = ByteWriter::new();
        delta.encode(&mut w, &mut store);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = InjectorDelta::decode(&mut r, &mut store).expect("decode");
        r.finish().expect("no trailing bytes");

        let restored = base.apply(&decoded).restore();
        let original = base.apply(&delta).restore();
        assert_eq!(restored.plan(), original.plan());
        assert_eq!(
            restored.injections().to_vec(),
            original.injections().to_vec()
        );
        assert_eq!(
            restored.mode_transitions().to_vec(),
            original.mode_transitions().to_vec()
        );
        assert_eq!(restored.current_mode(), original.current_mode());
        assert_eq!(restored.total_reads(), original.total_reads());
        assert_eq!(restored.failed_reads(), original.failed_reads());
    }

    #[test]
    fn display_formats() {
        let spec = FaultSpec::new(gps(1), 2.5);
        assert_eq!(spec.to_string(), "gps[1]@2.500s");
        assert_eq!(FaultPlan::empty().to_string(), "(no faults)");
        let plan = FaultPlan::from_specs(vec![spec]);
        assert!(plan.to_string().contains("gps[1]"));
        assert_eq!(ModeCode(4).to_string(), "mode#4");
    }
}
