//! The checkpoint store: copy-on-write snapshots of mid-run state, held
//! in a per-runner LRU tree plus an optional cross-worker shared tier, so
//! a scenario can fork from the deepest cached state whose *injection
//! prefix* matches instead of replaying the shared prefix from `t = 0`.
//!
//! # Why this is sound
//!
//! A test run is a pure function of its [`FaultPlan`]: the simulator, the
//! firmware, the injector and the workload are all deterministic given
//! the experiment seed, and the *only* way the plan influences the run is
//! through `should_fail(instance, time)` answers, which depend solely on
//! the failures scheduled at or before the query time. (The sensor
//! frontend gets those answers once per step and repeats them inside the
//! injector's read window, which reaches up to the next scheduled
//! failure; a fork's plan swap voids the window, so the new plan's
//! answers are re-decided on the first step after the restore.) Two
//! plans whose failures scheduled before time `T` are identical therefore
//! drive bit-identical executions up to `T` — everything before the first
//! divergent injection is shared work.
//!
//! The store exploits exactly that: while a run executes, the runner
//! records a [`RunSnapshot`] (simulator + firmware + injector +
//! workload + trace bookkeeping) every [`CheckpointConfig::interval`]
//! simulated seconds — and at each configured anchor time (see
//! [`CheckpointConfig::anchors`]) — keyed by the quantised injection
//! prefix at the snapshot time. A later run looks up the deepest snapshot
//! whose key matches one of its own prefixes, *verifies the un-quantised
//! prefixes match exactly* (quantisation is a hash key, never a
//! correctness argument) and resumes from there with its own plan swapped
//! in. Runs that fork mid-scenario extend the tree with deeper,
//! prefix-specific branches — hence checkpoint *tree*, not checkpoint
//! list.
//!
//! # Copy-on-write recording
//!
//! Recording is O(1) in the run length. Every growing history that a
//! snapshot captures — the trace samples (runner), the defect log
//! (firmware), the injection/transition records (injector) — is backed
//! by an [`avis_sim::CowVec`]: at snapshot time the mutable tail is
//! sealed into an immutable `Arc`-shared chunk and the snapshot clones
//! the chunk *list*, not the elements. Snapshots along one run (and forks
//! off it) share the sealed prefix structurally; the memory budget
//! charges each distinct chunk exactly once (a chunk ledger tracks
//! chunk identities), so dense checkpoint intervals no longer multiply
//! the sample history.
//!
//! # Delta-encoded chains
//!
//! Copy-on-write removes the *history* cost of dense checkpointing, but
//! every snapshot still cloned the full fixed-size substrate state
//! (vehicle + sensors + firmware control stack). The per-runner cache
//! therefore stores each chain as **one full keyframe plus per-cut
//! deltas**: every [`CheckpointConfig::keyframe_stride`]-th cut of a run
//! is held whole, and the cuts between are held as the per-layer dynamic
//! slice ([`SimSnapshot::diff`], [`avis_firmware::FirmwareSnapshot::diff`],
//! [`avis_hinj::InjectorSnapshot::diff`]) against the previous cut —
//! static structure (configuration, parameters, environment, seed-time
//! biases, unchanged mission/failsafe/defect state) lives once per
//! keyframe. Restoring a delta cut walks the chain from its keyframe and
//! applies each delta in order (bounded by the stride); eviction is
//! chain-aware (evicting an entry also evicts the deltas diffed against
//! it) and the ledger charges delta bytes exactly like full-snapshot
//! bytes. Encoding never changes a result: re-materialisation is
//! bit-exact, so a fork from a delta cut is bit-identical to a fork from
//! a full snapshot — and memory budgets admit several times more
//! resident cuts per MiB.
//!
//! # The shared tier
//!
//! Checkpoint caches are per runner (lock-free by construction), so
//! without sharing each parallel worker re-records the same fault-free
//! chain. The [`SharedSnapshotTier`] is a read-mostly second tier: an
//! `Arc`-swapped immutable snapshot map that the engine republishes
//! between speculative wavefronts. Workers push newly recorded snapshots
//! into a pending buffer (a brief mutex on the rare record path); lookups
//! clone the current `Arc` and probe the immutable map without taking
//! any lock that a writer can hold — one worker's cold run warms every
//! worker's cache. A [`crate::matrix::ScenarioMatrix`] keys tiers by
//! (firmware, workload), so cells differing only by strategy share one
//! checkpoint tree across campaigns instead of rebuilding it per
//! campaign. Sharing never changes a result: a forked run is
//! bit-identical to a cold one, whichever tier the snapshot came from.
//!
//! Snapshots are recorded only for injection runs (`seed_offset == 0`):
//! profiling runs each use a distinct sensor-noise seed and execute once,
//! so caching them would only consume budget.

use crate::protocol::ProtocolTracker;
use crate::trace::StateSample;
use avis_firmware::{FirmwareDelta, FirmwareSnapshot};
use avis_hinj::{
    FaultPlan, FaultSpec, InjectorDelta, InjectorSnapshot, LinkDelta, LinkFaultSpec, LinkSnapshot,
};
use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::cow::{ChunkSink, ChunkSource};
use avis_sim::simulator::StepOutput;
use avis_sim::{CowDelta, CowVec, PackedStepOutput, SensorReading, SimDelta, SimSnapshot};
use avis_workload::{ScriptedWorkload, WorkloadStatus};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the runner's checkpoint store.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Whether the runner records and reuses snapshots at all. Disabled,
    /// every run cold-starts from `t = 0` (the pre-checkpoint behaviour).
    pub enabled: bool,
    /// Simulated seconds between snapshots along a run. Smaller intervals
    /// give forks a deeper resume point but cost more recording time and
    /// memory.
    pub interval: f64,
    /// Memory budget for the per-runner cache (approximate bytes). When
    /// an insert pushes the total past this, the least-recently-used
    /// snapshots are evicted until it fits again. `Arc`-shared history
    /// chunks are charged once per distinct chunk, not once per snapshot.
    ///
    /// The budget is **per runner**: every engine worker owns its own
    /// lock-free cache, so a campaign at parallelism `N` may hold up to
    /// `N × max_bytes` of snapshots in total (plus one shared tier of the
    /// same budget). Size the budget against the worker count on
    /// memory-constrained hosts.
    pub max_bytes: usize,
    /// Extra cut times (simulated seconds), sorted ascending: the runner
    /// snapshots at the *last loop-top at or before* each anchor, in
    /// addition to the fixed interval. Campaigns populate this with the
    /// golden run's mode-transition times (where SABRE actually anchors
    /// injections, see [`CheckpointConfig::anchor_placement`]), which
    /// raises fork depth at equal memory budget: a fork resumes right at
    /// the injection instead of up to one interval before it.
    pub anchors: Vec<f64>,
    /// Whether a campaign should auto-populate [`CheckpointConfig::anchors`]
    /// from the golden trace's mode transitions after profiling (only
    /// when `anchors` was left empty). Placement is purely a speed/memory
    /// trade-off — results are bit-identical either way.
    pub anchor_placement: bool,
    /// Delta-chain keyframe stride: along one recording run, every
    /// `keyframe_stride`-th cut stores a *full* snapshot (a keyframe) and
    /// the cuts between them store per-layer deltas against the previous
    /// cut (see [`RunSnapshot::diff`]). Restoring a delta cut walks the
    /// chain from its keyframe, so larger strides trade a little restore
    /// work for far more resident cuts per MiB of budget. `1` stores only
    /// full snapshots (the pre-delta behaviour). Encoding never changes a
    /// result — a run forked from a re-materialised delta cut is
    /// bit-identical to one forked from a full snapshot.
    pub keyframe_stride: usize,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            enabled: true,
            interval: 5.0,
            max_bytes: 64 * 1024 * 1024,
            anchors: Vec::new(),
            anchor_placement: true,
            keyframe_stride: 8,
        }
    }
}

impl CheckpointConfig {
    /// A configuration that disables checkpointing entirely.
    pub fn disabled() -> Self {
        CheckpointConfig {
            enabled: false,
            ..CheckpointConfig::default()
        }
    }

    /// A configuration with the given memory budget (bytes).
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        CheckpointConfig {
            max_bytes,
            ..CheckpointConfig::default()
        }
    }

    /// A configuration with explicit anchor cut times (disables the
    /// campaign's automatic golden-transition placement).
    pub fn with_anchors(anchors: Vec<f64>) -> Self {
        let mut config = CheckpointConfig {
            anchors,
            anchor_placement: false,
            ..CheckpointConfig::default()
        };
        config.normalize_anchors();
        config
    }

    /// Sorts and de-duplicates the anchor list — the single
    /// normalization chokepoint every anchor-accepting entry point
    /// funnels through, so runners and engine workers always key
    /// snapshots off the identical cut list.
    pub fn normalize_anchors(&mut self) {
        self.anchors.sort_by(f64::total_cmp);
        self.anchors.dedup();
    }

    /// A configuration recording only at anchors (no interval cadence):
    /// the interval is pushed past any realistic run duration, isolating
    /// anchor placement for comparisons at equal memory budget.
    pub fn anchors_only(anchors: Vec<f64>, max_bytes: usize) -> Self {
        CheckpointConfig {
            interval: 1e9,
            max_bytes,
            ..CheckpointConfig::with_anchors(anchors)
        }
    }

    /// A configuration with the given delta-chain keyframe stride
    /// (`1` = full snapshots only, the pre-delta behaviour).
    pub fn with_keyframe_stride(keyframe_stride: usize) -> Self {
        CheckpointConfig {
            keyframe_stride,
            ..CheckpointConfig::default()
        }
    }
}

/// The failures of a plan scheduled strictly before a cut time, across
/// *both* injection surfaces: sensor failures and protocol-level link
/// faults. Two plans with equal prefixes at `t` drive bit-identical
/// executions on `[0, t)` — the link fault shim, like the sensor
/// injector, only consults faults scheduled before the current step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InjectionPrefix {
    pub(crate) sensor: Vec<FaultSpec>,
    pub(crate) link: Vec<LinkFaultSpec>,
}

impl InjectionPrefix {
    /// Whether no failure of either surface precedes the cut.
    pub fn is_empty(&self) -> bool {
        self.sensor.is_empty() && self.link.is_empty()
    }

    /// Total number of failures in the prefix (both surfaces).
    pub fn len(&self) -> usize {
        self.sensor.len() + self.link.len()
    }

    /// Serialise the prefix for the persistent store.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.seq(&self.sensor, |w, s| s.encode(w));
        w.seq(&self.link, |w, s| s.encode(w));
    }

    /// Decode a prefix previously written by [`InjectionPrefix::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<InjectionPrefix> {
        Ok(InjectionPrefix {
            sensor: r.seq(FaultSpec::decode)?,
            link: r.seq(LinkFaultSpec::decode)?,
        })
    }
}

/// The failures of `plan` scheduled strictly before `t` — the *injection
/// prefix* that fully determines the run's behaviour on `[0, t)`.
/// (A failure scheduled exactly at `t` first fires at the firmware step
/// at `t`, which happens after a snapshot taken at loop-top time `t`.)
pub(crate) fn injection_prefix(plan: &FaultPlan, t: f64) -> InjectionPrefix {
    InjectionPrefix {
        sensor: plan.specs().filter(|s| s.time < t).collect(),
        link: plan
            .link_plan()
            .specs()
            .iter()
            .filter(|s| s.time < t)
            .copied()
            .collect(),
    }
}

/// The millisecond-quantised cache key of an injection prefix. Purely a
/// lookup key: before a snapshot is reused, the exact (`f64`) prefixes
/// are compared, so two plans that collide in quantised space can never
/// contaminate each other's results. Link faults contribute their
/// canonical parts, so a link-fault plan's snapshots can never collide
/// with a sensor-only sibling's.
pub(crate) fn prefix_cache_key(prefix: &InjectionPrefix) -> String {
    let mut parts: Vec<String> = prefix
        .sensor
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}",
                s.instance.kind.name(),
                s.instance.index,
                (s.time * 1000.0).round() as i64
            )
        })
        .collect();
    parts.extend(prefix.link.iter().map(|s| s.canonical_part()));
    parts.sort();
    parts.join("|")
}

/// Everything the runner needs to resume a run mid-flight: the three
/// substrate snapshots plus the runner's own loop bookkeeping at the cut
/// point (the top of the lock-step loop, before ground-station traffic
/// for that step is exchanged).
///
/// Cloning a `RunSnapshot` is O(1) in the run length: every growing
/// history inside it is an `Arc`-chunked [`CowVec`] (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct RunSnapshot {
    /// Simulator state (vehicle, environment, sensor RNG stream, time).
    pub(crate) sim: SimSnapshot,
    /// Firmware state (estimator, navigator, failsafes, mission, modes).
    pub(crate) firmware: FirmwareSnapshot,
    /// Injector state (records + read counters; plan swapped at restore).
    pub(crate) injector: InjectorSnapshot,
    /// Link fault-shim state (queues, seq counters, RNG stream, storm
    /// dedup; link plan swapped at restore exactly like the injector's).
    pub(crate) link: LinkSnapshot,
    /// GCS-side protocol-invariant tracker state.
    pub(crate) tracker: ProtocolTracker,
    /// Workload runtime state (script progress, seen telemetry).
    pub(crate) workload: ScriptedWorkload,
    /// Trace samples recorded so far (chunk-shared with the recording
    /// run and with every other snapshot along the same chain).
    pub(crate) samples: CowVec<StateSample>,
    /// The step/telemetry output buffer as of the last simulator step.
    pub(crate) output: StepOutput,
    /// Fence-violation count so far.
    pub(crate) fence_violations: usize,
    /// Next trace-sample time.
    pub(crate) next_sample_time: f64,
    /// Workload status at the cut point.
    pub(crate) workload_status: WorkloadStatus,
    /// When the workload reached a terminal state, if it has.
    pub(crate) terminal_since: Option<f64>,
    /// Simulation time of the cut (s); equals the captured simulator's
    /// clock.
    pub(crate) time: f64,
    /// The exact injection prefix of the recording run at `time`.
    pub(crate) prefix: InjectionPrefix,
}

impl RunSnapshot {
    /// Simulation time of the cut (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The exact injection prefix the snapshot was recorded under.
    pub fn prefix(&self) -> &InjectionPrefix {
        &self.prefix
    }

    /// Approximate heap bytes *exclusively owned* by this snapshot (the
    /// fixed-size substrate state and unsealed tails). `Arc`-shared
    /// history chunks are visited through [`RunSnapshot::for_each_chunk`]
    /// and charged once per distinct chunk by the stores.
    pub fn approx_bytes(&self) -> usize {
        self.sim.approx_bytes()
            + self.firmware.approx_bytes()
            + self.injector.approx_bytes()
            + self.link.approx_bytes()
            + self.tracker.approx_bytes()
            + self.samples.exclusive_bytes()
            + self.output.readings.len() * std::mem::size_of::<SensorReading>()
            + self.prefix.sensor.len() * std::mem::size_of::<FaultSpec>()
            + self.prefix.link.len() * std::mem::size_of::<LinkFaultSpec>()
            // Workload runtime state plus per-snapshot bookkeeping. The
            // script itself (steps, environment) is Arc-shared, not copied.
            + 1024
    }

    /// Visits every `Arc`-shared block the snapshot references —
    /// sample-history chunks, firmware defect-log chunks, injector
    /// record chunks and the environment — as `(identity, bytes)` pairs.
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.samples.for_each_chunk(f);
        self.firmware.for_each_chunk(f);
        self.injector.for_each_chunk(f);
        self.sim.for_each_chunk(f);
    }

    /// The delta from `prev` (an earlier cut of the same run, or the cut
    /// this run forked from) to this snapshot: each substrate layer
    /// contributes its own delta (see [`SimSnapshot::diff`],
    /// [`FirmwareSnapshot::diff`], [`InjectorSnapshot::diff`]) and the
    /// runner-level bookkeeping rides along — the sample history as an
    /// `Arc`-chunk-shared list, everything else by value. A delta is a
    /// fraction of a full snapshot's exclusive bytes, which is what lets
    /// dense chains stay resident under a fixed memory budget.
    pub fn diff(&self, prev: &RunSnapshot) -> RunDelta {
        RunDelta {
            sim: self.sim.diff(&prev.sim),
            firmware: self.firmware.diff(&prev.firmware),
            injector: self.injector.diff(&prev.injector),
            link: self.link.diff(&prev.link),
            tracker: self.tracker.clone(),
            workload: self.workload.clone(),
            samples: self.samples.delta_from(&prev.samples),
            output: PackedStepOutput::pack(&self.output),
            fence_violations: self.fence_violations,
            next_sample_time: self.next_sample_time,
            workload_status: self.workload_status.clone(),
            terminal_since: self.terminal_since,
            time: self.time,
            prefix: self.prefix.clone(),
        }
    }

    /// Re-materialises the snapshot `delta` was diffed *to*, using `self`
    /// as the base it was diffed *from* — the restore step of a delta
    /// chain walk. Bit-exact: `base.apply(&cut.diff(&base)) == cut` for
    /// every pair of cuts along one run.
    pub fn apply(&self, delta: &RunDelta) -> RunSnapshot {
        RunSnapshot {
            sim: self.sim.apply(&delta.sim),
            firmware: self.firmware.apply(&delta.firmware),
            injector: self.injector.apply(&delta.injector),
            link: self.link.apply(&delta.link),
            tracker: delta.tracker.clone(),
            workload: delta.workload.clone(),
            samples: CowVec::apply_delta(&self.samples, &delta.samples),
            output: delta.output.unpack(),
            fence_violations: delta.fence_violations,
            next_sample_time: delta.next_sample_time,
            workload_status: delta.workload_status.clone(),
            terminal_since: delta.terminal_since,
            time: delta.time,
            prefix: delta.prefix.clone(),
        }
    }
}

/// The delta-encoded form of a [`RunSnapshot`]: the dynamic slice of
/// every substrate layer relative to the previous cut of the same chain
/// (see [`RunSnapshot::diff`]). The static structure — configuration,
/// parameters, environment, seed-time biases — lives once in the chain's
/// base keyframe.
#[derive(Debug, Clone)]
pub struct RunDelta {
    sim: SimDelta,
    firmware: FirmwareDelta,
    injector: InjectorDelta,
    link: LinkDelta,
    tracker: ProtocolTracker,
    workload: ScriptedWorkload,
    samples: CowDelta<StateSample>,
    output: PackedStepOutput,
    fence_violations: usize,
    next_sample_time: f64,
    workload_status: WorkloadStatus,
    terminal_since: Option<f64>,
    time: f64,
    prefix: InjectionPrefix,
}

impl RunDelta {
    /// Simulation time of the encoded cut (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Approximate heap + inline bytes *exclusively owned* by the delta.
    /// `Arc`-shared history chunks are visited through
    /// [`RunDelta::for_each_chunk`] and charged once per distinct chunk
    /// by the stores.
    pub fn approx_bytes(&self) -> usize {
        self.sim.approx_bytes()
            + self.firmware.approx_bytes()
            + self.injector.approx_bytes()
            + self.link.approx_bytes()
            + self.tracker.approx_bytes()
            + self.samples.exclusive_bytes()
            + self.output.approx_bytes()
            + self.prefix.sensor.len() * std::mem::size_of::<FaultSpec>()
            + self.prefix.link.len() * std::mem::size_of::<LinkFaultSpec>()
            // Workload runtime state plus per-delta bookkeeping (the
            // script itself is Arc-shared, not copied).
            + 256
    }

    /// Visits every `Arc`-shared block the delta references as
    /// `(identity, bytes)` pairs (see [`RunSnapshot::for_each_chunk`]).
    pub fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        self.samples.for_each_chunk(f);
        self.firmware.for_each_chunk(f);
        self.injector.for_each_chunk(f);
    }

    /// Serialises the delta for the persistent store. History chunks
    /// (trace samples, firmware defect log, injector records) go to
    /// `sink` content-addressed; everything else is written inline.
    pub fn encode(&self, w: &mut ByteWriter, sink: &mut dyn ChunkSink) {
        self.sim.encode(w);
        self.firmware.encode(w, sink);
        self.injector.encode(w, sink);
        self.link.encode(w);
        self.tracker.encode(w);
        self.workload.encode_runtime(w);
        self.samples
            .encode_chunked(w, sink, &mut |w, s: &StateSample| s.encode(w));
        self.output.encode(w);
        w.usize(self.fence_violations);
        w.f64(self.next_sample_time);
        self.workload_status.encode(w);
        w.option(self.terminal_since.as_ref(), |w, t| w.f64(*t));
        w.f64(self.time);
        self.prefix.encode(w);
    }

    /// Restores a delta serialised by [`RunDelta::encode`].
    ///
    /// `workload_template` supplies the static script structure (steps,
    /// name, environment, timeout), which is derived from the experiment
    /// configuration and never persisted — only the runtime progress is
    /// read from the byte stream (see
    /// [`ScriptedWorkload::decode_runtime`]).
    pub fn decode(
        r: &mut ByteReader<'_>,
        source: &mut dyn ChunkSource,
        workload_template: &ScriptedWorkload,
    ) -> CodecResult<RunDelta> {
        Ok(RunDelta {
            sim: SimDelta::decode(r)?,
            firmware: FirmwareDelta::decode(r, source)?,
            injector: InjectorDelta::decode(r, source)?,
            link: LinkDelta::decode(r)?,
            tracker: ProtocolTracker::decode(r)?,
            workload: workload_template.decode_runtime(r)?,
            samples: CowDelta::decode_chunked(r, source, &mut StateSample::decode)?,
            output: PackedStepOutput::decode(r)?,
            fence_violations: r.usize()?,
            next_sample_time: r.f64()?,
            workload_status: WorkloadStatus::decode(r)?,
            terminal_since: r.option(|r| r.f64())?,
            time: r.f64()?,
            prefix: InjectionPrefix::decode(r)?,
        })
    }
}

/// Composite cache key: experiment seed offset, quantised injection
/// prefix, quantised snapshot time. Ordered so one prefix's snapshots
/// ("a chain of the checkpoint tree") are contiguous and time-sorted,
/// which makes deepest-first scans a reverse range iteration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SnapshotKey {
    seed_offset: u64,
    prefix: String,
    time_ms: i64,
}

impl SnapshotKey {
    pub(crate) fn for_snapshot(seed_offset: u64, snapshot: &RunSnapshot) -> Self {
        SnapshotKey {
            seed_offset,
            prefix: prefix_cache_key(&snapshot.prefix),
            time_ms: (snapshot.time * 1000.0).round() as i64,
        }
    }
}

/// Reference-counted accounting of the distinct `Arc`-shared chunks a
/// store's snapshots reference, so the memory budget charges each chunk's
/// bytes exactly once however many snapshots share it — the accounting
/// side of copy-on-write.
#[derive(Debug, Clone, Default)]
struct ChunkLedger {
    chunks: BTreeMap<usize, (usize, usize)>, // identity -> (bytes, refs)
    bytes: usize,
}

impl ChunkLedger {
    /// References one chunk, charging its bytes on the first reference.
    fn add_chunk(&mut self, id: usize, bytes: usize) {
        let entry = self.chunks.entry(id).or_insert((bytes, 0));
        if entry.1 == 0 {
            self.bytes += bytes;
        }
        entry.1 += 1;
    }

    /// Releases one reference to a chunk, refunding its bytes when the
    /// last referent goes away.
    fn remove_chunk(&mut self, id: usize) {
        if let Some(entry) = self.chunks.get_mut(&id) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.bytes -= entry.0;
                self.chunks.remove(&id);
            }
        }
    }

    fn add(&mut self, snapshot: &RunSnapshot) {
        snapshot.for_each_chunk(&mut |id, bytes| self.add_chunk(id, bytes));
    }

    fn remove(&mut self, snapshot: &RunSnapshot) {
        snapshot.for_each_chunk(&mut |id, _| self.remove_chunk(id));
    }
}

/// Probes for the deepest snapshot in `entries` a run of `plan` may
/// resume from: among every snapshot whose quantised key matches one of
/// the plan's own injection prefixes *and* whose exact prefix equals the
/// plan's exact prefix at the snapshot time, the one with the latest cut
/// time. Shared by the per-runner cache and the shared tier; the
/// `meta_of` accessor yields `(cut time, exact prefix)` without
/// materialising delta-encoded entries.
/// `cap` bounds the cut time a caller can accept (`f64::INFINITY` for
/// unbounded): the batch leader may only resume from cuts at or before
/// its earliest lane-fork time, since forks are taken from the live
/// leader at loop-tops — a deeper cut would skip past them.
fn deepest_entry<'a, V>(
    entries: &'a BTreeMap<SnapshotKey, V>,
    meta_of: impl for<'v> Fn(&'v V) -> (f64, &'v InjectionPrefix),
    seed_offset: u64,
    plan: &FaultPlan,
    cap: f64,
) -> Option<(f64, &'a SnapshotKey)> {
    // The plan's prefix only changes at its own failure times — sensor
    // *or* link — so there are at most `plan.len() + 1` distinct prefixes
    // to probe; probe each one's chain from its deepest snapshot down.
    let mut boundaries: Vec<f64> = plan
        .specs()
        .map(|s| s.time)
        .chain(plan.link_plan().fault_times())
        .collect();
    boundaries.sort_by(f64::total_cmp);
    boundaries.dedup();
    // `injection_prefix` is strict (`time < probe`), so probing at
    // boundary `k` selects the prefix *excluding* that boundary's
    // failures — i.e. the failures before it — and f64::INFINITY probes
    // the full-plan prefix. Together the probes enumerate every distinct
    // prefix of the plan.
    let mut best: Option<(f64, &SnapshotKey)> = None;
    for k in 0..=boundaries.len() {
        let probe = if k == boundaries.len() {
            f64::INFINITY
        } else {
            boundaries[k]
        };
        let prefix = injection_prefix(plan, probe);
        let key = prefix_cache_key(&prefix);
        let lo = SnapshotKey {
            seed_offset,
            prefix: key.clone(),
            time_ms: i64::MIN,
        };
        let hi = SnapshotKey {
            seed_offset,
            prefix: key,
            time_ms: i64::MAX,
        };
        for (entry_key, entry) in entries.range(lo..=hi).rev() {
            let (time, recorded_prefix) = meta_of(entry);
            if time > cap {
                continue; // too deep for the caller; shallower cuts may fit
            }
            // Exact validity guard: the plan's exact prefix at the
            // snapshot's cut time must equal the recorded prefix. This
            // rejects both quantisation collisions and snapshots cut
            // *after* one of the plan's failures that the recording run
            // did not inject.
            if injection_prefix(plan, time) == *recorded_prefix {
                if best.is_none_or(|(t, _)| time > t) {
                    best = Some((time, entry_key));
                }
                break; // deeper entries of this chain are shallower in time
            }
        }
    }
    best
}

/// How one cut is physically held by the per-runner cache: a full
/// snapshot (a chain keyframe) or a delta against its parent cut.
#[derive(Debug, Clone)]
enum StoredRun {
    Full(Box<RunSnapshot>),
    Delta {
        /// The cut this delta was diffed against. Materialising walks
        /// parent links until it reaches a [`StoredRun::Full`] keyframe;
        /// the walk is bounded by [`CheckpointConfig::keyframe_stride`].
        parent: SnapshotKey,
        delta: Box<RunDelta>,
    },
}

impl StoredRun {
    fn approx_bytes(&self) -> usize {
        match self {
            StoredRun::Full(snapshot) => snapshot.approx_bytes(),
            StoredRun::Delta { delta, .. } => delta.approx_bytes(),
        }
    }

    fn for_each_chunk(&self, f: &mut dyn FnMut(usize, usize)) {
        match self {
            StoredRun::Full(snapshot) => snapshot.for_each_chunk(f),
            StoredRun::Delta { delta, .. } => delta.for_each_chunk(f),
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    payload: StoredRun,
    /// Cut time (s) — duplicated out of the payload so probes never
    /// materialise a delta chain.
    time: f64,
    /// Exact injection prefix at the cut — the probe's validity guard.
    prefix: InjectionPrefix,
    /// Chain depth: 0 for a keyframe, parent depth + 1 for a delta.
    depth: usize,
    bytes: usize,
    /// Record-time checksum over the entry's identity and payload shape
    /// (see [`entry_checksum`]), re-validated on every materialisation.
    /// A mismatch quarantines the whole chain instead of serving it.
    checksum: u64,
    last_used: u64,
}

/// FNV-1a over `bytes`, continuing from `hash` (seed with
/// [`FNV_OFFSET_BASIS`]).
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The record-time checksum of one cache entry: cut time, quantised
/// prefix key, payload form (keyframe vs delta, and the delta's parent
/// key) and the payload's approximate exclusive size. Computed when the
/// entry is stored and re-validated link by link when a chain is
/// materialised, so silent store corruption — a flipped byte in the
/// bookkeeping a chain walk depends on — is detected and quarantined
/// instead of resuming a wrong state.
fn entry_checksum(time: f64, prefix: &InjectionPrefix, payload: &StoredRun) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET_BASIS, &time.to_bits().to_le_bytes());
    hash = fnv1a(hash, prefix_cache_key(prefix).as_bytes());
    match payload {
        StoredRun::Full(snapshot) => {
            hash = fnv1a(hash, &[1]);
            hash = fnv1a(hash, &snapshot.time.to_bits().to_le_bytes());
        }
        StoredRun::Delta { parent, delta } => {
            hash = fnv1a(hash, &[2]);
            hash = fnv1a(hash, parent.prefix.as_bytes());
            hash = fnv1a(hash, &parent.time_ms.to_le_bytes());
            hash = fnv1a(hash, &delta.time.to_bits().to_le_bytes());
        }
    }
    fnv1a(hash, &(payload.approx_bytes() as u64).to_le_bytes())
}

/// Counters describing how the checkpoint store behaved, surfaced through
/// [`crate::runner::ExperimentRunner::checkpoint_stats`] and reported by
/// the campaign-throughput bench.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointStats {
    /// Injection runs that resumed from a snapshot (either tier).
    pub forked_runs: u64,
    /// Injection runs that cold-started from `t = 0`.
    pub cold_runs: u64,
    /// Forks served by the cross-worker [`SharedSnapshotTier`] (a subset
    /// of [`CheckpointStats::forked_runs`]).
    pub shared_hits: u64,
    /// Snapshots currently held in the per-runner cache.
    pub snapshots_cached: usize,
    /// Approximate bytes currently held (exclusive state plus each
    /// distinct shared chunk counted once).
    pub cached_bytes: usize,
    /// Of [`CheckpointStats::cached_bytes`], the bytes in `Arc`-shared
    /// history chunks — the part copy-on-write de-duplicates across the
    /// snapshots of a chain.
    pub chunk_bytes: usize,
    /// Of [`CheckpointStats::snapshots_cached`], the cuts held as
    /// per-layer deltas against their chain parent rather than as full
    /// keyframes (see [`CheckpointConfig::keyframe_stride`]).
    pub delta_snapshots: usize,
    /// Exclusive bytes held by the delta-encoded cuts alone — the part of
    /// [`CheckpointStats::cached_bytes`] that delta encoding shrinks.
    pub delta_bytes: usize,
    /// Snapshots recorded over the runner's lifetime.
    pub snapshots_recorded: u64,
    /// Snapshots evicted by the memory budget.
    pub snapshots_evicted: u64,
    /// Snapshots removed by quarantine: chain links whose record-time
    /// checksum no longer matched at materialisation, plus entries
    /// recorded by a run that later panicked (the panic-tainted chain).
    /// Quarantined entries are never served again; the affected runs
    /// transparently cold-start instead.
    pub quarantined: u64,
    /// Checksum-validation failures observed while materialising chains
    /// (one per failed fork attempt, however many links the quarantine
    /// then removed). Reaching the breaker threshold disables
    /// checkpointing for the rest of the runner's life — the campaign is
    /// notified through `CampaignEvent::DegradedMode`. Panic-taint
    /// quarantines do *not* count here: a seeded crash is deterministic
    /// and expected, not evidence of store corruption.
    pub checksum_failures: u64,
    /// Total simulated seconds *not* re-executed thanks to forking (the
    /// sum of fork-point times).
    pub simulated_seconds_skipped: f64,
    /// Chains hydrated from the persistent snapshot store at campaign
    /// start (see [`crate::store`]); `0` when no store was attached.
    pub loaded_chains: u64,
    /// Chains the campaign flushed to the persistent store.
    pub persisted_chains: u64,
    /// Bytes held by the persistent store (blobs plus manifest) after
    /// the campaign's final flush and GC pass.
    pub store_bytes: u64,
    /// Blob writes the persistent store skipped because an identical
    /// content-addressed blob was already on disk — cross-cut and
    /// cross-campaign dedup hits.
    pub dedup_hits: u64,
}

/// The chain context a runner carries between cuts: the key of the last
/// cut it stored (or forked from) plus that cut's exact snapshot, which
/// the next cut's delta is diffed against.
#[derive(Debug, Clone)]
pub(crate) struct ChainParent {
    pub(crate) key: SnapshotKey,
    pub(crate) snapshot: RunSnapshot,
}

/// The per-runner, memory-budgeted, LRU-evicted snapshot store. Cuts
/// along one run are held as delta chains — one full keyframe every
/// [`CheckpointConfig::keyframe_stride`] cuts, per-layer deltas in
/// between — so a fixed budget keeps several times more cuts resident
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct SnapshotCache {
    entries: BTreeMap<SnapshotKey, CacheEntry>,
    /// Reverse dependency index: keyframe/delta key -> the delta entries
    /// diffed directly against it. Evicting an entry must also evict its
    /// transitive dependents (their chains can no longer materialise).
    dependents: BTreeMap<SnapshotKey, Vec<SnapshotKey>>,
    exclusive_bytes: usize,
    ledger: ChunkLedger,
    max_bytes: usize,
    keyframe_stride: usize,
    clock: u64,
    stats: CheckpointStats,
    /// The checksum breaker: set once
    /// [`CheckpointStats::checksum_failures`] reaches
    /// [`CHECKSUM_BREAKER_THRESHOLD`]. A tripped breaker disables
    /// checkpointing for the rest of the runner's life (every run
    /// cold-starts) — repeated validation failures mean the store cannot
    /// be trusted, and correctness must not depend on it.
    disabled: bool,
}

/// Checksum failures tolerated before the breaker disables checkpointing
/// (see [`SnapshotCache::degraded`]).
const CHECKSUM_BREAKER_THRESHOLD: u64 = 3;

impl SnapshotCache {
    /// An empty cache with the given memory budget (bytes) holding only
    /// full snapshots (keyframe stride 1).
    pub fn new(max_bytes: usize) -> Self {
        SnapshotCache {
            max_bytes,
            keyframe_stride: 1,
            ..SnapshotCache::default()
        }
    }

    /// Sets the delta-chain keyframe stride (clamped to at least 1).
    pub(crate) fn set_keyframe_stride(&mut self, keyframe_stride: usize) {
        self.keyframe_stride = keyframe_stride.max(1);
    }

    fn total_bytes(&self) -> usize {
        self.exclusive_bytes + self.ledger.bytes
    }

    /// Current statistics.
    pub fn stats(&self) -> CheckpointStats {
        let (delta_snapshots, delta_bytes) = self
            .entries
            .values()
            .filter(|e| matches!(e.payload, StoredRun::Delta { .. }))
            .fold((0usize, 0usize), |(n, b), e| (n + 1, b + e.bytes));
        CheckpointStats {
            snapshots_cached: self.entries.len(),
            cached_bytes: self.total_bytes(),
            chunk_bytes: self.ledger.bytes,
            delta_snapshots,
            delta_bytes,
            ..self.stats
        }
    }

    /// Notes that a run executed without forking.
    pub(crate) fn note_cold_run(&mut self) {
        self.stats.cold_runs += 1;
    }

    /// Notes a fork served by the shared tier at depth `time`.
    pub(crate) fn note_shared_fork(&mut self, time: f64) {
        self.stats.forked_runs += 1;
        self.stats.shared_hits += 1;
        self.stats.simulated_seconds_skipped += time;
    }

    /// The deepest local snapshot a run of `plan` may resume from, as
    /// `(cut time, key)` — a probe only, touching neither LRU state nor
    /// statistics, so the runner can compare depths across tiers before
    /// committing to (and materialising) either.
    pub(crate) fn peek_deepest(
        &self,
        seed_offset: u64,
        plan: &FaultPlan,
        cap: f64,
    ) -> Option<(f64, SnapshotKey)> {
        deepest_entry(
            &self.entries,
            |e| (e.time, &e.prefix),
            seed_offset,
            plan,
            cap,
        )
        .map(|(t, k)| (t, k.clone()))
    }

    /// The chain of keys from `key` down to (and including) its keyframe.
    fn chain_of(&self, key: &SnapshotKey) -> Vec<SnapshotKey> {
        let mut chain = vec![key.clone()];
        loop {
            let entry = self
                .entries
                // avis-lint: allow(p1, reason = "chain starts as vec![key], never empty")
                .get(chain.last().expect("chain is non-empty"))
                // avis-lint: allow(p1, reason = "cascade eviction (evict_with_dependents) keeps every chain link resident; a miss is cache corruption, not a recoverable state")
                .expect("chain links are kept resident by cascade eviction");
            match &entry.payload {
                StoredRun::Full(_) => break,
                StoredRun::Delta { parent, .. } => chain.push(parent.clone()),
            }
        }
        chain
    }

    /// Whether the checksum breaker has tripped (see
    /// [`CheckpointStats::checksum_failures`]).
    pub(crate) fn degraded(&self) -> bool {
        self.disabled
    }

    /// Quarantines the entries at `keys` (plus their dependent delta
    /// cuts): the panic-taint path, called by the runner after a
    /// contained crash for every snapshot the panicked run recorded.
    /// Counts [`CheckpointStats::quarantined`] but *not*
    /// [`CheckpointStats::checksum_failures`] — a deterministic seeded
    /// crash is an expected outcome, not store corruption, so it must
    /// never trip the breaker.
    pub(crate) fn quarantine(&mut self, keys: &[SnapshotKey]) {
        for key in keys {
            let removed = self.remove_with_dependents(key);
            self.stats.quarantined += removed as u64;
        }
    }

    /// Validates every link of `key`'s chain against its record-time
    /// checksum. On the first mismatch the whole chain is quarantined
    /// (counted in [`CheckpointStats::quarantined`]), one
    /// [`CheckpointStats::checksum_failures`] is charged, the breaker is
    /// advanced, and `false` comes back — the caller falls back to cold
    /// execution.
    fn validate_chain(&mut self, key: &SnapshotKey) -> bool {
        let chain = self.chain_of(key);
        let corrupt = chain.iter().any(|link| {
            let entry = &self.entries[link];
            entry_checksum(entry.time, &entry.prefix, &entry.payload) != entry.checksum
        });
        if corrupt {
            // Quarantine from the chain's root (the keyframe) so every
            // dependent delta — including `key` itself — goes with it.
            // avis-lint: allow(p1, reason = "chain_of starts from `key`, never empty")
            let root = chain.last().expect("chain is non-empty").clone();
            let removed = self.remove_with_dependents(&root);
            self.stats.quarantined += removed as u64;
            self.stats.checksum_failures += 1;
            if self.stats.checksum_failures >= CHECKSUM_BREAKER_THRESHOLD {
                self.disabled = true;
            }
        }
        !corrupt
    }

    /// Takes (a re-materialised copy of) the snapshot a
    /// [`SnapshotCache::peek_deepest`] probe selected, updating LRU state
    /// and fork statistics. A keyframe is a plain clone; a delta cut is
    /// rebuilt by walking its chain from the keyframe and applying each
    /// delta in order. The whole chain's LRU stamps are refreshed —
    /// materialisation *uses* every link, so a hot cut keeps its keyframe
    /// alive. Every link is checksum-validated first: a corrupt chain is
    /// quarantined and `None` comes back, and the caller cold-starts.
    pub(crate) fn take(&mut self, key: &SnapshotKey, time: f64) -> Option<RunSnapshot> {
        if !self.validate_chain(key) {
            return None;
        }
        self.clock += 1;
        let chain = self.chain_of(key);
        for link in &chain {
            self.entries
                .get_mut(link)
                // avis-lint: allow(p1, reason = "chain_of only returns resident keys; a miss is cache corruption")
                .expect("chain link present")
                .last_used = self.clock;
        }
        let mut snapshot = match &self
            .entries
            // avis-lint: allow(p1, reason = "chain starts as vec![key], never empty")
            .get(chain.last().expect("chain is non-empty"))
            // avis-lint: allow(p1, reason = "chain_of only returns resident keys; a miss is cache corruption")
            .expect("chain link present")
            .payload
        {
            StoredRun::Full(keyframe) => (**keyframe).clone(),
            StoredRun::Delta { .. } => unreachable!("chain_of terminates at a keyframe"),
        };
        for link in chain.iter().rev().skip(1) {
            let StoredRun::Delta { delta, .. } =
                // avis-lint: allow(p1, reason = "chain_of only returns resident keys; a miss is cache corruption")
                &self.entries.get(link).expect("chain link present").payload
            else {
                unreachable!("inner chain links are deltas")
            };
            snapshot = snapshot.apply(delta);
        }
        self.stats.forked_runs += 1;
        self.stats.simulated_seconds_skipped += time;
        Some(snapshot)
    }

    /// Records a snapshot, keeping the earliest recording when the same
    /// `(seed offset, prefix, time)` cell is already occupied, then
    /// evicts least-recently-used chains until the memory budget is
    /// respected again.
    ///
    /// When `chain_parent` names a still-resident entry whose chain depth
    /// leaves room under the keyframe stride, the cut is stored as a
    /// delta against it; otherwise it is stored as a full keyframe.
    /// Returns the stored key, or `None` when the cell was already
    /// occupied (the runner then keeps its previous chain context).
    pub(crate) fn record(
        &mut self,
        seed_offset: u64,
        snapshot: RunSnapshot,
        chain_parent: Option<&ChainParent>,
    ) -> Option<SnapshotKey> {
        let key = SnapshotKey::for_snapshot(seed_offset, &snapshot);
        if self.entries.contains_key(&key) {
            return None;
        }
        let time = snapshot.time;
        let prefix = snapshot.prefix.clone();
        let delta_parent = chain_parent.and_then(|parent| {
            let entry = self.entries.get(&parent.key)?;
            (entry.depth + 1 < self.keyframe_stride).then_some((parent, entry.depth + 1))
        });
        let (payload, depth) = match delta_parent {
            Some((parent, depth)) => (
                StoredRun::Delta {
                    parent: parent.key.clone(),
                    delta: Box::new(snapshot.diff(&parent.snapshot)),
                },
                depth,
            ),
            None => (StoredRun::Full(Box::new(snapshot)), 0),
        };
        if let StoredRun::Delta { parent, .. } = &payload {
            self.dependents
                .entry(parent.clone())
                .or_default()
                .push(key.clone());
        }
        let bytes = payload.approx_bytes();
        self.clock += 1;
        let ledger = &mut self.ledger;
        payload.for_each_chunk(&mut |id, chunk_bytes| ledger.add_chunk(id, chunk_bytes));
        let checksum = entry_checksum(time, &prefix, &payload);
        self.entries.insert(
            key.clone(),
            CacheEntry {
                payload,
                time,
                prefix,
                depth,
                bytes,
                checksum,
                last_used: self.clock,
            },
        );
        self.exclusive_bytes += bytes;
        self.stats.snapshots_recorded += 1;
        while self.total_bytes() > self.max_bytes {
            let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break; // empty cache: only the fixed overhead remains
            };
            self.evict_with_dependents(&lru);
        }
        // The memory budget is enforced unconditionally: with a budget too
        // small for even one chain, the freshly inserted entry itself is
        // evicted above, so the key may already be gone again.
        self.entries.contains_key(&key).then_some(key)
    }

    /// Evicts `key` together with every transitive dependent (delta cuts
    /// diffed against it — their chains could no longer materialise).
    fn evict_with_dependents(&mut self, key: &SnapshotKey) {
        let removed = self.remove_with_dependents(key);
        self.stats.snapshots_evicted += removed as u64;
    }

    /// Removes `key` and every transitive dependent from the store,
    /// returning how many entries went. The statistics-neutral core
    /// shared by budget eviction ([`CheckpointStats::snapshots_evicted`])
    /// and quarantine ([`CheckpointStats::quarantined`]).
    fn remove_with_dependents(&mut self, key: &SnapshotKey) -> usize {
        let mut removed = 0usize;
        let mut pending = vec![key.clone()];
        while let Some(victim) = pending.pop() {
            if let Some(children) = self.dependents.remove(&victim) {
                pending.extend(children);
            }
            let Some(evicted) = self.entries.remove(&victim) else {
                continue;
            };
            self.exclusive_bytes -= evicted.bytes;
            let ledger = &mut self.ledger;
            evicted
                .payload
                .for_each_chunk(&mut |id, _| ledger.remove_chunk(id));
            // Unlink from the parent's dependent list so the reverse
            // index cannot accumulate stale keys.
            if let StoredRun::Delta { parent, .. } = &evicted.payload {
                if let Some(children) = self.dependents.get_mut(parent) {
                    children.retain(|k| k != &victim);
                    if children.is_empty() {
                        self.dependents.remove(parent);
                    }
                }
            }
            removed += 1;
        }
        removed
    }

    /// Test hook: flips the stored cut time of every entry (a silent
    /// single-byte store corruption), leaving the record-time checksums
    /// untouched — the next materialisation must detect the mismatch.
    #[doc(hidden)]
    pub(crate) fn corrupt_entries_for_test(&mut self) {
        for entry in self.entries.values_mut() {
            entry.time = f64::from_bits(entry.time.to_bits() ^ 1);
        }
    }
}

/// Aggregate statistics of a [`SharedSnapshotTier`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SharedTierStats {
    /// Snapshots currently published (visible to lock-free readers).
    pub published_snapshots: usize,
    /// Approximate bytes currently published (exclusive state plus each
    /// distinct shared chunk counted once).
    pub published_bytes: usize,
    /// Times the engine republished the map.
    pub publishes: u64,
    /// Snapshots accepted into the tier over its lifetime.
    pub recorded: u64,
    /// Snapshots evicted by the tier's memory budget.
    pub evicted: u64,
    /// Forks served to runners from this tier.
    pub hits: u64,
}

/// One published tier entry: the snapshot plus its lock-free hit counter
/// (bumped by readers on every served fork) and its insertion sequence
/// number (the eviction tie-break). The `Arc` is shared between the
/// writer-side map and every published map generation, so hits survive
/// republishing.
#[derive(Debug)]
struct TierEntry {
    snapshot: RunSnapshot,
    hits: AtomicU64,
    seq: u64,
}

/// The canonical (writer-side) state of a shared tier, behind one mutex
/// that only the rare record/republish paths touch.
#[derive(Debug, Default)]
struct TierState {
    pending: Vec<(SnapshotKey, Arc<TierEntry>)>,
    map: BTreeMap<SnapshotKey, Arc<TierEntry>>,
    exclusive: BTreeMap<SnapshotKey, usize>,
    ledger: ChunkLedger,
    exclusive_bytes: usize,
    next_seq: u64,
    publishes: u64,
    recorded: u64,
    evicted: u64,
}

/// The read-mostly cross-worker (and cross-campaign) snapshot tier: an
/// `Arc`-swapped immutable snapshot map (see the [module docs](self)).
///
/// *Reads* (`peek_deepest`) clone the published `Arc` and probe the
/// immutable map — no lock a writer can hold. *Writes* (`offer`) append
/// to a pending buffer under a brief mutex; nothing becomes visible until
/// the engine calls [`SharedSnapshotTier::republish`] between speculative
/// wavefronts, which merges the pending snapshots into a fresh map,
/// enforces the memory budget (hit-weighted eviction, chunk-aware
/// accounting) and swaps the `Arc`.
///
/// # Hit-weighted eviction
///
/// Readers bump a per-entry atomic on every fork the entry serves; when
/// the budget forces eviction at republish time, the *least-hit* entry
/// goes first (ties broken oldest-first, which degrades to FIFO while no
/// hits have accrued). Under a tight budget this keeps the hot fault-free
/// chain — the snapshots every sibling forks from — alive while one-off
/// deep branches cycle out.
#[derive(Debug)]
pub struct SharedSnapshotTier {
    max_bytes: usize,
    /// Fingerprint of the experiment whose snapshots this tier holds,
    /// claimed by the first runner that attaches. Snapshot keys encode
    /// only the injection prefix — state equivalence additionally needs
    /// the *same experiment* (firmware, bugs, workload, simulation
    /// parameters, seed) — so a runner whose experiment fingerprint
    /// differs from the claim refuses to attach.
    fingerprint: parking_lot::Mutex<Option<String>>,
    state: parking_lot::Mutex<TierState>,
    published: std::sync::RwLock<Arc<BTreeMap<SnapshotKey, Arc<TierEntry>>>>,
    hits: AtomicU64,
}

impl SharedSnapshotTier {
    /// An empty tier with the given memory budget (bytes).
    pub fn new(max_bytes: usize) -> Self {
        SharedSnapshotTier {
            max_bytes,
            fingerprint: parking_lot::Mutex::new(None),
            state: parking_lot::Mutex::new(TierState::default()),
            published: std::sync::RwLock::new(Arc::new(BTreeMap::new())),
            hits: AtomicU64::new(0),
        }
    }

    /// Claims the tier for an experiment: the first caller's fingerprint
    /// sticks, later callers get `true` only when theirs matches. A
    /// mismatch means the caller must not attach (its runs would fork
    /// from another experiment's state).
    pub(crate) fn claim(&self, fingerprint: &str) -> bool {
        let mut claimed = self.fingerprint.lock();
        match claimed.as_deref() {
            Some(existing) => existing == fingerprint,
            None => {
                *claimed = Some(fingerprint.to_string());
                true
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> SharedTierStats {
        let state = self.state.lock();
        SharedTierStats {
            published_snapshots: state.map.len(),
            published_bytes: state.exclusive_bytes + state.ledger.bytes,
            publishes: state.publishes,
            recorded: state.recorded,
            evicted: state.evicted,
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// The published `Arc` (cheap clone; the read path's only shared
    /// access).
    fn current(&self) -> Arc<BTreeMap<SnapshotKey, Arc<TierEntry>>> {
        Arc::clone(&self.published.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The cut time of the deepest published snapshot a run of `plan`
    /// may resume from — a probe only (no clone, no hit counted), so the
    /// runner can compare against its local cache first.
    pub(crate) fn peek_depth(&self, seed_offset: u64, plan: &FaultPlan, cap: f64) -> Option<f64> {
        let map = self.current();
        deepest_entry(
            &map,
            |e| (e.snapshot.time, &e.snapshot.prefix),
            seed_offset,
            plan,
            cap,
        )
        .map(|(t, _)| t)
    }

    /// Takes (a clone of) the deepest published snapshot for `plan`,
    /// counting a served fork — globally and on the entry itself, which
    /// is what hit-weighted eviction ranks by. Re-probes the current map
    /// — a concurrent republish between probe and take can only yield an
    /// equal or deeper snapshot, never an invalid one.
    pub(crate) fn take_deepest(
        &self,
        seed_offset: u64,
        plan: &FaultPlan,
        cap: f64,
    ) -> Option<(f64, RunSnapshot)> {
        let map = self.current();
        let (time, key) = deepest_entry(
            &map,
            |e| (e.snapshot.time, &e.snapshot.prefix),
            seed_offset,
            plan,
            cap,
        )?;
        // `deepest_entry` returned the key by reference out of `map`, so
        // the lookup cannot miss; `?` keeps the no-hit shape regardless.
        let entry = map.get(key)?;
        entry.hits.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some((time, entry.snapshot.clone()))
    }

    /// Offers a freshly recorded snapshot to the tier. Cheap: an `Arc`
    /// bump plus a short mutex on the pending buffer; duplicates of
    /// already-published or already-pending cells are dropped here.
    pub(crate) fn offer(&self, seed_offset: u64, snapshot: &RunSnapshot) {
        let key = SnapshotKey::for_snapshot(seed_offset, snapshot);
        if self.current().contains_key(&key) {
            return;
        }
        let mut state = self.state.lock();
        if state.map.contains_key(&key) || state.pending.iter().any(|(k, _)| *k == key) {
            return;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.pending.push((
            key,
            Arc::new(TierEntry {
                snapshot: snapshot.clone(),
                hits: AtomicU64::new(0),
                seq,
            }),
        ));
    }

    /// Withdraws still-pending offers whose keys are in `keys` — the
    /// panic-taint path: a contained crash retracts everything the
    /// panicked run offered before the engine's next republish could
    /// make it visible to other workers. (Offers become visible only at
    /// [`SharedSnapshotTier::republish`], which the engine calls between
    /// wavefronts — after every contained crash of the wavefront has
    /// already retracted its offers — so a tainted chain never crosses a
    /// worker boundary.)
    pub(crate) fn retract(&self, keys: &[SnapshotKey]) {
        if keys.is_empty() {
            return;
        }
        let mut state = self.state.lock();
        state.pending.retain(|(k, _)| !keys.contains(k));
    }

    /// Merges every pending snapshot into the published map, evicts
    /// lowest-hit-first (ties oldest-first) past the memory budget and
    /// swaps the `Arc` readers see. Called by the engine between
    /// speculative wavefronts and at campaign end; a no-op when nothing
    /// is pending.
    pub fn republish(&self) {
        let mut state = self.state.lock();
        if state.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut state.pending);
        for (key, entry) in pending {
            if state.map.contains_key(&key) {
                continue;
            }
            let bytes = entry.snapshot.approx_bytes();
            state.ledger.add(&entry.snapshot);
            state.exclusive_bytes += bytes;
            state.exclusive.insert(key.clone(), bytes);
            state.map.insert(key, entry);
            state.recorded += 1;
        }
        while state.exclusive_bytes + state.ledger.bytes > self.max_bytes {
            // Hit-weighted victim: the entry that served the fewest forks,
            // oldest first among equals. Fresh fault-free-chain entries
            // accumulate hits quickly, so under pressure the tier sheds
            // one-off deep branches instead of the chain everyone shares.
            let Some(victim) = state
                .map
                .iter()
                .min_by_key(|(_, e)| (e.hits.load(Ordering::Relaxed), e.seq))
                .map(|(k, _)| k.clone())
            else {
                break; // empty tier: only the shared-ledger overhead remains
            };
            if let Some(evicted) = state.map.remove(&victim) {
                let bytes = state.exclusive.remove(&victim).unwrap_or(0);
                state.exclusive_bytes -= bytes;
                state.ledger.remove(&evicted.snapshot);
                state.evicted += 1;
            }
        }
        state.publishes += 1;
        let next = Arc::new(state.map.clone());
        *self.published.write().unwrap_or_else(|e| e.into_inner()) = next;
    }

    /// Exports every *published* snapshot — key parts, snapshot clone and
    /// accrued hit count — for the persistent store's flush path. Pending
    /// (not yet republished) offers are deliberately excluded: they have
    /// not passed the engine's wavefront boundary yet, and the campaign's
    /// final [`SharedSnapshotTier::republish`] runs before the final
    /// flush.
    pub(crate) fn export_published(&self) -> Vec<TierExport> {
        self.current()
            .iter()
            .map(|(key, entry)| TierExport {
                seed_offset: key.seed_offset,
                prefix_key: key.prefix.clone(),
                time_ms: key.time_ms,
                snapshot: entry.snapshot.clone(),
                hits: entry.hits.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// One published tier entry, exported for the persistent store (see
/// [`SharedSnapshotTier::export_published`]).
#[derive(Debug, Clone)]
pub(crate) struct TierExport {
    pub(crate) seed_offset: u64,
    pub(crate) prefix_key: String,
    pub(crate) time_ms: i64,
    pub(crate) snapshot: RunSnapshot,
    pub(crate) hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_sim::{SensorInstance, SensorKind};

    fn spec(kind: SensorKind, index: u8, time: f64) -> FaultSpec {
        FaultSpec::new(SensorInstance::new(kind, index), time)
    }

    fn sensor_prefix(sensor: Vec<FaultSpec>) -> InjectionPrefix {
        InjectionPrefix {
            sensor,
            link: Vec::new(),
        }
    }

    #[test]
    fn injection_prefix_is_strictly_before_the_cut() {
        let plan = FaultPlan::from_specs(vec![
            spec(SensorKind::Gps, 0, 10.0),
            spec(SensorKind::Barometer, 0, 20.0),
        ]);
        assert!(injection_prefix(&plan, 5.0).is_empty());
        // A failure scheduled exactly at the cut has not fired yet.
        assert!(injection_prefix(&plan, 10.0).is_empty());
        assert_eq!(injection_prefix(&plan, 10.001).len(), 1);
        assert_eq!(injection_prefix(&plan, 30.0).len(), 2);
    }

    #[test]
    fn injection_prefix_covers_link_faults() {
        use avis_hinj::{LinkDirection, LinkFaultKind, LinkFaultSpec};
        let plan = FaultPlan::from_specs(vec![spec(SensorKind::Gps, 0, 25.0)]).with_link(
            LinkFaultSpec::new(
                LinkFaultKind::Drop {
                    duration: 2.0,
                    probability: 1.0,
                },
                LinkDirection::ToVehicle,
                15.0,
            ),
        );
        assert!(injection_prefix(&plan, 10.0).is_empty());
        // The link fault at 15 s enters the prefix before the sensor one.
        assert_eq!(injection_prefix(&plan, 15.0).len(), 0);
        assert_eq!(injection_prefix(&plan, 20.0).len(), 1);
        assert_eq!(injection_prefix(&plan, 30.0).len(), 2);
        // Link faults change the cache key: a link-fault plan's snapshots
        // can never be served to a sensor-only sibling.
        let with_link = injection_prefix(&plan, 20.0);
        let without = sensor_prefix(Vec::new());
        assert_ne!(prefix_cache_key(&with_link), prefix_cache_key(&without));
        assert!(prefix_cache_key(&with_link).contains("link:drop:tv"));
    }

    #[test]
    fn prefix_cache_key_is_order_independent_and_quantised() {
        let a = sensor_prefix(vec![
            spec(SensorKind::Gps, 0, 10.0),
            spec(SensorKind::Barometer, 1, 20.0),
        ]);
        let b = sensor_prefix(vec![
            spec(SensorKind::Barometer, 1, 20.0),
            spec(SensorKind::Gps, 0, 10.0),
        ]);
        assert_eq!(prefix_cache_key(&a), prefix_cache_key(&b));
        assert_eq!(prefix_cache_key(&InjectionPrefix::default()), "");
        let c = sensor_prefix(vec![spec(SensorKind::Gps, 0, 10.0001)]);
        let d = sensor_prefix(vec![spec(SensorKind::Gps, 0, 10.0004)]);
        // Sub-millisecond times collide in key space by design…
        assert_eq!(prefix_cache_key(&c), prefix_cache_key(&d));
        // …and differ at millisecond granularity.
        let e = sensor_prefix(vec![spec(SensorKind::Gps, 0, 10.001)]);
        assert_ne!(prefix_cache_key(&c), prefix_cache_key(&e));
    }

    #[test]
    fn checkpoint_config_defaults_and_constructors() {
        let cfg = CheckpointConfig::default();
        assert!(cfg.enabled);
        assert!(cfg.interval > 0.0);
        assert!(cfg.max_bytes > 0);
        assert!(cfg.anchors.is_empty());
        assert!(cfg.anchor_placement);
        assert!(!CheckpointConfig::disabled().enabled);
        assert_eq!(CheckpointConfig::with_max_bytes(123).max_bytes, 123);
        let anchored = CheckpointConfig::with_anchors(vec![8.0, 2.0, 8.0]);
        assert_eq!(anchored.anchors, vec![2.0, 8.0]);
        assert!(!anchored.anchor_placement);
        let only = CheckpointConfig::anchors_only(vec![5.0], 1024);
        assert!(only.interval > 1e8);
        assert_eq!(only.max_bytes, 1024);
    }

    #[test]
    fn hit_weighted_tier_eviction_keeps_hot_entries_alive() {
        use crate::runner::{ExperimentConfig, ExperimentRunner};
        use avis_firmware::{BugSet, FirmwareProfile};
        use avis_workload::auto_box_mission;

        let mut experiment = ExperimentConfig::new(
            FirmwareProfile::ArduPilotLike,
            BugSet::none(),
            auto_box_mission(),
        );
        experiment.noise = Some(avis_sim::SensorNoise::noiseless());
        experiment.max_duration = 40.0;
        experiment.checkpoints = CheckpointConfig {
            anchor_placement: false,
            ..CheckpointConfig::default()
        };

        // A tier sized to hold the first run's full chain but only part
        // of what the later runs offer, so the final republish must
        // evict.
        let tier = Arc::new(SharedSnapshotTier::new(96 * 1024));
        let gps = avis_sim::SensorInstance::new(avis_sim::SensorKind::Gps, 1);
        let plan = |t: f64| FaultPlan::from_specs(vec![FaultSpec::new(gps, t)]);

        // Populate: one run's fault-free chain (cuts at 5, 10, …).
        let mut warmer = ExperimentRunner::new(experiment.clone());
        warmer.set_shared_tier(Arc::clone(&tier));
        let _ = warmer.run_with_plan(plan(35.0));
        tier.republish();

        // Make the *oldest-but-one* entry hot: two fresh runners (cold
        // local caches) fork from the deepest published cut at or before
        // their injection, bumping the t = 10 entry's hit counter. Under
        // the previous FIFO policy its age would make it an early victim.
        for probe in [12.0, 11.0] {
            let mut reader = ExperimentRunner::new(experiment.clone());
            reader.set_shared_tier(Arc::clone(&tier));
            let _ = reader.run_with_plan(plan(probe));
        }
        assert!(
            tier.stats().hits >= 2,
            "tier forks served: {:?}",
            tier.stats()
        );

        // Flood the tier with fresh zero-hit branch entries (plans that
        // diverge mid-chain record whole new prefix branches) until the
        // budget forces eviction.
        for t in [17.0, 18.0] {
            let mut flooder = ExperimentRunner::new(experiment.clone());
            flooder.set_shared_tier(Arc::clone(&tier));
            let _ = flooder.run_with_plan(plan(t));
        }
        tier.republish();

        let stats = tier.stats();
        assert!(stats.evicted > 0, "the tiny tier should evict: {stats:?}");
        assert!(stats.published_bytes <= 96 * 1024);
        // The hot entry survived the squeeze…
        let hot_depth = tier.peek_depth(0, &plan(10.5), f64::INFINITY);
        assert!(
            hot_depth.is_some_and(|t| t >= 9.9),
            "the twice-hit t = 10 entry should survive hit-weighted \
             eviction: {hot_depth:?} ({stats:?})"
        );
        // …while the zero-hit t = 5 entry (the oldest) was shed first.
        assert_eq!(
            tier.peek_depth(0, &plan(6.0), f64::INFINITY),
            None,
            "the cold t = 5 entry should be the first victim ({stats:?})"
        );
    }

    #[test]
    fn chunk_ledger_counts_each_chunk_once() {
        // Two "snapshots" sharing chunk 1: its bytes are charged once,
        // stay charged while either referent lives, and are refunded
        // only when the last referent is removed.
        let mut ledger = ChunkLedger::default();
        for &(id, bytes) in &[(1, 100), (2, 50)] {
            ledger.add_chunk(id, bytes);
        }
        for &(id, bytes) in &[(1, 100), (3, 25)] {
            ledger.add_chunk(id, bytes);
        }
        assert_eq!(ledger.bytes, 175);
        // Removing one referent of chunk 1 keeps its bytes charged…
        ledger.remove_chunk(1);
        assert_eq!(ledger.bytes, 175);
        // …and removing the last one refunds exactly its bytes.
        ledger.remove_chunk(1);
        assert_eq!(ledger.bytes, 75);
        // Unknown ids are ignored (snapshots evicted twice cannot
        // corrupt the accounting).
        ledger.remove_chunk(99);
        assert_eq!(ledger.bytes, 75);
        ledger.remove_chunk(2);
        ledger.remove_chunk(3);
        assert_eq!(ledger.bytes, 0);
        assert!(ledger.chunks.is_empty());
    }
}
