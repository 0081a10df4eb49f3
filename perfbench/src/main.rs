//! The Avis benchmark of record.
//!
//! ```text
//! perfbench --workload <sabre-fixed|sabre-buggy-p2|store-rerun>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --digest --workload W [--seed N]
//! ```
//!
//! With `--trace 0` it runs the workload's campaign back to back for
//! `--seconds` seconds through the plain public API (`Campaign::builder`,
//! `CampaignObserver` events) and prints the end-to-end metrics. With
//! `--trace 1` it runs one traced campaign and replays its committed
//! plans layer by layer (see `traced.rs`) and prints the per-layer
//! metrics. Either way every campaign result is verified, and the last
//! stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--digest` prints the verification digest of the cold, scalar,
//! serial reference campaign, the value pinned for the default seed.
//! `README.md` beside this crate gives the design.

mod measure;
mod traced;

use avis::campaign::{Campaign, CampaignBuilder, CampaignEvent, CampaignObserver};
use avis::checker::{Approach, Budget, CampaignResult};
use avis::runner::ExperimentConfig;
use avis::snapshot::CheckpointConfig;
use avis_firmware::{BugSet, FirmwareProfile};
use avis_hinj::FaultPlan;
use avis_workload::auto_box_mission;
use measure::{digest, summarize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The seed whose reference digests are pinned below.
pub(crate) const DEFAULT_SEED: u64 = 7;

/// Committed scenarios per campaign (profiling runs included): small
/// enough that a timed run holds several campaigns, large enough that
/// forking, lane batching and found-bug pruning all engage.
pub(crate) const SIMULATIONS: usize = 48;

/// Campaign seeds one benchmark seed expands to. A timed run cycles
/// through them, so its medians mix several campaigns instead of
/// hanging on where one seed's first unsafe run happens to fall.
pub(crate) const CAMPAIGN_SEEDS: u64 = 4;

/// Reference digests of the campaigns at [`DEFAULT_SEED`]
/// (`perfbench --digest`): the fixed firmware's (shared by
/// `sabre-fixed` and both `store-rerun` sessions) and the buggy
/// firmware's, one per campaign seed.
const PINNED_FIXED: [u64; CAMPAIGN_SEEDS as usize] = [
    0x0d28_a440_ac91_2d0a,
    0x230b_c57d_81fd_cd24,
    0x226a_ea0c_8514_a7ab,
    0x98d5_75b8_b8ec_9d19,
];
const PINNED_BUGGY: [u64; CAMPAIGN_SEEDS as usize] = [
    0xae2a_410d_a1e8_17f0,
    0x2aad_f17f_dcf3_1fae,
    0xf2c2_cdae_742f_0ea3,
    0x8540_e0b7_8884_2d29,
];

/// Budget of the untimed warm-up campaign a timed run starts with.
const WARMUP_SIMULATIONS: usize = 8;

/// Fewest repetitions (campaigns, or `store-rerun` session pairs) a
/// timed run measures, however short `--seconds` is: one per campaign
/// seed.
const MIN_REPS: usize = CAMPAIGN_SEEDS as usize;

/// The experiment seeds benchmark seed `seed` expands to.
pub(crate) fn campaign_seeds(seed: u64) -> Vec<u64> {
    (0..CAMPAIGN_SEEDS)
        .map(|i| seed.wrapping_mul(CAMPAIGN_SEEDS).wrapping_add(i))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    SabreFixed,
    SabreBuggyP2,
    StoreRerun,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("sabre-fixed", Workload::SabreFixed),
    ("sabre-buggy-p2", Workload::SabreBuggyP2),
    ("store-rerun", Workload::StoreRerun),
];

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    pub(crate) fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map(|&(n, _)| n)
            .expect("every workload is named in WORKLOADS")
    }

    fn buggy(self) -> bool {
        self == Workload::SabreBuggyP2
    }

    pub(crate) fn parallelism(self) -> usize {
        if self == Workload::SabreBuggyP2 {
            2
        } else {
            1
        }
    }

    pub(crate) fn uses_store(self) -> bool {
        self == Workload::StoreRerun
    }

    /// The campaign every timed and traced session of this workload
    /// runs: SABRE (`Approach::Avis`) over the auto box mission with the
    /// default checkpoint, lane and dispatch settings.
    pub(crate) fn builder(self, seed: u64) -> CampaignBuilder {
        Campaign::builder()
            .experiment(self.experiment(seed))
            .approach(Approach::Avis)
            .budget(Budget::simulations(SIMULATIONS))
            .parallelism(self.parallelism())
            .seed(seed)
            .profiling_runs(2)
    }

    /// The experiment the campaign runs, as the traced replay rebuilds it.
    pub(crate) fn experiment(self, seed: u64) -> ExperimentConfig {
        let bugs = if self.buggy() {
            BugSet::current_code_base(FirmwareProfile::ArduPilotLike)
        } else {
            BugSet::none()
        };
        let mut experiment =
            ExperimentConfig::new(FirmwareProfile::ArduPilotLike, bugs, auto_box_mission());
        experiment.seed = seed;
        experiment.max_duration = 110.0;
        experiment
    }

    /// The untimed cold, scalar, serial run of the same campaign — the
    /// execution path every fast path must reproduce bit for bit.
    pub(crate) fn reference(self, seed: u64) -> CampaignResult {
        self.builder(seed)
            .checkpoints(CheckpointConfig::disabled())
            .lockstep_lanes(1)
            .parallelism(1)
            .build()
            .run()
    }

    /// The digests the first `count` campaigns of benchmark seed `seed`
    /// must reproduce: pinned at [`DEFAULT_SEED`], otherwise computed
    /// from reference runs, two at a time.
    pub(crate) fn expected_digests(self, seed: u64, count: usize) -> Vec<u64> {
        let seeds = &campaign_seeds(seed)[..count];
        if seed == DEFAULT_SEED {
            let pinned = if self.buggy() {
                &PINNED_BUGGY
            } else {
                &PINNED_FIXED
            };
            return pinned[..count].to_vec();
        }
        let mut digests = Vec::new();
        for pair in seeds.chunks(2) {
            std::thread::scope(|scope| {
                let handles: Vec<_> = pair
                    .iter()
                    .map(|&s| scope.spawn(move || digest(&self.reference(s))))
                    .collect();
                for handle in handles {
                    digests.push(handle.join().expect("reference campaign panicked"));
                }
            });
        }
        digests
    }
}

/// What one campaign session looked like from outside: its result and
/// the wall-clock offsets of its observer events.
pub(crate) struct Session {
    pub(crate) result: CampaignResult,
    /// `run_with_observer` entry to return (s).
    pub(crate) wall_s: f64,
    /// Entry to the last pre-search event: `ProfilingFinished`, or
    /// `StoreHydrated` when a store is configured (s).
    pub(crate) setup_s: f64,
    pub(crate) first_unsafe_s: Option<f64>,
    /// Committed search-phase runs (`RunFinished` events).
    pub(crate) committed: usize,
    /// `StoreHydrated` chains and bytes.
    pub(crate) hydrated: Option<(u64, u64)>,
    /// `StoreFlushed` chains, bytes on disk and dedup hits.
    pub(crate) flushed: Option<(u64, u64, u64)>,
    /// Committed plans in commit order (traced sessions only).
    pub(crate) plans: Vec<FaultPlan>,
    /// Process CPU time spent in the search phase (traced sessions only).
    pub(crate) search_cpu_s: f64,
}

impl Session {
    pub(crate) fn search_s(&self) -> f64 {
        self.wall_s - self.setup_s
    }
}

struct SessionObserver {
    start: Instant,
    traced: bool,
    setup_s: f64,
    cpu_at_setup: f64,
    first_unsafe_s: Option<f64>,
    committed: usize,
    hydrated: Option<(u64, u64)>,
    flushed: Option<(u64, u64, u64)>,
    plans: Vec<FaultPlan>,
}

impl SessionObserver {
    fn mark_setup(&mut self) {
        self.setup_s = self.start.elapsed().as_secs_f64();
        if self.traced {
            self.cpu_at_setup = measure::process_cpu_s();
        }
    }
}

impl CampaignObserver for SessionObserver {
    fn on_event(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::ProfilingFinished { .. } => self.mark_setup(),
            CampaignEvent::StoreHydrated { chains, bytes, .. } => {
                self.mark_setup();
                self.hydrated = Some((*chains, *bytes));
            }
            CampaignEvent::RunFinished { plan, .. } => {
                self.committed += 1;
                if self.traced {
                    self.plans.push(plan.clone());
                }
            }
            CampaignEvent::ViolationFound { .. } if self.first_unsafe_s.is_none() => {
                self.first_unsafe_s = Some(self.start.elapsed().as_secs_f64());
            }
            CampaignEvent::StoreFlushed {
                chains,
                bytes,
                dedup_hits,
            } => self.flushed = Some((*chains, *bytes, *dedup_hits)),
            _ => {}
        }
    }
}

/// Runs one built campaign, timing it from `run_with_observer` entry to
/// return.
pub(crate) fn run_session(campaign: Campaign, traced: bool) -> Session {
    let mut observer = SessionObserver {
        start: Instant::now(),
        traced,
        setup_s: 0.0,
        cpu_at_setup: 0.0,
        first_unsafe_s: None,
        committed: 0,
        hydrated: None,
        flushed: None,
        plans: Vec::new(),
    };
    let result = campaign.run_with_observer(&mut observer);
    let wall_s = observer.start.elapsed().as_secs_f64();
    let search_cpu_s = if traced {
        measure::process_cpu_s() - observer.cpu_at_setup
    } else {
        0.0
    };
    Session {
        result,
        wall_s,
        setup_s: observer.setup_s,
        first_unsafe_s: observer.first_unsafe_s,
        committed: observer.committed,
        hydrated: observer.hydrated,
        flushed: observer.flushed,
        plans: observer.plans,
        search_cpu_s,
    }
}

/// A per-process scratch directory inside the working directory, holding
/// the `store-rerun` snapshot-store roots. Removed when dropped.
pub(crate) struct Scratch {
    dir: PathBuf,
    next: usize,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = Path::new(".perfbench_tmp").join(std::process::id().to_string());
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, next: 0 })
    }

    /// A fresh, not yet existing directory path.
    pub(crate) fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.dir.join(format!("root-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Only succeeds once no other process uses the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One repetition of a workload: a single campaign, or for `store-rerun`
/// two sessions (record, then hydrate) against one fresh store root,
/// each with a new `Campaign` and so a new shared tier. `customize`
/// decorates each session's builder (the traced run's wrappers).
pub(crate) fn run_rep(
    workload: Workload,
    seed: u64,
    scratch: &mut Scratch,
    traced: bool,
    mut customize: impl FnMut(CampaignBuilder) -> CampaignBuilder,
) -> Vec<Session> {
    if !workload.uses_store() {
        let campaign = customize(workload.builder(seed)).build();
        return vec![run_session(campaign, traced)];
    }
    let root = scratch.fresh();
    let sessions = (0..2)
        .map(|_| {
            let campaign = customize(workload.builder(seed).snapshot_store(&root)).build();
            run_session(campaign, traced)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    sessions
}

/// Verification failures of one repetition's sessions: a result whose
/// digest differs from the reference's, or a `store-rerun` second
/// session that hydrated nothing (its warm path never ran).
pub(crate) fn mismatches(workload: Workload, sessions: &[Session], expected: u64) -> usize {
    sessions
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            let cold_warm_start = workload.uses_store()
                && *i == 1
                && s.hydrated.is_none_or(|(chains, _)| chains == 0);
            digest(&s.result) != expected || cold_warm_start
        })
        .count()
}

pub(crate) struct Report {
    pub(crate) correct: bool,
    pub(crate) attempted: usize,
    pub(crate) failed: usize,
    pub(crate) metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The timed run: an untimed warm-up campaign, then repetitions until
/// `seconds` have passed, then verification against the reference.
fn timed(workload: Workload, seed: u64, seconds: f64, scratch: &mut Scratch) -> Report {
    let seeds = campaign_seeds(seed);
    let plain = |b: CampaignBuilder| b;
    // Untimed warm-up: a short campaign fills the allocator and caches.
    run_session(
        workload
            .builder(seeds[0])
            .budget(Budget::simulations(WARMUP_SIMULATIONS))
            .build(),
        false,
    );
    let start = Instant::now();
    let mut reps: Vec<Vec<Session>> = Vec::new();
    // Start a repetition only if a typical one still ends inside the
    // window, so the run lasts `seconds` and not up to one more.
    loop {
        let durations: Vec<f64> = reps
            .iter()
            .map(|r| r.iter().map(|s| s.wall_s).sum())
            .collect();
        let typical = if durations.is_empty() {
            0.0
        } else {
            measure::median(&durations)
        };
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() + typical > seconds {
            break;
        }
        reps.push(run_rep(
            workload,
            seeds[reps.len() % seeds.len()],
            scratch,
            false,
            plain,
        ));
    }
    let peak_rss_mb = measure::peak_rss_mb();

    let expected = workload.expected_digests(seed, seeds.len());
    let sessions: Vec<&Session> = reps.iter().flatten().collect();
    let attempted = sessions.len();
    let failed: usize = reps
        .iter()
        .enumerate()
        .map(|(i, r)| mismatches(workload, r, expected[i % expected.len()]))
        .sum();

    let per_rep =
        |f: &dyn Fn(&[Session]) -> f64| -> Vec<f64> { reps.iter().map(|r| f(r)).collect() };
    let per_session =
        |f: &dyn Fn(&Session) -> f64| -> Vec<f64> { sessions.iter().map(|s| f(s)).collect() };
    let samples: Vec<(&'static str, Vec<f64>, &'static str)> = vec![
        (
            "campaign_s",
            per_rep(&|r| r.iter().map(|s| s.wall_s).sum()),
            "s",
        ),
        ("setup_s", per_session(&|s| s.setup_s), "s"),
        (
            "scenarios_per_s",
            per_session(&|s| s.committed as f64 / s.search_s()),
            "1/s",
        ),
        // A session that finds nothing is censored at its wall time.
        (
            "first_unsafe_s",
            per_session(&|s| s.first_unsafe_s.unwrap_or(s.wall_s)),
            "s",
        ),
        ("peak_rss_mb", vec![peak_rss_mb], "MB"),
        ("cold_session_s", per_rep(&|r| r[0].wall_s), "s"),
        ("warm_session_s", per_rep(&|r| r[r.len() - 1].wall_s), "s"),
    ];
    println!(
        "workload {} seed {seed} (campaign seeds {seeds:?}): {} repetitions, {attempted} timed campaigns of {SIMULATIONS} scenarios, {failed} mismatched (result_mismatch_frac {})",
        workload.name(),
        reps.len(),
        failed as f64 / attempted as f64
    );
    let mut metrics = Vec::new();
    for (name, values, unit) in samples {
        let s = summarize(&values);
        println!(
            "  {name:<16} median {:.6} {unit}  q1 {:.6}  q3 {:.6}  n {}",
            s.median, s.q1, s.q3, s.n
        );
        metrics.push((name, s.median, unit));
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut digest_only = false;
    while let Some(flag) = args.next() {
        if flag == "--digest" {
            digest_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        digest: digest_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if args.digest {
        for campaign_seed in campaign_seeds(args.seed) {
            let result = args.workload.reference(campaign_seed);
            println!("campaign seed {campaign_seed}: {:#018x}", digest(&result));
        }
        return;
    }
    let mut scratch = match Scratch::new() {
        Ok(scratch) => scratch,
        Err(err) => {
            eprintln!("perfbench: cannot create the scratch directory: {err}");
            std::process::exit(1);
        }
    };
    let report = if args.trace {
        traced::run(args.workload, args.seed, &mut scratch)
    } else {
        timed(args.workload, args.seed, args.seconds, &mut scratch)
    };
    drop(scratch);
    println!("{}", report.to_json());
}
