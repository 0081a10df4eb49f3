//! The sensor frontend: instrumented drivers with redundancy failover.
//!
//! This is where the paper's `libhinj` instrumentation lives (§V.B.1): the
//! `read()` path of every sensor driver is decided by the fault injector,
//! and a read that the injector fails is reported to the rest of the
//! firmware as a failed instance. The frontend then *fails over* to the
//! next healthy instance of the same kind — the behaviour the
//! sensor-instance-symmetry pruning policy relies on (the firmware reacts
//! to the *role* of the failed sensor, not to which physical instance
//! failed).
//!
//! The frontend consults the injector once per step, under one lock. A
//! full pass has the injector decide every read in order
//! ([`avis_hinj::FaultInjector::read_step`], with
//! [`avis_hinj::FaultInjector::should_fail`] as the per-read reference
//! semantics) and keeps the reading layout and the chosen instance per
//! kind. While the next steps read the same instances and the injector
//! confirms its [`avis_hinj::ReadWindow`] still holds, the decisions
//! repeat, so the step is accounted in one call and the selection is
//! copied from the kept positions; reads are re-decided when a planned
//! failure comes due, time leaves the window, or the plan changes.

use avis_hinj::{FaultInjector, ReadWindow, SharedInjector};
use avis_sim::codec::{ByteReader, ByteWriter, CodecResult};
use avis_sim::{SensorInstance, SensorKind, SensorReading, SensorValue, Vec3};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A GPS solution selected by the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpsSolution {
    /// Position in the local frame (m).
    pub position: Vec3,
    /// Velocity in the local frame (m/s).
    pub velocity: Vec3,
}

/// Battery status selected by the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryState {
    /// Terminal voltage (V).
    pub voltage: f64,
    /// Remaining capacity fraction.
    pub remaining: f64,
}

/// The per-step output of the sensor frontend: one selected measurement
/// per sensor kind (from the active instance), or `None` if every instance
/// of that kind has failed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SelectedSensors {
    /// Body-frame specific force (m/s²).
    pub accel: Option<Vec3>,
    /// Body-frame angular rate (rad/s).
    pub gyro: Option<Vec3>,
    /// GPS solution.
    pub gps: Option<GpsSolution>,
    /// Barometric altitude (m above home).
    pub baro_altitude: Option<f64>,
    /// Magnetic heading (rad).
    pub heading: Option<f64>,
    /// Battery state.
    pub battery: Option<BatteryState>,
}

impl SelectedSensors {
    /// Serialise the selection bit-exactly (floats via their raw bits).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.option(self.accel.as_ref(), |w, v| v.encode(w));
        w.option(self.gyro.as_ref(), |w, v| v.encode(w));
        w.option(self.gps.as_ref(), |w, g| {
            g.position.encode(w);
            g.velocity.encode(w);
        });
        w.option(self.baro_altitude.as_ref(), |w, v| w.f64(*v));
        w.option(self.heading.as_ref(), |w, v| w.f64(*v));
        w.option(self.battery.as_ref(), |w, b| {
            w.f64(b.voltage);
            w.f64(b.remaining);
        });
    }

    /// Decode a selection previously written by [`SelectedSensors::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<SelectedSensors> {
        Ok(SelectedSensors {
            accel: r.option(Vec3::decode)?,
            gyro: r.option(Vec3::decode)?,
            gps: r.option(|r| {
                Ok(GpsSolution {
                    position: Vec3::decode(r)?,
                    velocity: Vec3::decode(r)?,
                })
            })?,
            baro_altitude: r.option(|r| r.f64())?,
            heading: r.option(|r| r.f64())?,
            battery: r.option(|r| {
                Ok(BatteryState {
                    voltage: r.f64()?,
                    remaining: r.f64()?,
                })
            })?,
        })
    }
}

/// Health summary per sensor kind.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SensorHealth {
    failed_instances: BTreeSet<SensorInstance>,
    active: Vec<(SensorKind, SensorInstance)>,
    total_per_kind: Vec<(SensorKind, u8)>,
}

impl SensorHealth {
    /// Whether at least one instance of `kind` is still healthy.
    pub fn kind_available(&self, kind: SensorKind) -> bool {
        self.active.iter().any(|(k, _)| *k == kind)
    }

    /// Whether the *primary* instance (index 0) of `kind` has failed.
    pub fn primary_failed(&self, kind: SensorKind) -> bool {
        self.failed_instances
            .contains(&SensorInstance::new(kind, 0))
    }

    /// Whether every instance of `kind` has failed.
    pub fn kind_failed(&self, kind: SensorKind) -> bool {
        !self.kind_available(kind) && self.total_of(kind) > 0
    }

    /// The instance currently used for `kind`, if any.
    pub fn active_instance(&self, kind: SensorKind) -> Option<SensorInstance> {
        self.active
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, i)| *i)
    }

    /// Every failed instance observed so far.
    pub fn failed_instances(&self) -> impl Iterator<Item = SensorInstance> + '_ {
        self.failed_instances.iter().copied()
    }

    /// Number of failed instances of `kind`.
    pub fn failed_count(&self, kind: SensorKind) -> usize {
        self.failed_instances
            .iter()
            .filter(|i| i.kind == kind)
            .count()
    }

    fn total_of(&self, kind: SensorKind) -> u8 {
        self.total_per_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Whether the inertial measurement unit (accelerometer + gyroscope)
    /// is fully unavailable.
    pub fn imu_failed(&self) -> bool {
        self.kind_failed(SensorKind::Accelerometer) || self.kind_failed(SensorKind::Gyroscope)
    }

    /// Serialise the health bookkeeping in deterministic order.
    pub fn encode(&self, w: &mut ByteWriter) {
        let failed: Vec<&SensorInstance> = self.failed_instances.iter().collect();
        w.seq(&failed, |w, i| i.encode(w));
        w.seq(&self.active, |w, (k, i)| {
            k.encode(w);
            i.encode(w);
        });
        w.seq(&self.total_per_kind, |w, (k, n)| {
            k.encode(w);
            w.u8(*n);
        });
    }

    /// Decode health previously written by [`SensorHealth::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> CodecResult<SensorHealth> {
        Ok(SensorHealth {
            failed_instances: r.seq(SensorInstance::decode)?.into_iter().collect(),
            active: r.seq(|r| Ok((SensorKind::decode(r)?, SensorInstance::decode(r)?)))?,
            total_per_kind: r.seq(|r| Ok((SensorKind::decode(r)?, r.u8()?)))?,
        })
    }
}

/// Most readings per step the frontend can replay from its read cache
/// (one bit each in [`ReadCache::chosen`]); a step with more readings
/// always takes the full pass.
const CACHED_READINGS: usize = u32::BITS as usize;

/// What the last full pass decided: the instance of every reading, in
/// order, and the positions of the readings chosen for the available
/// kinds. Inline and fixed-size, so replaying it never allocates.
#[derive(Debug, Clone, Copy)]
struct ReadCache {
    /// The injector's window for the pass; `None` when nothing is cached.
    window: Option<ReadWindow>,
    layout: [SensorInstance; CACHED_READINGS],
    len: usize,
    /// Bit `i` set when reading `i` was chosen. The pass chooses in
    /// position order, so replaying the bits low to high repeats it.
    chosen: u32,
}

impl ReadCache {
    const EMPTY: ReadCache = ReadCache {
        window: None,
        layout: [SensorInstance::new(SensorKind::Accelerometer, 0); CACHED_READINGS],
        len: 0,
        chosen: 0,
    };

    /// The cached window, if `readings` carry exactly the cached layout.
    fn window_for(&self, readings: &[SensorReading]) -> Option<ReadWindow> {
        let same_layout = readings.len() == self.len
            && readings
                .iter()
                .zip(&self.layout)
                .all(|(reading, instance)| reading.instance == *instance);
        self.window.filter(|_| same_layout)
    }
}

/// The sensor frontend.
#[derive(Debug, Clone)]
pub struct SensorFrontend {
    injector: SharedInjector,
    health: SensorHealth,
    // snapshot: skip(derived from the last full pass; not encoded or diffed, the next full pass rebuilds it)
    cache: ReadCache,
}

impl SensorFrontend {
    /// Creates a frontend reporting reads to the given injector.
    pub fn new(injector: SharedInjector) -> Self {
        SensorFrontend {
            injector,
            health: SensorHealth::default(),
            cache: ReadCache::EMPTY,
        }
    }

    /// Points the frontend at a different injector handle, keeping the
    /// health bookkeeping intact. Used when a firmware restored from a
    /// snapshot must report its reads to the forked run's own injector
    /// instead of the one the snapshot was recorded against.
    pub fn rebind_injector(&mut self, injector: SharedInjector) {
        self.injector = injector;
        self.cache = ReadCache::EMPTY;
    }

    /// The current health summary.
    pub fn health(&self) -> &SensorHealth {
        &self.health
    }

    /// Overwrites the health bookkeeping (the frontend's only persistent
    /// state). Used when a firmware is re-materialised from a delta
    /// snapshot whose health diverged from the chain's base keyframe.
    pub fn restore_health(&mut self, health: SensorHealth) {
        self.health = health;
        self.cache = ReadCache::EMPTY;
    }

    /// Processes one step's raw readings under one injector lock: every
    /// read is decided by the fault injector (the instrumented driver
    /// path); surviving readings are reduced to one selected measurement
    /// per kind, preferring the lowest healthy instance index (primary
    /// first, then backups in order). When the readings carry the last
    /// full pass's instances and the injector confirms those decisions
    /// still hold at `time`, the step repeats them instead of re-deciding.
    pub fn ingest(&mut self, readings: &[SensorReading], time: f64) -> SelectedSensors {
        let SensorFrontend {
            injector,
            health,
            cache,
        } = self;
        injector.with(|inj| {
            match cache.window_for(readings) {
                Some(window) if inj.repeat_step(&window, time) => {
                    // Same decisions as the cached pass, so `health` is
                    // already what a full pass would rebuild.
                    let mut selected = SelectedSensors::default();
                    let mut chosen = cache.chosen;
                    while chosen != 0 {
                        let position = chosen.trailing_zeros() as usize;
                        select(&mut selected, readings[position].value);
                        chosen &= chosen - 1;
                    }
                    selected
                }
                _ => full_pass(health, cache, inj, readings, time),
            }
        })
    }
}

/// Decides every read of the step through the injector, rebuilds the
/// health tables in place (no per-step heap allocation once the vectors
/// reach capacity) and records the pass in `cache`.
fn full_pass(
    health: &mut SensorHealth,
    cache: &mut ReadCache,
    inj: &mut FaultInjector,
    readings: &[SensorReading],
    time: f64,
) -> SelectedSensors {
    let mut selected = SelectedSensors::default();
    health.active.clear();
    health.total_per_kind.clear();
    cache.chosen = 0;

    // Readings arrive ordered by kind and instance index from the
    // simulator; iterate in order so instance 0 wins when healthy.
    let window = inj.read_step(
        readings.iter().map(|reading| reading.instance),
        time,
        |position, failed| {
            let reading = &readings[position];
            let kind = reading.instance.kind;
            match health.total_per_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => health.total_per_kind.push((kind, 1)),
            }
            if failed {
                health.failed_instances.insert(reading.instance);
                return;
            }
            let already_chosen = health.active.iter().any(|(k, _)| *k == kind);
            if already_chosen {
                return;
            }
            health.active.push((kind, reading.instance));
            if position < CACHED_READINGS {
                cache.chosen |= 1 << position;
            }
            select(&mut selected, reading.value);
        },
    );

    if readings.len() <= CACHED_READINGS {
        for (slot, reading) in cache.layout.iter_mut().zip(readings) {
            *slot = reading.instance;
        }
        cache.len = readings.len();
        cache.window = Some(window);
    } else {
        cache.window = None;
    }
    selected
}

/// Stores a chosen reading's measurement in its slot of the selection.
fn select(selected: &mut SelectedSensors, value: SensorValue) {
    match value {
        SensorValue::Acceleration(v) => selected.accel = Some(v),
        SensorValue::AngularRate(v) => selected.gyro = Some(v),
        SensorValue::GpsFix {
            position, velocity, ..
        } => selected.gps = Some(GpsSolution { position, velocity }),
        SensorValue::PressureAltitude(alt) => selected.baro_altitude = Some(alt),
        SensorValue::MagneticHeading(h) => selected.heading = Some(h),
        SensorValue::BatteryStatus { voltage, remaining } => {
            selected.battery = Some(BatteryState { voltage, remaining })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avis_hinj::{FaultInjector, FaultPlan, FaultSpec};
    use avis_sim::{RigidBodyState, SensorNoise, SensorSuite, SensorSuiteConfig, Vec3};

    fn readings_at(alt: f64, time: f64) -> Vec<SensorReading> {
        let mut cfg = SensorSuiteConfig::iris();
        cfg.noise = SensorNoise::noiseless();
        let mut suite = SensorSuite::new(cfg, 1);
        let state = RigidBodyState::at_rest(Vec3::new(0.0, 0.0, alt));
        suite.sample(&state, 0.4, time, 0.001)
    }

    fn injector_with(specs: Vec<FaultSpec>) -> SharedInjector {
        SharedInjector::new(FaultInjector::new(FaultPlan::from_specs(specs)))
    }

    #[test]
    fn healthy_suite_selects_primaries() {
        let mut fe = SensorFrontend::new(SharedInjector::passthrough());
        let out = fe.ingest(&readings_at(12.0, 0.0), 0.0);
        assert!(out.accel.is_some());
        assert!(out.gyro.is_some());
        assert!(out.gps.is_some());
        assert_eq!(out.baro_altitude, Some(12.0));
        assert!(out.heading.is_some());
        assert!(out.battery.is_some());
        for kind in SensorKind::ALL {
            assert_eq!(
                fe.health().active_instance(kind),
                Some(SensorInstance::new(kind, 0)),
                "{kind}"
            );
            assert!(!fe.health().primary_failed(kind));
            assert!(!fe.health().kind_failed(kind));
        }
    }

    #[test]
    fn primary_failure_fails_over_to_backup() {
        let gps0 = SensorInstance::new(SensorKind::Gps, 0);
        let mut fe = SensorFrontend::new(injector_with(vec![FaultSpec::new(gps0, 0.0)]));
        let out = fe.ingest(&readings_at(12.0, 1.0), 1.0);
        assert!(out.gps.is_some(), "backup GPS should still provide a fix");
        assert_eq!(
            fe.health().active_instance(SensorKind::Gps),
            Some(SensorInstance::new(SensorKind::Gps, 1))
        );
        assert!(fe.health().primary_failed(SensorKind::Gps));
        assert!(!fe.health().kind_failed(SensorKind::Gps));
        assert_eq!(fe.health().failed_count(SensorKind::Gps), 1);
    }

    #[test]
    fn all_instances_failed_reports_kind_failed() {
        let specs = vec![
            FaultSpec::new(SensorInstance::new(SensorKind::Barometer, 0), 0.0),
            FaultSpec::new(SensorInstance::new(SensorKind::Barometer, 1), 0.0),
        ];
        let mut fe = SensorFrontend::new(injector_with(specs));
        let out = fe.ingest(&readings_at(12.0, 1.0), 1.0);
        assert!(out.baro_altitude.is_none());
        assert!(fe.health().kind_failed(SensorKind::Barometer));
        assert!(!fe.health().kind_available(SensorKind::Barometer));
        // Other kinds unaffected.
        assert!(out.gps.is_some());
        assert!(!fe.health().imu_failed());
    }

    #[test]
    fn imu_failed_when_all_gyros_fail() {
        let specs = (0..3)
            .map(|i| FaultSpec::new(SensorInstance::new(SensorKind::Gyroscope, i), 0.0))
            .collect();
        let mut fe = SensorFrontend::new(injector_with(specs));
        let out = fe.ingest(&readings_at(5.0, 1.0), 1.0);
        assert!(out.gyro.is_none());
        assert!(fe.health().imu_failed());
    }

    #[test]
    fn failure_only_applies_after_start_time() {
        let accel0 = SensorInstance::new(SensorKind::Accelerometer, 0);
        let mut fe = SensorFrontend::new(injector_with(vec![FaultSpec::new(accel0, 5.0)]));
        let before = fe.ingest(&readings_at(3.0, 1.0), 1.0);
        assert_eq!(
            fe.health().active_instance(SensorKind::Accelerometer),
            Some(accel0),
            "before the failure the primary is active"
        );
        assert!(before.accel.is_some());
        let after = fe.ingest(&readings_at(3.0, 6.0), 6.0);
        assert!(after.accel.is_some(), "backup takes over");
        assert_eq!(
            fe.health().active_instance(SensorKind::Accelerometer),
            Some(SensorInstance::new(SensorKind::Accelerometer, 1))
        );
    }

    #[test]
    fn failed_reads_are_reported_to_injector() {
        let gps0 = SensorInstance::new(SensorKind::Gps, 0);
        let shared = injector_with(vec![FaultSpec::new(gps0, 0.0)]);
        let mut fe = SensorFrontend::new(shared.clone());
        fe.ingest(&readings_at(12.0, 1.0), 1.0);
        let injections = shared.injections();
        assert_eq!(injections.len(), 1);
        assert_eq!(injections[0].instance, gps0);
    }

    /// The per-read reference: one `should_fail` call per reading, the
    /// loop `ingest` ran before reads were decided once per step.
    fn oracle_ingest(
        health: &mut SensorHealth,
        inj: &mut FaultInjector,
        readings: &[SensorReading],
        time: f64,
    ) -> SelectedSensors {
        let mut selected = SelectedSensors::default();
        health.active.clear();
        health.total_per_kind.clear();
        for reading in readings {
            let kind = reading.instance.kind;
            match health.total_per_kind.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => health.total_per_kind.push((kind, 1)),
            }
            if inj.should_fail(reading.instance, time) {
                health.failed_instances.insert(reading.instance);
                continue;
            }
            if health.active.iter().any(|(k, _)| *k == kind) {
                continue;
            }
            health.active.push((kind, reading.instance));
            select(&mut selected, reading.value);
        }
        selected
    }

    /// A frontend stepped next to the per-read oracle, compared on every
    /// observable after every step.
    struct Twin {
        fe: SensorFrontend,
        shared: SharedInjector,
        oracle: FaultInjector,
        oracle_health: SensorHealth,
        steps: usize,
    }

    impl Twin {
        fn new(plan: FaultPlan) -> Self {
            let shared = SharedInjector::new(FaultInjector::new(plan.clone()));
            Twin {
                fe: SensorFrontend::new(shared.clone()),
                shared,
                oracle: FaultInjector::new(plan),
                oracle_health: SensorHealth::default(),
                steps: 0,
            }
        }

        fn step_with(&mut self, readings: &[SensorReading], time: f64) {
            let got = self.fe.ingest(readings, time);
            let want = oracle_ingest(&mut self.oracle_health, &mut self.oracle, readings, time);
            let at = format!("step {} at t={time}", self.steps);
            assert_eq!(got, want, "selection, {at}");
            assert_eq!(self.fe.health(), &self.oracle_health, "health, {at}");
            self.shared.with(|inj| {
                assert_eq!(inj.total_reads(), self.oracle.total_reads(), "reads, {at}");
                assert_eq!(
                    inj.failed_reads(),
                    self.oracle.failed_reads(),
                    "failed, {at}"
                );
                assert_eq!(
                    inj.injections().to_vec(),
                    self.oracle.injections().to_vec(),
                    "injections, {at}"
                );
            });
            self.steps += 1;
        }

        fn step(&mut self, time: f64) {
            self.step_with(&readings_at(time, time), time);
        }
    }

    #[test]
    fn cached_reads_match_per_read_oracle() {
        let gps0 = SensorInstance::new(SensorKind::Gps, 0);
        let baro = |i| SensorInstance::new(SensorKind::Barometer, i);
        let compass0 = SensorInstance::new(SensorKind::Compass, 0);
        let mut twin = Twin::new(FaultPlan::from_specs(vec![
            FaultSpec::new(gps0, 1.0),
            FaultSpec::new(baro(0), 2.5),
            FaultSpec::new(baro(1), 2.5),
        ]));

        // Cross both failure times step by step; k / 400 is exact, so the
        // sequence lands exactly on 1.0 s and 2.5 s.
        for k in 0..=1200 {
            twin.step(k as f64 / 400.0);
        }
        assert!(twin.fe.health().primary_failed(SensorKind::Gps));
        assert!(twin.fe.health().kind_failed(SensorKind::Barometer));

        // Time going backwards: at 1.0 s the barometers read again.
        twin.step(6.0);
        twin.step(6.0);
        for k in 400..420 {
            twin.step(k as f64 / 400.0);
        }
        assert_eq!(
            twin.fe.health().active_instance(SensorKind::Barometer),
            Some(baro(0))
        );

        // A plan swapped mid-run fails the compass at a time already past.
        let swapped = FaultPlan::from_specs(vec![FaultSpec::new(compass0, 0.5)]);
        twin.shared.with(|inj| inj.set_plan(swapped.clone()));
        twin.oracle.set_plan(swapped);
        for k in 420..440 {
            twin.step(k as f64 / 400.0);
        }
        assert_eq!(
            twin.fe.health().active_instance(SensorKind::Compass),
            Some(SensorInstance::new(SensorKind::Compass, 1))
        );

        // A different instance list: the same readings in reverse order
        // (same length), then without the battery (shorter).
        let mut reversed = readings_at(1.2, 1.2);
        reversed.reverse();
        twin.step_with(&reversed, 1.2);
        twin.step_with(&reversed, 1.2025);
        let mut shorter = readings_at(1.205, 1.205);
        shorter.retain(|r| r.instance.kind != SensorKind::Battery);
        twin.step_with(&shorter, 1.205);
        twin.step_with(&shorter, 1.2075);
        for k in 484..490 {
            twin.step(k as f64 / 400.0);
        }

        // Restored health is rebuilt by the next step, not kept.
        twin.fe.restore_health(SensorHealth::default());
        twin.oracle_health = SensorHealth::default();
        for k in 490..495 {
            twin.step(k as f64 / 400.0);
        }

        // Rebinding to a fresh injector re-decides under its plan.
        let rebound = FaultPlan::from_specs(vec![FaultSpec::new(baro(0), 1.25)]);
        twin.shared = SharedInjector::new(FaultInjector::new(rebound.clone()));
        twin.fe.rebind_injector(twin.shared.clone());
        twin.oracle = FaultInjector::new(rebound);
        for k in 495..520 {
            twin.step(k as f64 / 400.0);
        }
        assert!(twin.fe.health().primary_failed(SensorKind::Barometer));
    }
}
