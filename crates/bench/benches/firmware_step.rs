//! Criterion bench: one full firmware-in-the-loop step (sensor frontend,
//! estimator, failsafes, navigation and physics), stepped the way the
//! experiment runner steps: `step_into` a reused output buffer at the
//! experiment's default step of 2.5 ms.

use avis_firmware::{BugSet, Firmware, FirmwareProfile};
use avis_hinj::{FaultInjector, FaultPlan, FaultSpec, SharedInjector};
use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{Environment, MotorCommands, SensorInstance, SensorKind};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The experiment runner's default step (`ExperimentConfig::dt`).
const DT: f64 = 0.0025;

fn bench_firmware_step(c: &mut Criterion) {
    let gps0_failed = FaultPlan::from_specs(vec![FaultSpec::new(
        SensorInstance::new(SensorKind::Gps, 0),
        0.0,
    )]);
    for (name, plan) in [
        ("firmware_in_the_loop_step", FaultPlan::empty()),
        // The primary GPS failed from the start: every step reads
        // through the failover to the backup.
        ("firmware_in_the_loop_step_faulted", gps0_failed),
    ] {
        c.bench_function(name, |b| {
            let config = SimConfig {
                dt: DT,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(config, Environment::open_field());
            let mut firmware = Firmware::new(
                FirmwareProfile::ArduPilotLike,
                BugSet::none(),
                SharedInjector::new(FaultInjector::new(plan.clone())),
            );
            let mut output = StepOutput::empty();
            sim.step_into(&MotorCommands::IDLE, &mut output);
            b.iter(|| {
                let cmd = firmware.step(&output.readings, sim.time(), DT);
                sim.step_into(&cmd, &mut output);
                black_box(&output.state);
            });
        });
    }
}

criterion_group!(benches, bench_firmware_step);
criterion_main!(benches);
