//! Criterion bench: raw simulator step throughput (the physics + sensor
//! synthesis cost that every checked scenario pays per step of simulated
//! flight), measured the way the experiment runner steps: `step_into` a
//! reused output buffer at the experiment's default step of 2.5 ms.

use avis_sim::simulator::{SimConfig, Simulator, StepOutput};
use avis_sim::{Environment, MotorCommands};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The experiment runner's default step (`ExperimentConfig::dt`).
const DT: f64 = 0.0025;

fn bench_simulator_step(c: &mut Criterion) {
    for (name, throttle) in [
        ("simulator_step_hover", 0.38),
        ("simulator_step_climb", 0.8),
    ] {
        c.bench_function(name, |b| {
            let config = SimConfig {
                dt: DT,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(config, Environment::open_field());
            let mut output = StepOutput::empty();
            let cmd = MotorCommands::uniform(throttle);
            b.iter(|| {
                sim.step_into(black_box(&cmd), &mut output);
                black_box(&output);
            });
        });
    }
}

criterion_group!(benches, bench_simulator_step);
criterion_main!(benches);
