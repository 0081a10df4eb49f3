//! Batched lockstep stepping: one [`LaneBatch`] advances N sibling
//! scenarios ("lanes") through bit-identical physics and sensing in a
//! structure-of-arrays layout.
//!
//! # The shared-noise invariant
//!
//! Sibling scenarios in a campaign differ only in their fault plans, not
//! in their simulation seed: every run draws sensor noise from the same
//! `SimRng` stream. Crucially, the *number* of draws per step is
//! state-independent — noise is drawn even at zero standard deviation,
//! and the GPS epoch clock is purely time-driven — so two runs at the
//! same simulation time have consumed exactly the same prefix of the
//! stream, no matter how far their physical states have diverged. A
//! `LaneBatch` therefore holds **one** RNG for all lanes: each step it
//! draws the step's noise values once, in exactly the scalar
//! `SensorSuite::sample_into` order, and applies them to every lane.
//! The per-lane readings come out bit-identical to N independent scalar
//! simulators.
//!
//! The scalar [`Simulator`] remains the oracle: the kernels below are
//! line-by-line transcriptions of [`Simulator::step_into`],
//! `Quadcopter::step`, `MotorBank::step` and `SensorSuite::sample_into`,
//! and the tests in this module pin byte-equivalence per lane — including
//! lanes stepped together on diverging commands and a lane extracted at
//! every possible step.
//!
//! # Lane lifecycle
//!
//! Lanes are created from a scalar simulator ([`LaneBatch::from_simulator`]),
//! forked by cloning an existing lane ([`LaneBatch::clone_lane`]), step
//! together however far their states diverge, and leave the batch only
//! when their run retires, through [`LaneBatch::extract_lane`].
//! [`LaneBatch::lane_snapshot`] is a checkpoint cut of one lane. Lane ids
//! are stable across removals; slot order (and therefore
//! [`LaneBatch::step_lanes`] command order) follows [`LaneBatch::lane_ids`].
//! A fork appends a slot and an extraction swap-removes one (the last
//! slot moves into the freed one), so a caller can keep its own per-lane
//! state in slot order with `Vec::push` / `Vec::swap_remove` and read
//! [`LaneBatch::outputs`] by position.

use crate::environment::{Collision, Environment};
use crate::math::{clamp, Quat, Vec3};
use crate::rng::SimRng;
use crate::sensors::{SensorInstance, SensorKind, SensorSuite, SensorValue};
use crate::simulator::{PhysicalState, SimConfig, SimSnapshot, Simulator, StepOutput};
use crate::vehicle::{MotorBank, MotorCommands, Quadcopter, RigidBodyState, GRAVITY, MOTOR_COUNT};
use std::sync::Arc;

/// A batch of sibling simulations advanced in lockstep over
/// structure-of-arrays state. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct LaneBatch {
    // --- static per-run data, identical across lanes ---
    config: SimConfig,
    env: Arc<Environment>,
    accel_bias: Vec<Vec3>,
    gyro_bias: Vec<Vec3>,
    // --- shared dynamic state (identical across lanes by the
    //     state-independent-draw invariant; see module docs) ---
    rng: SimRng,
    gps_interval: f64,
    last_gps_time: f64,
    time: f64,
    steps: u64,
    /// Motor spool time constant, pre-clamped by `MotorBank::new`.
    motor_time_constant: f64,
    // --- per-lane SoA state, one element (or stride) per lane slot ---
    ids: Vec<u64>,
    next_id: u64,
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
    vx: Vec<f64>,
    vy: Vec<f64>,
    vz: Vec<f64>,
    ax: Vec<f64>,
    ay: Vec<f64>,
    az: Vec<f64>,
    qw: Vec<f64>,
    qx: Vec<f64>,
    qy: Vec<f64>,
    qz: Vec<f64>,
    wx: Vec<f64>,
    wy: Vec<f64>,
    wz: Vec<f64>,
    /// Realized motor throttles, lane-major, stride [`MOTOR_COUNT`].
    motors: Vec<f64>,
    on_ground: Vec<bool>,
    was_airborne: Vec<bool>,
    first_collision: Vec<Option<Collision>>,
    battery_remaining: Vec<f64>,
    /// Held GPS fixes, lane-major, stride = number of receivers.
    last_gps: Vec<Option<SensorValue>>,
    outputs: Vec<StepOutput>,
    // --- step scratch, rebuilt every step ---
    // snapshot: skip(step scratch, refilled from the shared RNG each step)
    noise: Vec<f64>,
    // snapshot: skip(step scratch, derived from last_gps each step)
    gps_fill: Vec<bool>,
    // snapshot: skip(step scratch, pre-step velocities for impact checks)
    pre_v: Vec<Vec3>,
    // snapshot: skip(step scratch, pre-step airborne flags)
    airborne_before: Vec<bool>,
    // snapshot: skip(step scratch, post-crash-override commands)
    eff: Vec<MotorCommands>,
}

impl LaneBatch {
    /// Wraps a scalar simulator as the first lane of a new batch,
    /// returning the batch and the lane's id. `output` must be the
    /// simulator's most recent step output (the batch keeps producing
    /// into per-lane output buffers exactly like `Simulator::step_into`).
    pub fn from_simulator(sim: Simulator, output: StepOutput) -> (Self, u64) {
        let Simulator {
            config,
            quad,
            env,
            sensors,
            time,
            steps,
            first_collision,
            was_airborne,
        } = sim;
        let Quadcopter {
            params: _,
            motors,
            state,
            on_ground,
        } = quad;
        let SensorSuite {
            config: _,
            rng,
            accel_bias,
            gyro_bias,
            last_gps,
            gps_interval,
            last_gps_time,
            battery_remaining,
        } = sensors;
        let batch = LaneBatch {
            config,
            env,
            accel_bias,
            gyro_bias,
            rng,
            gps_interval,
            last_gps_time,
            time,
            steps,
            motor_time_constant: motors.time_constant,
            ids: vec![0],
            next_id: 1,
            px: vec![state.position.x],
            py: vec![state.position.y],
            pz: vec![state.position.z],
            vx: vec![state.velocity.x],
            vy: vec![state.velocity.y],
            vz: vec![state.velocity.z],
            ax: vec![state.acceleration.x],
            ay: vec![state.acceleration.y],
            az: vec![state.acceleration.z],
            qw: vec![state.attitude.w],
            qx: vec![state.attitude.x],
            qy: vec![state.attitude.y],
            qz: vec![state.attitude.z],
            wx: vec![state.angular_velocity.x],
            wy: vec![state.angular_velocity.y],
            wz: vec![state.angular_velocity.z],
            motors: motors.realized.to_vec(),
            on_ground: vec![on_ground],
            was_airborne: vec![was_airborne],
            first_collision: vec![first_collision],
            battery_remaining: vec![battery_remaining],
            last_gps,
            outputs: vec![output],
            noise: Vec::new(),
            gps_fill: Vec::new(),
            pre_v: Vec::new(),
            airborne_before: Vec::new(),
            eff: Vec::new(),
        };
        (batch, 0)
    }

    /// Number of live lanes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Shared simulation time (every lane is at this time).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The shared simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Lane ids in slot order. [`LaneBatch::step_lanes`] expects its
    /// command slice in this order; the order changes when lanes leave.
    pub fn lane_ids(&self) -> &[u64] {
        &self.ids
    }

    /// The most recent step output of the given lane.
    pub fn output(&self, id: u64) -> &StepOutput {
        &self.outputs[self.slot(id)]
    }

    /// The most recent step output of every lane, in slot order (aligned
    /// with [`LaneBatch::lane_ids`]): the per-step accessor for callers
    /// that keep their per-lane state in slot order, so no lane is looked
    /// up by id.
    pub fn outputs(&self) -> &[StepOutput] {
        &self.outputs
    }

    fn slot(&self, id: u64) -> usize {
        self.ids
            .iter()
            .position(|&i| i == id)
            .unwrap_or_else(|| panic!("lane {id} is not in the batch"))
    }

    fn gps_count(&self) -> usize {
        self.config.sensors.gps as usize
    }

    /// Forks a new lane as a bit-exact copy of lane `src`, returning the
    /// new lane's id. The shared RNG is *not* duplicated — that is the
    /// point: both lanes keep consuming the one stream their scalar
    /// counterparts would consume identically.
    pub fn clone_lane(&mut self, src: u64) -> u64 {
        let s = self.slot(src);
        let id = self.next_id;
        self.next_id += 1;
        self.ids.push(id);
        self.px.push(self.px[s]);
        self.py.push(self.py[s]);
        self.pz.push(self.pz[s]);
        self.vx.push(self.vx[s]);
        self.vy.push(self.vy[s]);
        self.vz.push(self.vz[s]);
        self.ax.push(self.ax[s]);
        self.ay.push(self.ay[s]);
        self.az.push(self.az[s]);
        self.qw.push(self.qw[s]);
        self.qx.push(self.qx[s]);
        self.qy.push(self.qy[s]);
        self.qz.push(self.qz[s]);
        self.wx.push(self.wx[s]);
        self.wy.push(self.wy[s]);
        self.wz.push(self.wz[s]);
        for m in 0..MOTOR_COUNT {
            let v = self.motors[s * MOTOR_COUNT + m];
            self.motors.push(v);
        }
        self.on_ground.push(self.on_ground[s]);
        self.was_airborne.push(self.was_airborne[s]);
        self.first_collision.push(self.first_collision[s]);
        self.battery_remaining.push(self.battery_remaining[s]);
        let g = self.gps_count();
        for r in 0..g {
            let fix = self.last_gps[s * g + r];
            self.last_gps.push(fix);
        }
        self.outputs.push(self.outputs[s].clone());
        id
    }

    /// Rebuilds the given lane as a standalone scalar [`Simulator`]
    /// without removing it from the batch (used for checkpoint cuts of a
    /// still-running lane).
    fn compose(&self, slot: usize) -> Simulator {
        let state = RigidBodyState {
            position: Vec3::new(self.px[slot], self.py[slot], self.pz[slot]),
            velocity: Vec3::new(self.vx[slot], self.vy[slot], self.vz[slot]),
            acceleration: Vec3::new(self.ax[slot], self.ay[slot], self.az[slot]),
            attitude: Quat {
                w: self.qw[slot],
                x: self.qx[slot],
                y: self.qy[slot],
                z: self.qz[slot],
            },
            angular_velocity: Vec3::new(self.wx[slot], self.wy[slot], self.wz[slot]),
        };
        let mut realized = [0.0; MOTOR_COUNT];
        realized.copy_from_slice(&self.motors[slot * MOTOR_COUNT..(slot + 1) * MOTOR_COUNT]);
        let g = self.gps_count();
        let quad = Quadcopter {
            params: self.config.vehicle.clone(),
            motors: MotorBank {
                realized,
                time_constant: self.motor_time_constant,
            },
            state,
            on_ground: self.on_ground[slot],
        };
        let sensors = SensorSuite {
            config: self.config.sensors.clone(),
            rng: self.rng.clone(),
            accel_bias: self.accel_bias.clone(),
            gyro_bias: self.gyro_bias.clone(),
            last_gps: self.last_gps[slot * g..(slot + 1) * g].to_vec(),
            gps_interval: self.gps_interval,
            last_gps_time: self.last_gps_time,
            battery_remaining: self.battery_remaining[slot],
        };
        Simulator {
            config: self.config.clone(),
            quad,
            env: Arc::clone(&self.env),
            sensors,
            time: self.time,
            steps: self.steps,
            first_collision: self.first_collision[slot],
            was_airborne: self.was_airborne[slot],
        }
    }

    /// Captures a [`SimSnapshot`] of one lane, bit-identical to the
    /// snapshot a scalar simulator in the same state would produce.
    pub fn lane_snapshot(&self, id: u64) -> SimSnapshot {
        SimSnapshot {
            sim: self.compose(self.slot(id)),
        }
    }

    /// Retires a lane: removes it from the batch and returns it as a
    /// scalar [`Simulator`] plus its most recent step output, bit-identical
    /// to a scalar simulator that took the same steps.
    pub fn extract_lane(&mut self, id: u64) -> (Simulator, StepOutput) {
        let slot = self.slot(id);
        let sim = self.compose(slot);
        let last = self.ids.len() - 1;
        self.ids.swap_remove(slot);
        self.px.swap_remove(slot);
        self.py.swap_remove(slot);
        self.pz.swap_remove(slot);
        self.vx.swap_remove(slot);
        self.vy.swap_remove(slot);
        self.vz.swap_remove(slot);
        self.ax.swap_remove(slot);
        self.ay.swap_remove(slot);
        self.az.swap_remove(slot);
        self.qw.swap_remove(slot);
        self.qx.swap_remove(slot);
        self.qy.swap_remove(slot);
        self.qz.swap_remove(slot);
        self.wx.swap_remove(slot);
        self.wy.swap_remove(slot);
        self.wz.swap_remove(slot);
        Self::swap_remove_strided(&mut self.motors, slot, last, MOTOR_COUNT);
        self.on_ground.swap_remove(slot);
        self.was_airborne.swap_remove(slot);
        self.first_collision.swap_remove(slot);
        self.battery_remaining.swap_remove(slot);
        let g = self.gps_count();
        Self::swap_remove_strided(&mut self.last_gps, slot, last, g);
        let output = self.outputs.swap_remove(slot);
        (sim, output)
    }

    fn swap_remove_strided<T: Copy>(arr: &mut Vec<T>, slot: usize, last: usize, stride: usize) {
        if slot != last {
            for k in 0..stride {
                arr.swap(slot * stride + k, last * stride + k);
            }
        }
        arr.truncate(last * stride);
    }

    /// Advances every lane by one fixed time-step. `commands[i]` drives
    /// the lane at `lane_ids()[i]`. Each lane's physics, sensing and
    /// step output are bit-identical to a scalar [`Simulator::step_into`]
    /// with the same command.
    pub fn step_lanes(&mut self, commands: &[MotorCommands]) {
        let lanes = self.ids.len();
        debug_assert_eq!(commands.len(), lanes, "one command per live lane");
        let dt = self.config.dt;
        debug_assert!(dt > 0.0, "time step must be positive");
        let params = &self.config.vehicle;
        let noise_cfg = &self.config.sensors.noise;

        // Wind is a pure function of the shared clock.
        let wind = self.env.wind().at(self.time);

        // Stage 1 — airborne bookkeeping and the post-crash command
        // override (`Simulator::step_into` preamble).
        self.airborne_before.clear();
        self.eff.clear();
        self.pre_v.clear();
        for (lane, command) in commands.iter().enumerate() {
            let airborne = !self.on_ground[lane];
            self.airborne_before.push(airborne);
            self.was_airborne[lane] = self.was_airborne[lane] || airborne;
            if self.first_collision[lane].is_some() {
                // After a crash the airframe is destroyed; motors stop.
                for m in 0..MOTOR_COUNT {
                    self.motors[lane * MOTOR_COUNT + m] = 0.0;
                }
                self.eff.push(MotorCommands::IDLE);
            } else {
                self.eff.push(*command);
            }
            self.pre_v
                .push(Vec3::new(self.vx[lane], self.vy[lane], self.vz[lane]));
        }

        // Stage 2 — first-order motor spool (`MotorBank::step`).
        let alpha = clamp(dt / self.motor_time_constant, 0.0, 1.0);
        for lane in 0..lanes {
            for i in 0..MOTOR_COUNT {
                let target = clamp(self.eff[lane].throttle[i], 0.0, 1.0);
                let idx = lane * MOTOR_COUNT + i;
                self.motors[idx] += (target - self.motors[idx]) * alpha;
            }
        }

        // Stage 3 — rigid-body dynamics (`Quadcopter::step`).
        for lane in 0..lanes {
            let mut realized = [0.0; MOTOR_COUNT];
            realized.copy_from_slice(&self.motors[lane * MOTOR_COUNT..(lane + 1) * MOTOR_COUNT]);

            // Per-motor thrust (N).
            let thrusts: [f64; MOTOR_COUNT] = realized.map(|t| t * params.max_motor_thrust);
            let total_thrust: f64 = thrusts.iter().sum();

            // Torques from the X mixer geometry. Motor order: FR, BL, FL, BR.
            let l = params.arm_length * std::f64::consts::FRAC_1_SQRT_2;
            let roll_torque = l * (thrusts[1] + thrusts[2] - thrusts[0] - thrusts[3]);
            let pitch_torque = l * (thrusts[0] + thrusts[2] - thrusts[1] - thrusts[3]);
            let yaw_torque =
                params.yaw_torque_coefficient * (thrusts[0] + thrusts[1] - thrusts[2] - thrusts[3]);

            let angular_velocity = Vec3::new(self.wx[lane], self.wy[lane], self.wz[lane]);
            let torque = Vec3::new(roll_torque, pitch_torque, yaw_torque)
                - angular_velocity * params.angular_drag;
            let angular_accel = Vec3::new(
                torque.x / params.inertia_xy,
                torque.y / params.inertia_xy,
                torque.z / params.inertia_z,
            );
            let mut omega = angular_velocity + angular_accel * dt;
            let attitude_in = Quat {
                w: self.qw[lane],
                x: self.qx[lane],
                y: self.qy[lane],
                z: self.qz[lane],
            };
            let mut attitude = attitude_in.integrate(omega, dt);

            // Linear dynamics (world frame).
            let thrust_world = attitude.rotate(Vec3::new(0.0, 0.0, total_thrust));
            let old_velocity = Vec3::new(self.vx[lane], self.vy[lane], self.vz[lane]);
            let air_velocity = old_velocity - wind;
            let drag = -air_velocity * params.linear_drag;
            let gravity = Vec3::new(0.0, 0.0, -GRAVITY * params.mass);
            let force = thrust_world + drag + gravity;
            let mut accel = force / params.mass;

            let mut velocity = old_velocity + accel * dt;
            let mut position =
                Vec3::new(self.px[lane], self.py[lane], self.pz[lane]) + velocity * dt;

            // Ground contact.
            if position.z <= 0.0 {
                position.z = 0.0;
                if velocity.z < 0.0 {
                    velocity = Vec3::new(0.0, 0.0, 0.0);
                    omega = Vec3::ZERO;
                }
                self.on_ground[lane] = true;
                let yaw = attitude.yaw();
                attitude = Quat::from_euler(0.0, 0.0, yaw);
                if total_thrust <= params.hover_thrust() {
                    accel = Vec3::ZERO;
                }
            } else {
                self.on_ground[lane] = false;
            }

            self.px[lane] = position.x;
            self.py[lane] = position.y;
            self.pz[lane] = position.z;
            self.vx[lane] = velocity.x;
            self.vy[lane] = velocity.y;
            self.vz[lane] = velocity.z;
            self.ax[lane] = accel.x;
            self.ay[lane] = accel.y;
            self.az[lane] = accel.z;
            self.qw[lane] = attitude.w;
            self.qx[lane] = attitude.x;
            self.qy[lane] = attitude.y;
            self.qz[lane] = attitude.z;
            self.wx[lane] = omega.x;
            self.wy[lane] = omega.y;
            self.wz[lane] = omega.z;
            debug_assert!(
                position.is_finite() && velocity.is_finite() && attitude.is_finite(),
                "dynamics diverged in lane {lane}"
            );
        }

        // Stage 4 — the shared clock advances once for all lanes.
        self.time += dt;
        self.steps += 1;

        // Stage 5 — collision detection (`Simulator::step_into` middle).
        for lane in 0..lanes {
            let position = Vec3::new(self.px[lane], self.py[lane], self.pz[lane]);
            let velocity = Vec3::new(self.vx[lane], self.vy[lane], self.vz[lane]);
            let impact_velocity = if position.z <= 1e-9 && self.airborne_before[lane] {
                self.pre_v[lane]
            } else {
                velocity
            };
            let collision =
                self.env
                    .check_collision(position, impact_velocity, self.was_airborne[lane]);
            if let Some(c) = collision {
                if self.first_collision[lane].is_none() {
                    self.first_collision[lane] = Some(c);
                }
                for m in 0..MOTOR_COUNT {
                    self.motors[lane * MOTOR_COUNT + m] = 0.0;
                }
            }
            if position.z <= 1e-9 {
                self.was_airborne[lane] = false;
            }
            self.outputs[lane].collision = collision;
        }

        // Stage 6 — sensor sampling (`SensorSuite::sample_into`). The
        // noise values for this step are drawn once from the shared RNG,
        // in exactly the scalar per-instance order, then applied to every
        // lane; see the module docs for why the counts (and therefore the
        // stream position) cannot depend on lane state.
        let sensors = &self.config.sensors;
        let g = self.gps_count();
        let gps_epoch =
            self.last_gps_time < 0.0 || self.time - self.last_gps_time >= self.gps_interval;
        if gps_epoch {
            self.last_gps_time = self.time;
        }
        self.gps_fill.clear();
        for r in 0..g {
            let fill = gps_epoch || self.last_gps[r].is_none();
            debug_assert!(
                (0..lanes).all(|lane| self.last_gps[lane * g + r].is_none()
                    == self.last_gps[r].is_none()),
                "held-fix presence must be uniform across lockstep lanes"
            );
            self.gps_fill.push(fill);
        }
        self.noise.clear();
        for _ in 0..sensors.accelerometers {
            for _ in 0..3 {
                let v = self.rng.normal(0.0, noise_cfg.accel);
                self.noise.push(v);
            }
        }
        for _ in 0..sensors.gyroscopes {
            for _ in 0..3 {
                let v = self.rng.normal(0.0, noise_cfg.gyro);
                self.noise.push(v);
            }
        }
        for r in 0..g {
            if self.gps_fill[r] {
                let h0 = self.rng.normal(0.0, noise_cfg.gps_horizontal);
                let h1 = self.rng.normal(0.0, noise_cfg.gps_horizontal);
                let v = self.rng.normal(0.0, noise_cfg.gps_vertical);
                let s0 = self.rng.normal(0.0, noise_cfg.gps_velocity);
                let s1 = self.rng.normal(0.0, noise_cfg.gps_velocity);
                let s2 = self.rng.normal(0.0, noise_cfg.gps_velocity);
                self.noise.extend([h0, h1, v, s0, s1, s2]);
            }
        }
        for _ in 0..sensors.barometers {
            let v = self.rng.normal(0.0, noise_cfg.baro);
            self.noise.push(v);
        }
        for _ in 0..sensors.compasses {
            let v = self.rng.normal(0.0, noise_cfg.compass);
            self.noise.push(v);
        }
        for _ in 0..sensors.batteries {
            let v = self.rng.normal(0.0, noise_cfg.battery_voltage);
            self.noise.push(v);
        }

        for lane in 0..lanes {
            let state = RigidBodyState {
                position: Vec3::new(self.px[lane], self.py[lane], self.pz[lane]),
                velocity: Vec3::new(self.vx[lane], self.vy[lane], self.vz[lane]),
                acceleration: Vec3::new(self.ax[lane], self.ay[lane], self.az[lane]),
                attitude: Quat {
                    w: self.qw[lane],
                    x: self.qx[lane],
                    y: self.qy[lane],
                    z: self.qz[lane],
                },
                angular_velocity: Vec3::new(self.wx[lane], self.wy[lane], self.wz[lane]),
            };
            let mean_throttle = self.eff[lane].mean();

            // Battery drain: idle draw plus throttle-proportional draw.
            let drain_rate =
                (0.15 + 0.85 * mean_throttle.clamp(0.0, 1.0)) / sensors.battery_endurance_s;
            self.battery_remaining[lane] =
                (self.battery_remaining[lane] - drain_rate * dt).max(0.0);

            // Specific force measured by an accelerometer: f = R^T (a + g·ẑ).
            let specific_force_world = state.acceleration + Vec3::new(0.0, 0.0, GRAVITY);
            let specific_force_body = state.attitude.rotate_inverse(specific_force_world);

            let readings = &mut self.outputs[lane].readings;
            readings.clear();
            let mut cur = 0usize;
            for idx in 0..sensors.accelerometers {
                let bias = self.accel_bias[idx as usize];
                let n = Vec3::new(self.noise[cur], self.noise[cur + 1], self.noise[cur + 2]);
                cur += 3;
                readings.push(crate::sensors::SensorReading {
                    instance: SensorInstance::new(SensorKind::Accelerometer, idx),
                    time: self.time,
                    value: SensorValue::Acceleration(specific_force_body + bias + n),
                });
            }
            for idx in 0..sensors.gyroscopes {
                let bias = self.gyro_bias[idx as usize];
                let n = Vec3::new(self.noise[cur], self.noise[cur + 1], self.noise[cur + 2]);
                cur += 3;
                readings.push(crate::sensors::SensorReading {
                    instance: SensorInstance::new(SensorKind::Gyroscope, idx),
                    time: self.time,
                    value: SensorValue::AngularRate(state.angular_velocity + bias + n),
                });
            }
            for idx in 0..sensors.gps {
                let r = idx as usize;
                if self.gps_fill[r] {
                    let fix = SensorValue::GpsFix {
                        position: state.position
                            + Vec3::new(self.noise[cur], self.noise[cur + 1], self.noise[cur + 2]),
                        velocity: state.velocity
                            + Vec3::new(
                                self.noise[cur + 3],
                                self.noise[cur + 4],
                                self.noise[cur + 5],
                            ),
                        satellites: 12,
                    };
                    cur += 6;
                    self.last_gps[lane * g + r] = Some(fix);
                }
                let held = self.last_gps[lane * g + r];
                debug_assert!(held.is_some(), "gps fix populated above");
                if let Some(value) = held {
                    readings.push(crate::sensors::SensorReading {
                        instance: SensorInstance::new(SensorKind::Gps, idx),
                        time: self.time,
                        value,
                    });
                }
            }
            for idx in 0..sensors.barometers {
                let n = self.noise[cur];
                cur += 1;
                readings.push(crate::sensors::SensorReading {
                    instance: SensorInstance::new(SensorKind::Barometer, idx),
                    time: self.time,
                    value: SensorValue::PressureAltitude(state.position.z + n),
                });
            }
            let yaw = state.attitude.yaw();
            for idx in 0..sensors.compasses {
                let n = self.noise[cur];
                cur += 1;
                readings.push(crate::sensors::SensorReading {
                    instance: SensorInstance::new(SensorKind::Compass, idx),
                    time: self.time,
                    value: SensorValue::MagneticHeading(crate::math::wrap_angle(yaw + n)),
                });
            }
            for idx in 0..sensors.batteries {
                let n = self.noise[cur];
                cur += 1;
                let voltage = 10.5 + 2.1 * self.battery_remaining[lane] - 0.4 * mean_throttle + n;
                readings.push(crate::sensors::SensorReading {
                    instance: SensorInstance::new(SensorKind::Battery, idx),
                    time: self.time,
                    value: SensorValue::BatteryStatus {
                        voltage,
                        remaining: self.battery_remaining[lane],
                    },
                });
            }
            debug_assert_eq!(cur, self.noise.len(), "every drawn value consumed");

            // Stage 7 — fences and the packed physical state
            // (`Simulator::step_into` tail).
            let output = &mut self.outputs[lane];
            output.violated_fences.clear();
            self.env
                .violated_fences_into(state.position, &mut output.violated_fences);
            output.state = PhysicalState {
                time: self.time,
                position: state.position,
                velocity: state.velocity,
                acceleration: state.acceleration,
                heading: yaw,
                on_ground: self.on_ground[lane],
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Environment;
    use crate::sensors::SensorSuiteConfig;
    use crate::vehicle::VehicleParams;

    /// A primed scalar simulator: one IDLE step so every GPS receiver
    /// holds a fix (mirrors how campaign runs prime before the loop),
    /// then repositioned to a falling start so collision paths get hit.
    fn primed_sim(airborne: bool) -> (Simulator, StepOutput) {
        let config = SimConfig {
            dt: 0.005,
            vehicle: VehicleParams::default(),
            sensors: SensorSuiteConfig::iris(),
            seed: 7,
        };
        let mut sim = Simulator::new_shared(config, Arc::new(Environment::open_field()));
        let mut output = StepOutput::empty();
        sim.step_into(&MotorCommands::IDLE, &mut output);
        if airborne {
            let mut state = *sim.true_state();
            state.position.z = 5.0;
            state.velocity = Vec3::new(0.3, -0.2, -3.0);
            sim.set_true_state(state);
        }
        (sim, output)
    }

    /// Per-step command scripts for up to three diverging lanes. Lane 0
    /// free-falls into a crash, lane 1 throttles up and recovers, lane 2
    /// flies asymmetrically — so the batch mixes crashed, airborne and
    /// grounded lanes while sharing one RNG stream.
    fn script(lane: usize, step: usize) -> MotorCommands {
        match lane {
            0 => MotorCommands::uniform(0.1),
            1 => MotorCommands::uniform(if step < 40 { 0.9 } else { 0.45 }),
            _ => MotorCommands::mix(0.7, 0.015, -0.02, 0.01),
        }
    }

    fn assert_outputs_equal(a: &StepOutput, b: &StepOutput, context: &str) {
        assert_eq!(a, b, "{context}");
    }

    #[test]
    fn single_lane_matches_scalar_bitwise() {
        let (sim, output) = primed_sim(true);
        let mut scalar = sim.clone();
        let mut scalar_out = output.clone();
        let (mut batch, lane) = LaneBatch::from_simulator(sim, output);
        for step in 0..240 {
            let cmd = script(0, step);
            scalar.step_into(&cmd, &mut scalar_out);
            batch.step_lanes(&[cmd]);
            assert_outputs_equal(batch.output(lane), &scalar_out, "single lane step");
            assert_eq!(batch.time(), scalar.time());
        }
        assert!(
            scalar.first_collision().is_some(),
            "script should crash the free-falling lane"
        );
        let (evicted, evicted_out) = batch.extract_lane(lane);
        assert_outputs_equal(&evicted_out, &scalar_out, "extracted output");
        assert_eq!(evicted.first_collision(), scalar.first_collision());
        assert_eq!(evicted.steps(), scalar.steps());
    }

    #[test]
    fn forked_lanes_match_independent_scalar_runs() {
        // Three *independent* scalar runs that share a command prefix …
        let mut scalars = Vec::new();
        for lane in 0..3usize {
            let (mut sim, mut out) = primed_sim(true);
            for step in 0..200 {
                let cmd = if step < 30 {
                    script(2, step)
                } else {
                    script(lane, step)
                };
                sim.step_into(&cmd, &mut out);
            }
            scalars.push((sim, out));
        }
        // … versus one batch forked from a single lane at the divergence
        // point. The forks share the leader's RNG stream; equality here
        // is exactly the state-independent-draw invariant.
        let (sim, output) = primed_sim(true);
        let (mut batch, l0) = LaneBatch::from_simulator(sim, output);
        for step in 0..30 {
            batch.step_lanes(&[script(2, step)]);
        }
        let l1 = batch.clone_lane(l0);
        let l2 = batch.clone_lane(l0);
        for step in 30..200 {
            let cmds: Vec<MotorCommands> = batch
                .lane_ids()
                .iter()
                .map(|&id| {
                    let lane = [l0, l1, l2].iter().position(|&l| l == id).unwrap();
                    script(lane, step)
                })
                .collect();
            batch.step_lanes(&cmds);
        }
        for (lane, id) in [l0, l1, l2].into_iter().enumerate() {
            assert_outputs_equal(
                batch.output(id),
                &scalars[lane].1,
                &format!("forked lane {lane} final step"),
            );
        }
    }

    #[test]
    fn evicting_a_lane_at_every_step_is_bit_identical() {
        const HORIZON: usize = 200;
        // Reference: two independent scalar runs, outputs recorded per step.
        let mut reference: Vec<Vec<StepOutput>> = Vec::new();
        for lane in 0..2usize {
            let (mut sim, mut out) = primed_sim(true);
            let mut outs = Vec::new();
            for step in 0..HORIZON {
                sim.step_into(&script(lane, step), &mut out);
                outs.push(out.clone());
            }
            reference.push(outs);
        }
        for evict_at in 0..HORIZON {
            let (sim, output) = primed_sim(true);
            let (mut batch, l0) = LaneBatch::from_simulator(sim, output);
            let l1 = batch.clone_lane(l0);
            for step in 0..evict_at {
                let cmds: Vec<MotorCommands> = batch
                    .lane_ids()
                    .iter()
                    .map(|&id| script(if id == l0 { 0 } else { 1 }, step))
                    .collect();
                batch.step_lanes(&cmds);
            }
            let (mut evicted, mut out) = batch.extract_lane(l1);
            // `step` drives two parallel reference traces, not one slice.
            #[allow(clippy::needless_range_loop)]
            for step in evict_at..HORIZON {
                evicted.step_into(&script(1, step), &mut out);
                assert_eq!(
                    &out, &reference[1][step],
                    "evicted-at-{evict_at} lane, step {step}"
                );
                // The remaining lane keeps batching, unaffected.
                batch.step_lanes(&[script(0, step)]);
                assert_eq!(
                    batch.output(l0),
                    &reference[0][step],
                    "surviving lane after eviction at {evict_at}, step {step}"
                );
            }
        }
    }

    #[test]
    fn lane_snapshot_restores_bit_identical_scalar() {
        let (sim, output) = primed_sim(true);
        let (mut batch, l0) = LaneBatch::from_simulator(sim, output);
        let l1 = batch.clone_lane(l0);
        for step in 0..50 {
            let cmds: Vec<MotorCommands> = batch
                .lane_ids()
                .iter()
                .map(|&id| script(if id == l0 { 0 } else { 1 }, step))
                .collect();
            batch.step_lanes(&cmds);
        }
        // A snapshot of lane 1 restored to a scalar simulator must track
        // the still-batched lane 1 exactly.
        let mut restored = batch.lane_snapshot(l1).into_restored();
        let mut out = batch.output(l1).clone();
        for step in 50..150 {
            restored.step_into(&script(1, step), &mut out);
            let cmds: Vec<MotorCommands> = batch
                .lane_ids()
                .iter()
                .map(|&id| script(if id == l0 { 0 } else { 1 }, step))
                .collect();
            batch.step_lanes(&cmds);
            assert_eq!(&out, batch.output(l1), "restored snapshot step {step}");
        }
    }

    #[test]
    fn ground_start_lane_matches_scalar() {
        // A never-airborne lane (spool-up from the pad) exercises the
        // ground-contact clamp and the hover-thrust accel zeroing.
        let (sim, output) = primed_sim(false);
        let mut scalar = sim.clone();
        let mut scalar_out = output.clone();
        let (mut batch, lane) = LaneBatch::from_simulator(sim, output);
        for step in 0..300 {
            let cmd = MotorCommands::uniform(if step < 120 { 0.2 } else { 0.8 });
            scalar.step_into(&cmd, &mut scalar_out);
            batch.step_lanes(&[cmd]);
            assert_outputs_equal(batch.output(lane), &scalar_out, "ground start step");
        }
        assert!(!scalar.physical_state().on_ground, "climb should lift off");
    }
}
