//! Per-layer tallies for the traced run. Every figure here is measured
//! from the benchmark's own code, around calls into each layer's public
//! functions, or computed from what those calls return; nothing inside
//! the program is instrumented.

use crate::report::{Metrics, BACKENDS};
use crate::stats::median;
use qcemu_core::{Backend, CostModel, HighLevelOp, PlanReport, QuantumProgram};
use qcemu_sim::segment::segment_circuit;
use qcemu_sim::FusionPolicy;
use std::time::Instant;

/// Index of `backend` in [`BACKENDS`].
pub fn backend_index(backend: &Backend) -> usize {
    match backend {
        Backend::EmulateClassical => 0,
        Backend::EmulateFft => 1,
        Backend::EmulateQpe { .. } => 2,
        Backend::SimulateGateLevel => 3,
        Backend::SimulateFused => 4,
        Backend::SimulateSegmented { .. } => 5,
        Backend::SimulateMps { .. } => 6,
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Planner layer: planning time, and per-backend step counts, measured
/// time and measured ÷ predicted cost from the returned `PlanReport`s.
#[derive(Default)]
pub struct PlannerTally {
    plan_s: Vec<f64>,
    steps: [f64; 7],
    step_s: [f64; 7],
    error: [Vec<f64>; 7],
}

impl PlannerTally {
    /// Records one timed `plan`/`plan_structural` call.
    pub fn plan(&mut self, seconds: f64) {
        self.plan_s.push(seconds);
    }

    /// Records one executed plan's report.
    pub fn report(&mut self, report: &PlanReport) {
        for step in &report.steps {
            let b = backend_index(&step.backend);
            self.steps[b] += 1.0;
            self.step_s[b] += step.measured_s;
            if step.predicted_s > 0.0 && step.predicted_s.is_finite() {
                self.error[b].push(step.measured_s / step.predicted_s);
            }
        }
    }

    /// Writes `planner.*` (per unit: plan time, steps and step time are
    /// divided by `units`).
    pub fn write(&self, m: &mut Metrics, units: usize) {
        let u = units.max(1) as f64;
        m.set("planner.plan_s", self.plan_s.iter().sum::<f64>() / u);
        for (i, b) in BACKENDS.iter().enumerate() {
            m.set(&format!("planner.steps.{b}"), self.steps[i] / u);
            m.set(&format!("planner.step_s.{b}"), self.step_s[i] / u);
            m.set(&format!("planner.error.{b}"), median(&self.error[i]));
        }
    }

    /// One line per backend used, for the human-readable summary.
    pub fn summary(&self) -> Vec<String> {
        BACKENDS
            .iter()
            .enumerate()
            .filter(|(i, _)| self.steps[*i] > 0.0)
            .map(|(i, b)| {
                format!(
                    "  {b:<20} steps {:>5}  measured {:>9.4} s  measured/predicted (median) {:.3}",
                    self.steps[i],
                    self.step_s[i],
                    median(&self.error[i])
                )
            })
            .collect()
    }
}

/// Fusion and segment layers, plus the computed bytes the gate-level
/// steps moved.
#[derive(Default)]
pub struct FusionTally {
    fuse_s: f64,
    passes: f64,
    streamed: f64,
    touched: f64,
    sim_bytes: f64,
    sim_s: f64,
}

impl FusionTally {
    /// Times `Circuit::fuse` and `segment_circuit` on every raw gate run
    /// of `program` (the calls the planner makes), and computes each
    /// run's full-state passes and bytes under the backend `report` says
    /// it ran on. `report` must be the plan report of `program`.
    pub fn unit(&mut self, program: &QuantumProgram, report: &PlanReport, model: &CostModel) {
        let n = program.n_qubits();
        let policy = FusionPolicy::greedy();
        for (op, step) in program.ops().iter().zip(&report.steps) {
            let HighLevelOp::Gates(circuit) = op else {
                continue;
            };
            let (fused, t_fuse) = timed(|| circuit.fuse(&policy));
            let (seg, t_seg) = timed(|| segment_circuit(circuit, model.block_bits, &policy));
            self.fuse_s += t_fuse + t_seg;
            self.streamed += seg.streamed_entries(n) as f64;
            self.touched += circuit.touched_entries(n) as f64;
            let entries = match step.backend {
                Backend::SimulateFused => fused.touched_entries(n),
                Backend::SimulateSegmented { .. } => seg.streamed_entries(n),
                Backend::SimulateGateLevel => circuit.touched_entries(n),
                // The compressed backend streams the dense state twice:
                // into the MPS and back.
                Backend::SimulateMps { .. } => 2 << n,
                _ => 0,
            };
            self.passes += entries as f64 / (1u64 << n) as f64;
            if !matches!(step.backend, Backend::SimulateMps { .. }) && entries > 0 {
                // Read + write of every streamed 16-byte amplitude.
                self.sim_bytes += 32.0 * entries as f64;
                self.sim_s += step.measured_s;
            }
        }
    }

    /// Computed GB/s of the state-vector gate steps (0 if none ran).
    pub fn gbps(&self) -> f64 {
        if self.sim_s > 0.0 {
            self.sim_bytes / self.sim_s / 1e9
        } else {
            0.0
        }
    }

    /// Writes `fusion.*`, `segment.traffic_ratio` and
    /// `sweep.gbps_computed` (per unit where a count or time).
    pub fn write(&self, m: &mut Metrics, units: usize) {
        let u = units.max(1) as f64;
        m.set("fusion.fuse_s", self.fuse_s / u);
        m.set("fusion.passes", self.passes / u);
        if self.touched > 0.0 {
            m.set("segment.traffic_ratio", self.streamed / self.touched);
        }
        m.set("sweep.gbps_computed", self.gbps());
    }
}

/// Pool counters over a window, from `rayon::pool::stats()` deltas.
pub struct PoolWindow {
    start: rayon::pool::PoolStats,
}

impl PoolWindow {
    /// Opens a window at the current counters.
    pub fn open() -> PoolWindow {
        PoolWindow {
            start: rayon::pool::stats(),
        }
    }

    /// Writes `pool.*` for the window (per unit for `tasks_per_unit`).
    pub fn write(&self, m: &mut Metrics, units: usize) {
        let end = rayon::pool::stats();
        let tasks = end.tasks_dispatched - self.start.tasks_dispatched;
        m.set("pool.tasks", tasks as f64);
        m.set(
            "pool.blocks_stolen",
            (end.blocks_stolen - self.start.blocks_stolen) as f64,
        );
        m.set("pool.parks", (end.parks - self.start.parks) as f64);
        m.set("pool.wakeups", (end.wakeups - self.start.wakeups) as f64);
        m.set("pool.peak_workers", end.peak_workers as f64);
        m.set("pool.threads", end.threads as f64);
        m.set("pool.tasks_per_unit", tasks as f64 / units.max(1) as f64);
    }
}

/// Writes `host.*`, `kernel.*` and the `of_peak` ratios for an
/// `n`-qubit state: STREAM copy and triad over arrays of the state's
/// size, and the single-kernel probes. Call with no large state alive.
pub fn write_host_probes(m: &mut Metrics, n: usize) {
    let bytes = crate::host::state_bytes(n);
    let copy = crate::host::copy_gbps(bytes);
    let triad = crate::host::triad_gbps(bytes);
    m.set("host.copy_gbps", copy);
    m.set("host.triad_gbps", triad);
    for probe in crate::host::kernel_probes(n) {
        m.set(&format!("kernel.{}.gbps", probe.name), probe.gbps);
        m.set(
            &format!("kernel.{}.of_peak", probe.name),
            probe.gbps / triad,
        );
    }
    m.set("sweep.of_peak", m.get("sweep.gbps_computed") / triad);
}

/// Writes `proc.cpu_util` for a window of `wall_s` seconds that used
/// `cpu_s` CPU seconds.
pub fn write_cpu_util(m: &mut Metrics, cpu_s: f64, wall_s: f64) {
    let cores = crate::host::nproc() as f64;
    m.set("proc.cpu_util", cpu_s / (wall_s * cores).max(1e-9));
}
