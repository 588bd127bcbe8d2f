//! `emulate-mix`: a user's script of fresh programs, alternating the
//! Shor-style program (19 qubits) and Table 2's TFIM phase estimation
//! (18 qubits), each built, planned, run and read out by a
//! `HybridExecutor` under the default cost model.
//!
//! A round is one program of each shape. The latency sample is the mean
//! program time of a round: the two shapes differ in cost by about 3×, so
//! a median over single programs would fall in the gap between them and
//! jump with the parity of the sample count.

use crate::inputs::{
    qpe_field, qpe_program, qpe_readout_bits, shor_params, shor_program, shor_readout_bits,
};
use crate::layers::{
    timed, write_cpu_util, write_host_probes, FusionTally, PlannerTally, PoolWindow,
};
use crate::report::Metrics;
use crate::stats::median;
use crate::{host, Ctx, EndToEnd, Measured, Outcome};
use qcemu_core::{
    total_variation, Emulator, Executor, GateLevelSimulator, HybridExecutor, QuantumProgram,
};
use qcemu_sim::StateVector;
use std::time::Instant;

/// Largest tolerated amplitude difference from the `Emulator` reference.
const STATE_TOL: f64 = 1e-9;
/// Largest tolerated total-variation distance of the readout register.
const TV_TOL: f64 = 1e-10;

/// One program instance of the mix.
struct Shape {
    build: Box<dyn Fn() -> QuantumProgram>,
    readout: Vec<usize>,
    /// Whether the traced run times the fused gate-level simulator on it
    /// for `planner.regret` (skipped on QPE: its gate-level path applies
    /// controlled-U 2^10 − 1 times and takes tens of seconds).
    regret: bool,
}

fn shapes(seed: u64, round: u64) -> [Shape; 2] {
    let sp = shor_params(seed, round);
    let field = qpe_field(seed, round);
    [
        Shape {
            build: Box::new(move || shor_program(&sp)),
            readout: shor_readout_bits(),
            regret: true,
        },
        Shape {
            build: Box::new(move || qpe_program(field)),
            readout: qpe_readout_bits(),
            regret: false,
        },
    ]
}

/// What one untraced program run produced.
struct Run {
    program: QuantumProgram,
    state: StateVector,
    dist: Vec<f64>,
    /// build → plan → run → readout.
    unit_s: f64,
    /// The `run_with_report` call alone (plan + run).
    run_s: f64,
}

fn untraced(hybrid: &HybridExecutor, shape: &Shape) -> Option<Run> {
    let t0 = Instant::now();
    let program = (shape.build)();
    let init = StateVector::zero_state(program.n_qubits());
    let (result, run_s) = timed(|| hybrid.run_with_report(&program, init));
    let state = match result {
        Ok((state, _)) => state,
        Err(e) => {
            eprintln!("emulate-mix: hybrid run failed: {e}");
            return None;
        }
    };
    let dist = state.register_distribution(&shape.readout);
    let unit_s = t0.elapsed().as_secs_f64();
    Some(Run {
        program,
        state,
        dist,
        unit_s,
        run_s,
    })
}

/// The correctness gate: the hybrid state matches the `Emulator`'s, and
/// so does the readout register's distribution. Returns the emulator's
/// run time.
fn check(run: &Run, shape: &Shape) -> (bool, f64) {
    let init = StateVector::zero_state(run.program.n_qubits());
    let (reference, emu_s) = timed(|| Emulator::new().run(&run.program, init));
    let ok = match reference {
        Ok(reference) => {
            let diff = reference.max_diff_up_to_phase(&run.state);
            let tv = total_variation(&reference.register_distribution(&shape.readout), &run.dist);
            if diff > STATE_TOL || tv > TV_TOL {
                eprintln!("emulate-mix: mismatch (state diff {diff:.3e}, tv {tv:.3e})");
            }
            diff <= STATE_TOL && tv <= TV_TOL
        }
        Err(e) => {
            eprintln!("emulate-mix: emulator reference failed: {e}");
            false
        }
    };
    (ok, emu_s)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let hybrid = HybridExecutor::new();
    let n_max = shor_program(&shor_params(ctx.seed, 0)).n_qubits();
    let ((), setup_s) = ctx.setup(|| {
        rayon::pool::warm_up();
        std::hint::black_box(host::reset(StateVector::zero_state(n_max)));
    });

    // Traced-run state: a second executor (its own plan cache) runs every
    // program again with timers between the layer calls.
    let traced_exec = HybridExecutor::new();
    let mut planner = PlannerTally::default();
    let mut fusion = FusionTally::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut sample_s = Vec::new();
    let mut regret = Vec::new();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut round_means = Vec::new();
    let mut notes = Vec::new();
    let mut programs = 0.0;
    let mut program_s = 0.0;
    let pool = PoolWindow::open();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut round_start = start;
    let mut round = 0u64;
    loop {
        // Whole rounds only; stop before a round that would overrun.
        if round > 0 {
            let last_round = round_start.elapsed().as_secs_f64();
            round_start = Instant::now();
            if start.elapsed().as_secs_f64() + last_round > ctx.seconds {
                break;
            }
        }
        let mut round_s = 0.0;
        let mut round_ok = true;
        for shape in shapes(ctx.seed, ctx.part * 1_000_000 + round) {
            attempted += 1;
            let Some(run) = untraced(&hybrid, &shape) else {
                failed += 1;
                round_ok = false;
                continue;
            };
            round_s += run.unit_s;
            let (ok, emu_s) = check(&run, &shape);
            if !ok {
                failed += 1;
            }
            if ctx.trace {
                untraced_s.push(run.unit_s);
                let t0 = Instant::now();
                let program = (shape.build)();
                let (plan, plan_s) = timed(|| traced_exec.plan(&program));
                planner.plan(plan_s);
                std::hint::black_box(plan.steps().len());
                let init = StateVector::zero_state(program.n_qubits());
                match traced_exec.run_with_report(&program, init) {
                    Ok((state, report)) => {
                        let (dist, s) = timed(|| state.register_distribution(&shape.readout));
                        std::hint::black_box(dist);
                        sample_s.push(s);
                        traced_s.push(t0.elapsed().as_secs_f64());
                        planner.report(&report);
                        fusion.unit(&program, &report, traced_exec.model());
                    }
                    Err(e) => eprintln!("emulate-mix: traced run failed: {e}"),
                }
                if shape.regret {
                    let init = StateVector::zero_state(run.program.n_qubits());
                    let (_, fused_s) =
                        timed(|| GateLevelSimulator::fused().run(&run.program, init));
                    regret.push(run.run_s / emu_s.min(fused_s));
                }
            }
        }
        if round_ok {
            notes.push(format!("round {round}: {:.4} s per program", round_s / 2.0));
            round_means.push(round_s / 2.0);
            programs += 2.0;
            program_s += round_s;
        }
        round += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mib = host::peak_rss_mib();

    notes.insert(0, format!(
        "emulate-mix: {round} rounds of (Shor-style m=6, 19 qubits) + (TFIM QPE, 8 spins, 10 bits), default cost model"
    ));
    let measured = if ctx.trace {
        let mut m = Metrics::per_layer();
        let units = traced_s.len();
        planner.write(&mut m, units);
        fusion.write(&mut m, units);
        m.set("planner.regret", median(&regret));
        m.set(
            "plancache.misses",
            hybrid.plan_cache().misses() as f64 / attempted as f64,
        );
        let (hits, misses) = (hybrid.plan_cache().hits(), hybrid.plan_cache().misses());
        m.set(
            "plancache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        m.set("measure.sample_s", median(&sample_s));
        m.set(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
        );
        m.set("trace.units", units as f64);
        pool.write(&mut m, units);
        write_cpu_util(&mut m, host::cpu_seconds() - cpu0, wall_s);
        write_host_probes(&mut m, n_max);
        notes.push("planner routing (traced programs):".into());
        notes.extend(planner.summary());
        notes.push(format!(
            "planner.regret on the Shor-style programs: {:?}",
            regret
        ));
        Measured::Layers(m)
    } else {
        Measured::EndToEnd(EndToEnd {
            setup_s,
            peak_rss_mib,
            latencies_s: round_means,
            work: programs,
            work_s: program_s,
        })
    };
    Outcome {
        attempted,
        failed,
        measured,
        notes,
    }
}
