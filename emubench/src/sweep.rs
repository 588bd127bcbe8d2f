//! `sweep-25`: seeded random circuits C at n = 25, each run as a mirror
//! pair (C, then C†) through a `HybridExecutor` under the default cost
//! model. The 512 MiB state is past the host's last-level cache, so the
//! time goes to full-state sweeps: the kernels, fusion, segmentation and
//! the worker pool, with no emulation shortcut to take. A run cycles
//! through three fixed circuit structures (fresh seeded angles each
//! time) in whole cycles.

use crate::inputs::{mirror_program, random_circuit, SWEEP_GATES, SWEEP_QUBITS, SWEEP_STRUCTURES};
use crate::layers::{
    timed, write_cpu_util, write_host_probes, FusionTally, PlannerTally, PoolWindow,
};
use crate::report::Metrics;
use crate::stats::median;
use crate::{host, Ctx, EndToEnd, Measured, Outcome, PARTS};
use qcemu_core::{Emulator, Executor, GateLevelSimulator, HybridExecutor, QuantumProgram};
use qcemu_sim::{SimConfig, StateVector};
use std::time::Instant;

/// Largest tolerated probability outside |0…0⟩ after a mirror pair.
const MIRROR_TOL: f64 = 1e-9;

/// Runs `program` from |0…0⟩ on `executor`, reusing `state`'s buffer;
/// returns the final state and the run's seconds.
fn run_on(
    executor: &dyn Executor,
    program: &QuantumProgram,
    state: StateVector,
) -> Option<(StateVector, f64)> {
    let init = host::reset(state);
    let (out, s) = timed(|| executor.run(program, init));
    out.map_err(|e| eprintln!("sweep-25: {} failed: {e}", executor.name()))
        .ok()
        .map(|st| (st, s))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let n = SWEEP_QUBITS;
    let hybrid = HybridExecutor::new();
    let (mut state, setup_s) = ctx.setup(|| {
        rayon::pool::warm_up();
        host::reset(StateVector::zero_state(n))
    });

    let traced_exec = HybridExecutor::new();
    let mut planner = PlannerTally::default();
    let mut fusion = FusionTally::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut sample_s = Vec::new();
    let mut regret = Vec::new();
    let mut references = Vec::new();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut pair_s = Vec::new();
    let pool = PoolWindow::open();
    let cpu0 = host::cpu_seconds();
    // An untraced part runs the one structure `part mod 3` (indices
    // part, part + PARTS, …); a traced run cycles through all three.
    let (stride, cycle) = if ctx.trace {
        (1, SWEEP_STRUCTURES)
    } else {
        (PARTS, 1)
    };
    let start = Instant::now();
    let mut cycle_start = start;
    let mut pairs = 0u64;
    loop {
        // Whole cycles only, so every run holds the same mix of
        // structures; stop before a cycle that would overrun the window.
        if pairs > 0 && pairs.is_multiple_of(cycle) {
            let last_cycle = cycle_start.elapsed().as_secs_f64();
            cycle_start = Instant::now();
            if start.elapsed().as_secs_f64() + last_cycle > ctx.seconds {
                break;
            }
        }
        let index = ctx.part + stride * pairs;
        let circuit = random_circuit(ctx.seed, index);
        let program = mirror_program(&circuit);
        pairs += 1;
        attempted += 1;
        let init = host::reset(state);
        let t0 = Instant::now();
        let result = hybrid.run_with_report(&program, init);
        let p0 = result
            .as_ref()
            .map(|(s, _)| s.probability(0))
            .unwrap_or(0.0);
        let unit_s = t0.elapsed().as_secs_f64();
        let out = match result {
            Ok((out, _)) => out,
            Err(e) => {
                eprintln!("sweep-25: hybrid run failed: {e}");
                failed += 1;
                state = StateVector::zero_state(n);
                continue;
            }
        };
        let leak = 1.0 - p0;
        if leak > MIRROR_TOL {
            eprintln!("sweep-25: mirror pair {index} leaked {leak:.3e} out of |0…0⟩");
            failed += 1;
        } else {
            pair_s.push(unit_s);
        }
        state = out;
        if !ctx.trace {
            continue;
        }
        untraced_s.push(unit_s);
        let t0 = Instant::now();
        let (plan, plan_s) = timed(|| traced_exec.plan(&program));
        planner.plan(plan_s);
        std::hint::black_box(plan.steps().len());
        let mut routes = String::new();
        match traced_exec.run_with_report(&program, host::reset(state)) {
            Ok((out, report)) => {
                let backends: Vec<String> =
                    report.steps.iter().map(|s| s.backend.to_string()).collect();
                routes = backends.join(" + ");
                let (p0, s) = timed(|| out.probability(0));
                std::hint::black_box(p0);
                sample_s.push(s);
                traced_s.push(t0.elapsed().as_secs_f64());
                planner.report(&report);
                fusion.unit(&program, &report, traced_exec.model());
                state = out;
            }
            Err(e) => {
                eprintln!("sweep-25: traced run failed: {e}");
                state = StateVector::zero_state(n);
            }
        }
        if pairs <= SWEEP_STRUCTURES {
            // Fixed-backend references on each structure of the first
            // cycle: min(Emulator, fused simulator) is the base of
            // planner.regret; the segmented simulator is shown alongside,
            // as the planner may pass it over.
            let fixed: [(&str, Box<dyn Executor>); 3] = [
                ("emulator", Box::new(Emulator::new())),
                ("fused simulator", Box::new(GateLevelSimulator::fused())),
                (
                    "segmented simulator",
                    Box::new(GateLevelSimulator::new().with_config(SimConfig::segmented())),
                ),
            ];
            let mut line = format!("pair {index}: hybrid ({routes}) {unit_s:.4} s");
            let mut best_fixed = f64::INFINITY;
            for (name, exec) in fixed {
                match run_on(exec.as_ref(), &program, state) {
                    Some((out, s)) => {
                        line += &format!(", {name} {s:.4} s");
                        if name != "segmented simulator" {
                            best_fixed = best_fixed.min(s);
                        }
                        state = out;
                    }
                    None => state = StateVector::zero_state(n),
                }
            }
            regret.push(unit_s / best_fixed);
            references.push(line);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mib = host::peak_rss_mib();
    drop(state);

    let mut notes = vec![format!(
        "sweep-25: {pairs} mirror pairs of {SWEEP_GATES}-gate random circuits at n = {n} (state {} MiB)",
        host::state_bytes(n) >> 20
    )];
    let measured = if ctx.trace {
        let mut m = Metrics::per_layer();
        let units = traced_s.len();
        planner.write(&mut m, units);
        fusion.write(&mut m, units);
        m.set("planner.regret", median(&regret));
        let (hits, misses) = (hybrid.plan_cache().hits(), hybrid.plan_cache().misses());
        m.set("plancache.misses", misses as f64 / attempted as f64);
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
        write_host_probes(&mut m, n);
        notes.push("planner routing (traced pairs):".into());
        notes.extend(planner.summary());
        notes.extend(references);
        Measured::Layers(m)
    } else {
        Measured::EndToEnd(EndToEnd {
            setup_s,
            peak_rss_mib,
            work: (2 * SWEEP_GATES * pair_s.len()) as f64,
            work_s: pair_s.iter().sum(),
            latencies_s: pair_s,
        })
    };
    Outcome {
        attempted,
        failed,
        measured,
        notes,
    }
}
