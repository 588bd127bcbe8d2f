//! Cost-model-driven execution planning: one plan IR, three backends.
//!
//! The paper's central tension (§3.3, §4.4, Table 2) is that *neither*
//! backend wins everywhere: emulation shortcuts win asymptotically, while
//! gate-level simulation wins at small operator sizes and on raw gate
//! runs. This module makes the choice explicit, per-op, and auditable:
//!
//! 1. every [`HighLevelOp`] **lowers** to a [`PlanStep`] naming a
//!    [`Backend`] plus a predicted cost from the generalized
//!    [`CostModel`] (which extends the Table 2 QPE crossover analysis to
//!    classical maps, QFTs, rotations, and raw gate runs via the
//!    memory-traffic estimators `Circuit::touched_entries` /
//!    `FusedCircuit::touched_entries`);
//! 2. a single [`PlanInterpreter`] executes any plan — the legacy
//!    [`Emulator`](crate::executor::Emulator) and
//!    [`GateLevelSimulator`](crate::executor::GateLevelSimulator) are
//!    thin wrappers over the fixed plans of [`plan_emulated`] /
//!    [`plan_simulated`], and
//!    [`HybridExecutor`](crate::executor::HybridExecutor) runs
//!    [`plan_hybrid`], which picks the cheapest backend per op;
//! 3. execution emits a [`PlanReport`] with per-op backend, predicted and
//!    measured cost, so every dispatch decision can be audited against
//!    the clock (see the `hybrid_ablation` bench).

use crate::classical::{apply_classical_map, apply_phase_oracle};
use crate::crossover::CostModel;
use crate::error::EmuError;
use crate::program::{HighLevelOp, ProgramRegister, QuantumProgram, RegisterId, RotationOp};
use crate::qpe::{apply_qpe, QpeStrategy};
use qcemu_fft::{inverse_qft_subspace, qft_subspace};
use qcemu_linalg::C64;
use qcemu_sim::circuits::qft::{inverse_qft_circuit, qft_circuit};
use qcemu_sim::{
    estimate_mps_cost, max_schmidt_rank, saturate_bonds, segment_circuit, Circuit, FusedCircuit,
    FusionPolicy, Gate, GateOp, MpsPolicy, MpsState, SegmentPolicy, SimConfig, StateVector,
    DEFAULT_MAX_FUSED_QUBITS, MPS_EXACT_TOL,
};
use std::fmt;
use std::time::Instant;

/// Probability mass tolerated on non-|0⟩ ancilla values after a run.
const ANCILLA_LEAK_TOL: f64 = 1e-9;

/// Execution backend of one plan step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Emulation shortcut for classical structure: permutation-table pass
    /// (classical maps), conditional phase scan (oracles), or the per-pair
    /// rotation sweep (paper §3.1).
    EmulateClassical,
    /// QFT via the classical FFT on the register subspace (paper §3.2).
    EmulateFft,
    /// Phase estimation with an explicit strategy (paper §3.3);
    /// `QpeStrategy::GateLevel` is the simulated variant.
    EmulateQpe {
        /// How the QPE is carried out.
        strategy: QpeStrategy,
    },
    /// Gate-level simulation through the fusion engine (cache-blocked
    /// multi-qubit sweeps).
    SimulateFused,
    /// Gate-level simulation through the segment executor
    /// (`qcemu_sim::segment`): the circuit is partitioned into blocked
    /// segments whose ops replay against L2-resident blocks, so deep
    /// compatible runs cross memory once instead of once per gate.
    SimulateSegmented {
        /// log2 of the block size in amplitudes — carried in the IR so
        /// pricing and execution use the *same* (possibly calibrated)
        /// block size (`CostModel::block_bits`).
        block_bits: usize,
    },
    /// Compressed simulation through the bond-truncated MPS backend
    /// (`qcemu_sim::mps`): O(χ³) per two-qubit gate instead of Θ(2ⁿ) per
    /// sweep. Only chosen when the entanglement-growth estimate proves
    /// the run stays exact under the cap, and execution still audits the
    /// truncation-error accumulator, falling back to a dense run on any
    /// forced truncation — a mispredicted χ costs time, never
    /// correctness.
    SimulateMps {
        /// Bond-dimension cap χ the step runs (and was priced) under.
        max_bond: usize,
    },
    /// Plain gate-by-gate simulation through the structural kernels.
    SimulateGateLevel,
}

impl Backend {
    /// `true` if this backend lowers the op to elementary-gate execution.
    pub fn is_simulate(&self) -> bool {
        matches!(
            self,
            Backend::SimulateFused
                | Backend::SimulateSegmented { .. }
                | Backend::SimulateMps { .. }
                | Backend::SimulateGateLevel
        )
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::EmulateClassical => write!(f, "emulate:classical"),
            Backend::EmulateFft => write!(f, "emulate:fft"),
            Backend::EmulateQpe { strategy } => match strategy {
                QpeStrategy::GateLevel => write!(f, "qpe:gate-level"),
                QpeStrategy::RepeatedSquaring => write!(f, "qpe:squaring"),
                QpeStrategy::Eigendecomposition => write!(f, "qpe:eigen"),
            },
            Backend::SimulateFused => write!(f, "simulate:fused"),
            Backend::SimulateSegmented { .. } => write!(f, "simulate:segmented"),
            Backend::SimulateMps { max_bond } => write!(f, "simulate:mps(χ≤{max_bond})"),
            Backend::SimulateGateLevel => write!(f, "simulate:gates"),
        }
    }
}

/// One lowered op: which backend runs it and what the model predicts it
/// costs (seconds on the cost model's synthetic machine).
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// Index into `program.ops()`.
    pub op_index: usize,
    /// Human-readable op label (for reports).
    pub op: String,
    /// Chosen backend.
    pub backend: Backend,
    /// Predicted cost in model seconds (`f64::INFINITY` when the chosen
    /// backend cannot run the op, e.g. simulating an emulation-only map —
    /// execution then fails with the same error the legacy executor
    /// raised).
    pub predicted_s: f64,
    /// Work qubits this step needs above the program space (simulation
    /// backends only).
    pub n_ancilla: usize,
    /// Deferred-build circuit (classical/phase/rotation gate impls)
    /// materialised during costing — carried so execution does not
    /// rebuild it.
    pub(crate) circuit: Option<Circuit>,
    /// Fused block stream priced by the cost model — reused directly by
    /// fused execution (fusion is semantics-preserving at any window, so
    /// a cached stream is always state-correct).
    pub(crate) fused: Option<FusedCircuit>,
}

/// A fully lowered program: an ordered list of [`PlanStep`]s plus the
/// ancilla head-room their union requires.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    steps: Vec<PlanStep>,
    n_ancilla: usize,
    /// `instance_id` of the program this plan was lowered from; execution
    /// refuses any other program (steps index its op list and may carry
    /// circuits built from its closures).
    program_id: u64,
}

impl ExecutionPlan {
    /// The lowered steps in program order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Ancilla qubits the interpreter must append above the program space
    /// (the `2^anc` memory factor of paper Fig. 2) — the maximum over the
    /// plan's *simulated* steps, zero for all-emulated plans.
    pub fn n_ancilla(&self) -> usize {
        self.n_ancilla
    }

    /// Sum of the per-step cost predictions (model seconds).
    pub fn total_predicted_s(&self) -> f64 {
        self.steps.iter().map(|s| s.predicted_s).sum()
    }

    /// `instance_id` of the program this plan was lowered from.
    ///
    /// [`PlanInterpreter::execute`] refuses any other instance; the
    /// structure-keyed paths
    /// ([`HybridExecutor::run_structural`](crate::executor::HybridExecutor::run_structural),
    /// [`BatchExecutor`](crate::batch::BatchExecutor)) use this to decide
    /// whether carried closure-built artifacts may be executed directly
    /// or must be re-derived.
    pub fn planned_from(&self) -> u64 {
        self.program_id
    }

    fn from_steps(program: &QuantumProgram, steps: Vec<PlanStep>) -> ExecutionPlan {
        let n_ancilla = steps
            .iter()
            .filter(|s| s.backend.is_simulate())
            .map(|s| s.n_ancilla)
            .max()
            .unwrap_or(0);
        ExecutionPlan {
            steps,
            n_ancilla,
            program_id: program.instance_id(),
        }
    }
}

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>3} {:<26} {:>17} {:>12}",
            "#", "op", "backend", "predicted"
        )?;
        for step in &self.steps {
            writeln!(
                f,
                "{:>3} {:<26} {:>17} {:>12}",
                step.op_index,
                step.op,
                step.backend.to_string(),
                fmt_model_secs(step.predicted_s),
            )?;
        }
        write!(f, "ancillas: {}", self.n_ancilla)
    }
}

/// Per-step entry of a [`PlanReport`]: the plan's choice plus the
/// measured wall time of the step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Op label.
    pub op: String,
    /// Backend that ran the op.
    pub backend: Backend,
    /// Model-predicted cost (seconds).
    pub predicted_s: f64,
    /// Measured wall time (seconds).
    pub measured_s: f64,
}

/// Audit trail of one plan execution: per-op backend, predicted vs
/// measured cost. Render with `{}` for an aligned table.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// One entry per executed step, in program order.
    pub steps: Vec<StepReport>,
}

impl PlanReport {
    /// Total measured wall time across all steps.
    pub fn total_measured_s(&self) -> f64 {
        self.steps.iter().map(|s| s.measured_s).sum()
    }

    /// Total predicted cost across all steps.
    pub fn total_predicted_s(&self) -> f64 {
        self.steps.iter().map(|s| s.predicted_s).sum()
    }
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<26} {:>17} {:>12} {:>12}",
            "op", "backend", "predicted", "measured"
        )?;
        for s in &self.steps {
            writeln!(
                f,
                "{:<26} {:>17} {:>12} {:>12}",
                s.op,
                s.backend.to_string(),
                fmt_model_secs(s.predicted_s),
                fmt_model_secs(s.measured_s),
            )?;
        }
        write!(
            f,
            "{:<26} {:>17} {:>12} {:>12}",
            "total",
            "",
            fmt_model_secs(self.total_predicted_s()),
            fmt_model_secs(self.total_measured_s())
        )
    }
}

pub(crate) fn fmt_model_secs(s: f64) -> String {
    if s.is_infinite() {
        "∞".into()
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

// ---------------------------------------------------------------------------
// Ancilla head-room (shared by every plan execution — the logic that used to
// live inline in `GateLevelSimulator::run`).
// ---------------------------------------------------------------------------

/// Extends a state with `n_anc` |0⟩ ancilla qubits above its own — the
/// memory the paper's Fig. 2 is about: the gate-level path pays `2^anc ×`.
pub fn extend_with_ancillas(initial: StateVector, n_anc: usize) -> StateVector {
    if n_anc == 0 {
        return initial;
    }
    let n = initial.n_qubits();
    let mut amps = vec![C64::ZERO; 1usize << (n + n_anc)];
    amps[..1 << n].copy_from_slice(initial.amplitudes());
    StateVector::from_amplitudes(amps)
}

/// Validates that all ancillas above the `n_program`-qubit space returned
/// to |0⟩ and truncates the state back down; a leak indicates a broken
/// reversible circuit.
pub fn truncate_ancillas(state: StateVector, n_program: usize) -> Result<StateVector, EmuError> {
    if state.n_qubits() == n_program {
        return Ok(state);
    }
    let keep = 1usize << n_program;
    let leaked: f64 = state.amplitudes()[keep..]
        .iter()
        .map(|z| z.norm_sqr())
        .sum();
    if leaked > ANCILLA_LEAK_TOL {
        return Err(EmuError::AncillaNotClean { leaked });
    }
    let amps = state.into_amplitudes();
    Ok(StateVector::from_amplitudes(amps[..keep].to_vec()))
}

// ---------------------------------------------------------------------------
// Lowering: per-op candidate costs.
// ---------------------------------------------------------------------------

/// Candidate backends for one op, with model costs. `None` marks a path
/// the op does not have (no gate-level implementation, or no emulation
/// shortcut for raw gate runs). The circuits the costing had to build
/// (deferred gate impls, fused block streams) ride along so the plan can
/// carry them to execution instead of rebuilding them.
struct SimCosts {
    unfused: Option<f64>,
    fused: Option<f64>,
    segmented: Option<f64>,
    /// `(max_bond, cost)` of the compressed candidate — present only when
    /// the entanglement-growth estimate certifies the circuit runs
    /// *exactly* under that cap from the state it receives
    /// ([`estimate_mps_cost`]).
    mps: Option<(usize, f64)>,
    /// Outgoing bond bound of that estimate's walk, when one was run.
    bonds_out: Option<Vec<usize>>,
    n_ancilla: usize,
    circuit: Option<Circuit>,
    fused_circuit: Option<FusedCircuit>,
}

impl SimCosts {
    fn none_built(unfused: Option<f64>, fused: Option<f64>, segmented: Option<f64>) -> SimCosts {
        SimCosts {
            unfused,
            fused,
            segmented,
            mps: None,
            bonds_out: None,
            n_ancilla: 0,
            circuit: None,
            fused_circuit: None,
        }
    }

    /// The flavour `backend` executes with.
    fn for_backend(&self, backend: Backend) -> Option<f64> {
        match backend {
            Backend::SimulateFused => self.fused,
            Backend::SimulateSegmented { .. } => self.segmented,
            Backend::SimulateMps { max_bond } => self
                .mps
                .filter(|(cap, _)| *cap == max_bond)
                .map(|(_, cost)| cost),
            _ => self.unfused,
        }
    }
}

fn op_label(program: &QuantumProgram, op: &HighLevelOp) -> String {
    match op {
        HighLevelOp::Gates(c) => format!("gates[{}]", c.gate_count()),
        HighLevelOp::Classical(cm) => format!("classical '{}'", cm.name),
        HighLevelOp::Phase(po) => format!("oracle '{}'", po.name),
        HighLevelOp::Rotation(ro) => format!("rotation '{}'", ro.name),
        HighLevelOp::Qft(r) => format!("qft '{}'", program.register(*r).name),
        HighLevelOp::InverseQft(r) => format!("iqft '{}'", program.register(*r).name),
        HighLevelOp::Qpe(q) => format!(
            "qpe[n={},b={}]",
            program.register(q.target).len,
            program.register(q.phase).len
        ),
    }
}

/// The fusion window candidate plans cost fused execution with: the
/// interpreter's own greedy window if it has one, the default otherwise.
fn plan_window(config: &SimConfig) -> usize {
    match config.fusion {
        FusionPolicy::Greedy { max_fused_qubits } => max_fused_qubits,
        FusionPolicy::Disabled => DEFAULT_MAX_FUSED_QUBITS,
    }
}

/// Gate-path costs of a concrete circuit on a `2^n_state` state.
/// Each flavour is computed only when requested: the unfused estimate is
/// an O(G) count, but the fused one actually runs the fusion engine
/// (matrix compose + classify per block) — a plan that can never pick a
/// fused candidate must not pay for it. `want_mps` carries the bond cap
/// to price the compressed candidate under and the bond bound of the
/// state the circuit receives (`n_state + 1` entries), or `None` to skip
/// it.
fn circuit_costs(
    model: &CostModel,
    c: &Circuit,
    n_state: usize,
    window: usize,
    want_unfused: bool,
    want_fused: bool,
    want_segmented: bool,
    want_mps: Option<(usize, &[usize])>,
) -> SimCosts {
    let unfused = want_unfused.then(|| model.t_gates(c.touched_entries(n_state), c.gate_count()));
    let (fused, fused_circuit) = if want_fused {
        let fc = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: window,
        });
        let t = model.t_gates_fused(fc.touched_entries(n_state), c.gate_count(), fc.ops().len());
        (Some(t), Some(fc))
    } else {
        (None, None)
    };
    // Price segmentation with the same policy `SimConfig::segmented()`
    // executes with, splitting traffic into its streamed and in-cache
    // terms. The compiled `SegmentedCircuit` is not carried: execution
    // re-segments, paying the per-gate compile cost the model includes.
    // Each blocked segment and each full-state sweep op launches one
    // parallel region, so that is the dispatch count.
    let segmented = want_segmented.then(|| {
        let seg = segment_circuit(c, model.block_bits, &FusionPolicy::greedy());
        model.t_gates_segmented(
            seg.streamed_entries(n_state),
            seg.incache_entries(n_state),
            c.gate_count(),
            seg.blocked_segments() + seg.sweep_segments(),
        )
    });
    // The compressed candidate only exists when the χ-growth estimate
    // certifies the whole run — import included — fits under the cap
    // from the state the circuit actually receives: an inexact estimate
    // means execution *would* truncate, and the interpreter would fall
    // back to a dense re-run anyway — pricing that as "cheap" would bias
    // the planner toward a path it can never take.
    let (mps, bonds_out) = match want_mps {
        Some((max_bond, incoming)) => {
            let est = estimate_mps_cost(c, incoming, max_bond);
            let cost = est
                .exact
                .then(|| (max_bond, model.t_gates_mps(est.units, incoming)));
            (cost, Some(est.bonds_out))
        }
        None => (None, None),
    };
    SimCosts {
        unfused,
        fused,
        segmented,
        mps,
        bonds_out,
        n_ancilla: 0,
        circuit: None,
        fused_circuit,
    }
}

/// Costs of one op's gate-level implementation (shared by the Classical,
/// Phase, and Rotation arms of [`sim_costs`]): builds the deferred
/// circuit and prices it at the width the op itself forces —
/// `n + max(n_anc_plan, its own ancillas)`.
fn gate_impl_sim_costs(
    model: &CostModel,
    program: &QuantumProgram,
    gi: &crate::program::GateImpl,
    n_anc_plan: usize,
    window: usize,
    want_unfused: bool,
    want_fused: bool,
    want_segmented: bool,
    want_mps: Option<(usize, &[usize])>,
) -> SimCosts {
    let c = (gi.build)(program);
    let n_sim = program.n_qubits() + n_anc_plan.max(gi.n_ancilla);
    // Head-room beyond the plan's is fresh |0⟩ ancillas: product cuts.
    let incoming = want_mps.map(|(max_bond, bonds)| {
        let mut padded = bonds.to_vec();
        padded.resize(n_sim + 1, 1);
        (max_bond, padded)
    });
    let costs = circuit_costs(
        model,
        &c,
        n_sim,
        window,
        want_unfused,
        want_fused,
        want_segmented,
        incoming
            .as_ref()
            .map(|(max_bond, bonds)| (*max_bond, &bonds[..])),
    );
    SimCosts {
        n_ancilla: gi.n_ancilla,
        circuit: Some(c),
        ..costs
    }
}

/// Predicted cost of the op's emulation shortcut, or `None` for raw gate
/// runs (which have none). Pure formula evaluation — never builds a
/// circuit. For QPE, returns the cheaper of the two dense strategies.
fn emulate_candidate(
    model: &CostModel,
    program: &QuantumProgram,
    op: &HighLevelOp,
    n_state: usize,
) -> Option<(Backend, f64)> {
    match op {
        HighLevelOp::Gates(_) => None,
        HighLevelOp::Classical(cm) => {
            let k: usize = cm.regs.iter().map(|&r| program.register(r).len).sum();
            Some((
                Backend::EmulateClassical,
                model.t_classical_emulated(n_state, k),
            ))
        }
        HighLevelOp::Phase(_) => {
            Some((Backend::EmulateClassical, model.t_oracle_emulated(n_state)))
        }
        HighLevelOp::Rotation(_) => Some((
            Backend::EmulateClassical,
            model.t_rotation_emulated(n_state),
        )),
        HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r) => Some((
            Backend::EmulateFft,
            model.t_qft_emulated(n_state, program.register(*r).len),
        )),
        HighLevelOp::Qpe(qpe) => {
            let m = program.register(qpe.target).len;
            let b = program.register(qpe.phase).len;
            let g = qpe.unitary.gate_count().max(1);
            let (strategy, cost) = [
                QpeStrategy::RepeatedSquaring,
                QpeStrategy::Eigendecomposition,
            ]
            .into_iter()
            .map(|s| (s, model.t_qpe(n_state, m, g, b, s)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("two candidates");
            Some((Backend::EmulateQpe { strategy }, cost))
        }
    }
}

/// Predicted costs of the op's gate-level path(s), or `None` when it has
/// no gate-level implementation. Only the requested flavours are
/// computed (see [`circuit_costs`]).
///
/// `n_anc_plan` is the ancilla head-room the rest of the plan already
/// commits to: every sweep in this run pays `2^{n + n_anc_plan}` entries,
/// and an op whose own gate path needs more ancillas than that is costed
/// at its own (larger) width.
fn sim_costs(
    model: &CostModel,
    program: &QuantumProgram,
    op: &HighLevelOp,
    window: usize,
    n_anc_plan: usize,
    want_unfused: bool,
    want_fused: bool,
    want_segmented: bool,
    want_mps: Option<(usize, &[usize])>,
) -> Option<SimCosts> {
    let n = program.n_qubits();
    let n_state = n + n_anc_plan;
    match op {
        HighLevelOp::Gates(c) => Some(circuit_costs(
            model,
            c,
            n_state,
            window,
            want_unfused,
            want_fused,
            want_segmented,
            want_mps,
        )),
        HighLevelOp::Classical(cm) => cm.gate_impl.as_ref().map(|gi| {
            gate_impl_sim_costs(
                model,
                program,
                gi,
                n_anc_plan,
                window,
                want_unfused,
                want_fused,
                want_segmented,
                want_mps,
            )
        }),
        HighLevelOp::Phase(po) => po.gate_impl.as_ref().map(|gi| {
            gate_impl_sim_costs(
                model,
                program,
                gi,
                n_anc_plan,
                window,
                want_unfused,
                want_fused,
                want_segmented,
                want_mps,
            )
        }),
        HighLevelOp::Rotation(ro) => Some(match &ro.gate_impl {
            Some(gi) => gate_impl_sim_costs(
                model,
                program,
                gi,
                n_anc_plan,
                window,
                want_unfused,
                want_fused,
                want_segmented,
                want_mps,
            ),
            None => {
                // The generic per-value expansion is exponential in the
                // control register; cost it analytically instead of
                // materialising it just to reject it (so every gate
                // flavour shares the same analytic estimate).
                let t = model.t_rotation_simulated(n_state, program.register(ro.x).len);
                SimCosts::none_built(Some(t), Some(t), Some(t))
            }
        }),
        HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r) => {
            let bits = program.register(*r).len;
            let costs = circuit_costs(
                model,
                &qft_circuit(bits),
                n_state,
                window,
                want_unfused,
                want_fused,
                want_segmented,
                // QFT entanglement saturates any realistic bond cap and
                // the costed circuit is unremapped anyway — no
                // compressed candidate for register QFTs.
                None,
            );
            // The costed circuit addresses the register's *relative*
            // qubits; execution remaps it onto the program — don't carry
            // the unremapped artifacts.
            Some(SimCosts::none_built(
                costs.unfused,
                costs.fused,
                costs.segmented,
            ))
        }
        HighLevelOp::Qpe(qpe) => {
            // QPE's gate-level path runs through `apply_qpe`, not the
            // fusion engine — one candidate, same cost on every flavour.
            let m = program.register(qpe.target).len;
            let b = program.register(qpe.phase).len;
            let g = qpe.unitary.gate_count().max(1);
            let t = model.t_qpe(n_state, m, g, b, QpeStrategy::GateLevel);
            Some(SimCosts::none_built(Some(t), Some(t), Some(t)))
        }
    }
}

// ---------------------------------------------------------------------------
// Planners: the two legacy fixed-backend lowerings and the hybrid one.
// ---------------------------------------------------------------------------

/// Backend a `config`-driven simulation step uses for raw circuits.
/// A forced MPS policy wins outright (the caller explicitly asked for
/// compressed execution); segmentation is checked next: a blocked
/// segment policy subsumes the fusion policy (the sweeps between blocked
/// segments still fuse under the config's own `FusionPolicy`).
fn sim_backend(config: &SimConfig) -> Backend {
    if let MpsPolicy::Forced { max_bond } = config.mps {
        return Backend::SimulateMps { max_bond };
    }
    if let SegmentPolicy::Blocked { block_bits } = config.segments {
        return Backend::SimulateSegmented { block_bits };
    }
    match config.fusion {
        FusionPolicy::Disabled => Backend::SimulateGateLevel,
        FusionPolicy::Greedy { .. } => Backend::SimulateFused,
    }
}

///// Which gate-path cost flavours a fixed-backend plan must price:
/// `(fused, segmented, mps bond cap)`.
fn backend_wants(backend: Backend) -> (bool, bool, Option<usize>) {
    match backend {
        Backend::SimulateFused => (true, false, None),
        Backend::SimulateSegmented { .. } => (false, true, None),
        Backend::SimulateMps { max_bond } => (false, false, Some(max_bond)),
        _ => (false, false, None),
    }
}

/// Lowers every op onto its emulation shortcut (raw gate runs, which have
/// no shortcut, use the configured gate path) — the
/// [`Emulator`](crate::executor::Emulator)'s fixed plan. `choose_qpe`
/// picks the QPE strategy from `(target_len, phase_len)`.
pub fn plan_emulated(
    program: &QuantumProgram,
    model: &CostModel,
    config: &SimConfig,
    choose_qpe: impl Fn(usize, usize) -> QpeStrategy,
) -> ExecutionPlan {
    let n = program.n_qubits();
    let window = plan_window(config);
    // Fixed plans certify a forced compressed step from |0…0⟩; one that
    // meets an entangled state is caught by the interpreter's audit.
    let product = vec![1; n + 1];
    let steps = program
        .ops()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let (backend, predicted_s, fused_circuit) = match op {
                HighLevelOp::Gates(_) => {
                    let backend = sim_backend(config);
                    let (fused, seg, mps) = backend_wants(backend);
                    let costs = sim_costs(
                        model,
                        program,
                        op,
                        window,
                        0,
                        !fused && !seg && mps.is_none(),
                        fused,
                        seg,
                        mps.map(|cap| (cap, &product[..])),
                    )
                    .expect("raw gates always have a gate path");
                    let cost = costs.for_backend(backend);
                    (backend, cost.unwrap_or(f64::INFINITY), costs.fused_circuit)
                }
                HighLevelOp::Qpe(qpe) => {
                    let m = program.register(qpe.target).len;
                    let b = program.register(qpe.phase).len;
                    let strategy = choose_qpe(m, b);
                    let g = qpe.unitary.gate_count().max(1);
                    (
                        Backend::EmulateQpe { strategy },
                        model.t_qpe(n, m, g, b, strategy),
                        None,
                    )
                }
                _ => {
                    let (backend, cost) = emulate_candidate(model, program, op, n)
                        .expect("every non-gate op has a shortcut");
                    (backend, cost, None)
                }
            };
            PlanStep {
                op_index: i,
                op: op_label(program, op),
                backend,
                predicted_s,
                n_ancilla: 0,
                circuit: None,
                fused: fused_circuit,
            }
        })
        .collect();
    ExecutionPlan::from_steps(program, steps)
}

/// Lowers every op to elementary-gate execution — the
/// [`GateLevelSimulator`](crate::executor::GateLevelSimulator)'s fixed
/// plan. Ops without a gate-level implementation are kept (predicted cost
/// `∞`) and fail at execution with
/// [`EmuError::NoGateImplementation`], matching the legacy executor.
pub fn plan_simulated(
    program: &QuantumProgram,
    model: &CostModel,
    config: &SimConfig,
) -> ExecutionPlan {
    let n_anc_all = program.max_gate_ancillas();
    let backend = sim_backend(config);
    let (fused, seg, mps) = backend_wants(backend);
    let window = plan_window(config);
    let product = vec![1; program.n_qubits() + n_anc_all + 1];
    let steps = program
        .ops()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let costs = sim_costs(
                model,
                program,
                op,
                window,
                n_anc_all,
                !fused && !seg && mps.is_none(),
                fused,
                seg,
                mps.map(|cap| (cap, &product[..])),
            );
            let (cost, n_ancilla, circuit, fused_circuit) = match costs {
                Some(c) => (
                    c.for_backend(backend).unwrap_or(f64::INFINITY),
                    c.n_ancilla,
                    c.circuit,
                    c.fused_circuit,
                ),
                None => (f64::INFINITY, 0, None, None),
            };
            let backend = match op {
                // QPE's gate-level strategy is explicit in the IR.
                HighLevelOp::Qpe(_) => Backend::EmulateQpe {
                    strategy: QpeStrategy::GateLevel,
                },
                _ => backend,
            };
            PlanStep {
                op_index: i,
                op: op_label(program, op),
                backend,
                predicted_s: cost,
                n_ancilla,
                circuit,
                fused: fused_circuit,
            }
        })
        .collect();
    // The legacy simulator reserves head-room for every op up front,
    // whether or not a cheaper plan could avoid it.
    let mut plan = ExecutionPlan::from_steps(program, steps);
    plan.n_ancilla = n_anc_all;
    plan
}

/// Lowers each op onto its cheapest backend under `model` — the
/// [`HybridExecutor`](crate::executor::HybridExecutor)'s plan.
///
/// Backend choices couple through ancilla head-room: once any step
/// simulates an op that needs `a` work qubits, *every* sweep in the run
/// pays `2^{n+a}` entries. The planner resolves the coupling by fixed
/// point: plan with the current head-room, recompute the head-room the
/// chosen steps actually need, re-plan until stable. Choices near a
/// break-even can oscillate with the head-room (an op may simulate at
/// width `n` but emulate at `n+1`), so iteration is capped; if no fixed
/// point is reached, the last plan's choices are committed and its
/// predictions are re-costed at the head-room it will *actually* execute
/// with, keeping the [`PlanReport`] audit consistent.
pub fn plan_hybrid(
    program: &QuantumProgram,
    model: &CostModel,
    config: &SimConfig,
) -> ExecutionPlan {
    let mut n_anc = 0usize;
    for _ in 0..4 {
        let plan = plan_hybrid_once(program, model, config, n_anc);
        if plan.n_ancilla == n_anc {
            return plan;
        }
        n_anc = plan.n_ancilla;
    }
    let mut plan = plan_hybrid_once(program, model, config, n_anc);
    if plan.n_ancilla != n_anc {
        let mut bonds = vec![1; program.n_qubits() + plan.n_ancilla + 1];
        for step in &mut plan.steps {
            let op = &program.ops()[step.op_index];
            step.predicted_s = recost_step(
                model,
                program,
                op,
                step.backend,
                config,
                plan.n_ancilla,
                &mut bonds,
            );
        }
    }
    plan
}

/// Predicted cost of `op` on an already-chosen backend at execution
/// head-room `n_anc_exec` (the unconverged-fixed-point repair path of
/// [`plan_hybrid`]). `bonds` is the bond bound of the state the op
/// receives, advanced past the op on return (see [`advance_bonds`]).
fn recost_step(
    model: &CostModel,
    program: &QuantumProgram,
    op: &HighLevelOp,
    backend: Backend,
    config: &SimConfig,
    n_anc_exec: usize,
    bonds: &mut [usize],
) -> f64 {
    let n_state = program.n_qubits() + n_anc_exec;
    let max_bond = match backend {
        Backend::SimulateMps { max_bond } => Some(max_bond),
        _ => config.mps.max_bond(),
    };
    let sim = sim_costs(
        model,
        program,
        op,
        plan_window(config),
        n_anc_exec,
        backend == Backend::SimulateGateLevel,
        backend == Backend::SimulateFused,
        matches!(backend, Backend::SimulateSegmented { .. }),
        max_bond.map(|cap| (cap, &bonds[..])),
    );
    let cost = match backend {
        Backend::EmulateClassical | Backend::EmulateFft => {
            emulate_candidate(model, program, op, n_state).map(|(_, c)| c)
        }
        Backend::EmulateQpe { strategy } => match op {
            HighLevelOp::Qpe(qpe) => Some(model.t_qpe(
                n_state,
                program.register(qpe.target).len,
                qpe.unitary.gate_count().max(1),
                program.register(qpe.phase).len,
                strategy,
            )),
            _ => None,
        },
        _ => sim.as_ref().and_then(|c| c.for_backend(backend)),
    };
    advance_bonds(
        program,
        op,
        bonds,
        sim.as_ref().and_then(|c| c.bonds_out.as_deref()),
    );
    cost.unwrap_or(f64::INFINITY)
}

/// Advances the bond bound `bonds` (one entry per cut of the plan's
/// `n + n_anc`-qubit state) past `op`. An op whose gate-level circuit
/// was walked takes that walk's outgoing bound — valid whichever backend
/// runs the op, since every backend produces the same state. Any other
/// op is an arbitrary unitary on the qubits it touches and saturates
/// every cut inside their span. Between ops the ancilla head-room is
/// |0…0⟩ again, so the cuts at and above the program width are product
/// and the rest are capped by the program's own physical bound.
fn advance_bonds(
    program: &QuantumProgram,
    op: &HighLevelOp,
    bonds: &mut [usize],
    walked: Option<&[usize]>,
) {
    let n = program.n_qubits();
    match walked {
        Some(out) => {
            let len = bonds.len();
            bonds.copy_from_slice(&out[..len]);
        }
        None => {
            let reg = |r: &RegisterId| program.register(*r);
            let regs: Vec<&ProgramRegister> = match op {
                // Only reached when MPS planning is off: no walk was run.
                HighLevelOp::Gates(_) => program.registers().iter().collect(),
                HighLevelOp::Classical(cm) => cm.regs.iter().map(reg).collect(),
                HighLevelOp::Phase(po) => po.regs.iter().map(reg).collect(),
                HighLevelOp::Rotation(ro) => vec![reg(&ro.x), reg(&ro.target)],
                HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r) => vec![reg(r)],
                HighLevelOp::Qpe(qpe) => vec![reg(&qpe.target), reg(&qpe.phase)],
            };
            let span = regs.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                (lo.min(r.offset), hi.max(r.offset + r.len - 1))
            });
            if span.0 <= span.1 {
                saturate_bonds(bonds, span.0, span.1);
            }
        }
    }
    for (j, b) in bonds.iter_mut().enumerate() {
        *b = if j >= n {
            1
        } else {
            (*b).min(max_schmidt_rank(n, j))
        };
    }
}

fn plan_hybrid_once(
    program: &QuantumProgram,
    model: &CostModel,
    config: &SimConfig,
    n_anc_plan: usize,
) -> ExecutionPlan {
    let n_state = program.n_qubits() + n_anc_plan;
    let window = plan_window(config);
    // Bond bound of the state each op receives: |0…0⟩ before op 0, then
    // carried through the ops in program order.
    let mut bonds = vec![1; n_state + 1];
    let steps = program
        .ops()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mut candidates: Vec<(Backend, f64, usize)> = Vec::with_capacity(5);
            if let Some((backend, cost)) = emulate_candidate(model, program, op, n_state) {
                candidates.push((backend, cost, 0));
            }
            // A compressed candidate is priced under the config's policy
            // cap (`Auto` by default) — `circuit_costs` only surfaces it
            // when the χ-growth estimate certifies an exact run from the
            // state this op receives.
            let sim = sim_costs(
                model,
                program,
                op,
                window,
                n_anc_plan,
                true,
                true,
                true,
                config.mps.max_bond().map(|cap| (cap, &bonds[..])),
            );
            advance_bonds(
                program,
                op,
                &mut bonds,
                sim.as_ref().and_then(|c| c.bonds_out.as_deref()),
            );
            if let Some(costs) = &sim {
                if let Some(cost) = costs.fused {
                    candidates.push((Backend::SimulateFused, cost, costs.n_ancilla));
                }
                if let Some(cost) = costs.unfused {
                    candidates.push((Backend::SimulateGateLevel, cost, costs.n_ancilla));
                }
                if let Some(cost) = costs.segmented {
                    candidates.push((
                        Backend::SimulateSegmented {
                            block_bits: model.block_bits,
                        },
                        cost,
                        costs.n_ancilla,
                    ));
                }
                if let Some((max_bond, cost)) = costs.mps {
                    candidates.push((Backend::SimulateMps { max_bond }, cost, costs.n_ancilla));
                }
            }
            let (backend, predicted_s, n_ancilla) = candidates
                .into_iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("every op has at least one backend");
            // Only a simulated winner gets the costing's built artifacts.
            let (circuit, fused_circuit) = match (backend.is_simulate(), sim) {
                (true, Some(costs)) => (costs.circuit, costs.fused_circuit),
                _ => (None, None),
            };
            // QPE always runs through `apply_qpe`; express the simulated
            // winner as the explicit gate-level strategy.
            let backend = if matches!(op, HighLevelOp::Qpe(_)) && backend.is_simulate() {
                Backend::EmulateQpe {
                    strategy: QpeStrategy::GateLevel,
                }
            } else {
                backend
            };
            PlanStep {
                op_index: i,
                op: op_label(program, op),
                backend,
                predicted_s,
                n_ancilla,
                circuit,
                fused: fused_circuit,
            }
        })
        .collect();
    ExecutionPlan::from_steps(program, steps)
}

// ---------------------------------------------------------------------------
// The one interpreter.
// ---------------------------------------------------------------------------

/// Executes [`ExecutionPlan`]s: the single interpreter loop behind all
/// three executors. Holds the knobs that are properties of the *runner*
/// rather than the plan: the gate-level [`SimConfig`] and whether
/// circuits are first decomposed to one- and two-qubit gates.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanInterpreter {
    /// Gate-level execution configuration (fusion policy) for
    /// [`Backend::SimulateFused`] steps.
    pub config: SimConfig,
    /// Decompose circuits into elementary one-/two-qubit gates before
    /// applying them (the paper-faithful cost model of Figs. 1–2).
    pub elementary: bool,
}

impl PlanInterpreter {
    /// Interpreter with a gate-level configuration.
    pub fn new(config: SimConfig) -> PlanInterpreter {
        PlanInterpreter {
            config,
            elementary: false,
        }
    }

    /// Runs `plan` over `program` from `initial`, returning the final
    /// state and the per-step audit report.
    pub fn execute(
        &self,
        program: &QuantumProgram,
        plan: &ExecutionPlan,
        initial: StateVector,
    ) -> Result<(StateVector, PlanReport), EmuError> {
        if initial.n_qubits() != program.n_qubits() {
            return Err(EmuError::DimensionMismatch {
                expected: program.n_qubits(),
                got: initial.n_qubits(),
            });
        }
        // A plan is only valid for the exact program instance it was
        // lowered from (clones included): it indexes the op list and may
        // carry circuits built from the program's closures, so even a
        // structurally identical rebuild must be re-planned.
        if plan.program_id != program.instance_id() {
            return Err(EmuError::PlanMismatch {
                reason: format!(
                    "plan was lowered from program instance {}, got {}",
                    plan.program_id,
                    program.instance_id()
                ),
            });
        }
        let n = program.n_qubits();
        let mut state = extend_with_ancillas(initial, plan.n_ancilla);
        let mut steps = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let op = &program.ops()[step.op_index];
            let t0 = Instant::now();
            self.execute_step(&mut state, program, op, step)?;
            steps.push(StepReport {
                op: step.op.clone(),
                backend: step.backend,
                predicted_s: step.predicted_s,
                measured_s: t0.elapsed().as_secs_f64(),
            });
        }
        let state = truncate_ancillas(state, n)?;
        Ok((state, PlanReport { steps }))
    }

    /// `SimConfig` a simulation step runs under: `SimulateFused` uses the
    /// interpreter's own fused config (or the default window if the
    /// interpreter is unfused); `SimulateSegmented` runs
    /// [`SimConfig::segmented`] at the block size the step was priced
    /// with; `SimulateGateLevel` is always unfused. `SimulateMps` maps to
    /// the default fused config — the *dense* configuration of its
    /// fallback path, and what backend-agnostic drivers (the batch
    /// executor) run such a step with when they cannot go compressed.
    pub(crate) fn step_config(&self, backend: Backend) -> SimConfig {
        match backend {
            Backend::SimulateFused => match self.config.fusion {
                FusionPolicy::Greedy { .. } => self.config,
                FusionPolicy::Disabled => SimConfig::fused(DEFAULT_MAX_FUSED_QUBITS),
            },
            Backend::SimulateSegmented { block_bits } => SimConfig {
                segments: SegmentPolicy::Blocked { block_bits },
                ..SimConfig::segmented()
            },
            Backend::SimulateMps { .. } => SimConfig::fused(DEFAULT_MAX_FUSED_QUBITS),
            Backend::SimulateGateLevel => SimConfig::unfused(),
            // Raw-gate steps on an emulated plan inherit the config.
            _ => self.config,
        }
    }

    fn lower<'c>(&self, c: &'c Circuit) -> std::borrow::Cow<'c, Circuit> {
        if self.elementary {
            std::borrow::Cow::Owned(qcemu_sim::decompose_circuit(c))
        } else {
            std::borrow::Cow::Borrowed(c)
        }
    }

    fn run_circuit(&self, state: &mut StateVector, c: &Circuit, backend: Backend) {
        state.run(&self.lower(c), &self.step_config(backend));
    }

    /// Attempts compressed execution of a [`Backend::SimulateMps`] step.
    /// Returns `false` (leaving `state` untouched) when the step is not
    /// an MPS step *or* when the import or the run truncated: the planner
    /// only routes here when the χ-growth estimate certified an exact
    /// run, so a non-zero truncation error means the estimate was wrong
    /// for this incoming state — the caller then re-runs dense. An import
    /// that already truncates is rejected before the circuit runs, so a
    /// misprediction costs at most the wasted compressed attempt, never
    /// correctness.
    fn try_mps(&self, state: &mut StateVector, c: &Circuit, backend: Backend) -> bool {
        let Backend::SimulateMps { max_bond } = backend else {
            return false;
        };
        let mut mps = MpsState::from_statevector(state, max_bond);
        if mps.truncation_error() > MPS_EXACT_TOL {
            return false;
        }
        mps.run(&self.lower(c));
        if mps.truncation_error() > MPS_EXACT_TOL {
            return false;
        }
        *state = mps.to_statevector();
        true
    }

    /// Applies the fused block stream the planner priced, if the step
    /// carries one and this interpreter can use it (fused backend, no
    /// elementary lowering). Returns `true` when the step was handled.
    fn try_cached_fused(&self, state: &mut StateVector, step: &PlanStep) -> bool {
        if !self.elementary && step.backend == Backend::SimulateFused {
            if let Some(fused) = &step.fused {
                state.apply_fused_circuit(fused);
                return true;
            }
        }
        false
    }

    /// Runs a simulation step, reusing the artifacts the planner built
    /// during costing: the fused block stream (applied directly — fusion
    /// is semantics-preserving, so a cached stream is always
    /// state-correct), or the deferred-build circuit, falling back to
    /// `build` when the plan carries neither. Elementary lowering always
    /// goes through the raw circuit.
    fn run_sim_step(
        &self,
        state: &mut StateVector,
        step: &PlanStep,
        build: impl FnOnce() -> Circuit,
    ) {
        if self.try_cached_fused(state, step) {
            return;
        }
        let built;
        let c = match &step.circuit {
            Some(c) => c,
            None => {
                built = build();
                &built
            }
        };
        if !self.try_mps(state, c, step.backend) {
            self.run_circuit(state, c, step.backend);
        }
    }

    pub(crate) fn execute_step(
        &self,
        state: &mut StateVector,
        program: &QuantumProgram,
        op: &HighLevelOp,
        step: &PlanStep,
    ) -> Result<(), EmuError> {
        let simulate = step.backend.is_simulate();
        match op {
            HighLevelOp::Gates(c) => {
                if !self.try_cached_fused(state, step) && !self.try_mps(state, c, step.backend) {
                    self.run_circuit(state, c, step.backend);
                }
            }
            HighLevelOp::Classical(cm) => {
                if simulate {
                    let gi =
                        cm.gate_impl
                            .as_ref()
                            .ok_or_else(|| EmuError::NoGateImplementation {
                                op: cm.name.clone(),
                            })?;
                    self.run_sim_step(state, step, || (gi.build)(program));
                } else {
                    apply_classical_map(state, program, cm)?;
                }
            }
            HighLevelOp::Phase(po) => {
                if simulate {
                    let gi =
                        po.gate_impl
                            .as_ref()
                            .ok_or_else(|| EmuError::NoGateImplementation {
                                op: po.name.clone(),
                            })?;
                    self.run_sim_step(state, step, || (gi.build)(program));
                } else {
                    apply_phase_oracle(state, program, po);
                }
            }
            HighLevelOp::Rotation(ro) => {
                if simulate {
                    self.run_sim_step(state, step, || match &ro.gate_impl {
                        Some(gi) => (gi.build)(program),
                        None => rotation_expansion_circuit(program, ro),
                    });
                } else {
                    crate::classical::apply_controlled_rotation(state, program, ro);
                }
            }
            HighLevelOp::Qft(r) => {
                let bits = program.register(*r).bits();
                if simulate {
                    let c = qft_circuit(bits.len()).remap_qubits(state.n_qubits(), |q| bits[q]);
                    self.run_circuit(state, &c, step.backend);
                } else {
                    let n_state = state.n_qubits();
                    qft_subspace(state.amplitudes_mut(), n_state, &bits);
                }
            }
            HighLevelOp::InverseQft(r) => {
                let bits = program.register(*r).bits();
                if simulate {
                    let c =
                        inverse_qft_circuit(bits.len()).remap_qubits(state.n_qubits(), |q| bits[q]);
                    self.run_circuit(state, &c, step.backend);
                } else {
                    let n_state = state.n_qubits();
                    inverse_qft_subspace(state.amplitudes_mut(), n_state, &bits);
                }
            }
            HighLevelOp::Qpe(qpe) => {
                let strategy = match step.backend {
                    Backend::EmulateQpe { strategy } => strategy,
                    _ => QpeStrategy::GateLevel,
                };
                let target_bits = program.register(qpe.target).bits();
                let phase_bits = program.register(qpe.phase).bits();
                apply_qpe(state, qpe, &target_bits, &phase_bits, strategy)?;
            }
        }
        Ok(())
    }
}

/// Builds the generic per-value expansion of a register-controlled
/// rotation: for each x value, X-conjugate the zero bits and apply a
/// multi-controlled Ry — the exponential network the emulator avoids.
pub(crate) fn rotation_expansion_circuit(program: &QuantumProgram, ro: &RotationOp) -> Circuit {
    let x = program.register(ro.x);
    let target = program.register(ro.target).offset;
    let bits = x.bits();
    let mut c = Circuit::new(program.n_qubits());
    for value in 0..(1u64 << x.len) {
        let theta = (ro.angle)(value);
        if theta.abs() < 1e-15 {
            continue;
        }
        for (j, &q) in bits.iter().enumerate() {
            if (value >> j) & 1 == 0 {
                c.push(Gate::x(q));
            }
        }
        c.push(Gate::Unary {
            op: GateOp::Ry(theta),
            target,
            controls: bits.clone(),
        });
        for (j, &q) in bits.iter().enumerate().rev() {
            if (value >> j) & 1 == 0 {
                c.push(Gate::x(q));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::stdops;

    fn model() -> CostModel {
        CostModel::default()
    }

    /// Mixed program: superposed multiply, a raw gate run, a QFT.
    fn mixed_program(m: usize) -> QuantumProgram {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        let c = pb.register("c", m);
        pb.hadamard_all(a);
        pb.set_constant(b, 3);
        pb.classical(stdops::multiply(a, b, c, m));
        pb.qft(c);
        pb.build().unwrap()
    }

    #[test]
    fn emulated_plan_uses_shortcuts_everywhere() {
        let prog = mixed_program(3);
        let plan = plan_emulated(&prog, &model(), &SimConfig::unfused(), |_, _| {
            QpeStrategy::RepeatedSquaring
        });
        assert_eq!(plan.steps().len(), prog.ops().len());
        assert_eq!(plan.n_ancilla(), 0);
        assert_eq!(plan.steps()[2].backend, Backend::EmulateClassical);
        assert_eq!(plan.steps()[3].backend, Backend::EmulateFft);
        // Raw gate preludes stay on the gate path.
        assert!(plan.steps()[0].backend.is_simulate());
    }

    #[test]
    fn simulated_plan_reserves_ancillas_and_uses_gates() {
        let prog = mixed_program(3);
        let plan = plan_simulated(&prog, &model(), &SimConfig::unfused());
        assert_eq!(plan.n_ancilla(), 1); // multiplier ancilla
        assert!(plan.steps().iter().all(|s| s.backend.is_simulate()));
        let fused = plan_simulated(&prog, &model(), &SimConfig::fused(4));
        assert!(fused
            .steps()
            .iter()
            .all(|s| s.backend == Backend::SimulateFused));
    }

    #[test]
    fn hybrid_plan_dispatches_per_op() {
        let prog = mixed_program(3);
        let plan = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        // The classical map always beats its Toffoli network.
        assert_eq!(plan.steps()[2].backend, Backend::EmulateClassical);
        // Raw gates have no shortcut.
        assert!(plan.steps()[0].backend.is_simulate());
        // Costs are finite and the report machinery sums them.
        assert!(plan.total_predicted_s().is_finite());
    }

    #[test]
    fn hybrid_avoids_ancilla_headroom_when_emulation_wins() {
        // The only ancilla-bearing op is the multiply; the hybrid plan
        // emulates it, so no head-room is reserved and the whole run
        // stays in the 2^n program space.
        let prog = mixed_program(3);
        let plan = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        assert_eq!(plan.n_ancilla(), 0);
    }

    #[test]
    fn hybrid_prefers_fft_for_wide_qft_and_gates_for_narrow() {
        let mut pb = ProgramBuilder::new();
        let wide = pb.register("wide", 16);
        pb.qft(wide);
        let prog = pb.build().unwrap();
        let plan = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        assert_eq!(
            plan.steps()[0].backend,
            Backend::EmulateFft,
            "16 FFT passes beat ~16²/2 gate sweeps"
        );

        let mut pb = ProgramBuilder::new();
        let narrow = pb.register("narrow", 2);
        let _pad = pb.register("pad", 14);
        pb.qft(narrow);
        let prog = pb.build().unwrap();
        let plan = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        assert!(
            plan.steps()[0].backend.is_simulate(),
            "a 2-bit QFT is 3 gates — cheaper than 2 full FFT passes, got {}",
            plan.steps()[0].backend
        );
    }

    #[test]
    fn hybrid_routes_cache_resident_qft_gates_to_segments() {
        // PR 5's ablation found greedy fusion *losing* on cache-resident
        // QFTs; the segmented tier wins that regime by replaying every
        // compatible gate against resident blocks. A raw QFT gate run
        // (no FFT shortcut available for raw gates) must now lower to
        // the segment executor, and its predicted cost must not regress
        // against plain unfused sweeps.
        let n = 16;
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(|c| c.extend(&qft_circuit(n)));
        let prog = pb.build().unwrap();
        let m = model();
        let plan = plan_hybrid(&prog, &m, &SimConfig::fused(4));
        assert!(
            matches!(plan.steps()[0].backend, Backend::SimulateSegmented { .. }),
            "cache-resident QFT must pick the segment tier, got {}",
            plan.steps()[0].backend
        );
        let unfused = m.t_gates(
            qft_circuit(n).touched_entries(n),
            qft_circuit(n).gate_count(),
        );
        assert!(
            plan.steps()[0].predicted_s <= unfused,
            "segmented {} must not regress vs unfused {}",
            plan.steps()[0].predicted_s,
            unfused
        );

        // And the interpreter actually runs the segmented plan to the
        // same state the unfused path produces.
        let initial = StateVector::uniform_superposition(n);
        let (seg_state, report) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        let mut reference = initial;
        reference.run(&qft_circuit(n), &SimConfig::unfused());
        assert!(seg_state.max_diff_up_to_phase(&reference) < 1e-10);
        assert!(matches!(
            report.steps[0].backend,
            Backend::SimulateSegmented { .. }
        ));
    }

    #[test]
    fn segmented_config_drives_fixed_plans() {
        // A segment-policy interpreter config flips every raw-gate step
        // of the fixed plans onto the segment backend.
        let prog = mixed_program(3);
        let plan = plan_simulated(&prog, &model(), &SimConfig::segmented());
        assert!(matches!(
            plan.steps()[0].backend,
            Backend::SimulateSegmented { .. }
        ));
        assert!(plan.steps()[0].predicted_s.is_finite());
        let emu = plan_emulated(&prog, &model(), &SimConfig::segmented(), |_, _| {
            QpeStrategy::RepeatedSquaring
        });
        assert!(matches!(
            emu.steps()[0].backend,
            Backend::SimulateSegmented { .. }
        ));
    }

    /// Deep, low-entanglement raw gate run: one CNOT chain (χ = 2) under
    /// many single-qubit layers. Dense backends pay Θ(depth·2ⁿ); the
    /// compressed backend pays O(depth·χ³) plus one 2ⁿ boundary
    /// densification, so at this depth it must win the hybrid auction.
    /// A deep χ = 2 gate run on every qubit: a GHZ-style CNOT chain
    /// followed by `layers` single-qubit rotation layers.
    fn push_low_entanglement_chain(pb: &mut ProgramBuilder, n: usize, layers: usize) {
        pb.gates(move |c| {
            c.h(0);
            for q in 0..n - 1 {
                c.cnot(q, q + 1);
            }
            for layer in 0..layers {
                for q in 0..n {
                    if layer % 2 == 0 {
                        c.rz(q, 0.11 + 0.01 * (layer + q) as f64);
                    } else {
                        c.rx(q, 0.07 + 0.01 * (layer + q) as f64);
                    }
                }
            }
        });
    }

    fn low_entanglement_program(n: usize, layers: usize) -> QuantumProgram {
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        push_low_entanglement_chain(&mut pb, n, layers);
        pb.build().unwrap()
    }

    /// Executes `plan` and the emulated plan of `prog` from |0…0⟩ and
    /// returns the hybrid report after checking the states agree.
    fn assert_executes_like_emulator(prog: &QuantumProgram, plan: &ExecutionPlan) -> PlanReport {
        let initial = StateVector::zero_state(prog.n_qubits());
        let emu_plan = plan_emulated(prog, &model(), &SimConfig::unfused(), |_, _| {
            QpeStrategy::RepeatedSquaring
        });
        let interp = PlanInterpreter::default();
        let (emu, _) = interp.execute(prog, &emu_plan, initial.clone()).unwrap();
        let (got, report) = interp.execute(prog, plan, initial).unwrap();
        let diff = emu.max_diff_up_to_phase(&got);
        assert!(
            diff <= 1e-10,
            "plan deviates from the emulator by {diff:.3e}"
        );
        report
    }

    #[test]
    fn hybrid_routes_deep_low_entanglement_gates_to_mps_and_executes_exactly() {
        let n = 14;
        let prog = low_entanglement_program(n, 80);
        let m = model();
        let plan = plan_hybrid(&prog, &m, &SimConfig::fused(4));
        assert!(
            matches!(plan.steps()[0].backend, Backend::SimulateMps { .. }),
            "deep χ=2 chain must pick the compressed tier, got {}",
            plan.steps()[0].backend
        );
        // The hybrid choice must not be slower than either fixed dense plan.
        for fixed in [
            plan_simulated(&prog, &m, &SimConfig::fused(4)),
            plan_simulated(&prog, &m, &SimConfig::segmented()),
            plan_simulated(&prog, &m, &SimConfig::unfused()),
        ] {
            assert!(
                plan.steps()[0].predicted_s <= fixed.steps()[0].predicted_s,
                "hybrid {} slower than fixed {} ({})",
                plan.steps()[0].predicted_s,
                fixed.steps()[0].backend,
                fixed.steps()[0].predicted_s
            );
        }

        // And the compressed execution reproduces the dense state exactly.
        let initial = StateVector::zero_state(n);
        let (mps_state, report) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        assert!(matches!(
            report.steps[0].backend,
            Backend::SimulateMps { .. }
        ));
        let reference_plan = plan_simulated(&prog, &m, &SimConfig::unfused());
        let (dense_state, _) = PlanInterpreter::default()
            .execute(&prog, &reference_plan, initial)
            .unwrap();
        assert!(mps_state.max_diff_up_to_phase(&dense_state) < 1e-10);
    }

    #[test]
    fn deep_chain_as_op_zero_keeps_its_product_state_price() {
        // Op 0 receives |0…0⟩: the carried bound is the product profile,
        // so routing and cost are those of a standalone product-state
        // certificate — two boundary passes plus the χ-law work.
        let n = 14;
        let prog = low_entanglement_program(n, 80);
        let m = model();
        let plan = plan_hybrid(&prog, &m, &SimConfig::fused(4));
        assert_eq!(
            plan.steps()[0].backend,
            Backend::SimulateMps {
                max_bond: qcemu_sim::DEFAULT_MAX_BOND
            }
        );
        let HighLevelOp::Gates(chain) = &prog.ops()[0] else {
            panic!("op 0 is the gate run");
        };
        let est = estimate_mps_cost(chain, &vec![1; n + 1], qcemu_sim::DEFAULT_MAX_BOND);
        let want = est.units / m.mps_rate + 2.0 * (1u64 << n) as f64 / m.entry_rate;
        let got = plan.steps()[0].predicted_s;
        assert!((got / want - 1.0).abs() < 1e-12, "cost {got} != {want}");
    }

    #[test]
    fn product_preserving_prefix_keeps_the_chain_on_mps() {
        let n = 14;
        let mut pb = ProgramBuilder::new();
        let r = pb.register("r", n);
        pb.hadamard_all(r);
        push_low_entanglement_chain(&mut pb, n, 80);
        let prog = pb.build().unwrap();
        let plan = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        assert!(
            matches!(plan.steps()[1].backend, Backend::SimulateMps { .. }),
            "a Hadamard layer leaves a product state; got {}",
            plan.steps()[1].backend
        );
        let report = assert_executes_like_emulator(&prog, &plan);
        assert!(matches!(
            report.steps[1].backend,
            Backend::SimulateMps { .. }
        ));
    }

    #[test]
    fn entangling_op_withholds_mps_from_the_ops_after_it() {
        // Shor-shaped: superposed x, constant y, z = x·y, a chain run on
        // every qubit and an oracle on z. Priced from a product input the
        // chain certifies at χ ≤ 8 and wins; from the state the multiply
        // actually leaves (χ up to 2^5 across the middle cuts) it would
        // truncate under χ ≤ 64, and the oracle then receives a state
        // whose import alone would.
        let m = 5;
        let n = 3 * m;
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", m);
        let y = pb.register("y", m);
        let z = pb.register("z", m);
        pb.hadamard_all(x);
        pb.set_constant(y, 11);
        pb.classical(stdops::multiply(x, y, z, m));
        pb.gates(move |c| {
            for round in 0..3 {
                for q in 0..n - 1 {
                    c.push(Gate::h(q));
                    c.push(Gate::cnot(q, q + 1));
                    c.push(Gate::phase(q + 1, 0.3 + 0.11 * round as f64));
                }
            }
        });
        pb.phase_oracle(stdops::mark_value(z, 7, std::f64::consts::PI));
        let prog = pb.build().unwrap();

        let plan = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        for step in &plan.steps()[3..] {
            assert!(
                !matches!(step.backend, Backend::SimulateMps { .. }),
                "{} after the multiply was routed to {}",
                step.op,
                step.backend
            );
        }
        assert_executes_like_emulator(&prog, &plan);
    }

    #[test]
    fn forced_mps_config_drives_fixed_plans() {
        // A forced MPS policy flips every raw-gate step of the fixed
        // plans onto the compressed backend, carrying the configured cap.
        let prog = low_entanglement_program(8, 4);
        let plan = plan_simulated(&prog, &model(), &SimConfig::mps(32));
        assert!(matches!(
            plan.steps()[0].backend,
            Backend::SimulateMps { max_bond: 32 }
        ));
        assert!(plan.steps()[0].predicted_s.is_finite());
        let initial = StateVector::zero_state(8);
        let (state, _) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        let reference_plan = plan_simulated(&prog, &model(), &SimConfig::unfused());
        let (dense_state, _) = PlanInterpreter::default()
            .execute(&prog, &reference_plan, initial)
            .unwrap();
        assert!(state.max_diff_up_to_phase(&dense_state) < 1e-10);
    }

    #[test]
    fn forced_mps_on_entangling_circuit_falls_back_dense_correct() {
        // χ = 2 cannot hold a QFT: the χ-growth estimate is inexact, so
        // the step prices to ∞, and at execution time the truncation
        // audit rejects the compressed attempt — the interpreter must
        // re-run dense from the untouched input state, bit-exact.
        let n = 6;
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(move |c| c.extend(&qft_circuit(n)));
        let prog = pb.build().unwrap();
        let plan = plan_simulated(&prog, &model(), &SimConfig::mps(2));
        assert!(matches!(
            plan.steps()[0].backend,
            Backend::SimulateMps { max_bond: 2 }
        ));
        assert!(
            plan.steps()[0].predicted_s.is_infinite(),
            "an uncertified compressed path must never price as viable"
        );
        let initial = StateVector::uniform_superposition(n);
        let (state, _) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        let mut reference = initial;
        reference.run(&qft_circuit(n), &SimConfig::unfused());
        assert!(state.max_diff_up_to_phase(&reference) < 1e-10);
    }

    #[test]
    fn forced_mps_on_an_entangled_input_falls_back_before_running() {
        // Two Bell pairs across the middle cut give the input χ = 4 there,
        // so a χ = 2 import already truncates: the step must go dense
        // (without attempting the circuit) and stay exact.
        let n = 6;
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(|c| c.push(Gate::ry(4, 0.3)));
        let prog = pb.build().unwrap();
        let plan = plan_simulated(&prog, &model(), &SimConfig::mps(2));
        let mut initial = StateVector::zero_state(n);
        for (a, b) in [(1, 4), (2, 3)] {
            initial.apply(&Gate::h(a));
            initial.apply(&Gate::cnot(a, b));
        }
        assert!(MpsState::from_statevector(&initial, 2).truncation_error() > MPS_EXACT_TOL);
        let (state, _) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        let mut reference = initial;
        reference.apply(&Gate::ry(4, 0.3));
        assert!(state.max_diff_up_to_phase(&reference) < 1e-12);
    }

    #[test]
    fn emulation_only_ops_plan_to_emulation_with_infinite_sim_cost() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 3);
        pb.classical(stdops::apply_classical_fn("xor3", vec![a], |v| v[0] ^= 3));
        let prog = pb.build().unwrap();
        let hybrid = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        assert_eq!(hybrid.steps()[0].backend, Backend::EmulateClassical);
        let sim = plan_simulated(&prog, &model(), &SimConfig::unfused());
        assert!(sim.steps()[0].predicted_s.is_infinite());
    }

    #[test]
    fn interpreter_matches_legacy_paths_on_mixed_program() {
        let prog = mixed_program(2);
        let initial = StateVector::zero_state(prog.n_qubits());
        let m = model();
        let emu_plan = plan_emulated(&prog, &m, &SimConfig::unfused(), |t, p| {
            if p > 2 * t {
                QpeStrategy::Eigendecomposition
            } else {
                QpeStrategy::RepeatedSquaring
            }
        });
        let sim_plan = plan_simulated(&prog, &m, &SimConfig::unfused());
        let hyb_plan = plan_hybrid(&prog, &m, &SimConfig::fused(4));
        let interp = PlanInterpreter::default();
        let (emu, _) = interp.execute(&prog, &emu_plan, initial.clone()).unwrap();
        let (sim, _) = interp.execute(&prog, &sim_plan, initial.clone()).unwrap();
        let (hyb, report) = interp.execute(&prog, &hyb_plan, initial).unwrap();
        assert!(emu.max_diff_up_to_phase(&sim) < 1e-10);
        assert!(emu.max_diff_up_to_phase(&hyb) < 1e-10);
        assert_eq!(report.steps.len(), prog.ops().len());
        assert!(report.total_measured_s() > 0.0);
        // The report renders.
        let table = report.to_string();
        assert!(table.contains("backend"), "{table}");
    }

    #[test]
    fn ancilla_helpers_roundtrip_and_catch_leaks() {
        let sv = StateVector::basis_state(2, 0b10);
        let extended = extend_with_ancillas(sv.clone(), 2);
        assert_eq!(extended.n_qubits(), 4);
        assert_eq!(extended.probability(0b10), 1.0);
        let back = truncate_ancillas(extended, 2).unwrap();
        assert!(back.max_diff_up_to_phase(&sv) < 1e-15);

        // A state with weight on an ancilla must be rejected.
        let dirty = StateVector::basis_state(3, 0b100);
        assert!(matches!(
            truncate_ancillas(dirty, 2),
            Err(EmuError::AncillaNotClean { .. })
        ));
    }

    #[test]
    fn mismatched_plan_and_program_are_rejected() {
        let prog_a = mixed_program(2);
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", prog_a.n_qubits());
        pb.qft(a);
        let prog_b = pb.build().unwrap();
        let plan = plan_hybrid(&prog_a, &model(), &SimConfig::fused(4));
        let err = PlanInterpreter::default()
            .execute(&prog_b, &plan, StateVector::zero_state(prog_b.n_qubits()))
            .unwrap_err();
        assert!(matches!(err, EmuError::PlanMismatch { .. }), "{err}");
    }

    #[test]
    fn plan_display_lists_every_step() {
        let prog = mixed_program(2);
        let plan = plan_hybrid(&prog, &model(), &SimConfig::fused(4));
        let rendered = plan.to_string();
        for step in plan.steps() {
            assert!(rendered.contains(&step.op), "missing {}", step.op);
        }
    }
}
