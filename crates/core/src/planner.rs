//! Cost-model-driven execution planning: one plan IR, one planner, one
//! interpreter.
//!
//! The paper's central tension (§3.3, §4.4, Table 2) is that *neither*
//! backend wins everywhere: emulation shortcuts win asymptotically, while
//! gate-level simulation wins at small operator sizes and on raw gate
//! runs. This module makes the choice explicit, per-op, and auditable:
//!
//! 1. [`plan`] **lowers** every [`HighLevelOp`] to a [`PlanStep`] naming
//!    a [`Backend`] plus a predicted cost from the generalized
//!    [`CostModel`] (which extends the Table 2 QPE crossover analysis to
//!    classical maps, QFTs, rotations, and raw gate runs via the
//!    memory-traffic estimators `Circuit::touched_entries` /
//!    `FusedCircuit::touched_entries`). Each op takes the cheapest of its
//!    [`Candidates`]: the [`HybridExecutor`](crate::executor::HybridExecutor)
//!    offers every backend, while the
//!    [`Emulator`](crate::executor::Emulator) and
//!    [`GateLevelSimulator`](crate::executor::GateLevelSimulator) are
//!    one-member sets;
//! 2. a single [`PlanInterpreter`] executes any plan;
//! 3. execution emits a [`PlanReport`] with per-op backend, predicted and
//!    measured cost, so every dispatch decision can be audited against
//!    the clock (see the `hybrid_ablation` bench).

use crate::classical::{apply_classical_map, apply_phase_oracle};
use crate::crossover::CostModel;
use crate::error::EmuError;
use crate::program::{
    GateImpl, HighLevelOp, ProgramRegister, QpeOp, QuantumProgram, RegisterId, RotationOp,
};
use crate::qpe::{apply_qpe, QpeStrategy};
use qcemu_fft::{inverse_qft_subspace, qft_subspace};
use qcemu_linalg::C64;
use qcemu_sim::circuits::qft::{inverse_qft_circuit, qft_circuit};
use qcemu_sim::{
    estimate_mps_cost, max_schmidt_rank, saturate_bonds, segment_circuit, Circuit, FusedCircuit,
    FusionPolicy, Gate, GateOp, MpsPolicy, SegmentPolicy, SimConfig, StateVector,
    DEFAULT_MAX_FUSED_QUBITS,
};
use std::borrow::Cow;
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
    /// Deferred-build circuit (classical/phase/rotation gate impls) of a
    /// simulated step, materialised during costing — carried so
    /// execution does not rebuild it.
    pub(crate) circuit: Option<Circuit>,
    /// Fused block stream of a [`Backend::SimulateFused`] step, priced by
    /// the cost model — reused directly by fused execution (fusion is
    /// semantics-preserving at any window, so a cached stream is always
    /// state-correct).
    pub(crate) fused: Option<FusedCircuit>,
}

impl PlanStep {
    /// This step without the artifacts costing built from the planning
    /// instance's closures: running it re-derives them from the program
    /// it runs on.
    pub(crate) fn stripped(&self) -> PlanStep {
        PlanStep {
            op: self.op.clone(),
            circuit: None,
            fused: None,
            ..*self
        }
    }
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
    /// structure-keyed
    /// [`HybridExecutor::run_structural`](crate::executor::HybridExecutor::run_structural)
    /// runs another instance's plan, re-deriving the closure-built
    /// artifacts it carries.
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
// Lowering: one candidate-set pass.
// ---------------------------------------------------------------------------

/// The backends each op of a [`plan`] may take. The plan gives every op
/// the cheapest of its priced candidates, the first one winning ties, so
/// a fixed plan is simply a one-member set.
#[derive(Clone, Copy)]
pub enum Candidates<'a> {
    /// Every backend the op has: the
    /// [`HybridExecutor`](crate::executor::HybridExecutor)'s plan.
    All,
    /// The op's emulation shortcut: the
    /// [`Emulator`](crate::executor::Emulator)'s plan. Raw gate runs,
    /// which have none, take the config's gate backend; QPE takes the
    /// strategy the function picks from `(target_len, phase_len)`.
    Emulated(&'a dyn Fn(usize, usize) -> QpeStrategy),
    /// The config's gate backend for every op, QPE as
    /// [`QpeStrategy::GateLevel`]: the
    /// [`GateLevelSimulator`](crate::executor::GateLevelSimulator)'s plan.
    /// An op without a gate-level implementation keeps that backend at
    /// cost `∞` and fails at execution with
    /// [`EmuError::NoGateImplementation`].
    Simulated,
}

impl Candidates<'_> {
    /// The backends `op` may take, in tie-break order.
    fn offers(
        &self,
        program: &QuantumProgram,
        model: &CostModel,
        config: &SimConfig,
        op: &HighLevelOp,
    ) -> Vec<Backend> {
        match self {
            Candidates::All => {
                let mut offers = shortcuts(op);
                offers.extend([
                    Backend::SimulateFused,
                    Backend::SimulateGateLevel,
                    Backend::SimulateSegmented {
                        block_bits: model.block_bits,
                    },
                ]);
                offers.extend(
                    self.mps_cap(config)
                        .map(|max_bond| Backend::SimulateMps { max_bond }),
                );
                offers
            }
            Candidates::Emulated(choose_qpe) => match op {
                HighLevelOp::Gates(_) => vec![sim_backend(config)],
                HighLevelOp::Qpe(qpe) => vec![Backend::EmulateQpe {
                    strategy: choose_qpe(
                        program.register(qpe.target).len,
                        program.register(qpe.phase).len,
                    ),
                }],
                _ => shortcuts(op),
            },
            Candidates::Simulated => vec![sim_backend(config)],
        }
    }

    /// Bond cap of the compressed candidates this set offers, if any.
    /// The plan then carries a bond bound through the ops, so each one is
    /// certified against the state it actually receives.
    fn mps_cap(&self, config: &SimConfig) -> Option<usize> {
        match (self, config.mps) {
            (Candidates::All, mps) => mps.max_bond(),
            (_, MpsPolicy::Forced { max_bond }) => Some(max_bond),
            _ => None,
        }
    }
}

/// The emulation shortcuts `op` has, in tie-break order (none for raw
/// gate runs).
fn shortcuts(op: &HighLevelOp) -> Vec<Backend> {
    match op {
        HighLevelOp::Gates(_) => vec![],
        HighLevelOp::Classical(_) | HighLevelOp::Phase(_) | HighLevelOp::Rotation(_) => {
            vec![Backend::EmulateClassical]
        }
        HighLevelOp::Qft(_) | HighLevelOp::InverseQft(_) => vec![Backend::EmulateFft],
        HighLevelOp::Qpe(_) => [
            QpeStrategy::RepeatedSquaring,
            QpeStrategy::Eigendecomposition,
        ]
        .map(|strategy| Backend::EmulateQpe { strategy })
        .to_vec(),
    }
}

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

/// Model cost of `strategy` on `qpe` at width `n_state`.
fn qpe_cost(
    model: &CostModel,
    program: &QuantumProgram,
    qpe: &QpeOp,
    n_state: usize,
    strategy: QpeStrategy,
) -> f64 {
    model.t_qpe(
        n_state,
        program.register(qpe.target).len,
        qpe.unitary.gate_count().max(1),
        program.register(qpe.phase).len,
        strategy,
    )
}

/// Model cost of `op` on the emulation backend `backend` at width
/// `n_state`, or `∞` when the op has no such shortcut. Pure formula
/// evaluation: never builds a circuit.
fn emulate_cost(
    model: &CostModel,
    program: &QuantumProgram,
    op: &HighLevelOp,
    backend: Backend,
    n_state: usize,
) -> f64 {
    match (backend, op) {
        (Backend::EmulateClassical, HighLevelOp::Classical(cm)) => {
            let k: usize = cm.regs.iter().map(|&r| program.register(r).len).sum();
            model.t_classical_emulated(n_state, k)
        }
        (Backend::EmulateClassical, HighLevelOp::Phase(_)) => model.t_oracle_emulated(n_state),
        (Backend::EmulateClassical, HighLevelOp::Rotation(_)) => model.t_rotation_emulated(n_state),
        (Backend::EmulateFft, HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r)) => {
            model.t_qft_emulated(n_state, program.register(*r).len)
        }
        (Backend::EmulateQpe { strategy }, HighLevelOp::Qpe(qpe)) => {
            qpe_cost(model, program, qpe, n_state, strategy)
        }
        _ => f64::INFINITY,
    }
}

/// An op's gate-level implementation, as pricing sees it.
enum GatePath<'p> {
    /// No gate-level implementation: every simulated candidate is `∞`.
    Missing,
    /// One analytic cost on every dense flavour and no compressed
    /// candidate: QPE runs through `apply_qpe`, not the fusion engine,
    /// and the generic rotation expansion is exponential in the control
    /// register, so it is priced rather than materialised.
    Analytic(f64),
    /// A concrete circuit on a `2^n_sim`-amplitude state.
    Circuit {
        c: Cow<'p, Circuit>,
        n_sim: usize,
        /// Work qubits the op needs above the program space.
        n_ancilla: usize,
        /// `false` for register QFTs: the priced circuit addresses the
        /// register's relative qubits and execution remaps it, so it is
        /// neither walked for the compressed candidate nor carried.
        on_program: bool,
    },
}

/// One lowering pass at a fixed ancilla head-room.
struct Lowering<'a> {
    program: &'a QuantumProgram,
    model: &'a CostModel,
    /// Fusion window fused candidates are priced with.
    window: usize,
    /// Ancilla head-room the plan commits to: every sweep in the run pays
    /// `2^{n + n_anc}` entries.
    n_anc: usize,
    /// Bond cap of the set's compressed candidates (every one carries
    /// it); when set, the pass carries the bond bound of the state each op
    /// receives and walks each op's circuit under it.
    mps_cap: Option<usize>,
}

impl Lowering<'_> {
    fn lower(&self, offers: impl Fn(usize, &HighLevelOp) -> Vec<Backend>) -> ExecutionPlan {
        // Bond bound of the state each op receives: |0…0⟩ before op 0,
        // then carried through the ops in program order.
        let mut bonds = self
            .mps_cap
            .map(|_| vec![1; self.program.n_qubits() + self.n_anc + 1]);
        let steps = self
            .program
            .ops()
            .iter()
            .enumerate()
            .map(|(i, op)| self.lower_op(i, op, &offers(i, op), bonds.as_mut()))
            .collect();
        ExecutionPlan::from_steps(self.program, steps)
    }

    /// The op's gate path. A deferred-build circuit is priced at the
    /// width the op itself forces, `n + max(n_anc, its own ancillas)`.
    fn gate_path<'p>(&self, op: &'p HighLevelOp) -> GatePath<'p> {
        let (program, model) = (self.program, self.model);
        let n_state = program.n_qubits() + self.n_anc;
        let built = |gi: &GateImpl| GatePath::Circuit {
            c: Cow::Owned((gi.build)(program)),
            n_sim: program.n_qubits() + self.n_anc.max(gi.n_ancilla),
            n_ancilla: gi.n_ancilla,
            on_program: true,
        };
        match op {
            HighLevelOp::Gates(c) => GatePath::Circuit {
                c: Cow::Borrowed(c),
                n_sim: n_state,
                n_ancilla: 0,
                on_program: true,
            },
            HighLevelOp::Classical(cm) => cm.gate_impl.as_ref().map_or(GatePath::Missing, built),
            HighLevelOp::Phase(po) => po.gate_impl.as_ref().map_or(GatePath::Missing, built),
            HighLevelOp::Rotation(ro) => match &ro.gate_impl {
                Some(gi) => built(gi),
                None => GatePath::Analytic(
                    model.t_rotation_simulated(n_state, program.register(ro.x).len),
                ),
            },
            HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r) => GatePath::Circuit {
                c: Cow::Owned(qft_circuit(program.register(*r).len)),
                n_sim: n_state,
                n_ancilla: 0,
                on_program: false,
            },
            HighLevelOp::Qpe(qpe) => GatePath::Analytic(qpe_cost(
                model,
                program,
                qpe,
                n_state,
                QpeStrategy::GateLevel,
            )),
        }
    }

    /// Prices each offered backend and keeps the cheapest. Only the
    /// winner keeps what pricing built: a simulated step its
    /// deferred-build circuit, a fused step its block stream.
    fn lower_op(
        &self,
        op_index: usize,
        op: &HighLevelOp,
        offered: &[Backend],
        bonds: Option<&mut Vec<usize>>,
    ) -> PlanStep {
        let (program, model) = (self.program, self.model);
        let n_state = program.n_qubits() + self.n_anc;
        let path = if bonds.is_some() || offered.iter().any(Backend::is_simulate) {
            self.gate_path(op)
        } else {
            GatePath::Missing
        };
        // The χ-growth walk from the state the op receives; head-room
        // beyond the plan's is fresh |0⟩ ancillas, i.e. product cuts.
        let walk = match (&bonds, &path, self.mps_cap) {
            (
                Some(bonds),
                GatePath::Circuit {
                    c,
                    n_sim,
                    on_program: true,
                    ..
                },
                Some(cap),
            ) => {
                let mut incoming = bonds.to_vec();
                incoming.resize(n_sim + 1, 1);
                let est = estimate_mps_cost(c, &incoming, cap);
                Some((incoming, est))
            }
            _ => None,
        };
        let mut fused = None;
        let (backend, predicted_s) = offered
            .iter()
            .map(|&backend| {
                let cost = match &path {
                    _ if !backend.is_simulate() => {
                        emulate_cost(model, program, op, backend, n_state)
                    }
                    GatePath::Missing => f64::INFINITY,
                    GatePath::Analytic(t) => match backend {
                        Backend::SimulateMps { .. } => f64::INFINITY,
                        _ => *t,
                    },
                    GatePath::Circuit { c, n_sim, .. } => match backend {
                        Backend::SimulateFused => {
                            let fc = c.fuse(&FusionPolicy::Greedy {
                                max_fused_qubits: self.window,
                            });
                            let t = model.t_gates_fused(
                                fc.touched_entries(*n_sim),
                                c.gate_count(),
                                fc.ops().len(),
                            );
                            fused = Some(fc);
                            t
                        }
                        // Priced with the policy `step_config` executes
                        // it with, traffic split into streamed and
                        // in-cache terms; each blocked segment and each
                        // sweep launches one parallel region.
                        Backend::SimulateSegmented { block_bits } => {
                            let seg = segment_circuit(c, block_bits, &FusionPolicy::greedy());
                            model.t_gates_segmented(
                                seg.streamed_entries(*n_sim),
                                seg.incache_entries(*n_sim),
                                c.gate_count(),
                                seg.blocked_segments() + seg.sweep_segments(),
                            )
                        }
                        // Only a walk that certifies the whole run, import
                        // included, exact under the cap prices the
                        // compressed candidate: an inexact one would
                        // truncate and fall back dense at execution.
                        Backend::SimulateMps { max_bond } => match &walk {
                            Some((incoming, est))
                                if est.exact && self.mps_cap == Some(max_bond) =>
                            {
                                model.t_gates_mps(est.units, incoming)
                            }
                            _ => f64::INFINITY,
                        },
                        _ => model.t_gates(c.touched_entries(*n_sim), c.gate_count()),
                    },
                };
                (backend, cost)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("every op is offered a backend");
        if let Some(bonds) = bonds {
            advance_bonds(
                program,
                op,
                bonds,
                walk.as_ref().map(|(_, est)| &est.bonds_out[..]),
            );
        }
        let simulated = backend.is_simulate();
        let (n_ancilla, circuit) = match path {
            _ if !simulated => (0, None),
            // A deferred-build circuit rides along to execution; a raw
            // run's circuit is the op's own.
            GatePath::Circuit {
                c: Cow::Owned(c),
                n_ancilla,
                on_program: true,
                ..
            } => (n_ancilla, Some(c)),
            GatePath::Circuit { n_ancilla, .. } => (n_ancilla, None),
            _ => (0, None),
        };
        PlanStep {
            op_index,
            op: op_label(program, op),
            // QPE always runs through `apply_qpe`; a simulated winner is
            // the explicit gate-level strategy.
            backend: match op {
                HighLevelOp::Qpe(_) if simulated => Backend::EmulateQpe {
                    strategy: QpeStrategy::GateLevel,
                },
                _ => backend,
            },
            predicted_s,
            n_ancilla,
            circuit,
            fused: fused.filter(|_| backend == Backend::SimulateFused),
        }
    }
}

/// Lowers `program` to an [`ExecutionPlan`]: each op takes the cheapest
/// of its `candidates` under `model`.
///
/// Backend choices couple through ancilla head-room: once any step
/// simulates an op that needs `a` work qubits, *every* sweep in the run
/// pays `2^{n+a}` entries. The planner resolves the coupling by fixed
/// point: lower with the current head-room, recompute the head-room the
/// chosen steps actually need, re-lower until stable. Choices near a
/// break-even can oscillate with the head-room (an op may simulate at
/// width `n` but emulate at `n+1`), so iteration is capped; if no fixed
/// point is reached, the last choices are committed and re-priced at the
/// head-room they will *actually* execute with, keeping the
/// [`PlanReport`] audit consistent. A [`Candidates::Simulated`] plan
/// reserves every op's head-room up front, so it is stable at once.
pub fn plan(
    program: &QuantumProgram,
    model: &CostModel,
    config: &SimConfig,
    candidates: Candidates<'_>,
) -> ExecutionPlan {
    let offers = |_: usize, op: &HighLevelOp| candidates.offers(program, model, config, op);
    let mut lowering = Lowering {
        program,
        model,
        window: plan_window(config),
        n_anc: match candidates {
            Candidates::Simulated => program.max_gate_ancillas(),
            _ => 0,
        },
        mps_cap: candidates.mps_cap(config),
    };
    let mut plan = lowering.lower(offers);
    for _ in 0..4 {
        if plan.n_ancilla == lowering.n_anc {
            return plan;
        }
        lowering.n_anc = plan.n_ancilla;
        plan = lowering.lower(offers);
    }
    if plan.n_ancilla == lowering.n_anc {
        return plan;
    }
    let chosen: Vec<Backend> = plan.steps.iter().map(|s| s.backend).collect();
    lowering.n_anc = plan.n_ancilla;
    lowering.lower(|i, _| vec![chosen[i]])
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
        self.run_steps(program, plan, initial, false)
    }

    /// The solo step loop: extends the state with the plan's head-room,
    /// runs and times each step, and truncates the head-room away.
    ///
    /// A plan indexes its program's op list and may carry circuits built
    /// from the program's closures, so it is only valid for the exact
    /// instance it was lowered from (clones included) — unless
    /// `any_instance` is set, as on the structure-keyed path of
    /// [`HybridExecutor::run_structural`](crate::executor::HybridExecutor::run_structural).
    /// A plan lowered from another instance then runs its closure-bearing
    /// steps (classical maps, phase oracles, rotations) without the
    /// carried artifacts, re-deriving them from `program`'s own ops; raw
    /// gate runs, QFTs and QPE are structurally determined (gate lists are
    /// hashed bit-exactly) and run as planned.
    pub(crate) fn run_steps(
        &self,
        program: &QuantumProgram,
        plan: &ExecutionPlan,
        initial: StateVector,
        any_instance: bool,
    ) -> Result<(StateVector, PlanReport), EmuError> {
        if initial.n_qubits() != program.n_qubits() {
            return Err(EmuError::DimensionMismatch {
                expected: program.n_qubits(),
                got: initial.n_qubits(),
            });
        }
        let foreign = plan.program_id != program.instance_id();
        if foreign && !any_instance {
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
            let closure_built = matches!(
                op,
                HighLevelOp::Classical(_) | HighLevelOp::Phase(_) | HighLevelOp::Rotation(_)
            );
            if foreign && closure_built {
                self.execute_step(&mut state, program, op, &step.stripped())?;
            } else {
                self.execute_step(&mut state, program, op, step)?;
            }
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
    /// with; `SimulateGateLevel` is always unfused. `SimulateMps` runs the
    /// default fused config under a forced MPS policy at the step's cap:
    /// `StateVector::run` attempts the compressed run, audits its
    /// truncation error and re-runs dense on any truncation, so a
    /// mispredicted χ costs time, never correctness. `BatchStateVector::run`
    /// ignores the MPS policy and runs such a step dense.
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
            Backend::SimulateMps { max_bond } => SimConfig {
                mps: MpsPolicy::Forced { max_bond },
                ..SimConfig::fused(DEFAULT_MAX_FUSED_QUBITS)
            },
            Backend::SimulateGateLevel => SimConfig::unfused(),
            // Raw-gate steps on an emulated plan inherit the config.
            _ => self.config,
        }
    }

    fn lower<'c>(&self, c: &'c Circuit) -> Cow<'c, Circuit> {
        if self.elementary {
            Cow::Owned(qcemu_sim::decompose_circuit(c))
        } else {
            Cow::Borrowed(c)
        }
    }

    fn run_circuit(&self, state: &mut StateVector, c: &Circuit, backend: Backend) {
        state.run(&self.lower(c), &self.step_config(backend));
    }

    /// Runs a simulation step, reusing the artifacts the planner built
    /// during costing: the fused block stream (applied directly — fusion
    /// is semantics-preserving, so a cached stream is always
    /// state-correct), or the deferred-build circuit, falling back to
    /// `build` when the plan carries neither. Elementary lowering always
    /// goes through the raw circuit.
    fn run_sim_step<'c>(
        &self,
        state: &mut StateVector,
        step: &PlanStep,
        build: impl FnOnce() -> Cow<'c, Circuit>,
    ) {
        match (&step.fused, &step.circuit) {
            (Some(fused), _) if !self.elementary => state.apply_fused_circuit(fused),
            (_, Some(c)) => self.run_circuit(state, c, step.backend),
            _ => self.run_circuit(state, &build(), step.backend),
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
            HighLevelOp::Gates(c) => self.run_sim_step(state, step, || Cow::Borrowed(c)),
            HighLevelOp::Classical(cm) => {
                if simulate {
                    let gi =
                        cm.gate_impl
                            .as_ref()
                            .ok_or_else(|| EmuError::NoGateImplementation {
                                op: cm.name.clone(),
                            })?;
                    self.run_sim_step(state, step, || Cow::Owned((gi.build)(program)));
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
                    self.run_sim_step(state, step, || Cow::Owned((gi.build)(program)));
                } else {
                    apply_phase_oracle(state, program, po);
                }
            }
            HighLevelOp::Rotation(ro) => {
                if simulate {
                    self.run_sim_step(state, step, || {
                        Cow::Owned(match &ro.gate_impl {
                            Some(gi) => (gi.build)(program),
                            None => rotation_expansion_circuit(program, ro),
                        })
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
    use qcemu_sim::{MpsState, MPS_EXACT_TOL};

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
        let plan = super::plan(
            &prog,
            &model(),
            &SimConfig::unfused(),
            Candidates::Emulated(&|_, _| QpeStrategy::RepeatedSquaring),
        );
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
        let plan = super::plan(
            &prog,
            &model(),
            &SimConfig::unfused(),
            Candidates::Simulated,
        );
        assert_eq!(plan.n_ancilla(), 1); // multiplier ancilla
        assert!(plan.steps().iter().all(|s| s.backend.is_simulate()));
        let fused = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::Simulated);
        assert!(fused
            .steps()
            .iter()
            .all(|s| s.backend == Backend::SimulateFused));
    }

    #[test]
    fn hybrid_plan_dispatches_per_op() {
        let prog = mixed_program(3);
        let plan = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
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
        let plan = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
        assert_eq!(plan.n_ancilla(), 0);
    }

    #[test]
    fn hybrid_prefers_fft_for_wide_qft_and_gates_for_narrow() {
        let mut pb = ProgramBuilder::new();
        let wide = pb.register("wide", 16);
        pb.qft(wide);
        let prog = pb.build().unwrap();
        let plan = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
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
        let plan = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
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
        let plan = super::plan(&prog, &m, &SimConfig::fused(4), Candidates::All);
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
    fn fixed_segmented_plans_price_at_the_block_size_they_run() {
        // A fixed segmented plan executes at the config's block size, so
        // it must be priced there too, not at the model's.
        let n = 15;
        let prog = low_entanglement_program(n, 8);
        let HighLevelOp::Gates(c) = &prog.ops()[0] else {
            panic!("op 0 is the gate run");
        };
        let m = model();
        let config = SimConfig {
            segments: SegmentPolicy::Blocked { block_bits: 10 },
            ..SimConfig::segmented()
        };
        let plan = super::plan(&prog, &m, &config, Candidates::Simulated);
        assert_eq!(
            plan.steps()[0].backend,
            Backend::SimulateSegmented { block_bits: 10 }
        );
        let priced_at = |block_bits| {
            let seg = segment_circuit(c, block_bits, &FusionPolicy::greedy());
            m.t_gates_segmented(
                seg.streamed_entries(n),
                seg.incache_entries(n),
                c.gate_count(),
                seg.blocked_segments() + seg.sweep_segments(),
            )
        };
        assert_ne!(m.block_bits, 10);
        assert_ne!(priced_at(10), priced_at(m.block_bits));
        assert_eq!(plan.steps()[0].predicted_s, priced_at(10));
    }

    #[test]
    fn segmented_config_drives_fixed_plans() {
        // A segment-policy interpreter config flips every raw-gate step
        // of the fixed plans onto the segment backend.
        let prog = mixed_program(3);
        let plan = super::plan(
            &prog,
            &model(),
            &SimConfig::segmented(),
            Candidates::Simulated,
        );
        assert!(matches!(
            plan.steps()[0].backend,
            Backend::SimulateSegmented { .. }
        ));
        assert!(plan.steps()[0].predicted_s.is_finite());
        let emu = super::plan(
            &prog,
            &model(),
            &SimConfig::segmented(),
            Candidates::Emulated(&|_, _| QpeStrategy::RepeatedSquaring),
        );
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
        let emu_plan = super::plan(
            prog,
            &model(),
            &SimConfig::unfused(),
            Candidates::Emulated(&|_, _| QpeStrategy::RepeatedSquaring),
        );
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
        let plan = super::plan(&prog, &m, &SimConfig::fused(4), Candidates::All);
        assert!(
            matches!(plan.steps()[0].backend, Backend::SimulateMps { .. }),
            "deep χ=2 chain must pick the compressed tier, got {}",
            plan.steps()[0].backend
        );
        // The hybrid choice must not be slower than either fixed dense plan.
        for fixed in [
            super::plan(&prog, &m, &SimConfig::fused(4), Candidates::Simulated),
            super::plan(&prog, &m, &SimConfig::segmented(), Candidates::Simulated),
            super::plan(&prog, &m, &SimConfig::unfused(), Candidates::Simulated),
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
        let reference_plan = super::plan(&prog, &m, &SimConfig::unfused(), Candidates::Simulated);
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
        let plan = super::plan(&prog, &m, &SimConfig::fused(4), Candidates::All);
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
        let plan = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
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

    /// Shor-shaped: superposed x, constant y, z = x·y, a chain run on
    /// every qubit (op 3) and an oracle on z (op 4). Priced from a product
    /// input the chain certifies at χ ≤ 8; from the state the multiply
    /// actually leaves (χ up to 2^5 across the middle cuts) it would
    /// truncate under χ ≤ 64, and the oracle then receives a state whose
    /// import alone would.
    fn entangling_program() -> QuantumProgram {
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
        pb.build().unwrap()
    }

    #[test]
    fn entangling_op_withholds_mps_from_the_ops_after_it() {
        let prog = entangling_program();
        let plan = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
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
    fn fixed_forced_mps_plans_certify_against_the_state_they_receive() {
        // The fixed gate-level plan carries the bond bound through the
        // simulated multiply, so the chain after it cannot certify under
        // χ ≤ 64 and prices ∞. Pricing only: executing forced compressed
        // attempts on this program is slow, and the dense fallback is
        // covered by `forced_mps_on_entangling_circuit_falls_back_dense_correct`.
        let prog = entangling_program();
        let plan = super::plan(&prog, &model(), &SimConfig::mps(64), Candidates::Simulated);
        assert!(matches!(prog.ops()[3], HighLevelOp::Gates(_)));
        assert_eq!(
            plan.steps()[3].backend,
            Backend::SimulateMps { max_bond: 64 }
        );
        assert_eq!(plan.steps()[3].predicted_s, f64::INFINITY);
        // The run before the multiply still certifies from |0…0⟩.
        assert!(plan.steps()[1].predicted_s.is_finite());
    }

    #[test]
    fn forced_mps_config_drives_fixed_plans() {
        // A forced MPS policy flips every raw-gate step of the fixed
        // plans onto the compressed backend, carrying the configured cap.
        let prog = low_entanglement_program(8, 4);
        let plan = super::plan(&prog, &model(), &SimConfig::mps(32), Candidates::Simulated);
        assert!(matches!(
            plan.steps()[0].backend,
            Backend::SimulateMps { max_bond: 32 }
        ));
        assert!(plan.steps()[0].predicted_s.is_finite());
        let initial = StateVector::zero_state(8);
        let (state, _) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        let reference_plan = super::plan(
            &prog,
            &model(),
            &SimConfig::unfused(),
            Candidates::Simulated,
        );
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
        let plan = super::plan(&prog, &model(), &SimConfig::mps(2), Candidates::Simulated);
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
        let plan = super::plan(&prog, &model(), &SimConfig::mps(2), Candidates::Simulated);
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
        let hybrid = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
        assert_eq!(hybrid.steps()[0].backend, Backend::EmulateClassical);
        let sim = super::plan(
            &prog,
            &model(),
            &SimConfig::unfused(),
            Candidates::Simulated,
        );
        assert!(sim.steps()[0].predicted_s.is_infinite());
    }

    #[test]
    fn interpreter_matches_legacy_paths_on_mixed_program() {
        let prog = mixed_program(2);
        let initial = StateVector::zero_state(prog.n_qubits());
        let m = model();
        let emu_plan = super::plan(
            &prog,
            &m,
            &SimConfig::unfused(),
            Candidates::Emulated(&|t, p| {
                if p > 2 * t {
                    QpeStrategy::Eigendecomposition
                } else {
                    QpeStrategy::RepeatedSquaring
                }
            }),
        );
        let sim_plan = super::plan(&prog, &m, &SimConfig::unfused(), Candidates::Simulated);
        let hyb_plan = super::plan(&prog, &m, &SimConfig::fused(4), Candidates::All);
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
        let plan = super::plan(&prog_a, &model(), &SimConfig::fused(4), Candidates::All);
        let err = PlanInterpreter::default()
            .execute(&prog_b, &plan, StateVector::zero_state(prog_b.n_qubits()))
            .unwrap_err();
        assert!(matches!(err, EmuError::PlanMismatch { .. }), "{err}");
    }

    #[test]
    fn plan_display_lists_every_step() {
        let prog = mixed_program(2);
        let plan = super::plan(&prog, &model(), &SimConfig::fused(4), Candidates::All);
        let rendered = plan.to_string();
        for step in plan.steps() {
            assert!(rendered.contains(&step.op), "missing {}", step.op);
        }
    }
}
