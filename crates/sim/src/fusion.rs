//! Gate fusion: merging runs of adjacent gates into k-qubit blocks that
//! are applied in **one cache-blocked sweep** of the state vector.
//!
//! The paper's §4.5 kernels already specialise *single* gates to their
//! structure; this module adds the next optimisation used by
//! qHiPSTER-class engines: a run of g gates whose qubit sets fit inside a
//! window of `max_fused_qubits` qubits is collapsed into a single
//! [`FusedGate`], and the whole block is applied with one pass over the
//! 2ⁿ amplitudes instead of g passes. At ≥20 qubits the state no longer
//! fits in cache, so gate application is memory-bound and runtime is
//! proportional to *sweeps*, not flops — fusing is then close to a g× win
//! on the fused portion (see `docs/PERFORMANCE.md` for the traffic model
//! and measured numbers).
//!
//! Structure awareness survives fusion: each block's composed matrix is
//! classified the same way single gates are —
//!
//! * **diagonal** blocks (runs of Z/S/T/Rz/phase gates) touch only the
//!   amplitudes whose factor differs from 1;
//! * **permutation** blocks (runs of X/CNOT/SWAP, possibly with phases)
//!   move amplitudes along cycles with no arithmetic;
//! * **general** blocks gather contiguous tiles of the state, replay the
//!   block's precompiled gates on them in cache, and scatter once — the
//!   same flops as unfused execution, paid against one memory sweep.
//!
//! Every sweep runs along contiguous runs of the state: the block's free
//! low qubits are the batch axis of the batch-major kernels in
//! [`crate::batch`] (see [`FusedGate::apply_slice_with`]).
//!
//! # Examples
//!
//! ```
//! use qcemu_sim::{qft_circuit, FusionPolicy, SimConfig, StateVector};
//!
//! let circuit = qft_circuit(6);
//! let mut fused = StateVector::zero_state(6);
//! fused.run(&circuit, &SimConfig::fused(4));
//!
//! let mut plain = StateVector::zero_state(6);
//! plain.apply_circuit(&circuit);
//! assert!(fused.max_diff_up_to_phase(&plain) < 1e-12);
//! ```

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::kernels::{
    apply_fused_diagonal_with, apply_fused_permutation_with, apply_fused_with,
    apply_gate_slice_with, check_fused_qubits, fused_touched_entries, touched_entries, LocalOp,
    MAX_FUSED_QUBITS, PAR_THRESHOLD,
};
use crate::mps::MpsPolicy;
use crate::segment::SegmentPolicy;
use qcemu_linalg::{simd, CMatrix, C64};

/// Default fusion window: 4 qubits (16-amplitude groups) balances sweep
/// reduction against gather/scatter overhead on current cache hierarchies;
/// see `docs/PERFORMANCE.md` for how to pick a different value.
pub const DEFAULT_MAX_FUSED_QUBITS: usize = 4;

/// Longest contiguous run, `2^RUN_BITS` amplitudes (4 KiB), that a
/// sequential fused sweep treats as the batch axis (see
/// [`FusedGate::apply_slice_with`]). Long enough that gathers are memcpys
/// and every SIMD pass amortises its call; short enough that the batched
/// kernels' per-worker scratch (`2^k` runs, twice for dense blocks) stays
/// at 512 KiB for the widest block.
const RUN_BITS: usize = 8;

/// Shortest run worth the batched kernels: below 4 amplitudes
/// ([`simd::LANES`]) every slice call does scalar work.
const MIN_RUN_BITS: usize = 2;

/// How (and whether) a circuit is fused before execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FusionPolicy {
    /// Gate-by-gate application through the structural kernels — the
    /// paper-faithful baseline, and bitwise identical to
    /// [`StateVector::apply_circuit`](crate::StateVector::apply_circuit).
    #[default]
    Disabled,
    /// Greedily merge consecutive gates while their combined qubit set
    /// stays within `max_fused_qubits` (clamped to
    /// [`MAX_FUSED_QUBITS`]).
    Greedy {
        /// Widest qubit set a fused block may span.
        max_fused_qubits: usize,
    },
}

impl FusionPolicy {
    /// Greedy fusion at the default window width.
    pub fn greedy() -> FusionPolicy {
        FusionPolicy::Greedy {
            max_fused_qubits: DEFAULT_MAX_FUSED_QUBITS,
        }
    }

    /// This policy with any greedy window clamped to `max_block_qubits`
    /// (floored at 1); `Disabled` stays `Disabled`.
    pub fn clamped(self, max_block_qubits: usize) -> FusionPolicy {
        match self {
            FusionPolicy::Disabled => FusionPolicy::Disabled,
            FusionPolicy::Greedy { max_fused_qubits } => FusionPolicy::Greedy {
                max_fused_qubits: max_fused_qubits.min(max_block_qubits).max(1),
            },
        }
    }
}

/// State-vector execution configuration, threaded through
/// [`StateVector::run`](crate::StateVector::run) and the `qcemu-core`
/// executors so emulation shortcuts and fused simulation compose.
///
/// The default is fusion **disabled**: opt in with [`SimConfig::fused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Gate-fusion policy for gate-level circuit execution.
    pub fusion: FusionPolicy,
    /// Cache-blocked segmentation policy, layered above fusion: when
    /// enabled, runs of block-compatible gates execute as one blocked
    /// pass and only the leftover runs go through `fusion` (see
    /// [`crate::segment`]).
    pub segments: SegmentPolicy,
    /// State size (in amplitudes) from which kernels parallelise —
    /// defaults to [`PAR_THRESHOLD`]. Overridable so calibration
    /// harnesses can sweep the handoff point on the host instead of
    /// trusting the hard-coded constant; respected by the per-gate *and*
    /// fused drivers.
    pub par_threshold: usize,
    /// Compressed (MPS) execution policy: whether the planner may (or
    /// must) run gate-level ops in bond-truncated matrix-product form,
    /// and at which χ cap (see [`crate::mps`]).
    pub mps: MpsPolicy,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            fusion: FusionPolicy::default(),
            segments: SegmentPolicy::default(),
            par_threshold: PAR_THRESHOLD,
            mps: MpsPolicy::default(),
        }
    }
}

impl SimConfig {
    /// Gate-by-gate execution (the default).
    pub fn unfused() -> SimConfig {
        SimConfig::default()
    }

    /// Greedy fusion with blocks up to `max_fused_qubits` wide.
    pub fn fused(max_fused_qubits: usize) -> SimConfig {
        SimConfig {
            fusion: FusionPolicy::Greedy { max_fused_qubits },
            ..SimConfig::default()
        }
    }

    /// Cache-blocked segment execution at the default L2-sized block,
    /// with greedy fusion for the runs that fall out of segments — the
    /// configuration `qcemu-core`'s `SimulateSegmented` planner steps
    /// lower to.
    pub fn segmented() -> SimConfig {
        SimConfig {
            fusion: FusionPolicy::greedy(),
            segments: SegmentPolicy::blocked(),
            ..SimConfig::default()
        }
    }

    /// Compressed MPS execution at bond cap `max_bond` for every
    /// gate-level op — the configuration `qcemu-core`'s `SimulateMps`
    /// planner steps price and a fixed-backend MPS simulator uses.
    pub fn mps(max_bond: usize) -> SimConfig {
        SimConfig {
            mps: MpsPolicy::Forced {
                max_bond: max_bond.max(1),
            },
            ..SimConfig::default()
        }
    }

    /// This configuration with a different parallelism threshold.
    pub fn with_par_threshold(mut self, par_threshold: usize) -> SimConfig {
        self.par_threshold = par_threshold.max(1);
        self
    }

    /// This configuration with a different MPS policy.
    pub fn with_mps(mut self, mps: MpsPolicy) -> SimConfig {
        self.mps = mps;
        self
    }
}

/// Structural class of a fused block, mirroring the per-gate trichotomy
/// of [`GateStructure`](crate::GateStructure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusedStructure {
    /// The composed matrix is diagonal: applied by scaling only the
    /// non-unit entries.
    Diagonal,
    /// One non-zero per column (permutation with phases): applied by
    /// moving amplitudes along cycles.
    Permutation,
    /// Applied by gather → replay the block's gates in cache → scatter.
    General,
    /// Applied by gather → dense 2^k×2^k mat-vec → scatter (chosen when
    /// the block holds at least 2^k gates, where one mat-vec is cheaper
    /// than replaying them).
    Dense,
}

/// Application strategy plus its precomputed data.
#[derive(Clone, Debug)]
enum BlockKind {
    Diagonal {
        factors: Vec<C64>,
    },
    Permutation {
        target: Vec<usize>,
        factor: Vec<C64>,
    },
    General,
    Dense,
}

/// A run of gates fused into one k-qubit block.
///
/// `qubits` is the ascending union of the member gates' qubit sets
/// (controls included); `matrix` is the composed `2^k × 2^k` unitary in
/// the local little-endian convention (bit `j` of a local index is global
/// qubit `qubits[j]`).
#[derive(Clone, Debug)]
pub struct FusedGate {
    qubits: Vec<usize>,
    matrix: CMatrix,
    local_ops: Vec<LocalOp>,
    /// `local_ops` on a gathered tile buffer (see
    /// [`FusedGate::apply_slice_with`]): block qubit `q < RUN_BITS` keeps
    /// bit `q`, the `i`-th qubit at or above it moves to bit
    /// `RUN_BITS + i`.
    tile_ops: Vec<LocalOp>,
    kind: BlockKind,
    gate_count: usize,
}

impl FusedGate {
    /// Fuses `gates` (global indices) over the ascending qubit union
    /// `qubits`. Panics if a gate uses a qubit outside `qubits` or the
    /// union exceeds [`MAX_FUSED_QUBITS`].
    pub(crate) fn from_gates(qubits: Vec<usize>, gates: &[Gate]) -> FusedGate {
        assert!(
            !qubits.is_empty() && qubits.len() <= MAX_FUSED_QUBITS,
            "fused block must span 1..={MAX_FUSED_QUBITS} qubits"
        );
        debug_assert!(qubits.windows(2).all(|w| w[0] < w[1]));
        let k = qubits.len();
        let dim = 1usize << k;
        let local = |q: usize| {
            qubits
                .binary_search(&q)
                .expect("gate qubit outside the fused block")
        };
        let local_ops: Vec<LocalOp> = gates
            .iter()
            .map(|g| LocalOp::from_gate(&remap_gate(g, &local)))
            .collect();

        // Composed dense unitary: replay the block on every basis column.
        let mut matrix = CMatrix::zeros(dim, dim);
        for v in 0..dim {
            let mut col = vec![C64::ZERO; dim];
            col[v] = C64::ONE;
            for op in &local_ops {
                op.apply(&mut col);
            }
            for (r, &e) in col.iter().enumerate() {
                matrix[(r, v)] = e;
            }
        }

        let split = qubits.partition_point(|&q| q < RUN_BITS);
        let tile_bit = |j: usize| {
            if j < split {
                qubits[j]
            } else {
                RUN_BITS + (j - split)
            }
        };
        let tile_ops = local_ops.iter().map(|op| op.remap_bits(tile_bit)).collect();

        let kind = classify(&matrix, dim, gates.len());
        FusedGate {
            qubits,
            matrix,
            local_ops,
            tile_ops,
            kind,
            gate_count: gates.len(),
        }
    }

    /// The block's (ascending) global qubit indices.
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The composed `2^k × 2^k` unitary of the block, local little-endian.
    pub fn matrix(&self) -> &CMatrix {
        &self.matrix
    }

    /// Number of original gates fused into this block.
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Structural class driving the block's application strategy.
    pub fn structure(&self) -> FusedStructure {
        match self.kind {
            BlockKind::Diagonal { .. } => FusedStructure::Diagonal,
            BlockKind::Permutation { .. } => FusedStructure::Permutation,
            BlockKind::General => FusedStructure::General,
            BlockKind::Dense => FusedStructure::Dense,
        }
    }

    /// Applies the block to a raw state slice in one blocked pass,
    /// dispatching on [`FusedGate::structure`].
    pub fn apply_slice(&self, state: &mut [C64]) {
        self.apply_slice_with(state, PAR_THRESHOLD)
    }

    /// [`FusedGate::apply_slice`] with an explicit parallelism threshold
    /// (see [`SimConfig::par_threshold`]).
    ///
    /// The sweep is the batch-major kernel family of [`crate::batch`] run
    /// on the plain state, with the state's free low bits as the batch
    /// axis. A block whose lowest qubit is `q0` leaves the low `q0` bits
    /// free, so each of its local indices addresses `2^q0` contiguous
    /// amplitudes: the state *is* a batch-major buffer with batch `2^t`,
    /// `t = min(q0, RUN_BITS)`, over the block's qubits shifted down by
    /// `t`. Gathers become memcpys of those runs and the in-buffer work
    /// SIMD passes along them.
    ///
    /// * **General** blocks always gather whole `2^RUN_BITS` tiles: the
    ///   block's qubits below `RUN_BITS` stay inside the tile, and its ops
    ///   replay on the gathered tiles with their bits remapped (see
    ///   `tile_ops`). For `q0 ≥ RUN_BITS` this is the batched replay at
    ///   batch `2^RUN_BITS`; for lower blocks it still runs every op above
    ///   qubit 1 as long SIMD slices, which measures 2–3× faster than
    ///   short batch runs or per-group 2^k buffers.
    /// * **Diagonal, permutation and dense** blocks run their batched
    ///   kernels at batch `2^t` when `t ≥ 2`. Blocks on qubit 0 or 1 keep
    ///   the per-group kernels of [`crate::kernels`]: runs of 1–2
    ///   amplitudes are shorter than a SIMD vector, so the batched
    ///   kernels pay a slice call per amplitude. `fusion_ablation`'s
    ///   block table times both paths there: at batch 1–2 the batched
    ///   kernels measure 1.1–2.7× slower on diagonal blocks, 1.0–2.4×
    ///   on dense ones and 1.0–1.7× on permutations, and never faster.
    pub fn apply_slice_with(&self, state: &mut [C64], par_threshold: usize) {
        check_fused_qubits(state.len().trailing_zeros() as usize, &self.qubits);
        let t = self.qubits[0].min(RUN_BITS);
        match &self.kind {
            BlockKind::General => self.apply_tiled(state, par_threshold),
            _ if t >= MIN_RUN_BITS => {
                let mut shifted = [0usize; MAX_FUSED_QUBITS];
                for (s, &q) in shifted.iter_mut().zip(&self.qubits) {
                    *s = q - t;
                }
                let shifted = &shifted[..self.qubits.len()];
                self.apply_runs(state, 1 << t, shifted, par_threshold);
            }
            BlockKind::Diagonal { factors } => {
                apply_fused_diagonal_with(state, &self.qubits, factors, par_threshold)
            }
            BlockKind::Permutation { target, factor } => {
                apply_fused_permutation_with(state, &self.qubits, target, factor, par_threshold)
            }
            BlockKind::Dense => apply_fused_with(state, &self.qubits, &self.matrix, par_threshold),
        }
    }

    /// Tile sweep of a general block: the state's low `RUN_BITS` bits
    /// form one contiguous tile, the block's qubits at or above
    /// `RUN_BITS` index the `2^|H|` tiles gathered per group, and
    /// `tile_ops` replay on the gathered tiles. A state smaller than a
    /// tile is one tile, replayed in place.
    fn apply_tiled(&self, state: &mut [C64], par_threshold: usize) {
        let tile_bits = (state.len().trailing_zeros() as usize).min(RUN_BITS);
        let split = self.qubits.partition_point(|&q| q < RUN_BITS);
        let mut high = [0usize; MAX_FUSED_QUBITS];
        for (h, &q) in high.iter_mut().zip(&self.qubits[split..]) {
            *h = q - RUN_BITS;
        }
        let high = &high[..self.qubits.len() - split];
        crate::batch::replay_groups_batch(state, 1 << tile_bits, high, par_threshold, |buf| {
            for op in &self.tile_ops {
                op.apply(buf);
            }
        });
    }

    /// Applies the block to **one gathered group buffer** of `2^k`
    /// amplitudes, where local bit `j` of the buffer index is block qubit
    /// `qubits[j]`. This is the block's action with the state-sweep
    /// factored out: callers that own their own gather/scatter loop — the
    /// distributed executor applying blocks to node-local slices at
    /// remapped (possibly non-ascending) physical positions — drive this
    /// per group instead of [`FusedGate::apply_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != 2^k`.
    pub fn apply_buffer(&self, buf: &mut [C64]) {
        let dim = 1usize << self.qubits.len();
        assert_eq!(buf.len(), dim, "group buffer must hold 2^k amplitudes");
        match &self.kind {
            BlockKind::Diagonal { factors } => {
                for (z, &f) in buf.iter_mut().zip(factors.iter()) {
                    *z *= f;
                }
            }
            BlockKind::Permutation { target, factor } => {
                // Stack scratch: callers invoke this once per amplitude
                // group, so a heap Vec here would allocate in the hot
                // loop (dim ≤ 2^MAX_FUSED_QUBITS is guaranteed above).
                let mut old = [C64::ZERO; 1 << MAX_FUSED_QUBITS];
                old[..dim].copy_from_slice(buf);
                for (v, (&t, &f)) in target.iter().zip(factor.iter()).enumerate() {
                    buf[t] = f * old[v];
                }
            }
            BlockKind::General => {
                for op in &self.local_ops {
                    op.apply(buf);
                }
            }
            BlockKind::Dense => {
                let mut out = [C64::ZERO; 1 << MAX_FUSED_QUBITS];
                for (r, slot) in out[..dim].iter_mut().enumerate() {
                    *slot = simd::cdot(self.matrix.row(r), buf);
                }
                buf.copy_from_slice(&out[..dim]);
            }
        }
    }

    /// Applies the block to every member of a batch-major interleaved
    /// buffer (amplitude `i` of member `j` at `state[i·batch + j]`, see
    /// [`crate::batch`]) in one blocked pass, dispatching on structure
    /// like [`FusedGate::apply_slice_with`]:
    ///
    /// * diagonal blocks scale only the non-unit batch runs;
    /// * permutation blocks rotate batch runs along the cycles in place;
    /// * dense blocks gather each group and run a batch-major mat-mat
    ///   product against the composed unitary, so a block fused from
    ///   thousands of gates costs one `2^k × 2^k` GEMM per group
    ///   regardless of its original depth;
    /// * general blocks (fewer gates than `2^k`) gather and replay the
    ///   precompiled ops batched — cheaper than the GEMM at their depth.
    pub fn apply_batched_with(&self, state: &mut [C64], batch: usize, par_threshold: usize) {
        self.apply_runs(state, batch, &self.qubits, par_threshold)
    }

    /// The batched kernels on `qubits` — the block's own qubits, or
    /// (from [`FusedGate::apply_slice_with`]) its qubits shifted down by
    /// the bits folded into `batch`.
    fn apply_runs(&self, state: &mut [C64], batch: usize, qubits: &[usize], par_threshold: usize) {
        match &self.kind {
            BlockKind::Diagonal { factors } => crate::batch::apply_fused_diagonal_batch(
                state,
                batch,
                qubits,
                factors,
                par_threshold,
            ),
            BlockKind::Permutation { target, factor } => {
                crate::batch::apply_fused_permutation_batch(
                    state,
                    batch,
                    qubits,
                    target,
                    factor,
                    par_threshold,
                )
            }
            BlockKind::Dense => crate::batch::apply_fused_dense_batch(
                state,
                batch,
                qubits,
                &self.matrix,
                par_threshold,
            ),
            BlockKind::General => crate::batch::apply_fused_local_batch(
                state,
                batch,
                qubits,
                &self.local_ops,
                par_threshold,
            ),
        }
    }

    /// [`FusedGate::apply_batched_with`] at the default threshold.
    pub fn apply_batched(&self, state: &mut [C64], batch: usize) {
        self.apply_batched_with(state, batch, PAR_THRESHOLD)
    }

    /// Batched twin of [`FusedGate::apply_buffer`]: one gathered group of
    /// `2^k` amplitudes for `batch` members, interleaved batch-major
    /// (local index `v` of member `j` at `buf[v·batch + j]`). Permutation
    /// blocks rotate the runs in place (no scratch — the buffer size is
    /// `2^k·batch`, too large for the stack copy `apply_buffer` uses);
    /// dense blocks run the batch-major mat-mat product against the
    /// composed unitary and general blocks replay their ops, as in
    /// [`FusedGate::apply_batched_with`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != 2^k · batch`.
    pub fn apply_buffer_batch(&self, buf: &mut [C64], batch: usize) {
        let dim = 1usize << self.qubits.len();
        assert_eq!(
            buf.len(),
            dim * batch,
            "group buffer must hold 2^k·batch amplitudes"
        );
        match &self.kind {
            BlockKind::Diagonal { factors } => {
                for (v, &f) in factors.iter().enumerate() {
                    if f != C64::ONE {
                        simd::scale_slice(&mut buf[v * batch..(v + 1) * batch], f);
                    }
                }
            }
            BlockKind::Permutation { target, factor } => {
                // In-place cycle walk (dim ≤ 64, so a u64 bitmask tracks
                // visited indices): rotate the cycle's runs with pairwise
                // swaps, then apply the phases to the moved runs.
                let mut seen = 0u64;
                let mut cyc = [0usize; 1 << MAX_FUSED_QUBITS];
                for start in 0..dim {
                    if seen >> start & 1 == 1 {
                        continue;
                    }
                    let mut len = 0;
                    let mut v = start;
                    loop {
                        seen |= 1 << v;
                        cyc[len] = v;
                        len += 1;
                        v = target[v];
                        if v == start {
                            break;
                        }
                    }
                    if len == 1 {
                        if factor[start] != C64::ONE {
                            simd::scale_slice(
                                &mut buf[start * batch..(start + 1) * batch],
                                factor[start],
                            );
                        }
                        continue;
                    }
                    for i in (1..len).rev() {
                        let (a, b) = crate::kernels::run_pair_mut(buf, cyc[i], cyc[i - 1], batch);
                        simd::swap_slices(a, b);
                    }
                    // new[target[v]] = factor[v]·old[v]: run(cyc[i]) now
                    // holds old cyc[i−1], run(cyc[0]) holds the old last.
                    for i in (1..len).rev() {
                        let f = factor[cyc[i - 1]];
                        if f != C64::ONE {
                            simd::scale_slice(&mut buf[cyc[i] * batch..(cyc[i] + 1) * batch], f);
                        }
                    }
                    let f = factor[cyc[len - 1]];
                    if f != C64::ONE {
                        simd::scale_slice(&mut buf[cyc[0] * batch..(cyc[0] + 1) * batch], f);
                    }
                }
            }
            BlockKind::Dense => {
                let gathered = buf.to_vec();
                crate::batch::dense_mat_runs(&self.matrix, dim, &gathered, buf, batch);
            }
            BlockKind::General => {
                for op in &self.local_ops {
                    op.apply_batch(buf, batch);
                }
            }
        }
    }

    /// The block's `2^k` diagonal factors, if it classified as diagonal.
    /// Diagonal blocks commute with the basis, which is what lets the
    /// distributed executor apply them on *global* qubits with zero
    /// communication: each rank indexes the factors with its own fixed
    /// global bits.
    pub fn diagonal_factors(&self) -> Option<&[C64]> {
        match &self.kind {
            BlockKind::Diagonal { factors } => Some(factors),
            _ => None,
        }
    }

    /// State-vector entries one application of this block writes on an
    /// `n_qubits` state — the fused-aware counterpart of
    /// [`touched_entries`].
    pub fn touched_entries(&self, n_qubits: usize) -> usize {
        let k = self.qubits.len();
        let local = match &self.kind {
            BlockKind::Diagonal { factors } => factors.iter().filter(|&&f| f != C64::ONE).count(),
            BlockKind::Permutation { target, factor } => target
                .iter()
                .enumerate()
                .filter(|&(v, &t)| t != v || factor[v] != C64::ONE)
                .count(),
            BlockKind::General | BlockKind::Dense => 1usize << k,
        };
        fused_touched_entries(n_qubits, k, local)
    }
}

/// Remaps a gate's qubit indices through `f`.
fn remap_gate(gate: &Gate, f: &impl Fn(usize) -> usize) -> Gate {
    match gate {
        Gate::Unary {
            op,
            target,
            controls,
        } => Gate::Unary {
            op: op.clone(),
            target: f(*target),
            controls: controls.iter().map(|&c| f(c)).collect(),
        },
        Gate::Swap { a, b, controls } => Gate::Swap {
            a: f(*a),
            b: f(*b),
            controls: controls.iter().map(|&c| f(c)).collect(),
        },
    }
}

/// Classifies a composed block matrix. Diagonal/permutation detection uses
/// exact zero tests: diagonal and permutation gates produce exact zeros
/// under composition, while general gates leave numerically non-zero dust
/// that correctly demotes the block to the general path.
fn classify(matrix: &CMatrix, dim: usize, gate_count: usize) -> BlockKind {
    let mut target = vec![0usize; dim];
    let mut factor = vec![C64::ZERO; dim];
    let mut monomial = true;
    'cols: for v in 0..dim {
        let mut nz: Option<(usize, C64)> = None;
        for r in 0..dim {
            let e = matrix[(r, v)];
            if e != C64::ZERO {
                if nz.is_some() {
                    monomial = false;
                    break 'cols;
                }
                nz = Some((r, e));
            }
        }
        // A unitary column cannot be all zero.
        let (r, e) = nz.expect("zero column in a fused unitary");
        target[v] = r;
        factor[v] = e;
    }
    if monomial {
        if target.iter().enumerate().all(|(v, &t)| t == v) {
            return BlockKind::Diagonal { factors: factor };
        }
        return BlockKind::Permutation { target, factor };
    }
    if gate_count >= dim {
        // Enough gates that one dense mat-vec (2^k multiplies per entry)
        // beats replaying them (≥1 multiply per entry per gate).
        BlockKind::Dense
    } else {
        BlockKind::General
    }
}

/// One executable step of a fused circuit.
#[derive(Clone, Debug)]
pub enum FusedOp {
    /// A gate kept on the single-gate structural fast path (lone gates,
    /// and gates whose qubit set alone exceeds the fusion window — e.g.
    /// multi-controlled gates, which the per-gate kernels handle in
    /// geometrically shrinking index space).
    Gate(Gate),
    /// A fused block applied in one blocked pass.
    Block(FusedGate),
}

impl FusedOp {
    /// Entries one application writes on an `n_qubits` state.
    pub fn touched_entries(&self, n_qubits: usize) -> usize {
        match self {
            FusedOp::Gate(g) => touched_entries(n_qubits, g),
            FusedOp::Block(b) => b.touched_entries(n_qubits),
        }
    }
}

/// A circuit after fusion: an ordered list of [`FusedOp`]s.
#[derive(Clone, Debug)]
pub struct FusedCircuit {
    n_qubits: usize,
    ops: Vec<FusedOp>,
}

impl FusedCircuit {
    /// Number of qubits the circuit addresses.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The fused ops in application order.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Applies every op to a raw state slice.
    pub fn apply_slice(&self, state: &mut [C64]) {
        self.apply_slice_with(state, PAR_THRESHOLD)
    }

    /// [`FusedCircuit::apply_slice`] with an explicit parallelism
    /// threshold (see [`SimConfig::par_threshold`]).
    pub fn apply_slice_with(&self, state: &mut [C64], par_threshold: usize) {
        for op in &self.ops {
            match op {
                FusedOp::Gate(g) => apply_gate_slice_with(state, g, par_threshold),
                FusedOp::Block(b) => b.apply_slice_with(state, par_threshold),
            }
        }
    }

    /// Applies every op to all members of a batch-major interleaved
    /// buffer (see [`crate::batch`]): single gates go through the batched
    /// structural kernels, blocks through
    /// [`FusedGate::apply_batched_with`]. Fusion cost was paid once; this
    /// pass pays one sweep per op for the whole ensemble.
    pub fn apply_batched_with(&self, state: &mut [C64], batch: usize, par_threshold: usize) {
        for op in &self.ops {
            match op {
                FusedOp::Gate(g) => crate::batch::apply_gate_batch(state, batch, g, par_threshold),
                FusedOp::Block(b) => b.apply_batched_with(state, batch, par_threshold),
            }
        }
    }

    /// [`FusedCircuit::apply_batched_with`] at the default threshold.
    pub fn apply_batched(&self, state: &mut [C64], batch: usize) {
        self.apply_batched_with(state, batch, PAR_THRESHOLD)
    }

    /// Total state-vector entries written by one execution on an
    /// `n_qubits` state — the memory-traffic estimate the crossover
    /// heuristics consume (`QpeTimings::with_fused_apply`).
    pub fn touched_entries(&self, n_qubits: usize) -> usize {
        self.ops.iter().map(|op| op.touched_entries(n_qubits)).sum()
    }

    /// Summary counts for reporting (see the `fusion_ablation` bench).
    pub fn census(&self) -> FusionCensus {
        let mut census = FusionCensus::default();
        for op in &self.ops {
            match op {
                FusedOp::Gate(_) => census.singles += 1,
                FusedOp::Block(b) => {
                    census.blocks += 1;
                    census.fused_gates += b.gate_count();
                    census.max_block_qubits = census.max_block_qubits.max(b.qubits().len());
                    match b.structure() {
                        FusedStructure::Diagonal => census.diagonal_blocks += 1,
                        FusedStructure::Permutation => census.permutation_blocks += 1,
                        FusedStructure::General => census.general_blocks += 1,
                        FusedStructure::Dense => census.dense_blocks += 1,
                    }
                }
            }
        }
        census
    }
}

/// Block/op counts of a [`FusedCircuit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionCensus {
    /// Gates left on the single-gate fast path.
    pub singles: usize,
    /// Fused blocks of ≥2 gates.
    pub blocks: usize,
    /// Gates absorbed into blocks.
    pub fused_gates: usize,
    /// Blocks applied as diagonals.
    pub diagonal_blocks: usize,
    /// Blocks applied as permutations.
    pub permutation_blocks: usize,
    /// Blocks applied by in-cache gate replay.
    pub general_blocks: usize,
    /// Blocks applied by dense mat-vec.
    pub dense_blocks: usize,
    /// Widest block produced.
    pub max_block_qubits: usize,
}

impl FusionCensus {
    /// Total executable ops (sweeps) after fusion.
    pub fn total_ops(&self) -> usize {
        self.singles + self.blocks
    }
}

/// Fuses a circuit under `policy`.
///
/// The greedy pass walks the gate list once, extending the current block
/// while the union of qubit sets stays within the window, flushing it
/// otherwise. Blocks that end up with a single gate degrade back to the
/// per-gate structural kernels, so fusion never loses the paper's §4.5
/// fast paths.
pub fn fuse_circuit(circuit: &Circuit, policy: &FusionPolicy) -> FusedCircuit {
    fuse_circuit_with_barriers(circuit, policy, |_| false)
}

/// Fuses like [`fuse_circuit`], but gates matching `barrier` are never
/// absorbed into blocks — they flush any pending run and stay standalone
/// [`FusedOp::Gate`]s. The distributed executor uses this to keep
/// uncontrolled SWAPs out of blocks: standalone, they execute as free
/// qubit-map relabels, while inside a block they would force the block's
/// qubits local (communication the relabel avoids entirely).
pub fn fuse_circuit_with_barriers(
    circuit: &Circuit,
    policy: &FusionPolicy,
    barrier: impl Fn(&Gate) -> bool,
) -> FusedCircuit {
    let ops = match *policy {
        FusionPolicy::Disabled => circuit.gates().iter().cloned().map(FusedOp::Gate).collect(),
        FusionPolicy::Greedy { max_fused_qubits } => greedy_fuse(
            circuit,
            max_fused_qubits.clamp(1, MAX_FUSED_QUBITS),
            &barrier,
        ),
    };
    FusedCircuit {
        n_qubits: circuit.n_qubits(),
        ops,
    }
}

/// Flushes the pending run into `ops` (single gates skip block overhead).
fn flush(ops: &mut Vec<FusedOp>, pending: &mut Vec<Gate>, pending_qubits: &mut Vec<usize>) {
    match pending.len() {
        0 => {}
        1 => ops.push(FusedOp::Gate(pending.pop().unwrap())),
        _ => ops.push(FusedOp::Block(FusedGate::from_gates(
            std::mem::take(pending_qubits),
            pending,
        ))),
    }
    pending.clear();
    pending_qubits.clear();
}

fn greedy_fuse(circuit: &Circuit, kmax: usize, barrier: &impl Fn(&Gate) -> bool) -> Vec<FusedOp> {
    let mut ops = Vec::new();
    let mut pending: Vec<Gate> = Vec::new();
    let mut pending_qubits: Vec<usize> = Vec::new(); // ascending
    for gate in circuit.gates() {
        if barrier(gate) {
            flush(&mut ops, &mut pending, &mut pending_qubits);
            ops.push(FusedOp::Gate(gate.clone()));
            continue;
        }
        let mut gq = gate.qubits();
        gq.sort_unstable();
        let union = merge_sorted(&pending_qubits, &gq);
        if !pending.is_empty() && union.len() <= kmax {
            pending_qubits = union;
            pending.push(gate.clone());
        } else {
            flush(&mut ops, &mut pending, &mut pending_qubits);
            if gq.len() <= kmax {
                pending_qubits = gq;
                pending.push(gate.clone());
            } else {
                // Wider than the window on its own (e.g. many controls):
                // stays on the per-gate kernel fast path.
                ops.push(FusedOp::Gate(gate.clone()));
            }
        }
    }
    flush(&mut ops, &mut pending, &mut pending_qubits);
    ops
}

/// Union of two ascending, duplicate-free index lists.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                out.push(x);
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                out.push(x);
                i += 1;
            }
            (Some(_), Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

impl Circuit {
    /// Fuses this circuit under `policy` — see [`fuse_circuit`].
    pub fn fuse(&self, policy: &FusionPolicy) -> FusedCircuit {
        fuse_circuit(self, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::entangle::entangle_circuit;
    use crate::circuits::qft::qft_circuit;
    use crate::kernels::apply_gate_slice;
    use crate::statevector::StateVector;
    use qcemu_linalg::{max_abs_diff, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_fused_equals_unfused(circuit: &Circuit, kmax: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_state(1usize << circuit.n_qubits(), &mut rng);
        let mut plain = input.clone();
        for g in circuit.gates() {
            apply_gate_slice(&mut plain, g);
        }
        let fused = fuse_circuit(
            circuit,
            &FusionPolicy::Greedy {
                max_fused_qubits: kmax,
            },
        );
        let mut blocked = input;
        fused.apply_slice(&mut blocked);
        assert!(
            max_abs_diff(&plain, &blocked) < 1e-12,
            "fused(k={kmax}) diverges on {} gates: {}",
            circuit.gate_count(),
            max_abs_diff(&plain, &blocked)
        );
    }

    #[test]
    fn qft_fused_matches_unfused_at_every_window() {
        let c = qft_circuit(8);
        for kmax in 1..=MAX_FUSED_QUBITS {
            check_fused_equals_unfused(&c, kmax, 700 + kmax as u64);
        }
    }

    #[test]
    fn entangle_fused_matches_unfused_at_every_window() {
        let c = entangle_circuit(9);
        for kmax in 1..=MAX_FUSED_QUBITS {
            check_fused_equals_unfused(&c, kmax, 710 + kmax as u64);
        }
    }

    #[test]
    fn mixed_gate_zoo_fuses_correctly() {
        let mut c = Circuit::new(6);
        c.h(0)
            .cnot(0, 1)
            .toffoli(0, 1, 2)
            .swap(2, 3)
            .rz(3, 0.4)
            .cphase(3, 4, -0.7)
            .x(5)
            .phase(5, 1.1)
            .ry(4, 0.2)
            .cnot(5, 0);
        c.push(Gate::Swap {
            a: 1,
            b: 2,
            controls: vec![0],
        });
        for kmax in 1..=MAX_FUSED_QUBITS {
            check_fused_equals_unfused(&c, kmax, 720 + kmax as u64);
        }
    }

    #[test]
    fn disabled_policy_keeps_every_gate_single() {
        let c = qft_circuit(5);
        let fused = fuse_circuit(&c, &FusionPolicy::Disabled);
        assert_eq!(fused.ops().len(), c.gate_count());
        assert!(fused.ops().iter().all(|op| matches!(op, FusedOp::Gate(_))));
    }

    #[test]
    fn blocks_respect_the_window() {
        let c = qft_circuit(10);
        for kmax in 2..=MAX_FUSED_QUBITS {
            let fused = c.fuse(&FusionPolicy::Greedy {
                max_fused_qubits: kmax,
            });
            for op in fused.ops() {
                if let FusedOp::Block(b) = op {
                    assert!(b.qubits().len() <= kmax);
                    assert!(b.gate_count() >= 2);
                    assert!(b.matrix().is_unitary(1e-10));
                }
            }
            let census = fused.census();
            assert!(census.blocks > 0);
            assert!(census.max_block_qubits <= kmax);
            assert_eq!(census.singles + census.fused_gates, c.gate_count());
        }
    }

    #[test]
    fn oversized_gates_stay_on_the_fast_path() {
        let mut c = Circuit::new(6);
        c.push(Gate::mcx(vec![0, 1, 2, 3], 4)); // 5 qubits > window of 3
        c.h(5);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.ops().len(), 2);
        assert!(matches!(fused.ops()[0], FusedOp::Gate(_)));
        check_fused_equals_unfused(&c, 3, 730);
    }

    #[test]
    fn block_structure_classification() {
        // A run of diagonal gates → diagonal block.
        let mut c = Circuit::new(4);
        c.cphase(0, 1, 0.3).rz(1, 0.2);
        c.push(Gate::cz(0, 2));
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 4,
        });
        assert_eq!(fused.ops().len(), 1);
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::Diagonal);
        } else {
            panic!("expected one block");
        }

        // A run of CNOT/SWAP → permutation block.
        let mut c = Circuit::new(4);
        c.cnot(0, 1).cnot(0, 2).swap(1, 2);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 4,
        });
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::Permutation);
        } else {
            panic!("expected one block");
        }

        // An H in the run → general block.
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).rz(1, 0.5);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 4,
        });
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::General);
        } else {
            panic!("expected one block");
        }

        // Many general gates on a narrow window → dense block.
        let mut c = Circuit::new(2);
        for _ in 0..3 {
            c.h(0).ry(1, 0.1);
        }
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 2,
        });
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::Dense);
            assert_eq!(b.gate_count(), 6);
        } else {
            panic!("expected one block");
        }
        check_fused_equals_unfused(&c, 2, 731);
    }

    #[test]
    fn apply_buffer_matches_apply_slice_per_group() {
        // For a block on qubits 0..k of a 2^k state, one "group" is the
        // whole state: apply_buffer must reproduce apply_slice for every
        // structural class (diagonal, permutation, general, dense).
        let blocks: Vec<Circuit> = vec![
            {
                let mut c = Circuit::new(3);
                c.cphase(0, 1, 0.3).rz(2, 0.4);
                c.push(Gate::cz(0, 2));
                c
            },
            {
                let mut c = Circuit::new(3);
                c.cnot(0, 1).swap(1, 2).x(0);
                c
            },
            {
                let mut c = Circuit::new(3);
                c.h(0).cnot(0, 1).rz(2, 0.7);
                c
            },
            {
                let mut c = Circuit::new(2);
                for _ in 0..3 {
                    c.h(0).ry(1, 0.2);
                }
                c
            },
        ];
        for (i, c) in blocks.iter().enumerate() {
            let fused = c.fuse(&FusionPolicy::Greedy {
                max_fused_qubits: c.n_qubits(),
            });
            assert_eq!(fused.ops().len(), 1);
            let FusedOp::Block(b) = &fused.ops()[0] else {
                panic!("expected a block");
            };
            let mut rng = StdRng::seed_from_u64(760 + i as u64);
            let input = random_state(1usize << c.n_qubits(), &mut rng);
            let mut via_buffer = input.clone();
            b.apply_buffer(&mut via_buffer);
            let mut via_slice = input;
            b.apply_slice(&mut via_slice);
            assert!(
                max_abs_diff(&via_buffer, &via_slice) < 1e-13,
                "block {i}: buffer/slice mismatch"
            );
        }
    }

    #[test]
    fn diagonal_factors_exposed_only_for_diagonal_blocks() {
        let mut c = Circuit::new(3);
        c.cphase(0, 1, 0.3).rz(2, 0.4);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        let FusedOp::Block(b) = &fused.ops()[0] else {
            panic!("expected a block");
        };
        let factors = b.diagonal_factors().expect("diagonal block");
        assert_eq!(factors.len(), 8);

        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 2,
        });
        let FusedOp::Block(b) = &fused.ops()[0] else {
            panic!("expected a block");
        };
        assert!(b.diagonal_factors().is_none());
    }

    #[test]
    fn fuse_within_clamps_the_window() {
        let c = qft_circuit(8);
        let fused = c.fuse_within(&FusionPolicy::greedy(), 2);
        assert!(fused.census().max_block_qubits <= 2);
        // Disabled stays disabled.
        let fused = c.fuse_within(&FusionPolicy::Disabled, 2);
        assert!(fused.ops().iter().all(|op| matches!(op, FusedOp::Gate(_))));
    }

    #[test]
    fn touched_entries_accounting() {
        let n = 10;
        let full = 1usize << n;

        // Diagonal block of two controlled phases sharing qubit 2: the
        // composed diagonal is non-unit on local patterns with bit(2)=1
        // and (bit(0)=1 or bit(1)=1): 3 of 8 patterns → 3/8 of the state.
        let mut c = Circuit::new(n);
        c.cphase(0, 2, 0.3).cphase(1, 2, 0.4);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.touched_entries(n), 3 * full / 8);
        // Unfused: two quarter-touches.
        let unfused = c.fuse(&FusionPolicy::Disabled);
        assert_eq!(unfused.touched_entries(n), full / 2);

        // Permutation block: two CNOTs sharing control 0 move only the
        // control-on half.
        let mut c = Circuit::new(n);
        c.cnot(0, 1).cnot(0, 2);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.touched_entries(n), full / 2);
        assert_eq!(
            c.fuse(&FusionPolicy::Disabled).touched_entries(n),
            full // two half-touches
        );

        // General block: one full sweep however many gates it holds.
        let mut c = Circuit::new(n);
        c.h(0).cnot(0, 1).h(1).cnot(1, 2);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.ops().len(), 1);
        assert_eq!(fused.touched_entries(n), full);
    }

    #[test]
    fn fused_traffic_beats_unfused_on_the_benchmark_circuits() {
        // The quantity the fusion_ablation bench measures in time, checked
        // here in the traffic model: one fused sweep per block vs one
        // (partial) sweep per gate.
        for n in [12, 16] {
            for circuit in [qft_circuit(n), entangle_circuit(n)] {
                let unfused = circuit.fuse(&FusionPolicy::Disabled).touched_entries(n);
                for kmax in [4, 5] {
                    let fused = circuit
                        .fuse(&FusionPolicy::Greedy {
                            max_fused_qubits: kmax,
                        })
                        .touched_entries(n);
                    assert!(
                        fused < unfused,
                        "fusion(k={kmax}) should cut traffic on {n} qubits: {fused} vs {unfused}"
                    );
                }
            }
        }
    }

    #[test]
    fn statevector_run_honours_the_config() {
        let c = qft_circuit(7);
        let mut plain = StateVector::uniform_superposition(7);
        plain.apply_circuit(&c);
        // Disabled config is bitwise identical to apply_circuit.
        let mut unfused = StateVector::uniform_superposition(7);
        unfused.run(&c, &SimConfig::unfused());
        assert_eq!(max_abs_diff(plain.amplitudes(), unfused.amplitudes()), 0.0);
        // Fused config agrees to rounding.
        for k in 2..=5 {
            let mut fused = StateVector::uniform_superposition(7);
            fused.run(&c, &SimConfig::fused(k));
            assert!(max_abs_diff(plain.amplitudes(), fused.amplitudes()) < 1e-12);
        }
    }

    #[test]
    fn window_is_clamped_to_kernel_limit() {
        let c = qft_circuit(9);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 64,
        });
        assert!(fused.census().max_block_qubits <= MAX_FUSED_QUBITS);
        check_fused_equals_unfused(&c, 64, 740);
    }

    #[test]
    fn merge_sorted_unions() {
        assert_eq!(merge_sorted(&[0, 2, 5], &[2, 3]), vec![0, 2, 3, 5]);
        assert_eq!(merge_sorted(&[], &[1]), vec![1]);
        assert_eq!(merge_sorted(&[4], &[]), vec![4]);
    }
}
