//! Batched state vectors: N ensemble members advanced through one plan.
//!
//! Production emulation traffic is ensembles — parameter sweeps, shot
//! batches, many users on one circuit shape — and the per-gate kernels are
//! bandwidth-bound, so the batch axis is a throughput lever the single-state
//! drivers cannot reach:
//!
//! * **Layout**: [`BatchStateVector`] stores amplitude `i` of member `j` at
//!   `amps[i·batch + j]` (batch-major per amplitude). Every amplitude index
//!   is a *contiguous run of `batch` complex numbers*, so the SIMD slice
//!   primitives ([`simd::butterfly_slices`], [`simd::scale_slice`]) apply at
//!   **every** qubit position: a gate on qubit 0, which the per-state run
//!   drivers must execute scalar (run length 1), vectorises across the
//!   batch dimension whenever `batch ≥ simd::LANES`. Ragged batch sizes are
//!   fine — the primitives handle arbitrary slice lengths with a scalar
//!   tail.
//! * **Amortisation**: one pair enumeration, one rayon dispatch, and one
//!   fused-block precompute serve all members, so the per-gate fixed costs
//!   (thread handoff, cycle decomposition, gather bookkeeping) are paid
//!   once per gate instead of once per gate per member.
//!
//! Parallelism follows [`SimConfig::par_threshold`] like the per-state
//! kernels, but counts the whole ensemble: a batch of 8 small states
//! crosses the threshold 8× earlier than one of its members would alone.
//!
//! The drivers below mirror `crate::kernels` one-to-one (pair / one-bit /
//! swap enumeration with controls folded into the index space); the fused
//! batched appliers mirror the blocked kernels. *Dense* blocks run a
//! batch-major mat-mat product against the composed block unitary
//! (`out[r·batch+j] = Σ_c M[r,c]·in[c·batch+j]`), so a block fused from
//! thousands of gates costs one `2^k × 2^k` GEMM per group regardless of
//! its original depth; *general* blocks (fewer gates than `2^k`) replay
//! their precompiled `LocalOp`s on the gathered runs instead.
//!
//! Equivalence with N independent sequential runs (≤1e-12, every gate
//! class × fusion policy × SIMD/scalar × ragged batch sizes) is pinned by
//! the `batch_equivalence` suite at the workspace root.

use crate::circuit::Circuit;
use crate::fusion::{fuse_circuit, FusedCircuit, FusionPolicy, SimConfig};
use crate::gate::{Gate, GateStructure, Mat2};
use crate::kernels::{
    check_fused_qubits, control_layout, expand_index, parallel_ok, scatter_index, LocalOp,
    StatePtr, PAR_THRESHOLD,
};
use crate::segment::SegmentPolicy;
use crate::statevector::StateVector;
use qcemu_linalg::{simd, CMatrix, C64};
use rayon::prelude::*;

/// Index-tile width for the interleave/de-interleave transposes. A tile of
/// 512 amplitudes × 16 bytes is 8 KiB per member — small enough that the
/// batch-major side of the transpose (`512 · batch` entries) stays L1/L2
/// resident across the member loop, so every strided cache line is touched
/// once instead of once per member.
const TRANSPOSE_TILE: usize = 512;

/// Zero-filled amplitude buffer straight from the allocator
/// (`alloc_zeroed`): multi-megabyte batch buffers arrive as lazily-mapped
/// kernel zero pages instead of paying an eager store sweep — the cost of
/// zeroing moves into the first kernel pass (a page fault per 4 KiB)
/// rather than a full extra write of the buffer up front.
fn zeroed_amps(len: usize) -> Vec<C64> {
    if len == 0 {
        return Vec::new();
    }
    let layout = std::alloc::Layout::array::<C64>(len).expect("batch buffer too large");
    // SAFETY: the allocation uses exactly the layout `Vec<C64>` frees
    // with, and the all-zero bit pattern is a valid C64 (0.0 + 0.0i).
    unsafe {
        let p = std::alloc::alloc_zeroed(layout) as *mut C64;
        if p.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(p, len, len)
    }
}

/// An ensemble of `batch` state vectors over the same `n_qubits` qubits,
/// stored batch-major per amplitude: amplitude `i` of member `j` lives at
/// `amps[i·batch + j]`. See the module docs for why this layout
/// vectorises where per-state execution cannot.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchStateVector {
    n_qubits: usize,
    batch: usize,
    amps: Vec<C64>,
}

impl BatchStateVector {
    /// `batch` copies of `|00…0⟩` on `n_qubits` qubits.
    pub fn zero_state(n_qubits: usize, batch: usize) -> BatchStateVector {
        assert!(batch > 0, "batch must be non-empty");
        assert!(n_qubits < usize::BITS as usize, "too many qubits");
        let dim = 1usize << n_qubits;
        let mut amps = zeroed_amps(dim * batch);
        amps[..batch].fill(C64::ONE);
        BatchStateVector {
            n_qubits,
            batch,
            amps,
        }
    }

    /// `batch` copies of one state.
    pub fn broadcast(state: &StateVector, batch: usize) -> BatchStateVector {
        assert!(batch > 0, "batch must be non-empty");
        let mut amps = zeroed_amps(state.dim() * batch);
        for (i, &a) in state.amplitudes().iter().enumerate() {
            amps[i * batch..(i + 1) * batch].fill(a);
        }
        BatchStateVector {
            n_qubits: state.n_qubits(),
            batch,
            amps,
        }
    }

    /// Interleaves independent states (all on the same qubit count) into
    /// one batch.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or qubit counts disagree.
    pub fn from_states(states: &[StateVector]) -> BatchStateVector {
        assert!(!states.is_empty(), "batch must be non-empty");
        let n_qubits = states[0].n_qubits();
        assert!(
            states.iter().all(|s| s.n_qubits() == n_qubits),
            "batch members must have the same qubit count"
        );
        let batch = states.len();
        let dim = 1usize << n_qubits;
        let mut amps = zeroed_amps(dim * batch);
        // Tiled interleave: all members fill one index tile before moving
        // on, so each destination cache line is completed while hot
        // instead of being revisited once per member a megabyte later.
        for t0 in (0..dim).step_by(TRANSPOSE_TILE) {
            let t1 = (t0 + TRANSPOSE_TILE).min(dim);
            for (j, s) in states.iter().enumerate() {
                let src = &s.amplitudes()[t0..t1];
                for (k, &a) in src.iter().enumerate() {
                    amps[(t0 + k) * batch + j] = a;
                }
            }
        }
        BatchStateVector {
            n_qubits,
            batch,
            amps,
        }
    }

    /// Number of qubits per member.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of ensemble members.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Per-member dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// The raw interleaved amplitudes (`dim·batch` entries, member `j`'s
    /// amplitude `i` at `i·batch + j`).
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The raw interleaved amplitudes, mutable.
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Amplitude `i` of member `j`.
    #[inline]
    pub fn amplitude(&self, i: usize, j: usize) -> C64 {
        self.amps[i * self.batch + j]
    }

    /// Extracts member `j` as an independent [`StateVector`] (strided
    /// copy; amplitude order is preserved exactly, so samplers and norms
    /// on the extraction match the member bit-for-bit).
    pub fn member(&self, j: usize) -> StateVector {
        assert!(j < self.batch, "member index out of range");
        let dim = self.dim();
        let mut amps = Vec::with_capacity(dim);
        for i in 0..dim {
            amps.push(self.amps[i * self.batch + j]);
        }
        StateVector::from_amplitudes(amps)
    }

    /// Overwrites member `j` with `state` (strided scatter).
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts disagree or `j` is out of range.
    pub fn set_member(&mut self, j: usize, state: &StateVector) {
        assert!(j < self.batch, "member index out of range");
        assert_eq!(
            state.n_qubits(),
            self.n_qubits,
            "member qubit count mismatch"
        );
        for (i, &a) in state.amplitudes().iter().enumerate() {
            self.amps[i * self.batch + j] = a;
        }
    }

    /// De-interleaves the batch into independent states (tiled, like
    /// [`BatchStateVector::from_states`] — every batch cache line is
    /// drained into all members while hot, so bulk extraction costs one
    /// streaming pass rather than `batch` strided ones).
    pub fn to_states(&self) -> Vec<StateVector> {
        let dim = self.dim();
        let mut out: Vec<Vec<C64>> = (0..self.batch).map(|_| zeroed_amps(dim)).collect();
        for t0 in (0..dim).step_by(TRANSPOSE_TILE) {
            let t1 = (t0 + TRANSPOSE_TILE).min(dim);
            for (j, dst) in out.iter_mut().enumerate() {
                for (k, d) in dst[t0..t1].iter_mut().enumerate() {
                    *d = self.amps[(t0 + k) * self.batch + j];
                }
            }
        }
        out.into_iter().map(StateVector::from_amplitudes).collect()
    }

    /// De-interleaves the batch into independent states.
    pub fn into_states(self) -> Vec<StateVector> {
        self.to_states()
    }

    /// Applies one gate to every member (validated against the qubit
    /// count).
    ///
    /// Panics on an invalid gate; use [`BatchStateVector::try_apply`]
    /// where a malformed gate must be a recoverable error.
    pub fn apply(&mut self, gate: &Gate) {
        self.try_apply(gate)
            .unwrap_or_else(|e| panic!("invalid gate: {e}"));
    }

    /// Applies one gate to every member, returning the validation error
    /// instead of panicking when the gate does not fit this batch.
    pub fn try_apply(&mut self, gate: &Gate) -> Result<(), String> {
        gate.validate(self.n_qubits)?;
        apply_gate_batch(&mut self.amps, self.batch, gate, PAR_THRESHOLD);
        Ok(())
    }

    /// Runs a circuit on every member under an execution configuration —
    /// the batched twin of [`StateVector::run`]: gate-by-gate through the
    /// batched structural kernels when fusion is disabled, fused blocked
    /// sweeps otherwise, cache-blocked segments first when
    /// [`SegmentPolicy::Blocked`] is set (see [`crate::segment`]). Fusion,
    /// segmentation, and every other per-gate precompute are paid once
    /// for the whole ensemble.
    pub fn run(&mut self, circuit: &Circuit, config: &SimConfig) {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "circuit needs {} qubits, state has {}",
            circuit.n_qubits(),
            self.n_qubits
        );
        if let SegmentPolicy::Blocked { block_bits } = config.segments {
            let seg = crate::segment::segment_circuit(circuit, block_bits, &config.fusion);
            seg.apply_batched_with(&mut self.amps, self.batch, config.par_threshold);
            return;
        }
        match config.fusion {
            FusionPolicy::Disabled => {
                for gate in circuit.gates() {
                    apply_gate_batch(&mut self.amps, self.batch, gate, config.par_threshold);
                }
            }
            FusionPolicy::Greedy { .. } => {
                let fused = fuse_circuit(circuit, &config.fusion);
                fused.apply_batched_with(&mut self.amps, self.batch, config.par_threshold);
            }
        }
    }

    /// Applies an already-fused circuit to every member (fusion cost is
    /// paid by the caller, once).
    pub fn apply_fused_circuit(&mut self, fused: &FusedCircuit) {
        assert!(
            fused.n_qubits() <= self.n_qubits,
            "fused circuit needs {} qubits, state has {}",
            fused.n_qubits(),
            self.n_qubits
        );
        fused.apply_batched_with(&mut self.amps, self.batch, PAR_THRESHOLD);
    }

    /// `‖ψ_j‖₂` of member `j`.
    pub fn member_norm(&self, j: usize) -> f64 {
        assert!(j < self.batch, "member index out of range");
        let mut acc = 0.0f64;
        for i in 0..self.dim() {
            acc += self.amps[i * self.batch + j].norm_sqr();
        }
        acc.sqrt()
    }

    /// Largest amplitude difference between member `j` and `other`.
    pub fn member_max_diff(&self, j: usize, other: &StateVector) -> f64 {
        assert_eq!(other.n_qubits(), self.n_qubits, "qubit count mismatch");
        other
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(i, &a)| (self.amplitude(i, j) - a).abs())
            .fold(0.0f64, f64::max)
    }
}

/// Per-member qubit count of an interleaved buffer, validating the layout.
#[inline]
fn batch_bits(len: usize, batch: usize) -> usize {
    assert!(
        batch > 0 && len.is_multiple_of(batch),
        "buffer not a whole batch"
    );
    let dim = len / batch;
    assert!(dim.is_power_of_two(), "per-member length must be 2^n");
    dim.trailing_zeros() as usize
}

// --- batched pair / one-bit / swap drivers --------------------------------
//
// Mirrors of the `kernels` enumeration: controls fold into the compressed
// index space, `expand_index` is injective, and each compressed index now
// owns a contiguous run of `batch` elements per amplitude — so every driver
// hands out whole runs and there is no scalar fallback tier.

/// Runs `f(lo_run, hi_run)` over the batch runs of every amplitude pair
/// selected by (`target`, `controls`), on an interleaved buffer.
fn for_each_pair_batch<F>(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) where
    F: Fn(&mut [C64], &mut [C64]) + Sync + Send,
{
    let n_bits = batch_bits(state.len(), batch);
    let (positions, cmask) = control_layout(&[target], controls);
    debug_assert!(positions.len() <= n_bits);
    let count = 1usize << (n_bits - positions.len());
    let tbit = 1usize << target;
    let ptr = StatePtr(state.as_mut_ptr());
    let body = |k: usize| {
        let i0 = expand_index(k, &positions) | cmask;
        // SAFETY: `expand_index` is injective in k and leaves the target
        // bit clear, so the runs at i0·batch and (i0|tbit)·batch are
        // pairwise disjoint across the loop and in bounds by construction.
        unsafe {
            let p = ptr;
            let lo = std::slice::from_raw_parts_mut(p.0.add(i0 * batch), batch);
            let hi = std::slice::from_raw_parts_mut(p.0.add((i0 | tbit) * batch), batch);
            f(lo, hi);
        }
    };
    if parallel_ok(count.saturating_mul(batch), par_threshold) && count > 1 {
        (0..count).into_par_iter().for_each(body);
    } else {
        (0..count).for_each(body);
    }
}

/// Runs `f(run)` over the batch runs of every amplitude whose target bit
/// is 1 and whose control bits are all 1.
fn for_each_one_batch<F>(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) where
    F: Fn(&mut [C64]) + Sync + Send,
{
    let n_bits = batch_bits(state.len(), batch);
    let (positions, cmask) = control_layout(&[target], controls);
    let count = 1usize << (n_bits - positions.len());
    let tbit = 1usize << target;
    let ptr = StatePtr(state.as_mut_ptr());
    let body = |k: usize| {
        let i = expand_index(k, &positions) | cmask | tbit;
        // SAFETY: injective expansion ⇒ disjoint runs (see module doc).
        unsafe {
            let p = ptr;
            f(std::slice::from_raw_parts_mut(p.0.add(i * batch), batch));
        }
    };
    if parallel_ok(count.saturating_mul(batch), par_threshold) && count > 1 {
        (0..count).into_par_iter().for_each(body);
    } else {
        (0..count).for_each(body);
    }
}

/// General (controlled) single-qubit unitary on every member: one
/// butterfly per pair run, vectorised across the batch dimension at any
/// qubit position.
pub fn apply_general_batch(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    m: &Mat2,
    par_threshold: usize,
) {
    let m = *m;
    for_each_pair_batch(
        state,
        batch,
        target,
        controls,
        par_threshold,
        move |lo, hi| simd::butterfly_slices(lo, hi, &m),
    );
}

/// Diagonal (controlled) gate `diag(d0, d1)` on every member; `d0 = 1`
/// keeps the quarter-touch access pattern of the per-state kernel.
pub fn apply_diagonal_batch(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    d0: C64,
    d1: C64,
    par_threshold: usize,
) {
    if d0 == C64::ONE {
        if d1 == C64::ONE {
            return; // identity
        }
        for_each_one_batch(state, batch, target, controls, par_threshold, move |xs| {
            simd::scale_slice(xs, d1)
        });
    } else {
        for_each_pair_batch(
            state,
            batch,
            target,
            controls,
            par_threshold,
            move |lo, hi| {
                simd::scale_slice(lo, d0);
                simd::scale_slice(hi, d1);
            },
        );
    }
}

/// (Controlled) X on every member: swaps pair runs, no arithmetic.
pub fn apply_perm_x_batch(
    state: &mut [C64],
    batch: usize,
    target: usize,
    controls: &[usize],
    par_threshold: usize,
) {
    for_each_pair_batch(state, batch, target, controls, par_threshold, |lo, hi| {
        simd::swap_slices(lo, hi)
    });
}

/// (Controlled) SWAP of qubits `qa`/`qb` on every member.
pub fn apply_swap_batch(
    state: &mut [C64],
    batch: usize,
    qa: usize,
    qb: usize,
    controls: &[usize],
    par_threshold: usize,
) {
    let n_bits = batch_bits(state.len(), batch);
    let (positions, cmask) = control_layout(&[qa, qb], controls);
    let count = 1usize << (n_bits - positions.len());
    let abit = 1usize << qa;
    let bbit = 1usize << qb;
    let ptr = StatePtr(state.as_mut_ptr());
    let body = |k: usize| {
        let base = expand_index(k, &positions) | cmask;
        // SAFETY: injective expansion and a ≠ b ⇒ the two runs are
        // disjoint from each other and across k, in bounds by construction.
        unsafe {
            let p = ptr;
            let lo = std::slice::from_raw_parts_mut(p.0.add((base | abit) * batch), batch);
            let hi = std::slice::from_raw_parts_mut(p.0.add((base | bbit) * batch), batch);
            simd::swap_slices(lo, hi);
        }
    };
    if parallel_ok(count.saturating_mul(batch), par_threshold) && count > 1 {
        (0..count).into_par_iter().for_each(body);
    } else {
        (0..count).for_each(body);
    }
}

/// Applies one [`Gate`] to every member of an interleaved buffer,
/// dispatching on structure — the batched twin of
/// [`crate::kernels::apply_gate_slice_with`].
pub fn apply_gate_batch(state: &mut [C64], batch: usize, gate: &Gate, par_threshold: usize) {
    match gate {
        Gate::Unary {
            op,
            target,
            controls,
        } => match op.structure() {
            GateStructure::Diagonal(d0, d1) => {
                apply_diagonal_batch(state, batch, *target, controls, d0, d1, par_threshold)
            }
            GateStructure::PermutationX => {
                apply_perm_x_batch(state, batch, *target, controls, par_threshold)
            }
            GateStructure::General(m) => {
                apply_general_batch(state, batch, *target, controls, &m, par_threshold)
            }
        },
        Gate::Swap { a, b, controls } => {
            apply_swap_batch(state, batch, *a, *b, controls, par_threshold)
        }
    }
}

// --- batched fused (blocked) kernels --------------------------------------

/// Group enumeration over an interleaved buffer: `f(ptr, base)` runs for
/// every group base (amplitude index with the block's qubit bits clear).
/// Parallelism counts the whole ensemble buffer against the threshold.
fn for_each_group_batch<F>(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    par_threshold: usize,
    f: F,
) where
    F: Fn(StatePtr, usize) + Sync + Send,
{
    let n_bits = batch_bits(state.len(), batch);
    check_fused_qubits(n_bits, qubits);
    let count = 1usize << (n_bits - qubits.len());
    let ptr = StatePtr(state.as_mut_ptr());
    if state.len() >= par_threshold && count > 1 && rayon::current_num_threads() > 1 {
        // SAFETY: injective group expansion; `f` only touches runs at
        // `(base | off)·batch` with `off` confined to the block's qubit
        // bits, so distinct groups own disjoint buffer ranges.
        (0..count)
            .into_par_iter()
            .for_each(|g| f(ptr, expand_index(g, qubits)));
    } else {
        for g in 0..count {
            f(ptr, expand_index(g, qubits));
        }
    }
}

/// Fused **diagonal** block on every member: scales only the batch runs
/// whose local factor differs from 1 — the batched twin of
/// [`crate::kernels::apply_fused_diagonal_with`].
pub fn apply_fused_diagonal_batch(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    factors: &[C64],
    par_threshold: usize,
) {
    let dim = 1usize << qubits.len();
    assert_eq!(factors.len(), dim, "diagonal block needs 2^k factors");
    let touched: Vec<(usize, C64)> = factors
        .iter()
        .enumerate()
        .filter(|&(_, &f)| f != C64::ONE)
        .map(|(v, &f)| (scatter_index(v, qubits), f))
        .collect();
    if touched.is_empty() {
        return; // identity block
    }
    for_each_group_batch(state, batch, qubits, par_threshold, |p, base| {
        // SAFETY: disjoint groups as in `for_each_group_batch`.
        unsafe {
            for &(off, f) in &touched {
                let run = std::slice::from_raw_parts_mut(p.0.add((base | off) * batch), batch);
                simd::scale_slice(run, f);
            }
        }
    });
}

/// Fused **monomial** (permutation-with-phases) block on every member.
///
/// The per-state kernel walks each cycle backwards with one saved
/// amplitude; a saved *run* would need per-group scratch, so the batched
/// walk instead rotates the runs in place with `cycle_len − 1` pairwise
/// run swaps and then applies the phase factors in a second pass over the
/// moved runs — still allocation-free in the group loop.
pub fn apply_fused_permutation_batch(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    target: &[usize],
    factor: &[C64],
    par_threshold: usize,
) {
    let dim = 1usize << qubits.len();
    assert_eq!(target.len(), dim, "permutation block needs 2^k targets");
    assert_eq!(factor.len(), dim, "permutation block needs 2^k factors");

    // Cycle decomposition over the non-identity support, precomputed once
    // for the whole ensemble (same scheme as the per-state kernel).
    let mut cycles: Vec<Vec<(usize, C64)>> = Vec::new();
    let mut seen = vec![false; dim];
    for start in 0..dim {
        if seen[start] {
            continue;
        }
        let mut cyc = Vec::new();
        let mut v = start;
        loop {
            seen[v] = true;
            cyc.push(v);
            v = target[v];
            assert!(v < dim, "permutation target {v} out of range");
            if v == start {
                break;
            }
            assert!(!seen[v], "targets do not form a permutation");
        }
        if cyc.len() == 1 && factor[start] == C64::ONE {
            continue; // untouched fixed point
        }
        cycles.push(
            cyc.into_iter()
                .map(|v| (scatter_index(v, qubits), factor[v]))
                .collect(),
        );
    }
    if cycles.is_empty() {
        return; // identity block
    }

    for_each_group_batch(state, batch, qubits, par_threshold, |p, base| {
        // SAFETY: disjoint groups; within a group all runs live at
        // `(base | off)·batch` with distinct offsets along each cycle.
        unsafe {
            for cyc in &cycles {
                let run = |off: usize| {
                    std::slice::from_raw_parts_mut(p.0.add((base | off) * batch), batch)
                };
                let last = cyc.len() - 1;
                // Rotate: after the backwards swaps, run(cyc[i]) holds the
                // old run(cyc[i−1]) for i ≥ 1 and run(cyc[0]) the old last.
                for i in (1..=last).rev() {
                    simd::swap_slices(run(cyc[i].0), run(cyc[i - 1].0));
                }
                // Phases: new[target[v]] = factor[v]·old[v].
                for i in (1..=last).rev() {
                    let f = cyc[i - 1].1;
                    if f != C64::ONE {
                        simd::scale_slice(run(cyc[i].0), f);
                    }
                }
                if cyc[last].1 != C64::ONE {
                    simd::scale_slice(run(cyc[0].0), cyc[last].1);
                }
            }
        }
    });
}

/// Fused general block on every member: gathers each group's `2^k`
/// batch runs into a worker-local scratch buffer, replays the block's
/// precompiled `LocalOp`s on it (batched, in cache), and scatters back.
pub(crate) fn apply_fused_local_batch(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    ops: &[LocalOp],
    par_threshold: usize,
) {
    replay_groups_batch(state, batch, qubits, par_threshold, |buf| {
        for op in ops {
            op.apply_batch(buf, batch);
        }
    });
}

/// The gather → `replay` → scatter driver behind
/// [`apply_fused_local_batch`]: `replay` sees one group's `2^k` batch runs
/// as a contiguous `2^k·batch` buffer (run `v` at `v·batch`). Workers
/// allocate that scratch **once** and sweep a contiguous range of
/// groups, so the hot loop is allocation-free. With no `qubits` every
/// run is its own group and is replayed in place.
pub(crate) fn replay_groups_batch<F>(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    par_threshold: usize,
    replay: F,
) where
    F: Fn(&mut [C64]) + Sync,
{
    let n_bits = batch_bits(state.len(), batch);
    if !qubits.is_empty() {
        check_fused_qubits(n_bits, qubits);
    }
    let dim = 1usize << qubits.len();
    let offs: Vec<usize> = (0..dim).map(|v| scatter_index(v, qubits)).collect();
    let count = 1usize << (n_bits - qubits.len());
    let parallel = state.len() >= par_threshold && count > 1 && rayon::current_num_threads() > 1;
    let workers = if parallel {
        rayon::current_num_threads().min(count)
    } else {
        1
    };
    let chunk = count.div_ceil(workers);
    let ptr = StatePtr(state.as_mut_ptr());
    let body = |w: usize| {
        let groups = (w * chunk)..((w + 1) * chunk).min(count);
        if qubits.is_empty() {
            for g in groups {
                // SAFETY: run g is `g·batch..(g+1)·batch`, disjoint across
                // g and in bounds since g < count = len / batch.
                unsafe { replay(std::slice::from_raw_parts_mut(ptr.0.add(g * batch), batch)) };
            }
            return;
        }
        let mut scratch = vec![C64::ZERO; dim * batch];
        for g in groups {
            let base = expand_index(g, qubits);
            // SAFETY: disjoint groups (injective expansion, offsets
            // confined to the block's qubit bits); scratch is worker-local.
            unsafe {
                let p = ptr;
                for (v, &off) in offs.iter().enumerate() {
                    std::ptr::copy_nonoverlapping(
                        p.0.add((base | off) * batch) as *const C64,
                        scratch.as_mut_ptr().add(v * batch),
                        batch,
                    );
                }
                replay(&mut scratch);
                for (v, &off) in offs.iter().enumerate() {
                    std::ptr::copy_nonoverlapping(
                        scratch.as_ptr().add(v * batch),
                        p.0.add((base | off) * batch),
                        batch,
                    );
                }
            }
        }
    };
    if parallel {
        (0..workers).into_par_iter().for_each(body);
    } else {
        body(0);
    }
}

/// Fused **dense** block on every member: gathers each group's `2^k`
/// batch runs and multiplies them through the block's composed unitary
/// batch-major — `out[r·batch+j] = Σ_c M[r,c]·in[c·batch+j]`, a
/// `(2^k × 2^k) × (2^k × batch)` mat-mat product whose inner loop runs
/// along the contiguous batch axis. This is the batched twin of the
/// per-state dense mat-vec: cost per group is `4^k·batch` multiply-adds
/// *independent of the block's original gate depth*, where replaying the
/// `LocalOp` list (as [`apply_fused_local_batch`] does) scales with every
/// fused gate. Zero matrix entries are skipped, so block-sparse unitaries
/// (e.g. controlled sub-blocks) pay only their live columns. Workers
/// allocate gather + accumulator scratch once and sweep contiguous group
/// ranges, keeping the hot loop allocation-free.
pub(crate) fn apply_fused_dense_batch(
    state: &mut [C64],
    batch: usize,
    qubits: &[usize],
    matrix: &CMatrix,
    par_threshold: usize,
) {
    let n_bits = batch_bits(state.len(), batch);
    check_fused_qubits(n_bits, qubits);
    let dim = 1usize << qubits.len();
    assert_eq!(matrix.nrows(), dim, "dense block needs a 2^k x 2^k unitary");
    let offs: Vec<usize> = (0..dim).map(|v| scatter_index(v, qubits)).collect();
    let count = 1usize << (n_bits - qubits.len());
    let parallel = state.len() >= par_threshold && count > 1 && rayon::current_num_threads() > 1;
    let workers = if parallel {
        rayon::current_num_threads().min(count)
    } else {
        1
    };
    let chunk = count.div_ceil(workers);
    let ptr = StatePtr(state.as_mut_ptr());
    let body = |w: usize| {
        let mut gathered = vec![C64::ZERO; dim * batch];
        let mut out = vec![C64::ZERO; dim * batch];
        for g in (w * chunk)..((w + 1) * chunk).min(count) {
            let base = expand_index(g, qubits);
            // SAFETY: disjoint groups (injective expansion, offsets
            // confined to the block's qubit bits); scratch is worker-local.
            unsafe {
                let p = ptr;
                for (v, &off) in offs.iter().enumerate() {
                    std::ptr::copy_nonoverlapping(
                        p.0.add((base | off) * batch) as *const C64,
                        gathered.as_mut_ptr().add(v * batch),
                        batch,
                    );
                }
                dense_mat_runs(matrix, dim, &gathered, &mut out, batch);
                for (v, &off) in offs.iter().enumerate() {
                    std::ptr::copy_nonoverlapping(
                        out.as_ptr().add(v * batch),
                        p.0.add((base | off) * batch),
                        batch,
                    );
                }
            }
        }
    };
    if parallel {
        (0..workers).into_par_iter().for_each(body);
    } else {
        body(0);
    }
}

/// The batch-major mat-mat core shared by [`apply_fused_dense_batch`] and
/// [`crate::fusion::FusedGate::apply_buffer_batch`]:
/// `out[r·batch+j] = Σ_c M[r,c]·input[c·batch+j]`, through
/// [`simd::matmul_runs`] (zero entries skipped).
pub(crate) fn dense_mat_runs(
    matrix: &CMatrix,
    dim: usize,
    input: &[C64],
    out: &mut [C64],
    batch: usize,
) {
    simd::matmul_runs(matrix.as_slice(), dim, input, out, batch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::qft::qft_circuit;
    use crate::gate::GateOp;
    use qcemu_linalg::random_state;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_members(n_qubits: usize, batch: usize, seed: u64) -> Vec<StateVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..batch)
            .map(|_| StateVector::from_amplitudes(random_state(1 << n_qubits, &mut rng)))
            .collect()
    }

    fn max_member_diff(bsv: &BatchStateVector, members: &[StateVector]) -> f64 {
        members
            .iter()
            .enumerate()
            .map(|(j, s)| bsv.member_max_diff(j, s))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn try_apply_rejects_invalid_gates_without_panicking() {
        let mut bsv = BatchStateVector::zero_state(2, 3);
        assert!(bsv.try_apply(&Gate::x(5)).is_err());
        // Every member is untouched and the batch still works.
        for j in 0..3 {
            assert_eq!(bsv.member(j).probability(0), 1.0);
        }
        bsv.try_apply(&Gate::x(0)).unwrap();
        for j in 0..3 {
            assert_eq!(bsv.member(j).probability(1), 1.0);
        }
    }

    #[test]
    fn roundtrip_preserves_members() {
        let members = random_members(4, 5, 10);
        let bsv = BatchStateVector::from_states(&members);
        assert_eq!(bsv.batch(), 5);
        assert_eq!(bsv.dim(), 16);
        for (j, s) in members.iter().enumerate() {
            assert_eq!(&bsv.member(j), s);
        }
        let back = bsv.into_states();
        assert_eq!(back, members);
    }

    #[test]
    fn zero_state_and_broadcast_layouts() {
        let z = BatchStateVector::zero_state(3, 4);
        for j in 0..4 {
            assert_eq!(z.amplitude(0, j), C64::ONE);
            assert!((z.member_norm(j) - 1.0).abs() < 1e-15);
        }
        let mut sv = StateVector::zero_state(3);
        sv.apply(&Gate::h(1));
        let b = BatchStateVector::broadcast(&sv, 3);
        for j in 0..3 {
            assert_eq!(b.member(j), sv);
        }
    }

    #[test]
    fn every_gate_class_matches_sequential_members() {
        let gates = [
            Gate::h(0),
            Gate::h(3),
            Gate::x(2),
            Gate::rz(0, 0.7),
            Gate::phase(1, -0.3),
            Gate::cphase(0, 3, 0.4),
            Gate::cnot(3, 0),
            Gate::cnot(0, 2),
            Gate::swap(1, 3),
            Gate::toffoli(0, 1, 2),
            Gate::controlled(GateOp::Ry(0.9), 2, 0),
            Gate::Swap {
                a: 0,
                b: 2,
                controls: vec![3],
            },
        ];
        for batch in [1usize, 3, 4, 5, 17] {
            let members = random_members(4, batch, 20 + batch as u64);
            let mut bsv = BatchStateVector::from_states(&members);
            let mut seq = members;
            for gate in &gates {
                bsv.apply(gate);
                for s in seq.iter_mut() {
                    s.apply(gate);
                }
            }
            assert!(
                max_member_diff(&bsv, &seq) < 1e-12,
                "batched ≠ sequential at batch {batch}"
            );
        }
    }

    #[test]
    fn run_matches_sequential_fused_and_unfused() {
        let circuit = qft_circuit(5);
        for config in [
            SimConfig::unfused(),
            SimConfig::fused(3),
            SimConfig::fused(4),
        ] {
            for batch in [1usize, 4, 7] {
                let members = random_members(5, batch, 40 + batch as u64);
                let mut bsv = BatchStateVector::from_states(&members);
                bsv.run(&circuit, &config);
                let mut seq = members;
                for s in seq.iter_mut() {
                    s.run(&circuit, &config);
                }
                assert!(
                    max_member_diff(&bsv, &seq) < 1e-12,
                    "batched run ≠ sequential for {config:?} at batch {batch}"
                );
            }
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Threshold of 1 forces every driver through the rayon branch.
        let circuit = qft_circuit(6);
        let members = random_members(6, 4, 50);
        let mut par = BatchStateVector::from_states(&members);
        par.run(&circuit, &SimConfig::fused(4).with_par_threshold(1));
        let mut ser = BatchStateVector::from_states(&members);
        ser.run(
            &circuit,
            &SimConfig::fused(4).with_par_threshold(usize::MAX),
        );
        let diff = par
            .amplitudes()
            .iter()
            .zip(ser.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-13, "parallel/serial batched paths diverge");
    }

    #[test]
    fn set_member_overwrites_one_lane() {
        let members = random_members(3, 3, 60);
        let mut bsv = BatchStateVector::from_states(&members);
        let replacement = StateVector::basis_state(3, 5);
        bsv.set_member(1, &replacement);
        assert_eq!(bsv.member(0), members[0]);
        assert_eq!(bsv.member(1), replacement);
        assert_eq!(bsv.member(2), members[2]);
    }
}
