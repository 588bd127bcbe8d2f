//! Structure-specialised state-vector kernels.
//!
//! These kernels are the reason the paper's simulator beats qHiPSTER and
//! LIQUi|⟩ (§4.5): instead of one generic sparse-matrix product per gate,
//! each structural class gets its own loop —
//!
//! * **general 2×2**: one butterfly per amplitude pair;
//! * **diagonal**: pure scaling, no pairing; with `d0 = 1` (phase gates)
//!   only the `|1⟩` half is touched — a *controlled* phase therefore
//!   touches exactly a quarter of the state vector, the access pattern the
//!   paper's QFT cost model (Eq. 6) is built on;
//! * **X / SWAP**: pure permutations, no arithmetic.
//!
//! Controls are folded into the index enumeration (not checked per entry):
//! a gate with `c` controls iterates `2^{n−1−c}` compressed indices and
//! expands each by bit insertion, so work shrinks geometrically with the
//! number of controls.
//!
//! On top of the per-gate kernels sit the **fused** kernels
//! ([`apply_fused`], [`apply_fused_diagonal`], [`apply_fused_permutation`]):
//! they apply a whole k-qubit block — produced by [`crate::fusion`] from a
//! run of adjacent gates — in *one* blocked pass over the state vector,
//! so memory traffic is paid once per block instead of once per gate (the
//! qHiPSTER-style optimisation layered on the paper's §4.5 kernels).
//!
//! All kernels operate on raw `&mut [C64]` slices so that the distributed
//! simulator (`qcemu-cluster`) can run them unchanged on node-local slabs.
//!
//! ## Vectorisation
//!
//! The arithmetic kernels (butterfly, diagonal sweep, fused dense
//! product) run on the complex-SIMD primitives of
//! [`qcemu_linalg::simd`] whenever their index space decomposes into
//! contiguous runs of at least [`simd::LANES`]
//! amplitude (pairs): with the lowest gate qubit at position `p`, both
//! halves of every pair group are contiguous runs of `2^p` amplitudes, so
//! any gate whose target *and* controls all sit at qubit `≥ log2(LANES)`
//! takes the vector path. Gates on the lowest qubits (runs shorter than a
//! vector) keep the per-pair scalar path. The primitives themselves
//! dispatch at runtime (AVX2+FMA under the `simd` cargo feature, scalar
//! everywhere else), so this module is layout- and feature-agnostic.

use crate::gate::{Gate, GateStructure, Mat2};
use qcemu_linalg::{simd, CMatrix, C64};
use rayon::prelude::*;

/// Default state size below which kernels run serially: thread handoff
/// would dominate. Overridable per execution via
/// [`SimConfig::par_threshold`](crate::SimConfig) — the `_with` kernel
/// variants thread the override through; the plain entry points use this
/// constant.
pub const PAR_THRESHOLD: usize = 1 << 15;

/// `true` when a kernel over `count` independent tasks should go parallel.
#[inline]
pub(crate) fn parallel_ok(count: usize, par_threshold: usize) -> bool {
    count >= par_threshold && rayon::current_num_threads() > 1
}

/// Widest block the fused kernels accept. The gather/scatter buffers are
/// stack-allocated at `2^MAX_FUSED_QUBITS` amplitudes (1 KiB), keeping the
/// per-group working set L1-resident — the whole point of fusion.
pub const MAX_FUSED_QUBITS: usize = 6;

/// Stack-buffer dimension backing the fused kernels.
const MAX_FUSED_DIM: usize = 1 << MAX_FUSED_QUBITS;

/// Pointer wrapper that lets rayon tasks write to provably disjoint indices
/// of one buffer.
#[derive(Copy, Clone)]
pub(crate) struct StatePtr(pub(crate) *mut C64);
// SAFETY: `StatePtr` is only used by the pair/single drivers in this module
// and the batched drivers in `crate::batch`, all of which guarantee that
// distinct loop indices expand to disjoint state-vector indices (the
// expansion is injective and the target bit separates the two elements of
// each pair). No two tasks ever alias.
unsafe impl Send for StatePtr {}
unsafe impl Sync for StatePtr {}

/// Inserts zero bits into `k` at each of the (ascending) `positions`,
/// producing the state index whose "free" bits are `k` and whose bits at
/// `positions` are 0.
#[inline(always)]
pub fn expand_index(k: usize, positions: &[usize]) -> usize {
    let mut x = k;
    for &p in positions {
        let low = x & ((1usize << p) - 1);
        x = ((x >> p) << (p + 1)) | low;
    }
    x
}

/// Sorted gate-qubit positions plus the OR-mask of the control bits.
pub(crate) fn control_layout(target_bits: &[usize], controls: &[usize]) -> (Vec<usize>, usize) {
    let mut positions: Vec<usize> = controls.iter().chain(target_bits.iter()).copied().collect();
    positions.sort_unstable();
    let cmask = controls.iter().fold(0usize, |m, &c| m | (1usize << c));
    (positions, cmask)
}

#[inline]
fn log2_len(state: &[C64]) -> u32 {
    debug_assert!(state.len().is_power_of_two(), "state length must be 2^n");
    state.len().trailing_zeros()
}

/// Runs `f(&mut amp0, &mut amp1)` over every amplitude pair selected by
/// (`target`, `controls`): indices with all control bits 1, differing only
/// in the target bit.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::C64;
/// use qcemu_sim::kernels::for_each_pair;
///
/// // An X gate on qubit 0 of |00⟩, written as a raw pair swap.
/// let mut state = vec![C64::ONE, C64::ZERO, C64::ZERO, C64::ZERO];
/// for_each_pair(&mut state, 0, &[], |a, b| std::mem::swap(a, b));
/// assert_eq!(state[1], C64::ONE);
/// ```
pub fn for_each_pair<F>(state: &mut [C64], target: usize, controls: &[usize], f: F)
where
    F: Fn(&mut C64, &mut C64) + Sync + Send,
{
    for_each_pair_with(state, target, controls, PAR_THRESHOLD, f)
}

/// [`for_each_pair`] with an explicit parallelism threshold (see
/// [`SimConfig::par_threshold`](crate::SimConfig)).
pub fn for_each_pair_with<F>(
    state: &mut [C64],
    target: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) where
    F: Fn(&mut C64, &mut C64) + Sync + Send,
{
    let n_bits = log2_len(state) as usize;
    let (positions, cmask) = control_layout(&[target], controls);
    debug_assert!(
        positions.len() <= n_bits,
        "gate uses more qubits than the state has"
    );
    let free_bits = n_bits - positions.len();
    let count = 1usize << free_bits;
    let tbit = 1usize << target;

    if parallel_ok(count, par_threshold) {
        let ptr = StatePtr(state.as_mut_ptr());
        (0..count).into_par_iter().for_each(|k| {
            let i0 = expand_index(k, &positions) | cmask;
            // SAFETY: `expand_index` is injective in k and leaves the target
            // bit clear, so (i0, i0|tbit) pairs are pairwise disjoint across
            // the loop; both indices are < state.len() by construction.
            unsafe {
                let p = ptr;
                f(&mut *p.0.add(i0), &mut *p.0.add(i0 | tbit));
            }
        });
    } else {
        for k in 0..count {
            let i0 = expand_index(k, &positions) | cmask;
            let (a, b) = pair_mut(state, i0, i0 | tbit);
            f(a, b);
        }
    }
}

/// Runs `f(&mut amp)` over every amplitude whose target bit is 1 and whose
/// control bits are all 1 — the quarter-touch access pattern of the
/// controlled phase shift.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::C64;
/// use qcemu_sim::kernels::for_each_one;
///
/// // A controlled phase on (control 1, target 0) touches only |11⟩.
/// let mut state = vec![C64::ONE; 4];
/// for_each_one(&mut state, 0, &[1], |z| *z *= C64::cis(0.5));
/// assert_eq!(state[0], C64::ONE);
/// assert!(state[3].approx_eq(C64::cis(0.5), 1e-15));
/// ```
pub fn for_each_one<F>(state: &mut [C64], target: usize, controls: &[usize], f: F)
where
    F: Fn(&mut C64) + Sync + Send,
{
    for_each_one_with(state, target, controls, PAR_THRESHOLD, f)
}

/// [`for_each_one`] with an explicit parallelism threshold.
pub fn for_each_one_with<F>(
    state: &mut [C64],
    target: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) where
    F: Fn(&mut C64) + Sync + Send,
{
    let n_bits = log2_len(state) as usize;
    let (positions, cmask) = control_layout(&[target], controls);
    let free_bits = n_bits - positions.len();
    let count = 1usize << free_bits;
    let tbit = 1usize << target;

    if parallel_ok(count, par_threshold) {
        let ptr = StatePtr(state.as_mut_ptr());
        (0..count).into_par_iter().for_each(|k| {
            let i = expand_index(k, &positions) | cmask | tbit;
            // SAFETY: injective expansion ⇒ disjoint indices (see module doc).
            unsafe {
                let p = ptr;
                f(&mut *p.0.add(i));
            }
        });
    } else {
        for k in 0..count {
            let i = expand_index(k, &positions) | cmask | tbit;
            f(&mut state[i]);
        }
    }
}

/// Two disjoint mutable references into one slice.
#[inline(always)]
fn pair_mut(state: &mut [C64], i: usize, j: usize) -> (&mut C64, &mut C64) {
    debug_assert!(i < j);
    let (lo, hi) = state.split_at_mut(j);
    (&mut lo[i], &mut hi[0])
}

// --- contiguous-run drivers (the vector fast path) -----------------------
//
// With the lowest gate-qubit position at `p0`, the compressed index space
// of `for_each_pair` / `for_each_one` decomposes into contiguous runs of
// `2^p0` state indices (the bits below p0 are all free, and expansion
// leaves them in place). When `2^p0 ≥ simd::LANES` the drivers below hand
// out whole runs as slices — the shape the SIMD primitives consume — and
// the callers fall back to the per-element drivers otherwise.

/// Runs `f(lo_run, hi_run)` over contiguous pair runs, or returns `false`
/// when the runs are shorter than a vector (lowest gate qubit below
/// `log2(LANES)`) and the caller must use [`for_each_pair_with`].
fn for_each_pair_runs_with<F>(
    state: &mut [C64],
    target: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) -> bool
where
    F: Fn(&mut [C64], &mut [C64]) + Sync + Send,
{
    let n_bits = log2_len(state) as usize;
    let (positions, cmask) = control_layout(&[target], controls);
    let run = 1usize << positions[0];
    if run < simd::LANES {
        return false;
    }
    let count = 1usize << (n_bits - positions.len());
    let outer = count / run;
    let tbit = 1usize << target;
    let ptr = StatePtr(state.as_mut_ptr());
    let body = |o: usize| {
        let i0 = expand_index(o * run, &positions) | cmask;
        // SAFETY: expansion is injective and leaves the target bit clear,
        // and both runs only vary bits below positions[0] ≤ target — so
        // lo/hi runs are disjoint from each other and across `o`, and all
        // indices are < state.len() by construction.
        unsafe {
            let p = ptr;
            let lo = std::slice::from_raw_parts_mut(p.0.add(i0), run);
            let hi = std::slice::from_raw_parts_mut(p.0.add(i0 | tbit), run);
            f(lo, hi);
        }
    };
    if parallel_ok(count, par_threshold) && outer > 1 {
        (0..outer).into_par_iter().for_each(body);
    } else {
        (0..outer).for_each(body);
    }
    true
}

/// Runs `f(run)` over the contiguous runs of the one-bit (target = 1,
/// controls = 1) index set, or returns `false` when runs are shorter
/// than a vector.
fn for_each_one_runs_with<F>(
    state: &mut [C64],
    target: usize,
    controls: &[usize],
    par_threshold: usize,
    f: F,
) -> bool
where
    F: Fn(&mut [C64]) + Sync + Send,
{
    let n_bits = log2_len(state) as usize;
    let (positions, cmask) = control_layout(&[target], controls);
    let run = 1usize << positions[0];
    if run < simd::LANES {
        return false;
    }
    let count = 1usize << (n_bits - positions.len());
    let outer = count / run;
    let tbit = 1usize << target;
    let ptr = StatePtr(state.as_mut_ptr());
    let body = |o: usize| {
        let i0 = expand_index(o * run, &positions) | cmask | tbit;
        // SAFETY: disjoint contiguous runs, as in `for_each_pair_runs_with`.
        unsafe {
            let p = ptr;
            f(std::slice::from_raw_parts_mut(p.0.add(i0), run));
        }
    };
    if parallel_ok(count, par_threshold) && outer > 1 {
        (0..outer).into_par_iter().for_each(body);
    } else {
        (0..outer).for_each(body);
    }
    true
}

/// General (controlled) single-qubit unitary: one butterfly per pair.
/// Contiguous pair runs go through the vectorised
/// [`simd::butterfly_slices`]; gates on the lowest qubits stay scalar.
pub fn apply_general(state: &mut [C64], target: usize, controls: &[usize], m: &Mat2) {
    apply_general_with(state, target, controls, m, PAR_THRESHOLD)
}

/// [`apply_general`] with an explicit parallelism threshold.
pub fn apply_general_with(
    state: &mut [C64],
    target: usize,
    controls: &[usize],
    m: &Mat2,
    par_threshold: usize,
) {
    let m = *m;
    if for_each_pair_runs_with(state, target, controls, par_threshold, move |lo, hi| {
        simd::butterfly_slices(lo, hi, &m)
    }) {
        return;
    }
    for_each_pair_with(state, target, controls, par_threshold, move |a, b| {
        let x = *a;
        let y = *b;
        *a = m[0][0] * x + m[0][1] * y;
        *b = m[1][0] * x + m[1][1] * y;
    });
}

/// Diagonal (controlled) gate `diag(d0, d1)`. When `d0 = 1` (phase-type
/// gates: Z, S, T, Rθ…) only the `|1⟩` half of the selected subspace is
/// read and written. Contiguous runs are scaled through
/// [`simd::scale_slice`].
pub fn apply_diagonal(state: &mut [C64], target: usize, controls: &[usize], d0: C64, d1: C64) {
    apply_diagonal_with(state, target, controls, d0, d1, PAR_THRESHOLD)
}

/// [`apply_diagonal`] with an explicit parallelism threshold.
pub fn apply_diagonal_with(
    state: &mut [C64],
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
        if for_each_one_runs_with(state, target, controls, par_threshold, move |xs| {
            simd::scale_slice(xs, d1)
        }) {
            return;
        }
        for_each_one_with(state, target, controls, par_threshold, move |z| *z *= d1);
    } else {
        if for_each_pair_runs_with(state, target, controls, par_threshold, move |lo, hi| {
            simd::scale_slice(lo, d0);
            simd::scale_slice(hi, d1);
        }) {
            return;
        }
        for_each_pair_with(state, target, controls, par_threshold, move |a, b| {
            *a *= d0;
            *b *= d1;
        });
    }
}

/// (Controlled) X: swaps amplitude pairs, no arithmetic. Contiguous runs
/// swap as whole slices (one `memcpy`-class move per run).
pub fn apply_perm_x(state: &mut [C64], target: usize, controls: &[usize]) {
    apply_perm_x_with(state, target, controls, PAR_THRESHOLD)
}

/// [`apply_perm_x`] with an explicit parallelism threshold.
pub fn apply_perm_x_with(
    state: &mut [C64],
    target: usize,
    controls: &[usize],
    par_threshold: usize,
) {
    if for_each_pair_runs_with(state, target, controls, par_threshold, |lo, hi| {
        lo.swap_with_slice(hi)
    }) {
        return;
    }
    for_each_pair_with(state, target, controls, par_threshold, |a, b| {
        std::mem::swap(a, b)
    });
}

/// (Controlled) SWAP of qubits `a` and `b`: exchanges amplitudes whose two
/// bits differ, touching half (uncontrolled) of the selected subspace.
pub fn apply_swap(state: &mut [C64], qa: usize, qb: usize, controls: &[usize]) {
    apply_swap_with(state, qa, qb, controls, PAR_THRESHOLD)
}

/// [`apply_swap`] with an explicit parallelism threshold. Contiguous runs
/// (lowest gate qubit at `≥ log2(LANES)`) exchange as whole slices.
pub fn apply_swap_with(
    state: &mut [C64],
    qa: usize,
    qb: usize,
    controls: &[usize],
    par_threshold: usize,
) {
    let n_bits = log2_len(state) as usize;
    let (positions, cmask) = control_layout(&[qa, qb], controls);
    let free_bits = n_bits - positions.len();
    let count = 1usize << free_bits;
    let abit = 1usize << qa;
    let bbit = 1usize << qb;
    let run = 1usize << positions[0];

    if run >= simd::LANES {
        let outer = count / run;
        let ptr = StatePtr(state.as_mut_ptr());
        let body = |o: usize| {
            let base = expand_index(o * run, &positions) | cmask;
            // SAFETY: the runs at base|abit and base|bbit only vary bits
            // below positions[0] < min(qa, qb), so they are disjoint from
            // each other and across `o` (injective expansion).
            unsafe {
                let p = ptr;
                let lo = std::slice::from_raw_parts_mut(p.0.add(base | abit), run);
                let hi = std::slice::from_raw_parts_mut(p.0.add(base | bbit), run);
                lo.swap_with_slice(hi);
            }
        };
        if parallel_ok(count, par_threshold) && outer > 1 {
            (0..outer).into_par_iter().for_each(body);
        } else {
            (0..outer).for_each(body);
        }
        return;
    }

    if parallel_ok(count, par_threshold) {
        let ptr = StatePtr(state.as_mut_ptr());
        (0..count).into_par_iter().for_each(|k| {
            let base = expand_index(k, &positions) | cmask;
            let i = base | abit;
            let j = base | bbit;
            // SAFETY: disjointness as in `for_each_pair`; i ≠ j since a ≠ b.
            unsafe {
                let p = ptr;
                std::ptr::swap(p.0.add(i), p.0.add(j));
            }
        });
    } else {
        for k in 0..count {
            let base = expand_index(k, &positions) | cmask;
            state.swap(base | abit, base | bbit);
        }
    }
}

// --- fused (blocked) kernels --------------------------------------------
//
// A fused block acts on the register formed by k ascending `qubits`. The
// state splits into 2^{n−k} groups of 2^k amplitudes (one group per
// assignment of the free qubits); every kernel below sweeps the groups
// once, so a block of g gates costs one memory pass instead of g.

/// Scatters the bits of local value `v` onto the global bit `positions`:
/// bit `j` of `v` becomes bit `positions[j]` of the result. Unlike
/// [`expand_index`], `positions` need not be ascending — the distributed
/// executor uses this with remapped (arbitrary-order) physical slots.
/// With ascending positions it is the inverse of [`expand_index`]'s bit
/// removal, and the convention by which a fused block's local amplitude
/// index maps into the full state.
/// (Same semantics as `qcemu_fft::scatter_bits`, re-exposed here so the
/// kernel layer's index conventions live next to [`expand_index`].)
#[inline(always)]
pub fn scatter_index(v: usize, positions: &[usize]) -> usize {
    qcemu_fft::scatter_bits(v, positions)
}

/// Validates a fused-kernel qubit list against the state size.
pub(crate) fn check_fused_qubits(n_bits: usize, qubits: &[usize]) {
    assert!(
        !qubits.is_empty() && qubits.len() <= MAX_FUSED_QUBITS,
        "fused block must use 1..={MAX_FUSED_QUBITS} qubits, got {}",
        qubits.len()
    );
    assert!(
        qubits.windows(2).all(|w| w[0] < w[1]),
        "fused qubits must be strictly ascending: {qubits:?}"
    );
    assert!(
        *qubits.last().unwrap() < n_bits,
        "fused block touches qubit {} but state has {n_bits}",
        qubits.last().unwrap()
    );
}

/// Runs `f(ptr, base)` for every group base index (an index with all the
/// block's qubit bits clear), in parallel for large states.
fn for_each_group<F>(state: &mut [C64], qubits: &[usize], par_threshold: usize, f: F)
where
    F: Fn(StatePtr, usize) + Sync + Send,
{
    let n_bits = log2_len(state) as usize;
    check_fused_qubits(n_bits, qubits);
    let count = 1usize << (n_bits - qubits.len());
    let ptr = StatePtr(state.as_mut_ptr());
    if state.len() >= par_threshold && count > 1 && rayon::current_num_threads() > 1 {
        // SAFETY: `expand_index` is injective in the group index and `f`
        // only touches `base | off` with `off` confined to the block's
        // qubit bits, so distinct groups own disjoint state indices.
        (0..count)
            .into_par_iter()
            .for_each(|g| f(ptr, expand_index(g, qubits)));
    } else {
        for g in 0..count {
            f(ptr, expand_index(g, qubits));
        }
    }
}

/// Applies a dense `2^k × 2^k` matrix to the register formed by the `k`
/// ascending `qubits` — every amplitude group gets one gather / mat-vec /
/// scatter, so the whole block costs a single blocked pass over the state
/// regardless of how many gates were fused into the matrix.
///
/// Prefer [`crate::fusion`]'s structure-aware dispatch over calling this
/// directly: diagonal and permutation blocks have far cheaper appliers.
///
/// # Panics
///
/// Panics if `qubits` is not strictly ascending, uses more than
/// [`MAX_FUSED_QUBITS`] qubits, indexes past the state, or if the matrix
/// is not `2^k × 2^k`.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::{CMatrix, C64};
/// use qcemu_sim::kernels::apply_fused;
///
/// // SWAP(0, 1) as a fused 2-qubit block: |01⟩ ↦ |10⟩.
/// let mut state = vec![C64::ZERO; 4];
/// state[0b01] = C64::ONE;
/// let mut swap = CMatrix::zeros(4, 4);
/// for (row, col) in [(0, 0), (2, 1), (1, 2), (3, 3)] {
///     swap[(row, col)] = C64::ONE;
/// }
/// apply_fused(&mut state, &[0, 1], &swap);
/// assert_eq!(state[0b10], C64::ONE);
/// ```
pub fn apply_fused(state: &mut [C64], qubits: &[usize], m: &CMatrix) {
    apply_fused_with(state, qubits, m, PAR_THRESHOLD)
}

/// [`apply_fused`] with an explicit parallelism threshold. The per-group
/// mat-vec — the FLOP-dense loop of the whole fusion engine — reduces
/// each (contiguous) matrix row against the gathered block through the
/// vectorised [`simd::cdot`], and the gather/scatter itself moves
/// memcpy-class runs: the block's low qubits `0..run_bits` (those equal
/// to their own position) address a contiguous `2^run_bits`-amplitude
/// prefix of every group, so only the remaining high qubits pay a
/// strided offset.
pub fn apply_fused_with(state: &mut [C64], qubits: &[usize], m: &CMatrix, par_threshold: usize) {
    let n_bits = log2_len(state) as usize;
    check_fused_qubits(n_bits, qubits);
    let dim = 1usize << qubits.len();
    assert_eq!(
        m.shape(),
        (dim, dim),
        "fused matrix must be 2^k x 2^k for k = {}",
        qubits.len()
    );
    let run_bits = qubits
        .iter()
        .enumerate()
        .take_while(|&(i, &q)| q == i)
        .count();
    let run = 1usize << run_bits;
    let hi_offs: Vec<usize> = (0..dim >> run_bits)
        .map(|w| scatter_index(w, &qubits[run_bits..]))
        .collect();
    for_each_group(state, qubits, par_threshold, |p, base| {
        let mut x = [C64::ZERO; MAX_FUSED_DIM];
        let mut out = [C64::ZERO; MAX_FUSED_DIM];
        // SAFETY: distinct groups own disjoint state indices (see
        // `for_each_group`), and every run `base + off .. + run` stays
        // confined to this group's qubit-bit offsets.
        unsafe {
            for (w, &off) in hi_offs.iter().enumerate() {
                std::ptr::copy_nonoverlapping(
                    p.0.add(base + off),
                    x.as_mut_ptr().add(w * run),
                    run,
                );
            }
            for (r, o) in out[..dim].iter_mut().enumerate() {
                *o = simd::cdot(m.row(r), &x[..dim]);
            }
            for (w, &off) in hi_offs.iter().enumerate() {
                std::ptr::copy_nonoverlapping(out.as_ptr().add(w * run), p.0.add(base + off), run);
            }
        }
    });
}

/// Applies a fused **diagonal** block `diag(factors)` over `qubits`: only
/// amplitudes whose local factor differs from 1 are read and written, so a
/// run of g controlled phases fused into one block costs a single partial
/// sweep instead of g quarter-sweeps.
///
/// # Examples
///
/// ```
/// use qcemu_linalg::{c64, C64};
/// use qcemu_sim::kernels::apply_fused_diagonal;
///
/// // CZ(0, 1) as a fused diagonal block: only |11⟩ changes.
/// let mut state = vec![C64::ONE; 4];
/// let factors = [C64::ONE, C64::ONE, C64::ONE, c64(-1.0, 0.0)];
/// apply_fused_diagonal(&mut state, &[0, 1], &factors);
/// assert_eq!(state[0b11], c64(-1.0, 0.0));
/// assert_eq!(state[0b01], C64::ONE);
/// ```
pub fn apply_fused_diagonal(state: &mut [C64], qubits: &[usize], factors: &[C64]) {
    apply_fused_diagonal_with(state, qubits, factors, PAR_THRESHOLD)
}

/// [`apply_fused_diagonal`] with an explicit parallelism threshold.
pub fn apply_fused_diagonal_with(
    state: &mut [C64],
    qubits: &[usize],
    factors: &[C64],
    par_threshold: usize,
) {
    let n_bits = log2_len(state) as usize;
    check_fused_qubits(n_bits, qubits);
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
    for_each_group(state, qubits, par_threshold, |p, base| {
        // SAFETY: disjoint groups as in `for_each_group`.
        unsafe {
            for &(off, f) in &touched {
                *p.0.add(base | off) *= f;
            }
        }
    });
}

/// Applies a fused **monomial** (permutation-with-phases) block: column
/// `v` of the block's matrix has its single non-zero `factor[v]` in row
/// `target[v]`. Amplitudes move along the permutation's cycles with one
/// temporary per cycle; fixed points with factor 1 are never touched, so
/// e.g. a run of CNOTs sharing a control sweeps only the control-on half.
///
/// # Panics
///
/// Panics if `target` is not a permutation of `0..2^k` or the slice
/// lengths disagree with `qubits`.
pub fn apply_fused_permutation(
    state: &mut [C64],
    qubits: &[usize],
    target: &[usize],
    factor: &[C64],
) {
    apply_fused_permutation_with(state, qubits, target, factor, PAR_THRESHOLD)
}

/// [`apply_fused_permutation`] with an explicit parallelism threshold.
pub fn apply_fused_permutation_with(
    state: &mut [C64],
    qubits: &[usize],
    target: &[usize],
    factor: &[C64],
    par_threshold: usize,
) {
    let n_bits = log2_len(state) as usize;
    check_fused_qubits(n_bits, qubits);
    let dim = 1usize << qubits.len();
    assert_eq!(target.len(), dim, "permutation block needs 2^k targets");
    assert_eq!(factor.len(), dim, "permutation block needs 2^k factors");

    // Cycle decomposition over the non-identity support, precomputed once:
    // each cycle stores (state offset, factor) per element, in cycle order.
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

    for_each_group(state, qubits, par_threshold, |p, base| {
        // SAFETY: disjoint groups as in `for_each_group`.
        unsafe {
            for cyc in &cycles {
                // new[target[v]] = factor[v] · old[v]; walking the cycle
                // backwards needs only one saved amplitude.
                let last = cyc.len() - 1;
                let saved = *p.0.add(base | cyc[last].0);
                for i in (1..=last).rev() {
                    *p.0.add(base | cyc[i].0) = cyc[i - 1].1 * *p.0.add(base | cyc[i - 1].0);
                }
                *p.0.add(base | cyc[0].0) = cyc[last].1 * saved;
            }
        }
    });
}

/// A gate precompiled for in-cache application to a gathered block:
/// control masks and matrix entries are resolved once at fusion time so
/// the per-group loops do no trigonometry, dispatch, or allocation.
#[derive(Clone, Debug)]
pub(crate) enum LocalOp {
    /// `diag(d0, d1)` on `tbit`, gated on all bits of `cmask`.
    Diag {
        cmask: usize,
        tbit: usize,
        d0: C64,
        d1: C64,
    },
    /// X on `tbit`, gated on `cmask`.
    Flip { cmask: usize, tbit: usize },
    /// Dense 2×2 on `tbit`, gated on `cmask`.
    Rot { cmask: usize, tbit: usize, m: Mat2 },
    /// Swap of `abit`/`bbit`, gated on `cmask`.
    Swap {
        cmask: usize,
        abit: usize,
        bbit: usize,
    },
}

impl LocalOp {
    /// Compiles a (local-index) gate into its block form.
    pub(crate) fn from_gate(gate: &Gate) -> LocalOp {
        let cmask = |controls: &[usize]| controls.iter().fold(0usize, |m, &c| m | (1usize << c));
        match gate {
            Gate::Unary {
                op,
                target,
                controls,
            } => {
                let cmask = cmask(controls);
                let tbit = 1usize << *target;
                match op.structure() {
                    GateStructure::Diagonal(d0, d1) => LocalOp::Diag {
                        cmask,
                        tbit,
                        d0,
                        d1,
                    },
                    GateStructure::PermutationX => LocalOp::Flip { cmask, tbit },
                    GateStructure::General(m) => LocalOp::Rot { cmask, tbit, m },
                }
            }
            Gate::Swap { a, b, controls } => LocalOp::Swap {
                cmask: cmask(controls),
                abit: 1usize << *a,
                bbit: 1usize << *b,
            },
        }
    }

    /// This op with every mask bit `j` moved to bit `f(j)` — the same
    /// gate on a buffer whose index bits are laid out differently.
    pub(crate) fn remap_bits(&self, f: impl Fn(usize) -> usize) -> LocalOp {
        let m = |mask: usize| {
            (0..usize::BITS as usize)
                .filter(|&j| mask >> j & 1 == 1)
                .fold(0usize, |acc, j| acc | 1 << f(j))
        };
        match *self {
            LocalOp::Diag {
                cmask,
                tbit,
                d0,
                d1,
            } => LocalOp::Diag {
                cmask: m(cmask),
                tbit: m(tbit),
                d0,
                d1,
            },
            LocalOp::Flip { cmask, tbit } => LocalOp::Flip {
                cmask: m(cmask),
                tbit: m(tbit),
            },
            LocalOp::Rot {
                cmask,
                tbit,
                m: mat,
            } => LocalOp::Rot {
                cmask: m(cmask),
                tbit: m(tbit),
                m: mat,
            },
            LocalOp::Swap { cmask, abit, bbit } => LocalOp::Swap {
                cmask: m(cmask),
                abit: m(abit),
                bbit: m(bbit),
            },
        }
    }

    /// Applies the op to a gathered block (`buf.len() = 2^k`).
    ///
    /// The index space decomposes into contiguous runs of `2^p`
    /// elements, where `p` is the lowest bit the op's masks constrain
    /// (controls *and* targets — every mask bit is constant within such
    /// a run). Runs of at least [`simd::LANES`] go through the SIMD
    /// slice primitives — including *controlled* ops, which PR 5 left on
    /// the scalar per-entry loop: a control on a high local bit merely
    /// deselects whole runs, it does not break them up. Ops whose lowest
    /// constrained bit sits under the vector width keep the scalar
    /// per-entry loops.
    pub(crate) fn apply(&self, buf: &mut [C64]) {
        match *self {
            LocalOp::Diag {
                cmask,
                tbit,
                d0,
                d1,
            } => {
                let lowest = (cmask | tbit) & (cmask | tbit).wrapping_neg();
                if lowest >= simd::LANES {
                    let run = lowest;
                    let mut base = 0;
                    while base < buf.len() {
                        if base & cmask == cmask {
                            let f = if base & tbit != 0 { d1 } else { d0 };
                            if f != C64::ONE {
                                simd::scale_slice(&mut buf[base..base + run], f);
                            }
                        }
                        base += run;
                    }
                    return;
                }
                for (i, z) in buf.iter_mut().enumerate() {
                    if i & cmask == cmask {
                        *z *= if i & tbit != 0 { d1 } else { d0 };
                    }
                }
            }
            LocalOp::Flip { cmask, tbit } => {
                let lowest = (cmask | tbit) & (cmask | tbit).wrapping_neg();
                if lowest >= simd::LANES {
                    let run = lowest;
                    let mut base = 0;
                    while base < buf.len() {
                        if base & cmask == cmask && base & tbit == 0 {
                            // Both runs are run-aligned and fully inside
                            // the buffer; tbit ≥ run keeps them disjoint.
                            let (lo_half, hi_half) = buf.split_at_mut(base + tbit);
                            simd::swap_slices(&mut lo_half[base..base + run], &mut hi_half[..run]);
                        }
                        base += run;
                    }
                    return;
                }
                for i in 0..buf.len() {
                    if i & cmask == cmask && i & tbit == 0 {
                        buf.swap(i, i | tbit);
                    }
                }
            }
            LocalOp::Rot { cmask, tbit, m } => {
                let lowest = (cmask | tbit) & (cmask | tbit).wrapping_neg();
                if lowest >= simd::LANES {
                    let run = lowest;
                    let mut base = 0;
                    while base < buf.len() {
                        if base & cmask == cmask && base & tbit == 0 {
                            let (lo_half, hi_half) = buf.split_at_mut(base + tbit);
                            simd::butterfly_slices(
                                &mut lo_half[base..base + run],
                                &mut hi_half[..run],
                                &m,
                            );
                        }
                        base += run;
                    }
                    return;
                }
                for i in 0..buf.len() {
                    if i & cmask == cmask && i & tbit == 0 {
                        let x = buf[i];
                        let y = buf[i | tbit];
                        buf[i] = m[0][0] * x + m[0][1] * y;
                        buf[i | tbit] = m[1][0] * x + m[1][1] * y;
                    }
                }
            }
            LocalOp::Swap { cmask, abit, bbit } => {
                let mask = cmask | abit | bbit;
                let lowest = mask & mask.wrapping_neg();
                if lowest >= simd::LANES {
                    let run = lowest;
                    let mut base = 0;
                    while base < buf.len() {
                        if base & cmask == cmask && base & abit != 0 && base & bbit == 0 {
                            let j = (base & !abit) | bbit;
                            let (x, y) = (base.min(j), base.max(j));
                            // |base − j| = |abit − bbit| ≥ run: disjoint.
                            let (lo_half, hi_half) = buf.split_at_mut(y);
                            simd::swap_slices(&mut lo_half[x..x + run], &mut hi_half[..run]);
                        }
                        base += run;
                    }
                    return;
                }
                for i in 0..buf.len() {
                    if i & cmask == cmask && i & abit != 0 && i & bbit == 0 {
                        buf.swap(i, (i & !abit) | bbit);
                    }
                }
            }
        }
    }

    /// Batched twin of [`LocalOp::apply`]: `buf` holds `2^k` local
    /// amplitudes for `batch` ensemble members in batch-major interleaved
    /// layout — local index `v` of member `j` lives at `v·batch + j`, so
    /// every local index is a contiguous run of `batch` elements. The op
    /// acts on whole runs, which keeps the arithmetic on the SIMD slice
    /// primitives at **any** local bit position (the per-state fast paths
    /// above need `tbit ≥ LANES`; here the run is the batch itself).
    pub(crate) fn apply_batch(&self, buf: &mut [C64], batch: usize) {
        debug_assert!(batch > 0 && buf.len().is_multiple_of(batch));
        let dim = buf.len() / batch;
        match *self {
            LocalOp::Diag {
                cmask,
                tbit,
                d0,
                d1,
            } => {
                for v in 0..dim {
                    if v & cmask == cmask {
                        let f = if v & tbit != 0 { d1 } else { d0 };
                        if f != C64::ONE {
                            simd::scale_slice(&mut buf[v * batch..(v + 1) * batch], f);
                        }
                    }
                }
            }
            LocalOp::Flip { cmask, tbit } => {
                for v in 0..dim {
                    if v & cmask == cmask && v & tbit == 0 {
                        let (lo, hi) = run_pair_mut(buf, v, v | tbit, batch);
                        simd::swap_slices(lo, hi);
                    }
                }
            }
            LocalOp::Rot { cmask, tbit, m } => {
                for v in 0..dim {
                    if v & cmask == cmask && v & tbit == 0 {
                        let (lo, hi) = run_pair_mut(buf, v, v | tbit, batch);
                        simd::butterfly_slices(lo, hi, &m);
                    }
                }
            }
            LocalOp::Swap { cmask, abit, bbit } => {
                for v in 0..dim {
                    if v & cmask == cmask && v & abit != 0 && v & bbit == 0 {
                        let (a, b) = run_pair_mut(buf, v, (v & !abit) | bbit, batch);
                        simd::swap_slices(a, b);
                    }
                }
            }
        }
    }
}

/// Two disjoint batch-length runs (`i·batch..` and `j·batch..`, `i ≠ j`)
/// of one interleaved buffer, in either index order.
#[inline(always)]
pub(crate) fn run_pair_mut(
    buf: &mut [C64],
    i: usize,
    j: usize,
    batch: usize,
) -> (&mut [C64], &mut [C64]) {
    debug_assert!(i != j);
    let (a, b) = (i.min(j), i.max(j));
    let (lo, hi) = buf.split_at_mut(b * batch);
    let lo_run = &mut lo[a * batch..(a + 1) * batch];
    let hi_run = &mut hi[..batch];
    if i < j {
        (lo_run, hi_run)
    } else {
        (hi_run, lo_run)
    }
}

/// Applies one [`Gate`] to a raw state slice, dispatching on structure.
pub fn apply_gate_slice(state: &mut [C64], gate: &Gate) {
    apply_gate_slice_with(state, gate, PAR_THRESHOLD)
}

/// [`apply_gate_slice`] with an explicit parallelism threshold.
pub fn apply_gate_slice_with(state: &mut [C64], gate: &Gate, par_threshold: usize) {
    match gate {
        Gate::Unary {
            op,
            target,
            controls,
        } => match op.structure() {
            GateStructure::Diagonal(d0, d1) => {
                apply_diagonal_with(state, *target, controls, d0, d1, par_threshold)
            }
            GateStructure::PermutationX => {
                apply_perm_x_with(state, *target, controls, par_threshold)
            }
            GateStructure::General(m) => {
                apply_general_with(state, *target, controls, &m, par_threshold)
            }
        },
        Gate::Swap { a, b, controls } => apply_swap_with(state, *a, *b, controls, par_threshold),
    }
}

/// Number of state-vector entries a gate's kernel writes, as a function of
/// structure — the quantity behind the paper's Eq. 6 memory-traffic model.
/// (A controlled phase on n qubits writes `2^{n−2}` entries: a quarter.)
///
/// This counts **unfused** gate-by-gate application. Fused blocks write a
/// different (usually much smaller total) number of entries; use
/// [`fused_touched_entries`] / `FusedCircuit::touched_entries` so the
/// emulate-vs-simulate crossover heuristics stay honest under fusion.
pub fn touched_entries(n_qubits: usize, gate: &Gate) -> usize {
    match gate {
        Gate::Unary { op, controls, .. } => {
            let free = n_qubits - 1 - controls.len();
            match op.structure() {
                GateStructure::Diagonal(d0, d1) => {
                    if d0 == C64::ONE && d1 == C64::ONE {
                        0
                    } else if d0 == C64::ONE {
                        1usize << free
                    } else {
                        2usize << free
                    }
                }
                _ => 2usize << free,
            }
        }
        Gate::Swap { controls, .. } => 2usize << (n_qubits - 2 - controls.len()),
    }
}

/// Entries one fused-block pass writes: `touched_local` entries in each of
/// the `2^{n−k}` groups. `touched_local` is the size of the block's local
/// write set — `2^k` for a general/dense block, the non-unit factor count
/// for a diagonal block, the moved-cycle support for a permutation block.
/// This is the fused-block extension of [`touched_entries`]: a block of
/// `g` gates pays this **once**, where unfused execution pays the per-gate
/// sum — the memory-traffic gap `docs/PERFORMANCE.md` quantifies.
pub fn fused_touched_entries(n_qubits: usize, block_qubits: usize, touched_local: usize) -> usize {
    assert!(block_qubits <= n_qubits, "block wider than the state");
    debug_assert!(touched_local <= 1usize << block_qubits);
    touched_local << (n_qubits - block_qubits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateOp;
    use qcemu_linalg::{c64, max_abs_diff, norm2, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Independent semantic oracle: applies a gate by explicit scatter of
    /// each basis amplitude. O(2^n) per gate, used only for validation.
    fn oracle_apply(state: &[C64], gate: &Gate) -> Vec<C64> {
        let n = state.len();
        let mut out = vec![C64::ZERO; n];
        for (j, &amp) in state.iter().enumerate() {
            match gate {
                Gate::Unary {
                    op,
                    target,
                    controls,
                } => {
                    let ctrl_ok = controls.iter().all(|&c| (j >> c) & 1 == 1);
                    if !ctrl_ok {
                        out[j] += amp;
                        continue;
                    }
                    let m = op.matrix();
                    let b = (j >> target) & 1;
                    let tbit = 1usize << target;
                    out[j & !tbit] += m[0][b] * amp;
                    out[j | tbit] += m[1][b] * amp;
                }
                Gate::Swap { a, b, controls } => {
                    let ctrl_ok = controls.iter().all(|&c| (j >> c) & 1 == 1);
                    if !ctrl_ok {
                        out[j] += amp;
                        continue;
                    }
                    let ba = (j >> a) & 1;
                    let bb = (j >> b) & 1;
                    let mut t = j & !((1usize << a) | (1usize << b));
                    t |= bb << a;
                    t |= ba << b;
                    out[t] += amp;
                }
            }
        }
        out
    }

    fn check_gate(n_qubits: usize, gate: Gate, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_state(1 << n_qubits, &mut rng);
        let mut fast = input.clone();
        apply_gate_slice(&mut fast, &gate);
        let slow = oracle_apply(&input, &gate);
        assert!(
            max_abs_diff(&fast, &slow) < 1e-12,
            "kernel mismatch for {gate:?} on {n_qubits} qubits: {}",
            max_abs_diff(&fast, &slow)
        );
        assert!(
            (norm2(&fast) - 1.0).abs() < 1e-10,
            "norm broken by {gate:?}"
        );
    }

    #[test]
    fn expand_index_inserts_zero_bits() {
        // positions [1, 3]: k bits fill positions 0, 2, 4, ...
        assert_eq!(expand_index(0b000, &[1, 3]), 0b00000);
        assert_eq!(expand_index(0b001, &[1, 3]), 0b00001);
        assert_eq!(expand_index(0b010, &[1, 3]), 0b00100);
        assert_eq!(expand_index(0b011, &[1, 3]), 0b00101);
        assert_eq!(expand_index(0b100, &[1, 3]), 0b10000);
    }

    #[test]
    fn expand_index_is_injective_and_avoids_positions() {
        let positions = [0usize, 2, 5];
        let mut seen = std::collections::HashSet::new();
        for k in 0..64 {
            let x = expand_index(k, &positions);
            for &p in &positions {
                assert_eq!((x >> p) & 1, 0, "bit {p} must be clear in {x:#b}");
            }
            assert!(seen.insert(x), "duplicate expansion {x}");
        }
    }

    #[test]
    fn single_qubit_gates_match_oracle() {
        for (i, op) in [
            GateOp::X,
            GateOp::Y,
            GateOp::Z,
            GateOp::H,
            GateOp::S,
            GateOp::T,
            GateOp::Rx(0.37),
            GateOp::Ry(-0.9),
            GateOp::Rz(1.1),
            GateOp::Phase(2.2),
        ]
        .into_iter()
        .enumerate()
        {
            for target in [0usize, 2, 4] {
                check_gate(5, Gate::unary(op.clone(), target), 100 + i as u64);
            }
        }
    }

    #[test]
    fn controlled_gates_match_oracle() {
        check_gate(5, Gate::cnot(0, 4), 200);
        check_gate(5, Gate::cnot(4, 0), 201);
        check_gate(5, Gate::cz(2, 3), 202);
        check_gate(5, Gate::cphase(1, 3, 0.77), 203);
        check_gate(5, Gate::controlled(GateOp::H, 3, 1), 204);
        check_gate(5, Gate::controlled(GateOp::Rz(0.5), 0, 2), 205);
    }

    #[test]
    fn multi_controlled_gates_match_oracle() {
        check_gate(6, Gate::toffoli(0, 1, 2), 300);
        check_gate(6, Gate::toffoli(5, 3, 0), 301);
        check_gate(6, Gate::mcx(vec![0, 2, 4], 5), 302);
        check_gate(
            6,
            Gate::Unary {
                op: GateOp::Phase(0.3),
                target: 1,
                controls: vec![0, 3, 5],
            },
            303,
        );
    }

    #[test]
    fn swap_gates_match_oracle() {
        check_gate(5, Gate::swap(0, 4), 400);
        check_gate(5, Gate::swap(2, 1), 401);
        check_gate(
            5,
            Gate::Swap {
                a: 0,
                b: 3,
                controls: vec![2],
            },
            402,
        );
    }

    #[test]
    fn large_state_parallel_path_matches_oracle() {
        // Above PAR_THRESHOLD so the rayon branches execute.
        let n_qubits = 16;
        let mut rng = StdRng::seed_from_u64(500);
        let input = random_state(1 << n_qubits, &mut rng);
        for gate in [
            Gate::h(15),
            Gate::h(0),
            Gate::cphase(3, 14, 0.9),
            Gate::cnot(15, 1),
            Gate::swap(0, 15),
            Gate::rz(7, 0.123),
        ] {
            let mut fast = input.clone();
            apply_gate_slice(&mut fast, &gate);
            let slow = oracle_apply(&input, &gate);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-12,
                "parallel kernel mismatch for {gate:?}"
            );
        }
    }

    #[test]
    fn double_x_is_identity() {
        let mut rng = StdRng::seed_from_u64(501);
        let input = random_state(64, &mut rng);
        let mut s = input.clone();
        apply_perm_x(&mut s, 3, &[]);
        apply_perm_x(&mut s, 3, &[]);
        assert!(max_abs_diff(&s, &input) < 1e-15);
    }

    #[test]
    fn phase_kernel_touches_only_one_half() {
        // Phase gate on |0⟩-basis state must be a no-op.
        let mut s = vec![C64::ZERO; 8];
        s[0] = C64::ONE; // |000⟩
        apply_diagonal(&mut s, 1, &[], C64::ONE, C64::cis(0.4));
        assert!(s[0].approx_eq(C64::ONE, 1e-15));
        // On |010⟩ it must apply the phase.
        let mut s = vec![C64::ZERO; 8];
        s[2] = C64::ONE;
        apply_diagonal(&mut s, 1, &[], C64::ONE, C64::cis(0.4));
        assert!(s[2].approx_eq(C64::cis(0.4), 1e-15));
    }

    #[test]
    fn identity_diagonal_is_noop() {
        let mut rng = StdRng::seed_from_u64(502);
        let input = random_state(32, &mut rng);
        let mut s = input.clone();
        apply_diagonal(&mut s, 2, &[], C64::ONE, C64::ONE);
        assert_eq!(
            max_abs_diff(&s, &input),
            0.0,
            "identity must not even perturb rounding"
        );
    }

    #[test]
    fn touched_entries_model() {
        let n = 10;
        let full = 1usize << n;
        // Hadamard: everything.
        assert_eq!(touched_entries(n, &Gate::h(0)), full);
        // Plain phase: half.
        assert_eq!(touched_entries(n, &Gate::phase(0, 0.1)), full / 2);
        // Controlled phase: a quarter (paper §3.2).
        assert_eq!(touched_entries(n, &Gate::cphase(0, 1, 0.1)), full / 4);
        // CNOT: half (pairs restricted by one control).
        assert_eq!(touched_entries(n, &Gate::cnot(0, 1)), full / 2);
        // Rz: both halves (d0 ≠ 1).
        assert_eq!(touched_entries(n, &Gate::rz(0, 0.1)), full);
        // Toffoli: a quarter.
        assert_eq!(touched_entries(n, &Gate::toffoli(0, 1, 2)), full / 4);
        // SWAP: half.
        assert_eq!(touched_entries(n, &Gate::swap(0, 1)), full / 2);
    }

    #[test]
    fn scatter_index_places_bits_on_positions() {
        let qubits = [1usize, 3, 4];
        let mask: usize = qubits.iter().map(|&q| 1usize << q).sum();
        for v in 0..8 {
            let x = scatter_index(v, &qubits);
            for (j, &q) in qubits.iter().enumerate() {
                assert_eq!((x >> q) & 1, (v >> j) & 1, "v={v}, q={q}");
            }
            // scatter hits only the listed positions…
            assert_eq!(x & !mask, 0);
            // …which are exactly the positions expand_index leaves clear.
            assert_eq!(expand_index(v, &qubits) & mask, 0);
        }
    }

    #[test]
    fn apply_fused_matches_gate_application() {
        // Fuse H(1)·CNOT(1→3)·T(3) into one dense block on qubits {1, 3}
        // by building the 4×4 matrix column by column with the gate
        // kernels themselves, then compare against gate-by-gate.
        let gates = [
            Gate::h(1),
            Gate::cnot(1, 3),
            Gate::t(3),
            Gate::swap(1, 3),
            Gate::cphase(3, 1, 0.37),
        ];
        let local: Vec<Gate> = [
            Gate::h(0),
            Gate::cnot(0, 1),
            Gate::t(1),
            Gate::swap(0, 1),
            Gate::cphase(1, 0, 0.37),
        ]
        .to_vec();
        let mut m = CMatrix::zeros(4, 4);
        for v in 0..4 {
            let mut col = vec![C64::ZERO; 4];
            col[v] = C64::ONE;
            for g in &local {
                apply_gate_slice(&mut col, g);
            }
            for r in 0..4 {
                m[(r, v)] = col[r];
            }
        }

        let mut rng = StdRng::seed_from_u64(600);
        let input = random_state(1 << 5, &mut rng);
        let mut fused = input.clone();
        apply_fused(&mut fused, &[1, 3], &m);
        let mut plain = input;
        for g in &gates {
            apply_gate_slice(&mut plain, g);
        }
        assert!(max_abs_diff(&fused, &plain) < 1e-12);
    }

    #[test]
    fn apply_fused_diagonal_matches_gates_and_skips_identity() {
        // diag factors of CZ(0,1)·T(0) on qubits {0, 1}.
        let t = C64::cis(std::f64::consts::FRAC_PI_4);
        let factors = [C64::ONE, t, C64::ONE, t * c64(-1.0, 0.0)];
        let mut rng = StdRng::seed_from_u64(601);
        let input = random_state(1 << 4, &mut rng);
        let mut fused = input.clone();
        apply_fused_diagonal(&mut fused, &[0, 1], &factors);
        let mut plain = input;
        apply_gate_slice(&mut plain, &Gate::cz(0, 1));
        apply_gate_slice(&mut plain, &Gate::t(0));
        assert!(max_abs_diff(&fused, &plain) < 1e-14);

        // All-identity factors must leave the state bitwise untouched.
        let before = fused.clone();
        apply_fused_diagonal(&mut fused, &[0, 1], &[C64::ONE; 4]);
        assert_eq!(max_abs_diff(&fused, &before), 0.0);

        // Accounting: 2 of the 4 local entries (|01⟩, |11⟩) are non-unit,
        // so the block writes half of a 4-qubit state.
        assert_eq!(fused_touched_entries(4, 2, 2), 8);
    }

    #[test]
    fn apply_fused_permutation_matches_gates() {
        // CNOT(0→1) then CNOT(0→2) as one monomial block on {0, 1, 2}:
        // target[v] flips bits 1 and 2 when bit 0 is set.
        let mut target = [0usize; 8];
        for (v, slot) in target.iter_mut().enumerate() {
            *slot = if v & 1 != 0 { v ^ 0b110 } else { v };
        }
        let factor = [C64::ONE; 8];
        let mut rng = StdRng::seed_from_u64(602);
        let input = random_state(1 << 4, &mut rng);
        let mut fused = input.clone();
        apply_fused_permutation(&mut fused, &[0, 1, 2], &target, &factor);
        let mut plain = input;
        apply_gate_slice(&mut plain, &Gate::cnot(0, 1));
        apply_gate_slice(&mut plain, &Gate::cnot(0, 2));
        assert_eq!(max_abs_diff(&fused, &plain), 0.0, "pure data movement");
    }

    #[test]
    fn apply_fused_permutation_with_phases() {
        // X(0)·S(0) on qubit {0}: |0⟩ → i|1⟩? Track: X then S gives
        // column 0 → e_1 with factor i, column 1 → e_0 with factor 1.
        let target = [1usize, 0];
        let factor = [C64::I, C64::ONE];
        let mut rng = StdRng::seed_from_u64(603);
        let input = random_state(8, &mut rng);
        let mut fused = input.clone();
        apply_fused_permutation(&mut fused, &[0], &target, &factor);
        let mut plain = input;
        apply_gate_slice(&mut plain, &Gate::x(0));
        apply_gate_slice(&mut plain, &Gate::s(0));
        assert!(max_abs_diff(&fused, &plain) < 1e-15);
    }

    #[test]
    fn local_ops_reproduce_each_gate_kernel() {
        let mut rng = StdRng::seed_from_u64(604);
        let gates = [
            Gate::h(1),
            Gate::x(2),
            Gate::rz(0, 0.7),
            Gate::cphase(0, 2, -0.4),
            Gate::cnot(2, 0),
            Gate::swap(0, 1),
            Gate::toffoli(0, 1, 2),
            Gate::Swap {
                a: 1,
                b: 2,
                controls: vec![0],
            },
        ];
        for gate in gates {
            let input = random_state(8, &mut rng);
            let mut via_local = input.clone();
            LocalOp::from_gate(&gate).apply(&mut via_local);
            let mut via_kernel = input;
            apply_gate_slice(&mut via_kernel, &gate);
            assert!(
                max_abs_diff(&via_local, &via_kernel) < 1e-15,
                "LocalOp mismatch for {gate:?}"
            );
        }
    }

    #[test]
    fn fused_kernels_parallel_path_matches_serial() {
        // Above PAR_THRESHOLD so the rayon branch of for_each_group runs.
        let n_qubits = 16;
        let mut rng = StdRng::seed_from_u64(605);
        let input = random_state(1 << n_qubits, &mut rng);
        let local = [Gate::h(0), Gate::cnot(0, 1), Gate::rz(1, 0.3)];
        let mut m = CMatrix::zeros(4, 4);
        for v in 0..4 {
            let mut col = vec![C64::ZERO; 4];
            col[v] = C64::ONE;
            for g in &local {
                apply_gate_slice(&mut col, g);
            }
            for r in 0..4 {
                m[(r, v)] = col[r];
            }
        }
        let mut fused = input.clone();
        apply_fused(&mut fused, &[3, 14], &m);
        let mut plain = input;
        let remapped = [Gate::h(3), Gate::cnot(3, 14), Gate::rz(14, 0.3)];
        for g in &remapped {
            apply_gate_slice(&mut plain, g);
        }
        assert!(max_abs_diff(&fused, &plain) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn fused_qubits_must_be_sorted() {
        let mut state = vec![C64::ZERO; 8];
        apply_fused_diagonal(&mut state, &[2, 0], &[C64::I; 4]);
    }

    #[test]
    fn touched_entries_matches_instrumented_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 8;
        let mut state = vec![c64(1.0, 0.0); 1 << n]; // unnormalised, fine
        let counter = AtomicUsize::new(0);
        // Controlled phase via for_each_one.
        for_each_one(&mut state, 3, &[5], |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            touched_entries(n, &Gate::cphase(5, 3, 0.1))
        );
        // General pair kernel writes 2 per pair.
        let counter = AtomicUsize::new(0);
        for_each_pair(&mut state, 2, &[0, 6], |_, _| {
            counter.fetch_add(2, Ordering::Relaxed);
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            touched_entries(n, &Gate::toffoli(0, 6, 2))
        );
    }
}
