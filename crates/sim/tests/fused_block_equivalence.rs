//! Fused block ≡ per-gate application at every block position.
//!
//! A sequential fused sweep runs the batch-major kernels on the plain
//! state. Diagonal, permutation and dense blocks treat the
//! `min(q0, RUN_BITS)` free low qubits under their lowest qubit `q0` as
//! the batch axis, and keep per-group kernels when they touch qubits 0
//! or 1. General blocks gather `2^RUN_BITS`-amplitude tiles with their
//! low qubits inside. This suite pins every path: every block kind
//! (diagonal, permutation, general, dense), every width `k ∈ 1..=6`,
//! lowest qubit at `0, 1, 2, RUN_BITS−1, RUN_BITS, RUN_BITS+1` and
//! `n−k`, on a serial-size state (`n = 10`) and one past `PAR_THRESHOLD`
//! (`n = 16`, the pool path). Each block must match per-gate application
//! to 1e-12.
//!
//! Run it under `QCEMU_THREADS=4` to drive the pool path on a host with
//! fewer cores.

use qcemu_linalg::{max_abs_diff, random_state};
use qcemu_sim::kernels::{apply_gate_slice, PAR_THRESHOLD};
use qcemu_sim::{Circuit, FusedGate, FusedOp, FusedStructure, FusionPolicy, Gate, GateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run width (in qubits) the sequential fused sweep folds into its batch
/// axis; mirrors the fusion module's private constant.
const RUN_BITS: usize = 8;

const KINDS: [FusedStructure; 4] = [
    FusedStructure::Diagonal,
    FusedStructure::Permutation,
    FusedStructure::General,
    FusedStructure::Dense,
];

/// `k` ascending block qubits with lowest qubit `q0` and the rest drawn
/// from `q0+1..n`.
fn block_qubits(n: usize, k: usize, q0: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut rest: Vec<usize> = (q0 + 1..n).collect();
    for i in 0..k - 1 {
        let j = rng.gen_range(i..rest.len());
        rest.swap(i, j);
    }
    let mut qs = vec![q0];
    qs.extend_from_slice(&rest[..k - 1]);
    qs.sort_unstable();
    qs
}

/// A gate run over `qs` that fuses into one block of structure `kind`
/// (`None` for general at k = 1: any non-monomial run of ≥ 2 gates on one
/// qubit has `gate_count ≥ 2^k` and classifies dense).
fn block_circuit(
    n: usize,
    qs: &[usize],
    kind: FusedStructure,
    rng: &mut StdRng,
) -> Option<Circuit> {
    let k = qs.len();
    let mut c = Circuit::new(n);
    let mut angle = || rng.gen_range(-3.0..3.0);
    match kind {
        FusedStructure::Diagonal => {
            c.rz(qs[0], angle()).phase(qs[0], angle());
            for w in qs.windows(2) {
                c.cphase(w[0], w[1], angle());
            }
            c.push(Gate::Unary {
                op: GateOp::T,
                target: qs[k - 1],
                controls: vec![],
            });
        }
        FusedStructure::Permutation => {
            for &q in qs {
                c.x(q);
            }
            for w in qs.windows(2) {
                c.cnot(w[0], w[1]);
            }
            if k >= 3 {
                c.swap(qs[0], qs[k - 1]);
                c.toffoli(qs[0], qs[1], qs[2]);
            }
            c.push(Gate::Unary {
                op: GateOp::S,
                target: qs[0],
                controls: vec![],
            });
        }
        FusedStructure::General => {
            if k == 1 {
                return None;
            }
            for &q in qs {
                c.h(q);
            }
            for w in qs.windows(2) {
                c.cnot(w[0], w[1]);
            }
            if k >= 3 {
                // 2k + 1 gates < 2^k: still a replayed (general) block.
                c.rz(qs[k - 1], angle()).swap(qs[0], qs[k - 1]);
            }
        }
        FusedStructure::Dense => {
            let mut i = 0;
            while c.gate_count() < 1 << k {
                c.ry(qs[i % k], angle());
                if k > 1 {
                    c.push(Gate::controlled(
                        GateOp::Rx(angle()),
                        qs[(i + 1) % k],
                        qs[i % k],
                    ));
                }
                i += 1;
            }
        }
    }
    Some(c)
}

/// The single fused block the greedy pass makes of `c`.
fn only_block(c: &Circuit, k: usize) -> FusedGate {
    let fused = c.fuse(&FusionPolicy::Greedy {
        max_fused_qubits: k,
    });
    match fused.ops() {
        [FusedOp::Block(b)] => b.clone(),
        ops => panic!("expected one fused block, got {} ops", ops.len()),
    }
}

#[test]
fn fused_blocks_match_per_gate_at_every_position() {
    let mut checked = 0;
    for n in [10usize, 16] {
        let pool = 1usize << n >= PAR_THRESHOLD;
        for k in 1..=6usize {
            let positions = [0, 1, 2, RUN_BITS - 1, RUN_BITS, RUN_BITS + 1, n - k];
            for (pi, &q0) in positions.iter().enumerate() {
                if q0 + k > n {
                    continue;
                }
                for (ki, &kind) in KINDS.iter().enumerate() {
                    let seed = ((n * 7 + k) * 8 + pi) as u64 * 4 + ki as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let qs = block_qubits(n, k, q0, &mut rng);
                    let Some(c) = block_circuit(n, &qs, kind, &mut rng) else {
                        continue;
                    };
                    let block = only_block(&c, k);
                    assert_eq!(block.qubits(), &qs[..]);
                    assert_eq!(block.structure(), kind, "block kind on {qs:?}");

                    let input = random_state(1 << n, &mut rng);
                    let mut expect = input.clone();
                    for g in c.gates() {
                        apply_gate_slice(&mut expect, g);
                    }
                    let mut got = input;
                    block.apply_slice(&mut got);
                    let diff = max_abs_diff(&expect, &got);
                    assert!(
                        diff <= 1e-12,
                        "{kind:?} block on {qs:?} (n = {n}, pool = {pool}) diverges by {diff}"
                    );
                    checked += 1;
                }
            }
        }
    }
    // 2 sizes × 6 widths × ≤7 positions × 4 kinds, less the skips.
    assert!(checked > 250, "only {checked} blocks checked");
}

#[test]
#[should_panic(expected = "fused block touches qubit 6 but state has 5")]
fn block_wider_than_a_small_state_is_rejected() {
    // H(1), CZ(1, 6): a general block whose qubits all sit inside one
    // tile of a 5-qubit state, except one past its end.
    let mut c = Circuit::new(7);
    c.h(1).cphase(1, 6, std::f64::consts::PI);
    let block = only_block(&c, 2);
    assert_eq!(block.structure(), FusedStructure::General);
    let mut state = vec![qcemu_linalg::C64::ONE; 1 << 5];
    block.apply_slice(&mut state);
}
