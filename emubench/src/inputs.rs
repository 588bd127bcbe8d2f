//! Seeded input generation for the three workloads.
//!
//! Every input is a pure function of the workload seed and the input's
//! position in the stream, so the same seed always yields byte-identical
//! circuits and wire payloads, and the program under test sees only the
//! generated inputs, never the seed.

use qcemu_core::{stdops, ProgramBuilder, QpeOp, QuantumProgram, RotationOp};
use qcemu_serve::{wire, SubmitOptions, WireOp, WireProgram, WireRegister};
use qcemu_sim::circuits::{tfim_trotter_step, TfimParams};
use qcemu_sim::{Circuit, Gate, GateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;
use std::sync::Arc;

/// A generator for input `index` of stream `stream` under `seed`
/// (splitmix64 finalisation of the three, so neighbouring seeds and
/// indices give unrelated streams).
pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Seed of the structure stream: the choices that decide a program's
/// plan (which qubits a gate acts on and its kind, constants loaded by X
/// gates). It is fixed so every workload seed runs the same mix of
/// plans: the planner routes structures to backends whose costs differ
/// by up to 30×, and a run holds only a few programs, so seed-drawn
/// structures would make run-to-run figures follow the routing draw,
/// not the code. The workload seed draws everything else: angles, the
/// QPE field, rotation slopes, shot seeds.
const STRUCTURE_SEED: u64 = 2016;

// ---------------------------------------------------------------------------
// emulate-mix
// ---------------------------------------------------------------------------

/// Counting-register width of the Shor-style program (3m + 1 qubits).
pub const SHOR_M: usize = 6;
/// Spins of the TFIM chain whose Trotter step the QPE program estimates.
pub const QPE_SPINS: usize = 8;
/// Phase bits of the QPE program.
pub const QPE_BITS: usize = 10;

/// Seeded constants of one Shor-style program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShorParams {
    /// Constant multiplicand loaded into `y` (odd, so the product is a
    /// permutation of `x`).
    pub multiplicand: u64,
    /// Value the check oracle marks in `z`.
    pub marked: u64,
    /// Phase of the gate run's first round; later rounds add 0.11.
    pub phase0: f64,
}

/// Constants of Shor-style program `index`: the multiplicand and marked
/// value (which decide the program's gate structure, and so its plan)
/// from the fixed structure stream, the gate-run phase drawn from `seed`
/// for this `index`.
pub fn shor_params(seed: u64, index: u64) -> ShorParams {
    let mut shape = rng_for(STRUCTURE_SEED, 1, 0);
    let top = 1u64 << SHOR_M;
    ShorParams {
        multiplicand: shape.gen_range(0..top / 2) * 2 + 1,
        marked: shape.gen_range(0..top),
        phase0: rng_for(seed, 1, index).gen_range(0.2..0.6),
    }
}

/// The mixed Shor-style program of the `hybrid_ablation` bench on
/// 3m + 1 qubits: superposed counting register `x`, constant `y`, product
/// `z = x·y mod 2^m`, a raw entangling gate run, a check oracle on `z`, an
/// amplitude-encoding rotation into `t`, and QFTs on `x` and `y`.
pub fn shor_program(p: &ShorParams) -> QuantumProgram {
    let m = SHOR_M;
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", m);
    let y = pb.register("y", m);
    let z = pb.register("z", m);
    let t = pb.register("t", 1);
    pb.hadamard_all(x);
    pb.set_constant(y, p.multiplicand);
    pb.classical(stdops::multiply(x, y, z, m));
    let phase0 = p.phase0;
    pb.gates(|c| {
        let n = 3 * m + 1;
        for round in 0..3 {
            for q in 0..n - 1 {
                c.push(Gate::h(q));
                c.push(Gate::cnot(q, q + 1));
                c.push(Gate::phase(q + 1, phase0 + 0.11 * round as f64));
            }
        }
    });
    pb.phase_oracle(stdops::mark_value(z, p.marked, PI));
    pb.rotation(RotationOp {
        name: "encode".into(),
        x: z,
        target: t,
        angle: Arc::new(move |v| {
            let denom = (1u64 << m) as f64;
            2.0 * ((v as f64 / denom).sqrt()).asin()
        }),
        gate_impl: None,
    });
    pb.inverse_qft(x);
    pb.qft(y);
    pb.inverse_qft(y);
    pb.build().expect("the Shor-style program is well formed")
}

/// Qubits of the Shor-style program's counting register `x`.
pub fn shor_readout_bits() -> Vec<usize> {
    (0..SHOR_M).collect()
}

/// Transverse field of QPE program `index`.
pub fn qpe_field(seed: u64, index: u64) -> f64 {
    rng_for(seed, 2, index).gen_range(0.5..1.5)
}

/// Table 2's program: phase estimation of one Trotter step of an 8-spin
/// transverse-field Ising chain, 10 phase bits, spins in uniform
/// superposition.
pub fn qpe_program(field: f64) -> QuantumProgram {
    let unitary = tfim_trotter_step(
        QPE_SPINS,
        TfimParams {
            field,
            ..TfimParams::default()
        },
    );
    let mut pb = ProgramBuilder::new();
    let spins = pb.register("spins", QPE_SPINS);
    let phase = pb.register("phase", QPE_BITS);
    pb.hadamard_all(spins);
    pb.qpe(QpeOp {
        unitary,
        target: spins,
        phase,
    });
    pb.build().expect("the QPE program is well formed")
}

/// Qubits of the QPE program's phase register.
pub fn qpe_readout_bits() -> Vec<usize> {
    (QPE_SPINS..QPE_SPINS + QPE_BITS).collect()
}

// ---------------------------------------------------------------------------
// sweep-25
// ---------------------------------------------------------------------------

/// Width of the sweep workload's state (2^25 amplitudes = 512 MiB).
pub const SWEEP_QUBITS: usize = 25;
/// Gates in each random circuit C (about 2n).
pub const SWEEP_GATES: usize = 2 * SWEEP_QUBITS;

/// Distinct circuit structures the sweep cycles through.
pub const SWEEP_STRUCTURES: u64 = 3;

/// Random circuit `index`, built like `segment_ablation`'s
/// `random_circuit` (H, Rz, Ry, controlled phase and CNOT on uniformly
/// drawn qubits): the gate kinds and qubits of structure
/// `index mod SWEEP_STRUCTURES` from the fixed structure stream, the
/// angles drawn from `seed` for this `index`.
pub fn random_circuit(seed: u64, index: u64) -> Circuit {
    let n = SWEEP_QUBITS;
    let mut shape = rng_for(STRUCTURE_SEED, 3, index % SWEEP_STRUCTURES);
    let mut angles = rng_for(seed, 8, index);
    let mut angle = || angles.gen_range(0.0..PI);
    let mut c = Circuit::new(n);
    for _ in 0..SWEEP_GATES {
        let q = shape.gen_range(0..n);
        let kind = shape.gen_range(0..5u32);
        let partner = (q + 1 + shape.gen_range(0..n - 1)) % n;
        c.push(match kind {
            0 => Gate::h(q),
            1 => Gate::rz(q, angle()),
            2 => Gate::ry(q, angle()),
            3 => Gate::cphase(partner, q, angle()),
            _ => Gate::cnot(partner, q),
        });
    }
    c
}

/// The mirror program of circuit C: one `Gates` op running C, then one
/// running C†, so an exact run returns |0…0⟩.
pub fn mirror_program(c: &Circuit) -> QuantumProgram {
    let mut pb = ProgramBuilder::new();
    pb.register("q", c.n_qubits());
    pb.gates(|g| g.extend(c));
    pb.gates(|g| g.extend(&c.inverse()));
    pb.build().expect("the mirror program is well formed")
}

// ---------------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------------

/// Register width of the serving program (4m + 1 = 17 qubits).
pub const SERVE_M: usize = 4;
/// Register width of the oversize requests (4·6 + 1 = 25 qubits, past the
/// default admission bound of 24).
pub const OVERSIZE_M: usize = 6;
/// Gates per local run (two runs per program).
pub const SERVE_RUN_DEPTH: usize = 48;
/// Shots sampled per request.
pub const SERVE_SHOTS: u32 = 256;
/// Requests per pattern block: 1 oversize, [`COLD_PER_BLOCK`] cold, the
/// rest warm.
pub const BLOCK: usize = 32;
/// Cold requests per block of [`BLOCK`].
pub const COLD_PER_BLOCK: usize = 4;

/// What a request is meant to exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Shares the run's one structure (differs only in rotation slope):
    /// a warm plan-cache hit that can coalesce with its peers.
    Warm,
    /// Fresh register names: a new structure, so a cold plan.
    Cold,
    /// Wider than the admission bound: must get `TooManyQubits`.
    Oversize,
}

/// Kind of request `index` of client `client`: each block of 32 holds
/// exactly one oversize and four cold requests, at seeded positions.
pub fn request_kind(seed: u64, client: u64, index: u64) -> RequestKind {
    let block = index / BLOCK as u64;
    let pos = (index % BLOCK as u64) as usize;
    let mut rng = rng_for(seed, 4 + 1000 * client, block);
    let mut perm: Vec<usize> = (0..BLOCK).collect();
    for i in (1..BLOCK).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    match perm[pos] {
        0 => RequestKind::Oversize,
        k if k <= COLD_PER_BLOCK => RequestKind::Cold,
        _ => RequestKind::Warm,
    }
}

/// Two short local gate runs, one on each of the first two registers,
/// with seeded rotation angles (fixed for the whole run, so warm requests
/// share one structure).
fn local_runs(seed: u64, m: usize) -> Vec<Gate> {
    let mut rng = rng_for(seed, 5, 0);
    let mut gates = Vec::with_capacity(2 * SERVE_RUN_DEPTH);
    for block in 0..2usize {
        let base = block * m;
        for i in 0..SERVE_RUN_DEPTH {
            let q = base + (i % m);
            let q2 = base + ((i + 1) % m);
            gates.push(match i % 3 {
                0 => Gate::Unary {
                    op: GateOp::Rz(rng.gen_range(0.0..PI)),
                    target: q,
                    controls: Vec::new(),
                },
                1 => Gate::h(q),
                _ => Gate::cnot(q, q2),
            });
        }
    }
    gates
}

/// `serve_throughput`'s mixed program: registers `a, b, c, r` of `m`
/// qubits and a 1-qubit indicator; Hadamards, two local gate runs, a
/// multiply, an add, a slope-carrying rotation and a QFT⁻¹·QFT pair.
pub fn serve_program(seed: u64, tag: &str, m: usize, slope: f64) -> WireProgram {
    let reg = |name: &str| WireRegister {
        name: format!("{name}{tag}"),
        len: m as u32,
    };
    WireProgram {
        registers: vec![
            reg("a"),
            reg("b"),
            reg("c"),
            reg("r"),
            WireRegister {
                name: format!("ind{tag}"),
                len: 1,
            },
        ],
        ops: vec![
            WireOp::Hadamard(0),
            WireOp::Hadamard(1),
            WireOp::Gates(local_runs(seed, m)),
            WireOp::Multiply { a: 0, b: 1, c: 2 },
            WireOp::Add { a: 2, b: 3 },
            WireOp::Rotation {
                x: 0,
                target: 4,
                slope,
                intercept: 0.05,
            },
            WireOp::Qft(2),
            WireOp::InverseQft(2),
        ],
    }
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// What it exercises.
    pub kind: RequestKind,
    /// The encoded submit payload.
    pub payload: Vec<u8>,
}

/// Request `index` of client `client`, encoded for the wire.
/// `want_amplitudes` asks the daemon to return the final state (used by
/// the correctness replay, outside the timed loop).
pub fn request(seed: u64, client: u64, index: u64, want_amplitudes: bool) -> Request {
    let kind = request_kind(seed, client, index);
    let mut rng = rng_for(seed, 6 + 1000 * client, index);
    let slope = rng.gen_range(0.05..0.5);
    let options = SubmitOptions {
        shots: SERVE_SHOTS,
        seed: rng.gen(),
        want_amplitudes,
    };
    let program = match kind {
        RequestKind::Warm => serve_program(seed, "", SERVE_M, slope),
        RequestKind::Cold => serve_program(seed, &format!("-c{client}-r{index}"), SERVE_M, slope),
        RequestKind::Oversize => serve_program(seed, "", OVERSIZE_M, slope),
    };
    Request {
        kind,
        payload: wire::encode_submit(&program, &options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Circuits compared byte for byte through their wire encoding.
    fn circuit_bytes(c: &Circuit) -> Vec<u8> {
        WireProgram {
            registers: vec![WireRegister {
                name: "q".into(),
                len: c.n_qubits() as u32,
            }],
            ops: vec![WireOp::Gates(c.gates().to_vec())],
        }
        .encode()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for index in 0..3 {
            let a = circuit_bytes(&random_circuit(11, index));
            assert_eq!(a, circuit_bytes(&random_circuit(11, index)));
            assert_ne!(a, circuit_bytes(&random_circuit(12, index)));
            assert_ne!(a, circuit_bytes(&random_circuit(11, index + 1)));
        }
        let mut differs = false;
        for (client, index) in [(0, 0), (0, 5), (1, 31), (1, 64)] {
            let a = request(11, client, index, false);
            assert_eq!(a, request(11, client, index, false));
            differs |= a.payload != request(12, client, index, false).payload;
        }
        assert!(differs);
        assert_eq!(shor_params(11, 4), shor_params(11, 4));
        assert_ne!(shor_params(11, 4), shor_params(12, 4));
        assert_eq!(qpe_field(11, 4).to_bits(), qpe_field(11, 4).to_bits());
        assert_ne!(qpe_field(11, 4).to_bits(), qpe_field(12, 4).to_bits());
    }

    #[test]
    fn request_mix_has_exact_proportions() {
        for client in 0..2 {
            let kinds: Vec<RequestKind> = (0..BLOCK as u64 * 4)
                .map(|i| request_kind(7, client, i))
                .collect();
            for block in kinds.chunks(BLOCK) {
                let count = |k| block.iter().filter(|&&x| x == k).count();
                assert_eq!(count(RequestKind::Oversize), 1);
                assert_eq!(count(RequestKind::Cold), COLD_PER_BLOCK);
            }
        }
    }

    #[test]
    fn warm_requests_share_a_structure_and_cold_ones_do_not() {
        let hash = |r: &Request| {
            let (p, _) = wire::decode_submit(&r.payload).unwrap();
            p.to_program().unwrap().structure_hash()
        };
        let reqs: Vec<Request> = (0..64).map(|i| request(3, 0, i, false)).collect();
        let warm: Vec<u64> = reqs
            .iter()
            .filter(|r| r.kind == RequestKind::Warm)
            .map(hash)
            .collect();
        assert!(warm.windows(2).all(|w| w[0] == w[1]));
        for r in reqs.iter().filter(|r| r.kind == RequestKind::Cold) {
            assert_ne!(hash(r), warm[0]);
        }
        for r in reqs.iter().filter(|r| r.kind == RequestKind::Oversize) {
            let (p, _) = wire::decode_submit(&r.payload).unwrap();
            assert!(p.n_qubits() > qcemu_serve::AdmissionPolicy::default().max_qubits);
        }
    }
}
