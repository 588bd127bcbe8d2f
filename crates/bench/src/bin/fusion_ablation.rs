//! **Fusion ablation**: unfused gate-by-gate application vs the gate-fusion
//! engine at block widths k ∈ {2..5}, on the paper's Fig. 5 (QFT) and
//! Fig. 6 (entangling) circuits.
//!
//! Usage: `cargo run -p qcemu-bench --release --bin fusion_ablation
//!         [-- --min-n 20 --max-n 21 --min-k 2 --max-k 5 --json]`
//!
//! No paper counterpart: the paper's simulator (§4.5) applies one gate per
//! state sweep; this harness quantifies what the qHiPSTER-class fusion
//! layer adds on top. Columns: measured wall time, speedup over unfused,
//! the traffic model's predicted entry-write ratio, and the block census.
//! How to read the output (and the memory-traffic model behind the
//! `traffic` column) is documented in `docs/PERFORMANCE.md`.
//!
//! A second table times **one** 4-qubit block on a `BLOCK_N`-qubit state
//! and reports its achieved bandwidth (read + write of the touched
//! entries): a general block at lowest qubit 0, 1, 2, n/2 and n−4, and
//! diagonal, permutation and dense blocks at lowest qubit 0 and 1, each
//! through the per-group kernels of `qcemu_sim::kernels` and through the
//! batch-major kernels at batch `2^q0`. `--json` additionally writes
//! `BENCH_fusion_ablation.json` with one row per printed line.

use qcemu_bench::{fmt_secs, header, time_median, time_once, Args, BenchReport, JsonObj};
use qcemu_linalg::C64;
use qcemu_sim::kernels::{self, PAR_THRESHOLD};
use qcemu_sim::{
    entangle_circuit, qft_circuit, Circuit, FusedGate, FusedOp, FusedStructure, FusionPolicy, Gate,
    GateOp, StateVector, DEFAULT_MAX_FUSED_QUBITS,
};

/// State size of the block-position table: 256 MiB, past the last-level
/// cache, so each row is one memory-bound sweep.
const BLOCK_N: usize = 24;

/// A 4-qubit gate run with lowest qubit `q0` that fuses into one block of
/// structure `kind`: the other three qubits spread evenly over
/// `q0+1..n`. The general block is 8 gates (H on each qubit, a CNOT chain
/// and an Rz), fewer than the 2^4 that would make it dense; the dense one
/// alternates Ry and controlled-Rx up to 16 gates.
fn block_circuit(kind: FusedStructure, n: usize, q0: usize) -> Circuit {
    let span = n - 1 - q0;
    let qs: Vec<usize> = (0..4).map(|i| q0 + i * span / 3).collect();
    let mut c = Circuit::new(n);
    match kind {
        FusedStructure::Diagonal => {
            c.rz(qs[0], 0.3);
            for w in qs.windows(2) {
                c.cphase(w[0], w[1], 0.7);
            }
        }
        FusedStructure::Permutation => {
            c.x(qs[0]);
            for w in qs.windows(2) {
                c.cnot(w[0], w[1]);
            }
        }
        FusedStructure::General => {
            for &q in &qs {
                c.h(q);
            }
            for w in qs.windows(2) {
                c.cnot(w[0], w[1]);
            }
            c.rz(qs[3], 0.3);
        }
        FusedStructure::Dense => {
            for i in 0..8 {
                c.ry(qs[i % 4], 0.1 * i as f64 + 0.2);
                c.push(Gate::controlled(
                    GateOp::Rx(0.5),
                    qs[(i + 1) % 4],
                    qs[i % 4],
                ));
            }
        }
    }
    c
}

/// The single block `block_circuit` fuses into.
fn only_block(kind: FusedStructure, n: usize, q0: usize) -> FusedGate {
    let fused = block_circuit(kind, n, q0).fuse(&FusionPolicy::Greedy {
        max_fused_qubits: DEFAULT_MAX_FUSED_QUBITS,
    });
    let [FusedOp::Block(block)] = fused.ops() else {
        unreachable!("the block circuit fuses into one block")
    };
    assert_eq!(block.structure(), kind);
    block.clone()
}

/// Applies `block` through the per-group kernel of its kind in
/// `qcemu_sim::kernels`: one gathered group of `2^k` amplitudes at a time.
fn apply_per_group(block: &FusedGate, state: &mut [C64]) {
    let qs = block.qubits();
    match block.structure() {
        FusedStructure::Diagonal => {
            let factors = block.diagonal_factors().expect("diagonal block");
            kernels::apply_fused_diagonal_with(state, qs, factors, PAR_THRESHOLD);
        }
        FusedStructure::Permutation => {
            let m = block.matrix();
            let dim = m.nrows();
            let mut target = vec![0; dim];
            let mut factor = vec![C64::ZERO; dim];
            for v in 0..dim {
                let r = (0..dim).find(|&r| m[(r, v)] != C64::ZERO).unwrap();
                target[v] = r;
                factor[v] = m[(r, v)];
            }
            kernels::apply_fused_permutation_with(state, qs, &target, &factor, PAR_THRESHOLD);
        }
        FusedStructure::Dense => {
            kernels::apply_fused_with(state, qs, block.matrix(), PAR_THRESHOLD)
        }
        FusedStructure::General => unreachable!("general blocks have no per-group kernel"),
    }
}

/// Median time of `apply` on a `BLOCK_N`-qubit state, and the bandwidth it
/// achieves reading and writing `touched` entries.
fn time_block(touched: usize, mut apply: impl FnMut(&mut [C64])) -> (f64, f64) {
    let mut sv = StateVector::uniform_superposition(BLOCK_N);
    let t = time_median(5, || {
        apply(sv.amplitudes_mut());
        std::hint::black_box(sv.amplitudes()[0]);
    });
    (t, 2.0 * 16.0 * touched as f64 / t / 1e9)
}

fn main() {
    let args = Args::parse();
    let min_n: usize = args.get("min-n").unwrap_or(20);
    let max_n: usize = args.get("max-n").unwrap_or(21);
    let min_k: usize = args.get("min-k").unwrap_or(2);
    let max_k: usize = args.get("max-k").unwrap_or(5);
    let mut report = BenchReport::new("fusion_ablation");
    report.set_config(
        JsonObj::new()
            .int("min_n", min_n as u64)
            .int("max_n", max_n as u64)
            .int("min_k", min_k as u64)
            .int("max_k", max_k as u64)
            .int("block_n", BLOCK_N as u64)
            .str("features", if cfg!(feature = "simd") { "simd" } else { "" })
            .int("threads", rayon::current_num_threads() as u64),
    );

    header(
        "Fusion ablation — unfused vs greedy gate fusion at k = 2..5",
        "one blocked sweep per fused run of gates, vs one sweep per gate (Fig. 5/6 circuits)",
    );
    println!(
        "{:>3} {:<9} {:>5} {:>7} {:>12} {:>9} {:>9} {:>22}",
        "n", "circuit", "k", "sweeps", "time", "speedup", "traffic", "blocks (diag/perm/gen)"
    );

    for n in min_n..=max_n {
        for (name, circuit) in [
            ("fig5-qft", qft_circuit(n)),
            ("fig6-ghz", entangle_circuit(n)),
        ] {
            let reps = if n <= 20 { 3 } else { 2 };
            let unfused_traffic = circuit.fuse(&FusionPolicy::Disabled).touched_entries(n) as f64;

            let t_unfused = time_median(reps, || {
                let mut sv = StateVector::uniform_superposition(n);
                sv.apply_circuit(&circuit);
                std::hint::black_box(sv.amplitudes()[0]);
            });
            println!(
                "{:>3} {:<9} {:>5} {:>7} {:>12} {:>8.2}x {:>9.3} {:>22}",
                n,
                name,
                "-",
                circuit.gate_count(),
                fmt_secs(t_unfused),
                1.0,
                1.0,
                "-"
            );
            report.push(
                JsonObj::new()
                    .int("n", n as u64)
                    .str("circuit", name)
                    .str("mode", "unfused")
                    .int("sweeps", circuit.gate_count() as u64)
                    .num("median_s", t_unfused),
            );

            for k in min_k..=max_k {
                let policy = FusionPolicy::Greedy {
                    max_fused_qubits: k,
                };
                // Fusion (compose + classify) is paid once per circuit and
                // amortised over reps — reported via `fuse` below.
                let (t_fuse, fused) = time_once(|| circuit.fuse(&policy));
                let census = fused.census();
                let t_fused = time_median(reps, || {
                    let mut sv = StateVector::uniform_superposition(n);
                    sv.apply_fused_circuit(&fused);
                    std::hint::black_box(sv.amplitudes()[0]);
                });
                println!(
                    "{:>3} {:<9} {:>5} {:>7} {:>12} {:>8.2}x {:>9.3} {:>15}/{}/{}  (fuse {})",
                    n,
                    name,
                    k,
                    census.total_ops(),
                    fmt_secs(t_fused),
                    t_unfused / t_fused,
                    fused.touched_entries(n) as f64 / unfused_traffic,
                    census.diagonal_blocks,
                    census.permutation_blocks,
                    census.general_blocks + census.dense_blocks,
                    fmt_secs(t_fuse),
                );
                report.push(
                    JsonObj::new()
                        .int("n", n as u64)
                        .str("circuit", name)
                        .str("mode", "fused")
                        .int("k", k as u64)
                        .int("sweeps", census.total_ops() as u64)
                        .num("median_s", t_fused)
                        .num("speedup", t_unfused / t_fused)
                        .num(
                            "traffic_ratio",
                            fused.touched_entries(n) as f64 / unfused_traffic,
                        ),
                );
            }
        }
    }

    let n = BLOCK_N;
    println!();
    println!("one 4-qubit block on n = {n} (bandwidth = read + write of the touched entries)");
    println!(
        "{:<12} {:>3} {:<16} {:<10} {:>12} {:>8}",
        "kind", "q0", "qubits", "path", "time", "GB/s"
    );
    let mut row = |kind: FusedStructure, block: &FusedGate, path: &str, (t, gbps): (f64, f64)| {
        let q0 = block.qubits()[0];
        let qubits = format!("{:?}", block.qubits());
        let name = format!("{kind:?}").to_lowercase();
        println!(
            "{name:<12} {q0:>3} {qubits:<16} {path:<10} {:>12} {gbps:>8.2}",
            fmt_secs(t)
        );
        report.push(
            JsonObj::new()
                .int("n", n as u64)
                .str("mode", "block")
                .str("kind", &name)
                .int("q0", q0 as u64)
                .str("qubits", &qubits)
                .str("path", path)
                .num("median_s", t)
                .num("gbps", gbps),
        );
    };
    // General blocks: the sequential sweep `FusedGate::apply_slice` at
    // every position.
    for q0 in [0, 1, 2, n / 2, n - 4] {
        let block = only_block(FusedStructure::General, n, q0);
        let touched = block.touched_entries(n);
        let timing = time_block(touched, |s| block.apply_slice(s));
        row(FusedStructure::General, &block, "sweep", timing);
    }
    // The other kinds on qubit 0 or 1, where the batch axis holds only
    // 1–2 amplitudes: per-group kernels against the batch-major kernels
    // at batch 2^q0, on the block's qubits shifted down by q0.
    for kind in [
        FusedStructure::Diagonal,
        FusedStructure::Permutation,
        FusedStructure::Dense,
    ] {
        for q0 in [0, 1] {
            let block = only_block(kind, n, q0);
            let shifted = only_block(kind, n - q0, 0);
            let touched = block.touched_entries(n);
            let timing = time_block(touched, |s| apply_per_group(&block, s));
            row(kind, &block, "per-group", timing);
            let timing = time_block(touched, |s| {
                shifted.apply_batched_with(s, 1 << q0, PAR_THRESHOLD)
            });
            row(kind, &block, "batch", timing);
        }
    }
    report.write_if(args.has("json"));
    println!();
    println!("note: 'sweeps' counts executable ops (gates, or blocks after fusion);");
    println!("      'traffic' is the modelled ratio of state-vector entries written");
    println!("      (FusedCircuit::touched_entries / sum of per-gate touched_entries).");
    println!("      Fused sweeps run the batch-major kernels along the state's free low");
    println!("      qubits, so flops match unfused execution while memory passes shrink.");
    println!("      See docs/PERFORMANCE.md for the model and reference numbers.");
}
