//! The host side of a result: process counters, memory-bandwidth and
//! single-kernel probes, and the provenance stamp.
//!
//! Process and CPU facts come from Linux's `/proc` and `/sys`
//! pseudo-files; where one is missing the figure reads 0 or "unknown".

use crate::report::json_string;
use qcemu_sim::{Gate, StateVector};
use rayon::prelude::*;
use std::time::Instant;

/// Kernel ticks per second of `/proc/self/stat` CPU times (`USER_HZ`,
/// 100 on every Linux architecture this builds for).
const USER_HZ: f64 = 100.0;

const MIB: usize = 1 << 20;

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resets `state` to |0…0⟩ in place, writing every amplitude. Used on a
/// fresh state it is the first touch of every page: the allocator may
/// hand out untouched zero pages, which would otherwise be faulted in by
/// the first timed operation instead of by the set-up.
pub fn reset(mut state: StateVector) -> StateVector {
    let amps = state.amplitudes_mut();
    amps.fill(qcemu_linalg::C64::ZERO);
    amps[0] = qcemu_linalg::C64::ONE;
    state
}

/// Median of `reps` timings of `f`, in seconds.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// Repetitions that keep one probe near `budget_s` given one timing.
fn reps_for(one_s: f64, budget_s: f64) -> usize {
    ((budget_s / one_s.max(1e-9)) as usize).clamp(3, 25)
}

/// Chunk length of the parallel STREAM loops (64 KiB of `f64`s).
const CHUNK: usize = 8192;

/// STREAM-style copy bandwidth over two arrays of `bytes` each, in GB/s
/// (10⁹ bytes; read + write counted, write-allocate traffic not), on the
/// same worker pool the kernels use.
pub fn copy_gbps(bytes: usize) -> f64 {
    let len = bytes / 8;
    let a = vec![1.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut copy = || {
        b.par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(i, chunk)| chunk.copy_from_slice(&a[i * CHUNK..i * CHUNK + chunk.len()]));
        std::hint::black_box(&b);
    };
    let t0 = Instant::now();
    copy();
    let reps = reps_for(t0.elapsed().as_secs_f64(), 0.25);
    2.0 * bytes as f64 / time_median(reps, copy) / 1e9
}

/// STREAM-style triad `a = b + s·c` over three arrays of `bytes` each,
/// in GB/s (two reads + one write counted).
pub fn triad_gbps(bytes: usize) -> f64 {
    let len = bytes / 8;
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let s = std::hint::black_box(3.0);
    let mut triad = || {
        a.par_chunks_mut(CHUNK).enumerate().for_each(|(i, chunk)| {
            let base = i * CHUNK;
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = b[base + j] + s * c[base + j];
            }
        });
        std::hint::black_box(&a);
    };
    let t0 = Instant::now();
    triad();
    let reps = reps_for(t0.elapsed().as_secs_f64(), 0.25);
    3.0 * bytes as f64 / time_median(reps, triad) / 1e9
}

/// The measured bandwidth knee: copy bandwidth at array sizes from 4 MiB
/// to 256 MiB, and the first size whose bandwidth falls below 75 % of the
/// best smaller size.
pub struct Knee {
    /// `(array MiB, GB/s)` per probed size.
    pub curve: Vec<(usize, f64)>,
    /// First array size past the knee, in MiB (`None`: no drop seen).
    pub knee_mib: Option<usize>,
}

/// Probes the copy-bandwidth curve (≈ 1 s, two arrays of up to 256 MiB).
pub fn bandwidth_knee() -> Knee {
    let curve: Vec<(usize, f64)> = (2..=8)
        .map(|k| 1usize << k)
        .map(|mib| (mib, copy_gbps(mib * MIB)))
        .collect();
    let mut best = 0.0f64;
    let mut knee_mib = None;
    for &(mib, gbps) in &curve {
        if best > 0.0 && gbps < 0.75 * best {
            knee_mib = Some(mib);
            break;
        }
        best = best.max(gbps);
    }
    Knee { curve, knee_mib }
}

impl Knee {
    /// One-line summary for the provenance stamp.
    pub fn summary(&self) -> String {
        let curve: Vec<String> = self
            .curve
            .iter()
            .map(|(mib, g)| format!("{mib}MiB:{g:.1}"))
            .collect();
        let knee = match self.knee_mib {
            Some(m) => format!("drop below 75% of peak at {m} MiB arrays"),
            None => "no drop up to 256 MiB arrays".into(),
        };
        format!("{knee}; copy GB/s by array size {}", curve.join(" "))
    }
}

/// One single-kernel probe: `gbps` from bytes computed from the state
/// size and the share of entries the kernel touches.
pub struct KernelProbe {
    /// Metric infix (`h_low`, …).
    pub name: &'static str,
    /// Achieved GB/s (computed bytes ÷ measured time).
    pub gbps: f64,
}

/// `hbench`/`swapbench`-style probes on an `n`-qubit state: H on qubits
/// 0, n/2 and n−1, a SWAP of qubits 0 and n−1 (touches half the
/// entries), and a controlled phase on 0 and n−1 (touches a quarter).
/// Bytes per gate are read + write of the touched entries.
pub fn kernel_probes(n: usize) -> Vec<KernelProbe> {
    let mut sv = StateVector::uniform_superposition(n);
    let state_bytes = (16usize << n) as f64;
    let probes: [(&'static str, Gate, f64); 5] = [
        ("h_low", Gate::h(0), 1.0),
        ("h_mid", Gate::h(n / 2), 1.0),
        ("h_high", Gate::h(n - 1), 1.0),
        ("swap", Gate::swap(0, n - 1), 0.5),
        ("cphase", Gate::cphase(0, n - 1, 0.3), 0.25),
    ];
    probes
        .into_iter()
        .map(|(name, gate, touched)| {
            sv.apply(&gate);
            let t0 = Instant::now();
            sv.apply(&gate);
            let reps = reps_for(t0.elapsed().as_secs_f64(), 0.2);
            let t = time_median(reps, || sv.apply(&gate));
            KernelProbe {
                name,
                gbps: 2.0 * touched * state_bytes / t / 1e9,
            }
        })
        .collect()
}

/// `model name` of the first CPU.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cache sizes of CPU 0 as `L1d:48K L1i:32K L2:2048K L3:307200K`.
fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        let tag = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        parts.push(format!("L{}{tag}:{}", level.trim(), size.trim()));
    }
    if parts.is_empty() {
        "unknown".into()
    } else {
        parts.join(" ")
    }
}

/// The checkout's git revision, read from `.git` in the working
/// directory without leaving it; "unknown" outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Cargo features the benchmark (and through it the library) was built
/// with.
fn features() -> &'static str {
    if cfg!(feature = "simd") {
        "simd"
    } else {
        "none"
    }
}

/// Everything a result needs to be reproduced and compared.
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// Pool size the measuring processes ran with.
    pub pool_threads: u64,
    /// Peak simultaneous pool participants they reached.
    pub pool_peak_workers: u64,
    /// Bandwidth knee measured in this run.
    pub knee: Knee,
}

impl Provenance {
    /// The stamp as one JSON object (printed before the result line).
    pub fn to_json(&self) -> String {
        let fields: Vec<(&str, String)> = vec![
            ("workload", json_string(&self.workload)),
            ("seed", self.seed.to_string()),
            ("seconds", format!("{}", self.seconds)),
            ("trace", self.trace.to_string()),
            ("git_rev", json_string(&git_rev())),
            ("cpu_model", json_string(&cpu_model())),
            ("nproc", nproc().to_string()),
            ("caches", json_string(&cache_sizes())),
            ("bandwidth_knee", json_string(&self.knee.summary())),
            ("features", json_string(features())),
            ("rustc", json_string(env!("EMUBENCH_RUSTC_VERSION"))),
            ("pool_threads", self.pool_threads.to_string()),
            ("pool_peak_workers", self.pool_peak_workers.to_string()),
        ];
        let body: Vec<String> = fields
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Bytes of an `n`-qubit state vector.
pub fn state_bytes(n: usize) -> usize {
    16usize << n
}
