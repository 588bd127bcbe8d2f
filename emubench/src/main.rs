//! `emubench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path emubench/Cargo.toml -- \
//!     --workload <emulate-mix|sweep-25|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the emulator from outside through its public
//! API, checks every output, and prints human-readable figures followed
//! by a provenance stamp and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the same seeded inputs with
//! timers around each layer's public calls and reports the per-layer
//! metrics. See `emubench/README.md` for the workloads, the metrics and
//! the layer → end-to-end map.

mod emulate_mix;
mod host;
mod inputs;
mod layers;
mod report;
mod serve_mix;
mod stats;
mod sweep;

use report::{result_line, Metrics};
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["emulate-mix", "sweep-25", "serve-mix"];

/// Fresh processes an untraced run is split into. Per-process state
/// (thread placement, allocator arenas, address layout) moves a whole
/// process's figures by ±10 % on a small shared host; pooling the
/// samples of several processes averages that out, and gives one set-up
/// sample per process.
pub const PARTS: u64 = 3;

/// What one process was asked to do.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// This process's measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) rather than untraced (end-to-end).
    pub trace: bool,
    /// Part of an untraced run this process measures (0 for a traced
    /// run); workloads give each part its own slice of the input stream.
    pub part: u64,
    process_start: Instant,
}

impl Ctx {
    /// Runs the workload's set-up and returns its product with the
    /// set-up time: from process start to the end of `once`, so it
    /// carries the one-off costs a process pays (pool start, first-touch
    /// allocation, server start). Input generation happens later.
    pub fn setup<T>(&self, once: impl FnOnce() -> T) -> (T, f64) {
        let value = once();
        (value, self.process_start.elapsed().as_secs_f64())
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations attempted (programs, mirror pairs, requests).
    pub attempted: u64,
    /// Operations that failed a check, returned an error or were
    /// rejected unexpectedly.
    pub failed: u64,
    /// Untraced raw figures, or the traced run's per-layer metrics.
    pub measured: Measured,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The two kinds of run.
pub enum Measured {
    /// An untraced part's raw figures.
    EndToEnd(EndToEnd),
    /// A traced run's per-layer metric set.
    Layers(Metrics),
}

/// One untraced part's raw figures.
pub struct EndToEnd {
    /// Process start to the end of set-up.
    pub setup_s: f64,
    /// Peak resident memory at the end of the measurement window.
    pub peak_rss_mib: f64,
    /// Seconds of each timed unit.
    pub latencies_s: Vec<f64>,
    /// Work items completed (programs, logical gates, requests).
    pub work: f64,
    /// Seconds the work took.
    pub work_s: f64,
}

/// The latency unit and work item of a workload, for the summary.
fn units(workload: &str) -> (&'static str, &'static str) {
    match workload {
        "emulate-mix" => (
            "program (mean of one Shor-style and one QPE program)",
            "programs",
        ),
        "sweep-25" => ("mirror pair (C then C†)", "logical gates"),
        _ => ("request round trip (admitted requests)", "requests served"),
    }
}

/// A part's figures as one stdout line, for the parent to pool.
fn part_line(o: &Outcome, e: &EndToEnd) -> String {
    let pool = rayon::pool::stats();
    let lat: Vec<String> = e.latencies_s.iter().map(|x| x.to_string()).collect();
    format!(
        "part {} {} {} {} {} {} {} {} {}",
        o.attempted,
        o.failed,
        e.setup_s,
        e.peak_rss_mib,
        e.work,
        e.work_s,
        pool.threads,
        pool.peak_workers,
        lat.join(",")
    )
}

/// Pooled figures of the parts of an untraced run.
struct Pooled {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    peak_rss_mib: Vec<f64>,
    latencies_s: Vec<f64>,
    /// Each part's median latency.
    part_p50_s: Vec<f64>,
    /// Each part's nearest-rank p99.
    part_p99_s: Vec<f64>,
    work: f64,
    work_s: f64,
    /// Each part's work ÷ its seconds.
    part_rates: Vec<f64>,
    pool_threads: u64,
    pool_peak_workers: u64,
    notes: Vec<String>,
}

impl Pooled {
    fn add(&mut self, line: &str) -> Option<()> {
        let f: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        self.attempted += num(1)? as u64;
        self.failed += num(2)? as u64;
        self.setup_s.push(num(3)?);
        self.peak_rss_mib.push(num(4)?);
        let (work, work_s) = (num(5)?, num(6)?);
        self.work += work;
        self.work_s += work_s;
        self.part_rates.push(work / work_s.max(1e-12));
        self.pool_threads = num(7)? as u64;
        self.pool_peak_workers = self.pool_peak_workers.max(num(8)? as u64);
        let part: Vec<f64> = f
            .get(9)?
            .split(',')
            .filter(|v| !v.is_empty())
            .map(|v| v.parse().ok())
            .collect::<Option<_>>()?;
        self.part_p50_s.push(stats::median(&part));
        self.part_p99_s.push(stats::percentile(&part, 99.0));
        self.latencies_s.extend(part);
        Some(())
    }

    /// The end-to-end metric set, with its summary lines. Each latency
    /// percentile is taken within each part and the run reports the
    /// median across parts, so one part caught in a slow spell of the
    /// host does not set the run's figure. Throughput is the mean of the
    /// parts' rates. Both keep a part's sample count from reweighting the
    /// mix (a `sweep-25` part runs one circuit structure). Peak memory is
    /// the parts' mean, since a process's peak lands on one of a few
    /// allocator-dependent levels.
    fn metrics(&mut self, workload: &str) -> Metrics {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", stats::median(&self.setup_s));
        m.set("latency_p50_s", stats::median(&self.part_p50_s));
        m.set("latency_p99_s", stats::median(&self.part_p99_s));
        m.set("throughput_per_s", stats::mean(&self.part_rates));
        m.set("peak_rss_mib", stats::mean(&self.peak_rss_mib));
        let (unit, item) = units(workload);
        let n = self.latencies_s.len();
        self.notes.push(format!(
            "set-up per process {:?} s; peak RSS per process {:?} MiB",
            self.setup_s, self.peak_rss_mib
        ));
        self.notes.push(format!(
            "latency per {unit} over {n} samples: p50 per process {:?} s, p99 per process {:?} s ({})",
            self.part_p50_s,
            self.part_p99_s,
            match stats::tail(&self.latencies_s) {
                Some((p, v)) =>
                    format!("pooled, the highest percentile with ≥10 beyond: p{p} = {v:.6} s"),
                None => "pooled, too few samples for a tail with ≥10 beyond".into(),
            }
        ));
        self.notes.push(format!(
            "throughput: {:.4} {item} per second, the mean of {:?} per process ({} in {:.3} s)",
            m.get("throughput_per_s"),
            self.part_rates,
            self.work,
            self.work_s
        ));
        m
    }
}

/// Runs the `PARTS` processes of an untraced run one after another and
/// pools their figures.
fn run_parts(ctx: &Ctx) -> Result<Pooled, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut pooled = Pooled {
        attempted: 0,
        failed: 0,
        setup_s: Vec::new(),
        peak_rss_mib: Vec::new(),
        latencies_s: Vec::new(),
        part_p50_s: Vec::new(),
        part_p99_s: Vec::new(),
        work: 0.0,
        work_s: 0.0,
        part_rates: Vec::new(),
        pool_threads: 0,
        pool_peak_workers: 0,
        notes: Vec::new(),
    };
    for part in 0..PARTS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &ctx.workload])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--seconds", &(ctx.seconds / PARTS as f64).to_string()])
            .args(["--trace", "0", "--part", &part.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("part {part}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut found = false;
        for line in text.lines() {
            if line.starts_with("part ") {
                pooled
                    .add(line)
                    .ok_or_else(|| format!("part {part}: unreadable line {line}"))?;
                found = true;
            } else {
                pooled.notes.push(format!("[part {part}] {line}"));
            }
        }
        if !out.status.success() || !found {
            return Err(format!("part {part} failed ({})", out.status));
        }
    }
    Ok(pooled)
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let process_start = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--part" => part = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of (0, 600]"));
    }
    let ctx = Ctx {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        part: part.unwrap_or(0),
        process_start,
    };
    Ok((ctx, part.is_some()))
}

fn run_workload(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "emulate-mix" => emulate_mix::run(ctx),
        "sweep-25" => sweep::run(ctx),
        _ => serve_mix::run(ctx),
    }
}

fn main() -> ExitCode {
    let (ctx, is_part) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("emubench: {e}");
            eprintln!(
                "usage: emubench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if is_part {
        let outcome = run_workload(&ctx);
        for line in &outcome.notes {
            println!("{line}");
        }
        return match &outcome.measured {
            Measured::EndToEnd(e) => {
                println!("{}", part_line(&outcome, e));
                ExitCode::SUCCESS
            }
            Measured::Layers(_) => ExitCode::FAILURE,
        };
    }

    let (attempted, failed, metrics, notes, pool_threads, pool_peak_workers) = if ctx.trace {
        let outcome = run_workload(&ctx);
        let Measured::Layers(metrics) = outcome.measured else {
            eprintln!("emubench: a traced run produced untraced figures");
            return ExitCode::FAILURE;
        };
        let pool = rayon::pool::stats();
        (
            outcome.attempted,
            outcome.failed,
            metrics,
            outcome.notes,
            pool.threads as u64,
            pool.peak_workers,
        )
    } else {
        let mut pooled = match run_parts(&ctx) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("emubench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let metrics = pooled.metrics(&ctx.workload);
        (
            pooled.attempted,
            pooled.failed,
            metrics,
            pooled.notes,
            pooled.pool_threads,
            pooled.pool_peak_workers,
        )
    };
    // Measured last, with every workload state gone, so the probe's
    // arrays never count toward a workload's peak memory.
    let provenance = host::Provenance {
        workload: ctx.workload.clone(),
        seed: ctx.seed,
        seconds: ctx.seconds,
        trace: ctx.trace,
        pool_threads,
        pool_peak_workers,
        knee: host::bandwidth_knee(),
    };
    println!(
        "emubench {} seed={} trace={}",
        ctx.workload, ctx.seed, ctx.trace
    );
    for line in &notes {
        println!("{line}");
    }
    println!("failed_ratio: {failed} of {attempted} attempted");
    for (name, value, unit) in metrics.iter() {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("provenance: {}", provenance.to_json());
    println!("{}", result_line(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
