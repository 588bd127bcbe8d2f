//! `serve-mix`: a closed loop of two client connections, each on its own
//! thread, against an in-process `EmuServer` with
//! `ServerConfig::default()`. Each client sends its next request only
//! after the previous reply. Per block of 32 requests: 27 warm requests
//! share one structure (differing only in rotation slope), 4 carry fresh
//! register names (cold plans), and 1 is wider than the admission bound
//! and must be rejected with `TooManyQubits`.
//!
//! The traced run also replays a fixed prefix of the request stream
//! in-process through the daemon's public layer functions, timing each
//! call, so a round trip splits into layers plus an unattributed
//! remainder (transport, queueing, scheduling).

use crate::inputs::{request, rng_for, RequestKind, SERVE_M, SERVE_SHOTS};
use crate::layers::{
    timed, write_cpu_util, write_host_probes, FusionTally, PlannerTally, PoolWindow,
};
use crate::report::Metrics;
use crate::stats::median;
use crate::{host, Ctx, EndToEnd, Measured, Outcome};
use qcemu_core::HybridExecutor;
use qcemu_serve::{
    wire, AdmissionPolicy, EmuClient, EmuServer, ErrorCode, Lane, RunResult, ServeError,
    ServerConfig, ServerHandle, StatsSnapshot, WireStepReport,
};
use qcemu_sim::measure::sample_shots;
use qcemu_sim::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Client connections (and threads) in the closed loop.
const CLIENTS: u64 = 2;
/// Requests per client the traced run replays in-process.
const REPLAY_PER_CLIENT: u64 = 48;
/// Requests re-submitted with amplitudes for the correctness gate.
const CHECKED: usize = 8;
/// Largest tolerated amplitude difference from an in-process run.
const AMP_TOL: f64 = 1e-9;

/// One request of the closed loop, as its client saw it.
struct Sent {
    client: u64,
    index: u64,
    kind: RequestKind,
    round_trip_s: f64,
    ok: bool,
}

fn start_server() -> (ServerHandle, Vec<EmuClient>) {
    let handle = EmuServer::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind a loopback port")
        .start()
        .expect("start the daemon");
    let clients = (0..CLIENTS)
        .map(|_| EmuClient::connect(handle.addr()).expect("connect to the daemon"))
        .collect();
    (handle, clients)
}

/// Checks one reply against what its request kind must get.
fn reply_ok(kind: RequestKind, reply: &Result<RunResult, ServeError>) -> bool {
    let n = 4 * SERVE_M + 1;
    match (kind, reply) {
        (RequestKind::Oversize, Err(ServeError::Server { code, .. })) => {
            *code == ErrorCode::TooManyQubits
        }
        (RequestKind::Warm | RequestKind::Cold, Ok(r)) => {
            r.n_qubits as usize == n
                && r.shots.len() == SERVE_SHOTS as usize
                && r.shots.iter().all(|&s| s < 1 << n)
                && !r.report.is_empty()
        }
        _ => false,
    }
}

/// One client's closed loop for `seconds` from `start` (at least one
/// request).
fn client_loop(
    seed: u64,
    client: u64,
    conn: &mut EmuClient,
    start: Instant,
    seconds: f64,
) -> Vec<Sent> {
    let mut sent = Vec::new();
    let mut index = 0u64;
    while start.elapsed().as_secs_f64() < seconds || index == 0 {
        let req = request(seed, client, index, false);
        let t0 = Instant::now();
        let reply = conn.submit_encoded(&req.payload);
        let round_trip_s = t0.elapsed().as_secs_f64();
        let ok = reply_ok(req.kind, &reply);
        if !ok {
            eprintln!(
                "serve-mix: client {client} request {index} ({:?}) failed: {reply:?}",
                req.kind
            );
        }
        sent.push(Sent {
            client,
            index,
            kind: req.kind,
            round_trip_s,
            ok,
        });
        index += 1;
    }
    sent
}

/// The correctness gate on a seeded subset: the daemon's amplitudes for
/// a request match an in-process `HybridExecutor` run of the same
/// payload. Returns the number of mismatches.
fn check_amplitudes(seed: u64, sent: &[Sent], conn: &mut EmuClient) -> u64 {
    let served: Vec<&Sent> = sent
        .iter()
        .filter(|s| s.kind != RequestKind::Oversize)
        .collect();
    let mut rng = rng_for(seed, 7, 0);
    let local = HybridExecutor::new();
    let mut bad = 0;
    for _ in 0..CHECKED.min(served.len()) {
        let s = served[rng.gen_range(0..served.len())];
        let req = request(seed, s.client, s.index, true);
        let remote = conn.submit_encoded(&req.payload);
        let (program, _) = wire::decode_submit(&req.payload).expect("generated payloads decode");
        let program = program.to_program().expect("generated programs are valid");
        let n = program.n_qubits();
        let ok = match (
            remote,
            local.run_structural(&program, StateVector::zero_state(n)),
        ) {
            (Ok(r), Ok((state, _))) => r.amplitudes.as_ref().is_some_and(|amps| {
                amps.len() == state.amplitudes().len()
                    && amps
                        .iter()
                        .zip(state.amplitudes())
                        .all(|(a, b)| (*a - *b).abs() <= AMP_TOL)
            }),
            _ => false,
        };
        if !ok {
            eprintln!(
                "serve-mix: amplitudes of client {} request {} do not match",
                s.client, s.index
            );
            bad += 1;
        }
    }
    bad
}

/// Per-layer seconds of one in-process replay of a request.
#[derive(Default)]
struct Replay {
    decode_s: f64,
    admission_s: f64,
    plan_s: f64,
    run_s: f64,
    sample_s: f64,
    encode_s: f64,
    request_bytes: usize,
    response_bytes: usize,
    admitted: bool,
}

impl Replay {
    fn layers_s(&self) -> f64 {
        self.decode_s + self.admission_s + self.plan_s + self.run_s + self.sample_s + self.encode_s
    }
}

/// Replays one payload through the daemon's layer functions:
/// `decode_submit` → `to_program` → admission → `plan_structural` /
/// `run_structural` → sampling → `RunResult::encode`. With `tally`, the
/// plan report and fusion figures are recorded too.
fn replay(
    payload: &[u8],
    exec: &HybridExecutor,
    tally: Option<(&mut PlannerTally, &mut FusionTally)>,
) -> Replay {
    let policy = AdmissionPolicy::default();
    let mut r = Replay {
        request_bytes: payload.len(),
        ..Replay::default()
    };
    let (decoded, decode_s) =
        timed(|| wire::decode_submit(payload).map(|(p, o)| (p.to_program(), o)));
    r.decode_s = decode_s;
    let Ok((Ok(program), options)) = decoded else {
        return r;
    };
    let (gate, s) = timed(|| policy.qubit_gate(program.n_qubits()));
    r.admission_s += s;
    if gate.is_err() {
        return r;
    }
    let (plan, plan_s) = timed(|| exec.plan_structural(&program));
    r.plan_s = plan_s;
    let (lane, s) = timed(|| policy.admit(plan.total_predicted_s(), 0));
    r.admission_s += s;
    r.admitted = lane.is_ok();
    let n = program.n_qubits();
    let (result, run_s) = timed(|| exec.run_structural(&program, StateVector::zero_state(n)));
    r.run_s = run_s;
    let Ok((state, report)) = result else {
        return r;
    };
    let (shots, sample_s) = timed(|| {
        let mut rng = StdRng::seed_from_u64(options.seed);
        sample_shots(&state, options.shots as usize, &mut rng)
    });
    r.sample_s = sample_s;
    let result = RunResult {
        n_qubits: n as u8,
        amplitudes: None,
        shots: shots.into_iter().map(|s| s as u64).collect(),
        report: report
            .steps
            .iter()
            .map(|s| WireStepReport {
                op: s.op.clone(),
                backend: s.backend.to_string(),
                predicted_s: s.predicted_s,
                measured_s: s.measured_s,
            })
            .collect(),
        lane: Lane::Fast,
        batched: false,
        batch_size: 1,
        warm: false,
    };
    let (bytes, encode_s) = timed(|| result.encode());
    r.encode_s = encode_s;
    r.response_bytes = bytes.len();
    if let Some((planner, fusion)) = tally {
        planner.plan(plan_s);
        planner.report(&report);
        fusion.unit(&program, &report, exec.model());
    }
    r
}

/// Counter deltas between two Stats frames.
fn delta(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        requests: b.requests - a.requests,
        served: b.served - a.served,
        rejected_qubits: b.rejected_qubits - a.rejected_qubits,
        rejected_cost: b.rejected_cost - a.rejected_cost,
        rejected_queue_full: b.rejected_queue_full - a.rejected_queue_full,
        fast_lane: b.fast_lane - a.fast_lane,
        queued: b.queued - a.queued,
        batched_requests: b.batched_requests - a.batched_requests,
        batches: b.batches - a.batches,
        plan_hits: b.plan_hits - a.plan_hits,
        plan_misses: b.plan_misses - a.plan_misses,
        ..StatsSnapshot::default()
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let ((handle, mut clients), setup_s) = ctx.setup(start_server);
    let stats0 = clients[0].stats().expect("stats frame");

    let pool = PoolWindow::open();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let seconds = ctx.seconds;
    let seed = ctx.seed;
    let part = ctx.part;
    let per_client: Vec<(Vec<Sent>, EmuClient)> = std::thread::scope(|scope| {
        let joins: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let client = part * CLIENTS + c as u64;
                scope.spawn(move || (client_loop(seed, client, &mut conn, start, seconds), conn))
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    // Before the correctness replay, whose full-amplitude replies are
    // not part of the measured traffic.
    let peak_rss_mib = host::peak_rss_mib();
    let mut sent = Vec::new();
    let mut conns = Vec::new();
    for (s, c) in per_client {
        sent.extend(s);
        conns.push(c);
    }
    let mut conn = conns.pop().expect("at least one client");
    drop(conns);
    let stats = delta(&stats0, &conn.stats().expect("stats frame"));

    let attempted = sent.len() as u64;
    let mut failed = sent.iter().filter(|s| !s.ok).count() as u64;
    failed += check_amplitudes(seed, &sent, &mut conn);
    let served: Vec<&Sent> = sent
        .iter()
        .filter(|s| s.ok && s.kind != RequestKind::Oversize)
        .collect();
    let latencies: Vec<f64> = served.iter().map(|s| s.round_trip_s).collect();

    let mut notes = vec![format!(
        "serve-mix: closed loop, {CLIENTS} clients, ServerConfig::default(), {} requests ({} warm, {} cold, {} oversize) in {wall_s:.3} s",
        sent.len(),
        sent.iter().filter(|s| s.kind == RequestKind::Warm).count(),
        sent.iter().filter(|s| s.kind == RequestKind::Cold).count(),
        sent.iter().filter(|s| s.kind == RequestKind::Oversize).count(),
    )];
    notes.push(format!(
        "daemon counters: served {}, plan hits {}, misses {}, batches {} holding {} requests, rejected (qubits) {}",
        stats.served, stats.plan_hits, stats.plan_misses, stats.batches, stats.batched_requests, stats.rejected_qubits
    ));
    let measured = if ctx.trace {
        let mut m = Metrics::per_layer();
        let lookups = (stats.plan_hits + stats.plan_misses).max(1) as f64;
        m.set("plancache.hit_ratio", stats.plan_hits as f64 / lookups);
        m.set(
            "plancache.misses",
            stats.plan_misses as f64 / attempted as f64,
        );
        m.set(
            "admission.rejected",
            (stats.rejected_qubits + stats.rejected_cost + stats.rejected_queue_full) as f64,
        );
        m.set(
            "admission.fast_lane_ratio",
            stats.fast_lane as f64 / (stats.fast_lane + stats.queued).max(1) as f64,
        );
        m.set(
            "server.batched_ratio",
            stats.batched_requests as f64 / stats.served.max(1) as f64,
        );
        let executions = stats.served - stats.batched_requests + stats.batches;
        m.set(
            "server.mean_batch",
            stats.served as f64 / executions.max(1) as f64,
        );
        pool.write(&mut m, served.len());
        write_cpu_util(&mut m, cpu_s, wall_s);

        // In-process replay of each client's first requests, untraced
        // then traced, on separate executors (separate plan caches) so
        // both passes see the same cold/warm sequence.
        let untraced_exec = HybridExecutor::new();
        let traced_exec = HybridExecutor::new();
        let mut planner = PlannerTally::default();
        let mut fusion = FusionTally::default();
        let mut untraced_s = Vec::new();
        let mut traced_s = Vec::new();
        let mut unattributed = Vec::new();
        let mut replays = Vec::new();
        for s in sent.iter().filter(|s| s.index < REPLAY_PER_CLIENT) {
            let req = request(seed, s.client, s.index, false);
            let (_, t_plain) = timed(|| replay(&req.payload, &untraced_exec, None));
            let t0 = Instant::now();
            let r = replay(
                &req.payload,
                &traced_exec,
                Some((&mut planner, &mut fusion)),
            );
            traced_s.push(t0.elapsed().as_secs_f64());
            untraced_s.push(t_plain);
            if s.ok && s.kind != RequestKind::Oversize {
                unattributed.push(s.round_trip_s - r.layers_s());
            }
            replays.push(r);
        }
        let admitted: Vec<&Replay> = replays.iter().filter(|r| r.admitted).collect();
        let med =
            |f: &dyn Fn(&Replay) -> f64| median(&admitted.iter().map(|r| f(r)).collect::<Vec<_>>());
        planner.write(&mut m, replays.len());
        fusion.write(&mut m, admitted.len());
        m.set(
            "wire.decode_s",
            median(&replays.iter().map(|r| r.decode_s).collect::<Vec<_>>()),
        );
        m.set("wire.encode_s", med(&|r| r.encode_s));
        m.set("wire.request_bytes", med(&|r| r.request_bytes as f64));
        m.set("wire.response_bytes", med(&|r| r.response_bytes as f64));
        m.set("measure.sample_s", med(&|r| r.sample_s));
        m.set("server.unattributed_s", median(&unattributed));
        m.set(
            "trace.overhead_ratio",
            median(&traced_s) / median(&untraced_s),
        );
        m.set("trace.units", replays.len() as f64);
        notes.push(format!(
            "replayed {} requests in-process: median layers decode {:.6} admission {:.6} plan {:.6} run {:.6} sample {:.6} encode {:.6} s; round trip p50 {:.6} s",
            replays.len(),
            m.get("wire.decode_s"),
            med(&|r| r.admission_s),
            med(&|r| r.plan_s),
            med(&|r| r.run_s),
            m.get("measure.sample_s"),
            m.get("wire.encode_s"),
            median(&latencies),
        ));
        notes.push("planner routing (replayed requests):".into());
        notes.extend(planner.summary());
        handle.shutdown();
        drop(conn);
        write_host_probes(&mut m, 4 * SERVE_M + 1);
        Measured::Layers(m)
    } else {
        handle.shutdown();
        drop(conn);
        Measured::EndToEnd(EndToEnd {
            setup_s,
            peak_rss_mib,
            work: latencies.len() as f64,
            work_s: wall_s,
            latencies_s: latencies,
        })
    };
    Outcome {
        attempted,
        failed,
        measured,
        notes,
    }
}
