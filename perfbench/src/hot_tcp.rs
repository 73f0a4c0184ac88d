//! `lar-grid-hot-tcp`: the Fig 3 100 × 50 grid (5,000 cells) hosted by
//! `AuditTcpServer` with the default 2 executor workers and deadline
//! drains, as `experiments serve --listen --deadline-ms` runs it.
//!
//! Set-up warms every (world class, direction) the mix uses, so the
//! timed phase simulates no world: a request costs the real-world scan,
//! the stop rule over replayed rows, and a ~16 KB response. The load is
//! an open loop over two connections: a reference rung at a fixed rate
//! (latency), then a fixed ladder of rates (`max_rate_per_s`).

use crate::common::{
    cache_layers, exec_layers, median, ms, peak_rss_mb, quantile, repeat_setup, write_trace, Env,
    Inputs, LatencySummary, TraceCtx, ALPHA, DIRECTION_CYCLE, WORLDS,
};
use crate::trace::Profile;
use crate::{Outcome, RunConfig};
use sfnet::{AuditTcpServer, ConnDriver, ExecutorConfig, NetExecutor, SystemClock};
use sfscan::{AuditConfig, AuditRequest, McStrategy, RegionSet};
use sfserve::{
    AuditService, DatasetHandle, DrainPolicy, RequestEnvelope, ResponseEnvelope, ServerStats,
    Ticket,
};
use sfstats::rng::derive_seed;
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAME: &str = "lar-grid-hot-tcp";

const SETUP_REPS: usize = 5;

/// Executor workers (the `ExecutorConfig` default).
const WORKERS: usize = 2;

/// Deadline drain: a queue runs once its oldest request is this old
/// (µs, the server clock's unit), checked by a 5 ms timer tick.
const DEADLINE_US: u64 = 2_000;
const TICK: Duration = Duration::from_millis(5);

/// Hot world classes (seeds) in the mix; each is warmed in set-up for
/// every direction.
const HOT_CLASSES: u64 = 4;
const ALPHAS: [f64; 3] = [0.005, 0.01, 0.05];

/// Client connections (and reader threads) of the load generator.
const CONNECTIONS: usize = 2;

/// The reference rung: latency metrics are taken at this offered rate.
const REFERENCE_RATE: f64 = 50.0;
/// Share of the timed phase spent at the reference rung.
const REFERENCE_SHARE: f64 = 0.2;

/// The offered-rate ladder behind `max_rate_per_s`, ascending.
const LADDER: [f64; 4] = [1000.0, 3000.0, 9000.0, 27000.0];

/// A rung counts only if its tail latency stays under this limit, with
/// no failed or refused request...
const TAIL_LIMIT_MS: f64 = 500.0;
/// ...its generator sent on time (p99 lag)...
const SEND_LAG_LIMIT_MS: f64 = 50.0;
/// ...and its backlog stayed flat: at the rung's end no more requests
/// were outstanding than the latency limit allows in flight
/// (rate × limit), and all of them drained within this long.
const DRAIN_LIMIT: Duration = Duration::from_secs(2);

/// A response not read within this long counts as an I/O timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn grid(inputs: &Inputs) -> RegionSet {
    inputs.grid(100, 50)
}

/// The distinct request lines of the mix: hot classes × directions × α
/// × FullBudget/EarlyStop.
fn mix_requests(run_seed: u64) -> Vec<AuditRequest> {
    let mut out = Vec::new();
    for c in 0..HOT_CLASSES {
        let seed = derive_seed(run_seed, "hot-class").wrapping_add(c);
        for direction in DIRECTION_CYCLE {
            for alpha in ALPHAS {
                for strategy in [McStrategy::FullBudget, McStrategy::early_stop()] {
                    out.push(
                        AuditRequest::new(alpha)
                            .with_worlds(WORLDS)
                            .with_seed(seed)
                            .with_direction(direction)
                            .with_mc_strategy(strategy),
                    );
                }
            }
        }
    }
    out
}

/// One FullBudget request per (hot class, direction): replaying them
/// fills the session cache with every row the mix reads.
fn warmup_requests(mix: &[AuditRequest]) -> Vec<AuditRequest> {
    mix.iter()
        .filter(|r| r.mc_strategy == McStrategy::FullBudget && r.alpha == ALPHA)
        .copied()
        .collect()
}

fn line(handle: DatasetHandle, request: AuditRequest) -> String {
    RequestEnvelope::new(handle, request).to_json()
}

/// SplitMix64 step: the deterministic mix order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Server {
    server: AuditTcpServer,
    handle: DatasetHandle,
}

fn start_server(inputs: &Inputs, regions: &RegionSet, warmup: &[AuditRequest]) -> Server {
    let executor = Arc::new(NetExecutor::new(
        ExecutorConfig {
            workers: WORKERS,
            queue_capacity: None,
            policy: DrainPolicy::Deadline(DEADLINE_US),
        },
        Arc::new(SystemClock::new()),
    ));
    let handle = executor
        .register(&inputs.lar.outcomes, regions, AuditConfig::new(ALPHA))
        .expect("the paper-scale grid is auditable");
    let server = AuditTcpServer::bind("127.0.0.1:0", executor, TICK).expect("loopback binds");
    // Warm the cache over the wire, exactly as a client would: one
    // write, so the lines land in one deadline drain (4 classes × 3
    // directions, each class simulated once).
    let mut stream = TcpStream::connect(server.local_addr()).expect("server accepts");
    let mut payload = String::new();
    for r in warmup {
        payload.push_str(&line(handle, *r));
        payload.push('\n');
    }
    stream
        .write_all(payload.as_bytes())
        .expect("socket writable");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let answered = BufReader::new(stream).lines().count();
    assert_eq!(answered, warmup.len(), "every warm-up line is answered");
    Server { server, handle }
}

/// What the reader saw for one request.
struct Received {
    rung: usize,
    scheduled: Instant,
    received: Option<Instant>,
    /// Index into the distinct mix.
    variant: usize,
    /// Connection-local output position (= ticket of a ready line).
    seq: u64,
    ready: bool,
    busy: bool,
    bytes: usize,
    digest: u64,
}

struct Pending {
    rung: usize,
    scheduled: Instant,
    variant: usize,
}

struct Conn {
    stream: TcpStream,
    pending: Arc<Mutex<VecDeque<Pending>>>,
    done: Arc<Mutex<Vec<Received>>>,
    reader: std::thread::JoinHandle<()>,
}

fn digest(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("server accepts");
        stream.set_nodelay(true).expect("nodelay");
        let pending: Arc<Mutex<VecDeque<Pending>>> = Arc::default();
        let read_half = stream.try_clone().expect("socket clones");
        read_half
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("read timeout");
        let queue = Arc::clone(&pending);
        let done: Arc<Mutex<Vec<Received>>> = Arc::default();
        let log = Arc::clone(&done);
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            let mut seq = 0u64;
            loop {
                line.clear();
                let ok =
                    matches!(reader.read_line(&mut line), Ok(n) if n > 0 && line.ends_with('\n'));
                let received = Instant::now();
                let Some(p) = queue.lock().expect("pending lock").pop_front() else {
                    break; // EOF after the last response, or an unsolicited line
                };
                let head = &line[..line.len().min(64)];
                log.lock().expect("received lock").push(Received {
                    rung: p.rung,
                    scheduled: p.scheduled,
                    received: ok.then_some(received),
                    variant: p.variant,
                    seq,
                    ready: ok && head.contains("\"status\":\"ready\""),
                    busy: ok && head.contains("\"status\":\"busy\""),
                    bytes: line.len(),
                    digest: digest(line.trim_end_matches('\n')),
                });
                seq += 1;
                if !ok {
                    // Timed out or short read: the rest of this
                    // connection's requests are failures too.
                    let rest: Vec<Pending> =
                        queue.lock().expect("pending lock").drain(..).collect();
                    log.lock()
                        .expect("received lock")
                        .extend(rest.into_iter().map(|p| Received {
                            rung: p.rung,
                            scheduled: p.scheduled,
                            received: None,
                            variant: p.variant,
                            seq: u64::MAX,
                            ready: false,
                            busy: false,
                            bytes: 0,
                            digest: 0,
                        }));
                    break;
                }
            }
        });
        Conn {
            stream,
            pending,
            done,
            reader,
        }
    }

    fn outstanding(&self) -> usize {
        self.pending.lock().expect("pending lock").len()
    }
}

/// One offered-rate rung of the open loop.
struct Rung {
    rate: f64,
    seconds: f64,
}

struct RungResult {
    rate: f64,
    sent: usize,
    completed: usize,
    failed: usize,
    latency: Option<LatencySummary>,
    send_lag_p99_ms: f64,
    backlog: usize,
    achieved_per_s: f64,
    drained: bool,
    queue_depth_max: usize,
}

impl RungResult {
    fn passes(&self) -> bool {
        self.failed == 0
            && self.drained
            && self.backlog as f64 <= self.rate * TAIL_LIMIT_MS / 1e3
            && self.send_lag_p99_ms <= SEND_LAG_LIMIT_MS
            && self.latency.is_some_and(|l| l.tail_ms <= TAIL_LIMIT_MS)
    }
}

/// The open loop: sends each rung's requests on schedule (round-robin
/// over the connections), waits for the rung to drain, and stops the
/// ladder after the first rung that fails.
struct LoadRun {
    received: Vec<Received>,
    rungs: Vec<RungResult>,
    /// VmHWM right after the reference rung drained.
    reference_rss_mb: f64,
    /// Wall time of each rung, from its first send to its drain.
    rung_wall_s: Vec<f64>,
}

fn open_loop(server: &Server, lines: &[String], run_seed: u64, rungs: &[Rung]) -> LoadRun {
    let conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(server.server.local_addr()))
        .collect();
    let executor = server.server.executor();
    let mut order = derive_seed(run_seed, "hot-mix");
    let mut k = 0usize;
    let mut results = Vec::new();
    let mut reference_rss_mb = 0.0;
    let mut rung_wall_s = Vec::new();
    for (ri, rung) in rungs.iter().enumerate() {
        let planned = (rung.rate * rung.seconds).round() as usize;
        // Beyond this many outstanding requests the rung has failed
        // already; stop offering load instead of piling up a backlog.
        let backlog_limit = (rung.rate * TAIL_LIMIT_MS / 1e3) as usize;
        let t0 = Instant::now();
        let mut lags = Vec::with_capacity(planned);
        let mut depth_max = 0usize;
        let mut count = 0usize;
        for i in 0..planned {
            let scheduled = t0 + Duration::from_secs_f64(i as f64 / rung.rate);
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            let variant = (splitmix(&mut order) % lines.len() as u64) as usize;
            let conn = &conns[k % CONNECTIONS];
            k += 1;
            lags.push(ms(scheduled.elapsed()));
            conn.pending
                .lock()
                .expect("pending lock")
                .push_back(Pending {
                    rung: ri,
                    scheduled,
                    variant,
                });
            // One write per request line; a failed write surfaces as a
            // short read on this connection.
            let _ = (&conn.stream).write_all(lines[variant].as_bytes());
            count += 1;
            depth_max = depth_max.max(executor.pending_total());
            if i % 64 == 63 && conns.iter().map(Conn::outstanding).sum::<usize>() > backlog_limit {
                break;
            }
        }
        let end = t0 + Duration::from_secs_f64(count as f64 / rung.rate);
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
        let backlog: usize = conns.iter().map(Conn::outstanding).sum();
        let deadline = Instant::now() + DRAIN_LIMIT;
        let mut drained = false;
        while Instant::now() < deadline {
            if conns.iter().all(|c| c.outstanding() == 0) {
                drained = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        lags.sort_by(f64::total_cmp);
        let result = {
            let logs: Vec<_> = conns
                .iter()
                .map(|c| c.done.lock().expect("received lock"))
                .collect();
            let of: Vec<&Received> = logs
                .iter()
                .flat_map(|l| l.iter())
                .filter(|r| r.rung == ri)
                .collect();
            rung_result(
                rung.rate,
                count,
                &of,
                quantile(&lags, 0.99),
                backlog,
                drained,
                depth_max,
            )
        };
        let stop = ri > 0 && !result.passes();
        results.push(result);
        rung_wall_s.push(t0.elapsed().as_secs_f64());
        if ri == 0 {
            // Peak RSS of set-up plus serving at the reference rate; the
            // ladder's overload rungs queue responses by design.
            reference_rss_mb = peak_rss_mb();
        }
        if stop {
            break; // the ladder ends at its first failing rung
        }
    }
    let mut received = Vec::new();
    for conn in conns {
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.reader.join().expect("reader thread");
        received.append(&mut conn.done.lock().expect("received lock"));
    }
    LoadRun {
        received,
        rungs: results,
        reference_rss_mb,
        rung_wall_s,
    }
}

fn rung_result(
    rate: f64,
    sent: usize,
    of: &[&Received],
    send_lag_p99_ms: f64,
    backlog: usize,
    drained: bool,
    queue_depth_max: usize,
) -> RungResult {
    let completed = of.iter().filter(|r| r.ready).count();
    let latencies: Vec<f64> = of
        .iter()
        .filter_map(|r| r.received.map(|at| ms(at - r.scheduled)))
        .collect();
    let first = of.iter().map(|r| r.scheduled).min();
    let last = of.iter().filter_map(|r| r.received).max();
    let achieved_per_s = match (first, last) {
        (Some(a), Some(b)) if b > a => completed as f64 / (b - a).as_secs_f64(),
        _ => 0.0,
    };
    RungResult {
        rate,
        sent,
        completed,
        failed: sent - completed,
        latency: LatencySummary::of(&latencies),
        send_lag_p99_ms,
        backlog,
        achieved_per_s,
        drained,
        queue_depth_max,
    }
}

/// In-process render of every distinct line through `ConnDriver` +
/// `ResponseSink` on the live executor (no socket), timed per line.
fn inprocess_templates(server: &Server, lines: &[String]) -> (Vec<ResponseEnvelope>, Vec<f64>) {
    let executor = server.server.executor();
    let mut templates = Vec::with_capacity(lines.len());
    let mut times = Vec::with_capacity(lines.len());
    for text in lines {
        let t = Instant::now();
        let mut driver = ConnDriver::new();
        driver.handle_line(executor, text);
        driver.finish();
        executor.flush();
        let rendered = driver.sink().pop_next(0).expect("one response per line");
        times.push(ms(t.elapsed()));
        templates.push(ResponseEnvelope::from_json(&rendered).expect("own render decodes"));
    }
    (templates, times)
}

fn stats_delta(after: &ServerStats, before: &ServerStats) -> ServerStats {
    ServerStats {
        requests_served: after.requests_served - before.requests_served,
        batches: after.batches - before.batches,
        unique_worlds: after.unique_worlds - before.unique_worlds,
        worlds_replayed: after.worlds_replayed - before.worlds_replayed,
        cache_hits: after.cache_hits - before.cache_hits,
        lane_worlds: after.lane_worlds - before.lane_worlds,
        budget_total: after.budget_total - before.budget_total,
        ..*after
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let inputs = Inputs::paper_lar();
    let regions = grid(&inputs);
    let mix = mix_requests(cfg.seed);
    let warmup = warmup_requests(&mix);
    let mut env = Env::new(NAME, cfg.seed);

    let (setup_s, server) = repeat_setup(SETUP_REPS, || start_server(&inputs, &regions, &warmup));
    let executor = Arc::clone(server.server.executor());
    let lines: Vec<String> = mix.iter().map(|r| line(server.handle, *r) + "\n").collect();
    env.set("setup_reps", SETUP_REPS);
    env.set("executor_workers", WORKERS);
    env.set("deadline_us", DEADLINE_US);
    env.set("connections", CONNECTIONS);
    env.set("mix_variants", mix.len());
    env.set("hot_classes", HOT_CLASSES);
    env.set("reference_rate_per_s", REFERENCE_RATE);
    env.set("ladder_per_s", LADDER.to_vec());
    env.set("tail_limit_ms", TAIL_LIMIT_MS);
    env.set("send_lag_limit_ms", SEND_LAG_LIMIT_MS);

    let before = executor.stats();
    let mut rungs = vec![Rung {
        rate: REFERENCE_RATE,
        // The traced run spends its whole window at the reference rung,
        // so its drains outnumber the 12 warm-up drains ~100:1 (25 s at
        // 50/s) and the server's lifetime drain p99 ranks above them.
        seconds: if cfg.trace {
            cfg.seconds
        } else {
            cfg.seconds * REFERENCE_SHARE
        },
    }];
    if !cfg.trace {
        let each = cfg.seconds * (1.0 - REFERENCE_SHARE) / LADDER.len() as f64;
        rungs.extend(LADDER.iter().map(|&rate| Rung {
            rate,
            seconds: each,
        }));
    }
    let load = open_loop(&server, &lines, cfg.seed, &rungs);
    let after = executor.stats();
    let delta = stats_delta(&after, &before);

    let mut outcome = Outcome::new(env);
    outcome.attempted = load.received.len() as u64;
    outcome.failed = load.received.iter().filter(|r| !r.ready).count() as u64;
    outcome.check(
        outcome.attempted == load.rungs.iter().map(|r| r.sent).sum::<usize>() as u64,
        || String::from("hot-tcp: a sent request has no response record"),
    );
    outcome.check(delta.unique_worlds == 0, || {
        format!(
            "hot-tcp timed phase simulated {} worlds (the cache must serve all)",
            delta.unique_worlds
        )
    });

    // Byte identity: every socket line equals the in-process render of
    // its request with the connection-local ticket.
    let (templates, inproc_ms) = inprocess_templates(&server, &lines);
    let mut mismatched = 0usize;
    for r in load.received.iter().filter(|r| r.ready) {
        let mut expected = templates[r.variant].clone();
        expected.ticket = Some(Ticket(r.seq));
        let text = expected.to_json();
        if text.len() + 1 != r.bytes || digest(&text) != r.digest {
            mismatched += 1;
        }
    }
    outcome.check(mismatched == 0, || {
        format!("hot-tcp: {mismatched} socket lines differ from the in-process render")
    });
    for rung in &load.rungs {
        eprintln!(
            "[hot-tcp] rung {:>5}/s: sent {} ok {} p50 {:.2} tail {:.2} (p{:.1}) lag99 {:.2} backlog {} drained {} achieved {:.2}/s depth {}",
            rung.rate,
            rung.sent,
            rung.completed,
            rung.latency.map_or(0.0, |l| l.p50_ms),
            rung.latency.map_or(0.0, |l| l.tail_ms),
            rung.latency.map_or(0.0, |l| l.tail_pct),
            rung.send_lag_p99_ms,
            rung.backlog,
            rung.drained,
            rung.achieved_per_s,
            rung.queue_depth_max
        );
    }

    let mut bytes: Vec<f64> = load.received.iter().map(|r| r.bytes as f64).collect();
    bytes.sort_by(f64::total_cmp);
    outcome.env.set("response_bytes_p50", quantile(&bytes, 0.5));
    let reference = &load.rungs[0];
    let latency = reference.latency.unwrap_or_default();
    outcome.check(reference.passes(), || {
        format!("hot-tcp: the reference rung ({REFERENCE_RATE}/s) misses its limits")
    });
    outcome.env.latency("latency", &latency);

    if cfg.trace {
        traced(
            cfg,
            &inputs,
            &regions,
            &mix,
            &lines,
            &templates,
            &load,
            &delta,
            &server,
            &inproc_ms,
            &mut outcome,
        );
        return outcome;
    }

    let ladder = &load.rungs[1..];
    let passed = ladder.iter().take_while(|r| r.passes()).count();
    outcome.env.set(
        "ladder_result",
        ladder
            .iter()
            .map(|r| {
                format!(
                    "{}/s:{}:tail={:.1}ms:lag99={:.1}ms:backlog={}",
                    r.rate,
                    if r.passes() { "pass" } else { "fail" },
                    r.latency.map_or(f64::NAN, |l| l.tail_ms),
                    r.send_lag_p99_ms,
                    r.backlog
                )
            })
            .collect::<Vec<_>>(),
    );
    // Throughput over the phase whose offered load was sustained: the
    // reference rung and the passing rungs (the failing top rung is a
    // probe, cut short once its backlog exceeds the limit).
    let completed: usize = load.rungs[..=passed].iter().map(|r| r.completed).sum();
    let wall_s: f64 = load.rung_wall_s[..=passed].iter().sum();
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("audits_per_s", completed as f64 / wall_s, "1/s");
    outcome.metric("latency_p50_ms", latency.p50_ms, "ms");
    outcome.metric("latency_tail_ms", latency.tail_ms, "ms");
    outcome.metric(
        "max_rate_per_s",
        ladder[..passed].last().map_or(0.0, |r| r.achieved_per_s),
        "1/s",
    );
    outcome.metric("peak_rss_mb", load.reference_rss_mb, "MiB");
    outcome
}

/// The traced run: the reference rung's lines replayed in-process
/// through an `AuditService` session warmed like the server, untraced
/// and then traced (decode → exec → render spans per line), plus the
/// server's own `ServerStats`.
#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    regions: &RegionSet,
    mix: &[AuditRequest],
    lines: &[String],
    templates: &[ResponseEnvelope],
    load: &LoadRun,
    delta: &ServerStats,
    server: &Server,
    inproc_ms: &[f64],
    outcome: &mut Outcome,
) {
    let ctx = TraceCtx::new();
    let prepare = ctx.tracer.open("prepare", None, u64::MAX);
    let mut service = AuditService::new();
    let handle = service
        .register(&inputs.lar.outcomes, regions, AuditConfig::new(ALPHA))
        .expect("auditable");
    let prepare_ms = ctx.tracer.close(prepare) as f64 / 1e6;
    for request in warmup_requests(mix) {
        let ticket = service.submit(handle, request).expect("valid warm-up");
        service.flush();
        service.take(ticket).expect("flushed");
    }
    let mut reference: Vec<&Received> = load.received.iter().filter(|r| r.rung == 0).collect();
    reference.sort_by_key(|r| r.scheduled);
    let variants: Vec<usize> = reference.iter().map(|r| r.variant).collect();

    let serve = |service: &mut AuditService, text: &str| -> Option<String> {
        let envelope = RequestEnvelope::from_json(text).ok()?;
        let ticket = service.submit(envelope.handle, envelope.request).ok()?;
        service.flush();
        Some(ResponseEnvelope::ready(service.take(ticket)?).to_json())
    };
    let t = Instant::now();
    for &v in &variants {
        std::hint::black_box(serve(&mut service, &lines[v]));
    }
    let untraced_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut rendered = Vec::with_capacity(variants.len());
    for (i, &v) in variants.iter().enumerate() {
        let i = i as u64;
        let tracer = &ctx.tracer;
        let root = tracer.open("request", None, i);
        let span = tracer.open("decode", Some(root.id), i);
        let envelope = RequestEnvelope::from_json(&lines[v]);
        tracer.close(span);
        let response = envelope.ok().and_then(|envelope| {
            let span = tracer.open("exec", Some(root.id), i);
            let response = service
                .submit(envelope.handle, envelope.request)
                .ok()
                .and_then(|ticket| {
                    service.flush();
                    service.take(ticket)
                });
            tracer.close(span);
            response
        });
        let span = tracer.open("render", Some(root.id), i);
        rendered.push(response.map(|r| ResponseEnvelope::ready(r).to_json()));
        tracer.close(span);
        tracer.close(root);
    }
    let traced_s = t.elapsed().as_secs_f64();
    let differing = variants
        .iter()
        .zip(&rendered)
        .filter(|(&v, text)| {
            !text
                .as_deref()
                .and_then(|text| ResponseEnvelope::from_json(text).ok())
                .is_some_and(|env| env.report == templates[v].report)
        })
        .count();
    outcome.check(differing == 0, || {
        format!("hot-tcp: {differing} traced in-process reports differ from the socket run")
    });

    let prepared = service.prepared(handle).expect("registered");
    let profile = Profile::new(ctx.tracer.spans());
    let us = |name: &str| median(&profile.durations_ms(name)) * 1e3;
    let rung = &load.rungs[0];
    let tcp_p50 = rung.latency.map_or(0.0, |l| l.p50_ms);
    let inproc_p50 = median(inproc_ms);
    let bytes: Vec<f64> = reference.iter().map(|r| r.bytes as f64).collect();
    let stats = server.server.executor().stats();
    outcome.layer("prepare.ms", prepare_ms);
    outcome.layer(
        "prepare.member_ids",
        prepared.engine().total_membership_ids() as f64,
    );
    exec_layers(outcome, &profile, prepared);
    let resident = server.server.executor().cache_stats().resident_bytes;
    cache_layers(outcome, delta, resident);
    outcome.layer("wire.decode_us", us("decode"));
    outcome.layer("wire.render_us", us("render"));
    outcome.layer("wire.response_bytes", median(&bytes));
    outcome.layer("exec.inproc_p50_ms", inproc_p50);
    outcome.layer("net.socket_p50_ms", tcp_p50 - inproc_p50);
    outcome.layer("net.drain_p50_ms", stats.drain_p50 as f64 / 1e3);
    outcome.layer("net.drain_p99_ms", stats.drain_p99 as f64 / 1e3);
    outcome.layer(
        "net.requests_per_batch",
        delta.requests_served as f64 / delta.batches.max(1) as f64,
    );
    outcome.layer("net.queue_depth_max", rung.queue_depth_max as f64);
    outcome.layer(
        "net.busy",
        load.received.iter().filter(|r| r.busy).count() as f64,
    );
    outcome.layer("load.send_lag_p99_ms", rung.send_lag_p99_ms);
    outcome.layer("load.backlog", rung.backlog as f64);
    outcome.layer(
        "load.failed_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    outcome.layer("trace.overhead_frac", traced_s / untraced_s - 1.0);
    outcome.layer("trace.accounted_frac", profile.accounted_frac("request"));
    outcome.finish_layers();
    write_trace(&ctx, cfg, NAME);
}
