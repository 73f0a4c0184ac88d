//! Inputs, request generators and the small statistics every workload
//! shares: percentiles, the latency summary, peak RSS and the
//! environment record printed with every result.

use crate::trace::{Profile, Tracer};
use crate::{Outcome, RunConfig};
use serde::Serialize;
use sfcluster::{KMeans, KMeansConfig};
use sfdata::lar::{LarConfig, LarDataset};
use sfscan::prepared::PreparedAudit;
use sfscan::{AuditReport, AuditRequest, Direction, RegionSet};
use sfserve::{AuditService, DatasetHandle, ServerStats};
use sfstats::rng::derive_seed;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Significance level every session is registered with (α = 0.005 is
/// the smallest level 199 worlds resolve: (1 + 0) / (199 + 1)).
pub const ALPHA: f64 = 0.005;

/// Simulated worlds per request.
pub const WORLDS: usize = 199;

/// The k-means seed `experiments fig5` uses at its default `--seed 42`,
/// so the squares are the §4.3 region set the figure harness scans.
const KMEANS_SEED: u64 = 42;

/// Seeded inputs of one run. The dataset is SynthLAR at paper scale
/// (its own fixed generator seed, as in the paper); the run seed drives
/// every request seed and mix choice.
pub struct Inputs {
    pub lar: LarDataset,
}

impl Inputs {
    pub fn paper_lar() -> Self {
        Inputs {
            lar: LarDataset::generate(&LarConfig::paper()),
        }
    }

    /// §4.3: 100 k-means centres of the distinct locations × the 20
    /// paper side lengths = 2,000 squares.
    pub fn squares(&self) -> RegionSet {
        let km = KMeans::fit(
            &self.lar.locations,
            &KMeansConfig::new(100, derive_seed(KMEANS_SEED, "kmeans-centers")),
        );
        RegionSet::squares(km.centers, &RegionSet::paper_side_lengths())
    }

    /// A regular `nx × ny` grid over the expanded bounding box (Fig 3:
    /// 100 × 50, Fig 9: 25 × 12).
    pub fn grid(&self, nx: usize, ny: usize) -> RegionSet {
        RegionSet::regular_grid(self.lar.outcomes.expanded_bounding_box(), nx, ny)
    }
}

/// The never-repeating request seed of request `i` in a run.
pub fn request_seed(run_seed: u64, i: u64) -> u64 {
    derive_seed(run_seed, "request").wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Directions a closed loop cycles through.
pub const DIRECTION_CYCLE: [Direction; 3] = [Direction::TwoSided, Direction::Low, Direction::High];

/// Cold request `i` of a closed-loop run: a never-seen seed, the
/// direction cycling two-sided / low / high.
pub fn cold_request(run_seed: u64, i: u64) -> AuditRequest {
    AuditRequest::new(ALPHA)
        .with_worlds(WORLDS)
        .with_seed(request_seed(run_seed, i))
        .with_direction(DIRECTION_CYCLE[(i % 3) as usize])
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Median and tail of a latency sample. The tail is the highest
/// percentile that still has at least ten samples beyond it: the value
/// at ascending rank `n − 10` (1-based), i.e. percentile
/// `100 · (n − 10) / n`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    pub n: usize,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_pct: f64,
}

impl LatencySummary {
    /// `None` when fewer than 11 samples exist (no percentile has ten
    /// samples beyond it).
    pub fn of(samples_ms: &[f64]) -> Option<Self> {
        let n = samples_ms.len();
        if n < 11 {
            return None;
        }
        let mut sorted = samples_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(LatencySummary {
            n,
            p50_ms: quantile(&sorted, 0.5),
            tail_ms: sorted[n - 11],
            tail_pct: 100.0 * (n - 10) as f64 / n as f64,
        })
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The environment a result was measured in, printed with it so numbers
/// from different machines or settings are never compared blindly.
pub struct Env {
    fields: BTreeMap<String, serde_json::Value>,
}

impl Env {
    pub fn new(workload: &str, seed: u64) -> Self {
        let mut env = Env {
            fields: BTreeMap::new(),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        env.set("workload", workload);
        env.set("seed", seed);
        env.set("nproc", nproc);
        env.set("worlds", WORLDS);
        env.set("alpha", ALPHA);
        env.set(
            "commit",
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| String::from("unknown")),
        );
        env
    }

    pub fn set(&mut self, key: &str, value: impl Serialize) {
        self.fields.insert(key.to_string(), value.to_value());
    }

    /// Records the engine shape behind a prepared session.
    pub fn engine(&mut self, prepared: &PreparedAudit) {
        let engine = prepared.engine();
        self.set("points", prepared.num_points());
        self.set("regions", prepared.num_regions());
        self.set(
            "strategy",
            format!("{:?}", engine.resolved_strategy()).to_lowercase(),
        );
        self.set("kernel", format!("{:?}", engine.kernel()).to_lowercase());
        self.set("engine_shards", engine.num_shards());
        self.set("member_ids", engine.total_membership_ids());
        self.set("ids_per_word", engine.blocked_ids_per_word());
    }

    pub fn latency(&mut self, prefix: &str, summary: &LatencySummary) {
        self.set(&format!("{prefix}_n"), summary.n);
        self.set(&format!("{prefix}_tail_percentile"), summary.tail_pct);
    }

    pub fn to_json(&self) -> String {
        let object: Vec<(String, serde_json::Value)> = self
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        serde_json::to_string(&serde_json::Value::Object(object)).expect("env serialises")
    }
}

/// Trace context shared between a closed loop and a forwarding
/// evaluator: the loop publishes the current request and its `exec`
/// span so evaluator spans (possibly on other threads) attach to it.
#[derive(Debug)]
pub struct TraceCtx {
    pub tracer: Tracer,
    pub request: AtomicU64,
    pub exec_span: AtomicU64,
}

impl TraceCtx {
    pub fn new() -> Self {
        TraceCtx {
            tracer: Tracer::new(),
            request: AtomicU64::new(0),
            exec_span: AtomicU64::new(0),
        }
    }
}

/// One closed-loop phase: each request is submitted, flushed and
/// taken before the next is sent.
pub struct ClosedLoop {
    pub requests: Vec<AuditRequest>,
    /// Rendered reports in request order (`None` = the request failed).
    pub reports: Vec<Option<String>>,
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    pub wall_s: f64,
}

/// Runs cold requests `0..` through one session until `seconds` have
/// passed (or exactly `requests` when given), tracing each request when
/// `trace` is set. Rendering the reports happens after the timed loop.
pub fn closed_loop(
    service: &mut AuditService,
    handle: DatasetHandle,
    run_seed: u64,
    seconds: f64,
    requests: Option<&[AuditRequest]>,
    trace: Option<&TraceCtx>,
) -> ClosedLoop {
    let mut sent = Vec::new();
    let mut reports = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    for i in 0u64.. {
        let request = match requests {
            Some(list) => match list.get(i as usize) {
                Some(r) => *r,
                None => break,
            },
            None if start.elapsed().as_secs_f64() >= seconds => break,
            None => cold_request(run_seed, i),
        };
        let t = Instant::now();
        let root = trace.map(|ctx| ctx.tracer.open("request", None, i));
        let response = service.submit(handle, request).ok().and_then(|ticket| {
            let exec = trace.map(|ctx| {
                let open = ctx.tracer.open("exec", root.as_ref().map(|r| r.id), i);
                ctx.request.store(i, Ordering::SeqCst);
                ctx.exec_span.store(open.id, Ordering::SeqCst);
                open
            });
            service.flush();
            if let (Some(ctx), Some(open)) = (trace, exec) {
                ctx.tracer.close(open);
            }
            service.take(ticket)
        });
        if let (Some(ctx), Some(open)) = (trace, root) {
            ctx.tracer.close(open);
        }
        latencies_ms.push(ms(t.elapsed()));
        sent.push(request);
        if response.is_none() {
            failed += 1;
        }
        reports.push(response.map(|r| r.report));
    }
    let wall_s = start.elapsed().as_secs_f64();
    ClosedLoop {
        requests: sent,
        reports: reports
            .into_iter()
            .map(|r| r.map(|report| render(&report)))
            .collect(),
        latencies_ms,
        failed,
        wall_s,
    }
}

pub fn render(report: &AuditReport) -> String {
    serde_json::to_string(report).expect("reports serialise")
}

/// Median of `SETUP_REPS` timed set-ups, in seconds; returns the last
/// set-up built (the earlier ones are dropped before the next starts).
pub fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one set-up"))
}

/// The end-to-end metrics of a closed-loop workload.
pub fn closed_loop_metrics(outcome: &mut Outcome, run: &ClosedLoop, setup_s: f64, seconds: f64) {
    let latency = LatencySummary::of(&run.latencies_ms);
    outcome.check(latency.is_some(), || {
        format!(
            "{} requests in {seconds} s: too few for a tail (raise --seconds)",
            run.requests.len()
        )
    });
    let latency = latency.unwrap_or_default();
    outcome.env.latency("latency", &latency);
    let completed = run.requests.len() as u64 - run.failed;
    let audits_per_s = completed as f64 / run.wall_s;
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("audits_per_s", audits_per_s, "1/s");
    outcome.metric("latency_p50_ms", latency.p50_ms, "ms");
    outcome.metric("latency_tail_ms", latency.tail_ms, "ms");
    // A closed loop with one client sustains exactly its own throughput.
    outcome.metric("max_rate_per_s", audits_per_s, "1/s");
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// Median time of the real-world scan (`scan_real_with`), timed
/// standalone three times per direction.
pub fn realscan_ms(prepared: &PreparedAudit) -> f64 {
    let statistic = prepared.base_config().statistic;
    let times: Vec<f64> = DIRECTION_CYCLE
        .iter()
        .cycle()
        .take(9)
        .map(|&d| {
            let t = Instant::now();
            std::hint::black_box(prepared.engine().scan_real_with(statistic, d));
            ms(t.elapsed())
        })
        .collect();
    median(&times)
}

/// Records `realscan.ms` and `exec.self_ms`. The real-world scan runs
/// inside the `exec` span and cannot be a child span; it is timed
/// standalone and subtracted, leaving plan + replay + stop rule +
/// assembly.
pub fn exec_layers(outcome: &mut Outcome, profile: &Profile, prepared: &PreparedAudit) {
    let realscan = realscan_ms(prepared);
    let exec_self: Vec<f64> = profile
        .self_each_ms("exec")
        .into_iter()
        .map(|v| v - realscan)
        .collect();
    outcome.layer("realscan.ms", realscan);
    outcome.layer("exec.self_ms", median(&exec_self));
}

/// Records the world-cache and stop-rule layers from serving counters.
pub fn cache_layers(outcome: &mut Outcome, stats: &ServerStats, resident_bytes: u64) {
    let lookups = (stats.unique_worlds + stats.worlds_replayed).max(1) as f64;
    outcome.layer("cache.unique_worlds", stats.unique_worlds as f64);
    outcome.layer("cache.worlds_replayed", stats.worlds_replayed as f64);
    outcome.layer("cache.replay_frac", stats.worlds_replayed as f64 / lookups);
    outcome.layer("cache.resident_bytes", resident_bytes as f64);
    outcome.layer("stop.lane_worlds", stats.lane_worlds as f64);
    outcome.layer(
        "stop.saved_frac",
        stats.worlds_saved() as f64 / stats.budget_total.max(1) as f64,
    );
}

/// Writes a traced run's spans to `<out_dir>/trace-<workload>-seed<n>.jsonl`.
pub fn write_trace(ctx: &TraceCtx, cfg: &RunConfig, workload: &str) {
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
    if let Err(e) = ctx.tracer.write_jsonl(&path) {
        eprintln!("[perfbench] cannot write {}: {e}", path.display());
    }
}
