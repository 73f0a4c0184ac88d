//! `lar-coarse-cluster`: the Fig 9 25 × 12 grid (300 cells) in an
//! `AuditService` session with `CountingStrategy::Blocked`, whose world
//! evaluator is a `DistributedEvaluator` over two in-process
//! `ShardWorker`s on loopback. Closed loop, one client, a never-seen
//! seed per request.
//!
//! The per-span replies are small, so dispatch sits on the critical
//! path: transport changes show here and nowhere else.

use crate::common::{
    cache_layers, closed_loop, closed_loop_metrics, exec_layers, median, ms, render, repeat_setup,
    write_trace, ClosedLoop, Env, Inputs, TraceCtx, ALPHA,
};
use crate::trace::Profile;
use crate::{Outcome, RunConfig};
use sfcluster::{
    ClusterStats, CoordinatorConfig, DistributedEvaluator, FaultPlan, ShardWorker, SpanCounter,
    SpanSpec, WorkerReply,
};
use sfnet::SystemClock;
use sfscan::prepared::{PreparedAudit, WorldClass, WorldEvaluator};
use sfscan::{AuditConfig, CountingStrategy, Direction, RegionSet};
use sfserve::{AuditService, DatasetHandle};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const NAME: &str = "lar-coarse-cluster";

const SETUP_REPS: usize = 5;

/// Shard workers (= word windows the coordinator shards over).
const WORKERS: usize = 2;

fn config() -> AuditConfig {
    AuditConfig::new(ALPHA).with_strategy(CountingStrategy::Blocked)
}

/// A running cluster: the session, its coordinator and the workers.
struct Cluster {
    service: AuditService,
    handle: DatasetHandle,
    evaluator: Arc<DistributedEvaluator>,
    workers: Vec<ShardWorker>,
    counter: SpanCounter,
    connect_ms: f64,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Close the coordinator's sockets before the workers stop.
        self.service.set_evaluator(None);
        for worker in &mut self.workers {
            worker.shutdown();
        }
    }
}

fn start_cluster(inputs: &Inputs, regions: &RegionSet) -> Cluster {
    let outcomes = &inputs.lar.outcomes;
    let mut service = AuditService::new();
    let handle = service
        .register(outcomes, regions, config())
        .expect("the paper-scale coarse grid is auditable");
    // The workers' own engine (one per worker process in a deployment;
    // shared in-process here).
    let prepared =
        Arc::new(PreparedAudit::prepare(outcomes, regions, config()).expect("auditable"));
    let workers: Vec<ShardWorker> = (0..WORKERS)
        .map(|_| {
            let counter =
                Arc::new(SpanCounter::new(Arc::clone(&prepared)).expect("blocked engine"));
            ShardWorker::bind("127.0.0.1:0", counter, Arc::new(FaultPlan::none()))
                .expect("loopback binds")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let evaluator = Arc::new(
        DistributedEvaluator::new(
            Arc::clone(&prepared),
            &addrs,
            CoordinatorConfig::default(),
            Arc::new(SystemClock::new()),
        )
        .expect("coordinator over two workers"),
    );
    // Handshake: one world through every worker opens the coordinator's
    // connections before the first timed request.
    let t = Instant::now();
    let mut out = [0.0f64];
    evaluator.eval_span(
        handshake_class(),
        &[Direction::TwoSided],
        0,
        &mut out,
        false,
    );
    let connect_ms = ms(t.elapsed());
    service.set_evaluator(Some(evaluator.clone()));
    let counter = SpanCounter::new(prepared).expect("blocked engine");
    Cluster {
        service,
        handle,
        evaluator,
        workers,
        counter,
        connect_ms,
    }
}

/// A world class no request uses (the default knobs, seed `u64::MAX`).
fn handshake_class() -> WorldClass {
    let request = sfscan::AuditRequest::new(ALPHA).with_seed(u64::MAX);
    WorldClass {
        null_model: request.null_model,
        seed: request.seed,
        worldgen: request.worldgen,
        statistic: request.statistic,
    }
}

fn delta(after: ClusterStats, before: ClusterStats) -> ClusterStats {
    ClusterStats {
        dispatches: after.dispatches - before.dispatches,
        completed_remote: after.completed_remote - before.completed_remote,
        redispatches: after.redispatches - before.redispatches,
        deadline_misses: after.deadline_misses - before.deadline_misses,
        conn_errors: after.conn_errors - before.conn_errors,
        corrupt_replies: after.corrupt_replies - before.corrupt_replies,
        remote_errors: after.remote_errors - before.remote_errors,
        degraded_local_spans: after.degraded_local_spans - before.degraded_local_spans,
        spans: after.spans - before.spans,
        worlds: after.worlds - before.worlds,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let inputs = Inputs::paper_lar();
    let regions = inputs.grid(25, 12);
    let mut env = Env::new(NAME, cfg.seed);

    let (setup_s, mut cluster) = repeat_setup(SETUP_REPS, || start_cluster(&inputs, &regions));
    env.engine(
        cluster
            .service
            .prepared(cluster.handle)
            .expect("registered"),
    );
    env.set("setup_reps", SETUP_REPS);
    env.set("shard_workers", WORKERS);
    env.set(
        "shard_bounds",
        format!("{:?}", cluster.evaluator.shard_bounds()),
    );
    env.set("loop", "closed, 1 client, submit+flush per request");

    let before = cluster.evaluator.stats();
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let handle = cluster.handle;
    let run = closed_loop(&mut cluster.service, handle, cfg.seed, seconds, None, None);
    let stats = delta(cluster.evaluator.stats(), before);

    let mut outcome = Outcome::new(env);
    outcome.attempted = run.requests.len() as u64;
    outcome.failed = run.failed;
    check_against_local(&mut outcome, cluster.counter.prepared(), &run);
    // A degraded span was counted by the coordinator itself: the run
    // then measures the engine, not the transport.
    outcome.check(stats.degraded_local_spans == 0, || {
        format!(
            "cluster run invalid: {} spans degraded to local",
            stats.degraded_local_spans
        )
    });
    outcome.env.set("dispatches", stats.dispatches);
    outcome.env.set("redispatches", stats.redispatches);

    if cfg.trace {
        traced(cfg, &inputs, &regions, &cluster, &run, &stats, &mut outcome);
        return outcome;
    }

    closed_loop_metrics(&mut outcome, &run, setup_s, seconds);
    outcome
}

/// Every distributed report must equal the local engine's.
fn check_against_local(outcome: &mut Outcome, local: &PreparedAudit, run: &ClosedLoop) {
    let reference = local.run_batch(&run.requests);
    let differing = reference
        .iter()
        .zip(&run.reports)
        .filter(|(r, got)| got.as_deref() != Some(render(r).as_str()))
        .count();
    outcome.check(differing == 0, || {
        format!("cluster: {differing} reports differ from the local engine")
    });
}

/// One recorded `eval_span` call of the traced run.
#[derive(Debug)]
struct SpanCall {
    class: WorldClass,
    dirs: Vec<Direction>,
    first: usize,
    out: Vec<f64>,
    ms: f64,
}

/// Forwards to the coordinator, timing each `eval_span` and recording
/// its span spec (replayed through `SpanCounter::count_span` after the
/// run, outside the traced window).
#[derive(Debug)]
struct TracedCoordinator {
    inner: Arc<DistributedEvaluator>,
    ctx: Arc<TraceCtx>,
    calls: Mutex<Vec<SpanCall>>,
}

impl WorldEvaluator for TracedCoordinator {
    fn eval_span(
        &self,
        class: WorldClass,
        eval_dirs: &[Direction],
        first: usize,
        out: &mut [f64],
        fine: bool,
    ) {
        let tracer = &self.ctx.tracer;
        let request = self.ctx.request.load(Ordering::SeqCst);
        let parent = self.ctx.exec_span.load(Ordering::SeqCst);
        let span = tracer.open("eval_span", Some(parent), request);
        self.inner.eval_span(class, eval_dirs, first, out, fine);
        let ms = tracer.close(span) as f64 / 1e6;
        self.calls.lock().expect("span call lock").push(SpanCall {
            class,
            dirs: eval_dirs.to_vec(),
            first,
            out: out.to_vec(),
            ms,
        });
    }
}

fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    regions: &RegionSet,
    cluster: &Cluster,
    untraced: &ClosedLoop,
    stats: &ClusterStats,
    outcome: &mut Outcome,
) {
    let ctx = Arc::new(TraceCtx::new());
    let prepare = ctx.tracer.open("prepare", None, u64::MAX);
    let mut service = AuditService::new();
    let handle = service
        .register(&inputs.lar.outcomes, regions, config())
        .expect("auditable");
    let prepare_ms = ctx.tracer.close(prepare) as f64 / 1e6;
    let coordinator = Arc::new(TracedCoordinator {
        inner: Arc::clone(&cluster.evaluator),
        ctx: Arc::clone(&ctx),
        calls: Mutex::new(Vec::new()),
    });
    service.set_evaluator(Some(coordinator.clone()));
    let run = closed_loop(
        &mut service,
        handle,
        cfg.seed,
        f64::INFINITY,
        Some(&untraced.requests),
        Some(&ctx),
    );
    service.set_evaluator(None);
    outcome.check(run.reports == untraced.reports, || {
        String::from("traced cluster reports differ from the untraced run")
    });

    // Replay every recorded span through the workers' own counting call,
    // one count_span per shard window, then the coordinator's fold.
    let calls = std::mem::take(&mut *coordinator.calls.lock().expect("span call lock"));
    let engine = cluster.counter.prepared().engine();
    let bounds = cluster.evaluator.shard_bounds().to_vec();
    let mut compute_ms = Vec::new();
    let mut fold_ms = Vec::new();
    let mut transport_ms = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut fold_total_ms = 0.0;
    let mut worlds = 0usize;
    let mut replay_mismatch = 0usize;
    for call in &calls {
        let count = call.out.len() / call.dirs.len();
        worlds += count;
        let mut shard_ms = Vec::new();
        let mut counts = vec![0u64; engine.num_regions() * count];
        let mut p_worlds = vec![0u64; count];
        for &(word_lo, word_hi) in &bounds {
            let t = Instant::now();
            let partials = cluster
                .counter
                .count_span(SpanSpec {
                    null_model: call.class.null_model,
                    worldgen: call.class.worldgen,
                    seed: call.class.seed,
                    first: call.first,
                    count,
                    word_lo,
                    word_hi,
                })
                .expect("recorded spans are valid");
            shard_ms.push(ms(t.elapsed()));
            let reply = WorkerReply::Count {
                id: 0,
                counts: partials.counts.clone(),
                p_partials: partials.p_partials.clone(),
            };
            reply_bytes.push((reply.to_json().len() + 1) as f64);
            for (acc, c) in counts.iter_mut().zip(&partials.counts) {
                *acc += c;
            }
            for (acc, p) in p_worlds.iter_mut().zip(&partials.p_partials) {
                *acc += p;
            }
        }
        let mut out = vec![0.0; call.out.len()];
        let t = Instant::now();
        engine.fold_counts(
            call.class.statistic,
            &p_worlds,
            &counts,
            &call.dirs,
            &mut out,
        );
        let fold = ms(t.elapsed());
        fold_total_ms += fold;
        if out != call.out {
            replay_mismatch += 1;
        }
        // Workers count their windows in parallel: the slower one is on
        // the critical path.
        let compute = shard_ms.iter().copied().fold(0.0, f64::max);
        compute_ms.push(compute);
        fold_ms.push(fold);
        transport_ms.push(call.ms - compute - fold);
    }
    outcome.check(replay_mismatch == 0, || {
        format!("cluster: {replay_mismatch} replayed spans differ from the coordinator's τ rows")
    });

    let profile = Profile::new(ctx.tracer.spans());
    outcome.layer("prepare.ms", prepare_ms);
    outcome.layer("prepare.member_ids", engine.total_membership_ids() as f64);
    outcome.layer(
        "fold.us_per_world",
        fold_total_ms * 1e3 / worlds.max(1) as f64,
    );
    exec_layers(outcome, &profile, cluster.counter.prepared());
    let cache = service.cache_stats(handle).unwrap_or_default();
    cache_layers(outcome, service.stats(), cache.resident_bytes);
    outcome.layer(
        "load.failed_frac",
        (untraced.failed + run.failed) as f64 / (2 * untraced.requests.len()).max(1) as f64,
    );
    outcome.layer(
        "cluster.eval_span_ms",
        median(&profile.durations_ms("eval_span")),
    );
    outcome.layer("cluster.span_compute_ms", median(&compute_ms));
    outcome.layer("cluster.transport_ms", median(&transport_ms));
    outcome.layer("cluster.fold_ms", median(&fold_ms));
    outcome.layer("cluster.reply_bytes", median(&reply_bytes));
    outcome.layer("cluster.dispatches", stats.dispatches as f64);
    outcome.layer("cluster.redispatches", stats.redispatches as f64);
    outcome.layer("cluster.deadline_misses", stats.deadline_misses as f64);
    outcome.layer(
        "cluster.degraded_local_spans",
        stats.degraded_local_spans as f64,
    );
    outcome.layer("cluster.connect_ms", cluster.connect_ms);
    outcome.layer("trace.overhead_frac", run.wall_s / untraced.wall_s - 1.0);
    outcome.layer("trace.accounted_frac", profile.accounted_frac("request"));
    outcome.env.set("traced_eval_spans", calls.len());
    outcome.finish_layers();
    write_trace(&ctx, cfg, NAME);
}
