//! `lar-squares-cold`: the §4.3 squares (2,000 regions) in one
//! `AuditService` session registered with `AuditConfig::new(0.005)` and
//! no knobs pinned. Closed loop, one client, submit + flush per request,
//! a never-seen seed per request, direction cycling two-sided/low/high.
//!
//! Every world is generated, counted and folded; the world cache is
//! written but never read, and no wire, socket or cluster code runs.

use crate::common::{
    cache_layers, closed_loop, closed_loop_metrics, exec_layers, render, repeat_setup, write_trace,
    ClosedLoop, Env, Inputs, TraceCtx, ALPHA, WORLDS,
};
use crate::trace::Profile;
use crate::{Outcome, RunConfig};
use sfindex::BitLabels;
use sfscan::prepared::{PreparedAudit, WorldClass, WorldEvaluator};
use sfscan::{AuditConfig, CountingStrategy, Direction};
use sfserve::{AuditService, DatasetHandle};
use sfstats::rng::world_rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub const NAME: &str = "lar-squares-cold";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Reports re-run through a standalone `PreparedAudit::run` per run.
const SAMPLE_CHECKS: usize = 2;

/// A forwarding evaluator that produces the engine's own τ rows through
/// its public calls, timing generation, counting and folding apart.
#[derive(Debug)]
struct StagedEvaluator {
    prepared: Arc<PreparedAudit>,
    ctx: Arc<TraceCtx>,
    worlds: AtomicU64,
}

impl WorldEvaluator for StagedEvaluator {
    fn eval_span(
        &self,
        class: WorldClass,
        eval_dirs: &[Direction],
        first: usize,
        out: &mut [f64],
        _fine: bool,
    ) {
        let tracer = &self.ctx.tracer;
        let request = self.ctx.request.load(Ordering::SeqCst);
        let parent = self.ctx.exec_span.load(Ordering::SeqCst);
        let span = tracer.open("eval_span", Some(parent), request);
        let engine = self.prepared.engine();
        let width = out.len() / eval_dirs.len();

        let gen = tracer.open("gen", Some(span.id), request);
        let worlds: Vec<BitLabels> = (0..width)
            .map(|k| {
                let mut rng = world_rng(class.seed, (first + k) as u64);
                engine.generate_world_with(class.null_model, class.worldgen, &mut rng)
            })
            .collect();
        tracer.close(gen);

        let count = tracer.open("count", Some(span.id), request);
        let p_worlds: Vec<u64> = worlds.iter().map(BitLabels::count_ones).collect();
        let mut counts = Vec::new();
        match (engine.membership(), engine.blocked()) {
            (_, Some(blocked)) => {
                let refs: Vec<&BitLabels> = worlds.iter().collect();
                blocked.count_all_many_into(&refs, engine.kernel(), &mut counts);
            }
            (Some(membership), None) => {
                // Region-major, as `fold_counts` reads it.
                let regions = engine.num_regions();
                counts = vec![0; regions * width];
                let mut one = Vec::with_capacity(regions);
                for (k, labels) in worlds.iter().enumerate() {
                    membership.count_all_into(labels, &mut one);
                    for (r, &c) in one.iter().enumerate() {
                        counts[r * width + k] = c;
                    }
                }
            }
            (None, None) => unreachable!("the squares session counts by membership or blocked"),
        }
        tracer.close(count);

        let fold = tracer.open("fold", Some(span.id), request);
        engine.fold_counts(class.statistic, &p_worlds, &counts, eval_dirs, out);
        tracer.close(fold);
        tracer.close(span);
        self.worlds.fetch_add(width as u64, Ordering::Relaxed);
    }
}

fn register(inputs: &Inputs, regions: &sfscan::RegionSet) -> (AuditService, DatasetHandle) {
    let mut service = AuditService::new();
    let handle = service
        .register(&inputs.lar.outcomes, regions, AuditConfig::new(ALPHA))
        .expect("the paper-scale squares are auditable");
    (service, handle)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let inputs = Inputs::paper_lar();
    let regions = inputs.squares();
    let mut env = Env::new(NAME, cfg.seed);

    let (setup_s, (mut service, handle)) = repeat_setup(SETUP_REPS, || register(&inputs, &regions));
    let prepared = service.prepared(handle).expect("registered");
    env.engine(prepared);
    env.set("setup_reps", SETUP_REPS);
    env.set("loop", "closed, 1 client, submit+flush per request");

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let run = closed_loop(&mut service, handle, cfg.seed, seconds, None, None);
    let mut outcome = Outcome::new(env);
    outcome.attempted = run.requests.len() as u64;
    outcome.failed = run.failed;
    check_run(&mut outcome, &service, handle, &run);

    if cfg.trace {
        traced(cfg, &inputs, &regions, &service, handle, &run, &mut outcome);
        return outcome;
    }

    closed_loop_metrics(&mut outcome, &run, setup_s, seconds);
    outcome
}

/// Output checks outside the timed window: sampled reports against a
/// standalone `PreparedAudit::run`, and the cache never read.
fn check_run(
    outcome: &mut Outcome,
    service: &AuditService,
    handle: DatasetHandle,
    run: &ClosedLoop,
) {
    let prepared = service.prepared(handle).expect("registered");
    let n = run.requests.len();
    let picks: Vec<usize> = (0..SAMPLE_CHECKS.min(n))
        .map(|k| k * (n - 1) / (SAMPLE_CHECKS - 1).max(1))
        .collect();
    for i in picks {
        let standalone = render(&prepared.run(&run.requests[i]));
        outcome.check(
            run.reports[i].as_deref() == Some(standalone.as_str()),
            || format!("squares request {i}: service report differs from PreparedAudit::run"),
        );
    }
    let stats = service.stats();
    outcome.check(stats.worlds_replayed == 0, || {
        format!(
            "cold squares replayed {} cached worlds",
            stats.worlds_replayed
        )
    });
    let completed = (n as u64 - run.failed) * WORLDS as u64;
    outcome.check(stats.unique_worlds == completed, || {
        format!(
            "cold squares simulated {} worlds, expected {completed}",
            stats.unique_worlds
        )
    });
}

/// The traced run: a second session with the staged evaluator replays
/// the same requests; its reports must equal the untraced ones byte for
/// byte.
fn traced(
    cfg: &RunConfig,
    inputs: &Inputs,
    regions: &sfscan::RegionSet,
    service: &AuditService,
    handle: DatasetHandle,
    untraced: &ClosedLoop,
    outcome: &mut Outcome,
) {
    let ctx = Arc::new(TraceCtx::new());
    let prepare = ctx.tracer.open("prepare", None, u64::MAX);
    let (mut traced_service, traced_handle) = register(inputs, regions);
    let prepare_ms = ctx.tracer.close(prepare) as f64 / 1e6;
    let evaluator = Arc::new(StagedEvaluator {
        prepared: Arc::new(
            PreparedAudit::prepare(&inputs.lar.outcomes, regions, AuditConfig::new(ALPHA))
                .expect("auditable"),
        ),
        ctx: Arc::clone(&ctx),
        worlds: AtomicU64::new(0),
    });
    traced_service.set_evaluator(Some(evaluator.clone()));
    let run = closed_loop(
        &mut traced_service,
        traced_handle,
        cfg.seed,
        f64::INFINITY,
        Some(&untraced.requests),
        Some(&ctx),
    );
    outcome.check(run.reports == untraced.reports, || {
        String::from("traced squares reports differ from the untraced run")
    });

    let prepared = service.prepared(handle).expect("registered");
    let engine = prepared.engine();
    let profile = Profile::new(ctx.tracer.spans());
    let worlds = evaluator.worlds.load(Ordering::Relaxed).max(1) as f64;
    let per_world_us = |stage: &str| profile.total_ms(stage) * 1e3 / worlds;
    outcome.layer("prepare.ms", prepare_ms);
    outcome.layer("prepare.member_ids", engine.total_membership_ids() as f64);
    outcome.layer("gen.us_per_world", per_world_us("gen"));
    outcome.layer("count.us_per_world", per_world_us("count"));
    outcome.layer("fold.us_per_world", per_world_us("fold"));
    exec_layers(outcome, &profile, prepared);
    let cache = traced_service
        .cache_stats(traced_handle)
        .unwrap_or_default();
    cache_layers(outcome, traced_service.stats(), cache.resident_bytes);
    outcome.layer(
        "load.failed_frac",
        run.failed as f64 / run.requests.len().max(1) as f64,
    );
    outcome.layer("trace.overhead_frac", run.wall_s / untraced.wall_s - 1.0);
    outcome.layer("trace.accounted_frac", profile.accounted_frac("request"));
    outcome.env.set(
        "count_split",
        if engine.resolved_strategy() == CountingStrategy::Blocked {
            "blocked fused sweep"
        } else {
            "membership count_all_into"
        },
    );
    outcome.finish_layers();
    write_trace(&ctx, cfg, NAME);
}
