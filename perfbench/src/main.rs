//! The repository's benchmark: seeded workloads against the libraries'
//! public API, every output checked, metrics printed as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics
//! (tracing off); with `--trace 1` it carries the per-layer metrics of
//! a separate traced run. A `# env {...}` line before it records the
//! environment. Any output mismatch prints `correct: false` and exits 1.
//! See `README.md` in this directory for the workloads and the layer
//! table.

mod cluster;
mod common;
mod hot_tcp;
mod squares;
mod trace;

use common::Env;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every per-layer metric, printed by every traced run (a layer a
/// workload never reaches reads 0 there).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("prepare.ms", "ms"),
    ("prepare.member_ids", "count"),
    ("gen.us_per_world", "us"),
    ("count.us_per_world", "us"),
    ("fold.us_per_world", "us"),
    ("realscan.ms", "ms"),
    ("exec.self_ms", "ms"),
    ("cache.unique_worlds", "count"),
    ("cache.worlds_replayed", "count"),
    ("cache.replay_frac", "ratio"),
    ("cache.resident_bytes", "bytes"),
    ("stop.lane_worlds", "count"),
    ("stop.saved_frac", "ratio"),
    ("wire.decode_us", "us"),
    ("wire.render_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("exec.inproc_p50_ms", "ms"),
    ("net.socket_p50_ms", "ms"),
    ("net.drain_p50_ms", "ms"),
    ("net.drain_p99_ms", "ms"),
    ("net.requests_per_batch", "count"),
    ("net.queue_depth_max", "count"),
    ("net.busy", "count"),
    ("load.send_lag_p99_ms", "ms"),
    ("load.backlog", "count"),
    ("load.failed_frac", "ratio"),
    ("cluster.eval_span_ms", "ms"),
    ("cluster.span_compute_ms", "ms"),
    ("cluster.transport_ms", "ms"),
    ("cluster.fold_ms", "ms"),
    ("cluster.reply_bytes", "bytes"),
    ("cluster.dispatches", "count"),
    ("cluster.redispatches", "count"),
    ("cluster.deadline_misses", "count"),
    ("cluster.degraded_local_spans", "count"),
    ("cluster.connect_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
];

pub const WORKLOADS: [&str; 3] = ["lar-squares-cold", "lar-grid-hot-tcp", "lar-coarse-cluster"];

/// Parsed command line.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traced runs write their span logs.
    pub out_dir: PathBuf,
}

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed (empty = every output correct).
    pub mismatches: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values of a traced run, by name.
    pub layers: BTreeMap<&'static str, f64>,
    pub env: Env,
}

impl Outcome {
    pub fn new(env: Env) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics: Vec::new(),
            layers: BTreeMap::new(),
            env,
        }
    }

    /// Sets a per-layer value; the name must be in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Moves the per-layer values into the printed metrics, every
    /// [`PER_LAYER`] name present.
    pub fn finish_layers(&mut self) {
        for (name, unit) in PER_LAYER {
            let value = self.layers.get(name).copied().unwrap_or(0.0);
            self.metrics.push((name, value, unit));
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        let Some(value) = value else {
            return usage();
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage();
    };
    let config = RunConfig {
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".perfbench-out"),
    };
    let outcome = match workload.as_str() {
        "lar-squares-cold" => squares::run(&config),
        "lar-grid-hot-tcp" => hot_tcp::run(&config),
        "lar-coarse-cluster" => cluster::run(&config),
        _ => return usage(),
    };
    println!("# env {}", outcome.env.to_json());
    for m in &outcome.mismatches {
        eprintln!("[perfbench] MISMATCH: {m}");
    }
    println!("{}", outcome.result_json());
    if outcome.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
