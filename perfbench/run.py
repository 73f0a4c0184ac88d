#!/usr/bin/env python3
"""Builds and runs the repository benchmark (the Rust package in this
directory) from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        One run. The last stdout line is the result JSON; a `# env` line
        before it records the environment.

    python3 perfbench/run.py --workload all --seed <n> [--seconds <s>]
        All three workloads from one seed: prints every end-to-end
        metric by name and unit (plus failed_frac), exits non-zero on
        any output mismatch.

    python3 perfbench/run.py --steady <N> --workload <name> [--seed <n>]
                             [--seconds <s>] [--trace <0|1>]
        Steadiness mode: N runs on seeds n, n+1, ...; prints each
        metric's median, quartiles and (q3 - q1) / median.

The build goes to $CARGO_TARGET_DIR (default `.bench_build`).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lar-squares-cold", "lar-grid-hot-tcp", "lar-coarse-cluster"]
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    done = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isabs(binary):
        binary = os.path.join(os.getcwd(), binary)
    return binary


def source_identity():
    """The git commit when there is one, and always a hash of the
    sources the benchmark builds, so a non-git checkout is identified
    too."""
    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.lock", "crates", "vendor", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for d, dirs, files in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py", ".md")):
                digest.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    digest.update(f.read())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def run_once(binary, workload, seed, seconds, trace, echo):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if echo:
        sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    env = next((json.loads(l[6:]) for l in lines if l.startswith("# env ")), {})
    return done.returncode, result, env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(binary, opts):
    per_metric = {}
    units = {}
    bad = 0
    for k in range(opts.steady):
        seed = opts.seed + k
        code, result, _ = run_once(binary, opts.workload, seed, opts.seconds,
                                   opts.trace, echo=False)
        if result is None or code != 0 or not result["correct"]:
            bad += 1
            print(f"# seed {seed}: run failed or incorrect (exit {code})")
            continue
        values = {m: v["value"] for m, v in result["metrics"].items()}
        print(f"# seed {seed}: " + json.dumps(values))
        for m, v in result["metrics"].items():
            per_metric.setdefault(m, []).append(v["value"])
            units[m] = v["unit"]
    print(f"{'metric':<32} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    summary = {}
    for m, values in per_metric.items():
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        summary[m] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                      "unit": units[m], "n": len(values)}
        print(f"{m:<32} {units[m]:<6} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f}")
    print(json.dumps({"workload": opts.workload, "trace": opts.trace,
                      "runs": opts.steady, "failed_runs": bad, "metrics": summary}))
    return 1 if bad else 0


def all_workloads(binary, opts):
    metrics = {}
    attempted = failed = 0
    correct = True
    print(f"{'workload':<20} {'metric':<16} {'value':>14} unit")
    for workload in WORKLOADS:
        code, result, env = run_once(binary, workload, opts.seed, opts.seconds,
                                     0, echo=False)
        if result is None:
            fail(f"{workload}: no result (exit {code})")
        correct &= code == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        rows = dict(result["metrics"])
        rows["failed_frac"] = {"value": result["failed"] / result["attempted"],
                               "unit": "ratio"}
        for m, v in rows.items():
            print(f"{workload:<20} {m:<16} {v['value']:>14.4f} {v['unit']}")
            metrics[f"{workload}/{m}"] = v
        print(f"# env {json.dumps(env)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    opts = parser.parse_args()
    if opts.steady and opts.workload == "all":
        fail("--steady takes one workload")
    binary = build()
    os.environ["PERFBENCH_COMMIT"] = source_identity()
    if opts.steady:
        return steady(binary, opts)
    if opts.workload == "all":
        return all_workloads(binary, opts)
    code, result, _ = run_once(binary, opts.workload, opts.seed, opts.seconds,
                               opts.trace, echo=True)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
