"""drgcayley benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Every operation runs in a fresh interpreter (perfbench/child.py): no CLI
user ever has a warm module-level scan cache, and a worker started with
the spawn method re-imports its parent's main module.  The runner itself
never imports drgcayley.  Run from the repository root; the program is
taken from ./src, nothing is installed.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (each {"value", "unit"}).  Lines before it print every metric
with its unit and sample count, and the machine record.  Metric names and
units are the ones BENCHMARK.json declares.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
from a traced run at jobs 1 next to an untraced one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import BENCHMARKED, CIRCULANTS, CLI, FANOUT, FANOUT_BASE, STRESS, describe  # noqa: E402

SETUP_REPEATS = 12  # half before the operations, half after them
PROBE_REPEATS = 3
RUN_LIMIT = 170.0  # one workload's run ends within 180 s, even when a child hangs
LAYER_SUM_FLOOR = 1e-3  # least tolerance of the self-check's layer-sum test


def declared_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class BenchError(RuntimeError):
    pass


def run_child(spec: dict, deadline: Optional[float]) -> tuple:
    """Run child.py with `spec` in a fresh interpreter; return (its JSON
    result, wall seconds from start to exit).  The child gets its own
    process group, so passing `deadline` (a perf_counter time) also stops
    the workers it spawned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=None if deadline is None else max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"run limit of {RUN_LIMIT:.0f}s passed in child {spec}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    elapsed = time.perf_counter() - t0
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}: {spec}")
    return json.loads(lines[-1]), elapsed


def op(workload: str, seed: int, deadline: Optional[float] = None, **extra) -> dict:
    res, _ = run_child({"mode": "op", "workload": workload, "seed": seed, **extra}, deadline)
    for err in [] if extra.get("corrupt") else res["errors"]:
        sys.stderr.write(err.rstrip() + "\n")
    return res


def setup_time(workload: str, seed: int, deadline: float) -> float:
    _, elapsed = run_child({"mode": "setup", "workload": workload, "seed": seed}, deadline)
    return elapsed


def tail_mean(values, share: float = 0.1) -> float:
    """Mean of the slowest `share` of the samples, at least one.  A single
    order statistic such as p90 moved by a third between runs on a 2-core
    machine: it falls on one of the 14 Schur-analysis graphs of 0.4 to
    2.6 s, each timed once."""
    xs = sorted(values, reverse=True)
    return statistics.fmean(xs[: max(1, math.ceil(len(xs) * share))])


# ---------------------------------------------------------------------------
# runs


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    """End-to-end metrics: whole operations until the next one would end
    past `seconds` (at least one).  The SETUP_REPEATS set-up probes are
    split between before the first operation and after the last, so that
    their median spans the run rather than its first seconds."""
    before = SETUP_REPEATS // 2
    setups = [setup_time(workload, seed, deadline) for _ in range(before)]
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(op(workload, seed, deadline))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(ops) > seconds:
            break
    setups += [setup_time(workload, seed, deadline) for _ in range(SETUP_REPEATS - before)]
    lat = [x for o in ops for x in o["latencies"]]
    samples = {
        "wall_s": [o["wall"] for o in ops],
        "cpu_s": [o["cpu"] for o in ops],
        "setup_s": setups,
        "peak_rss_mb": [o["peak_rss_mb"] for o in ops],
        "subsets_per_s": [o["subsets"] / o["wall"] for o in ops],
    }
    metrics = {k: (statistics.median(v), len(v)) for k, v in samples.items()}
    metrics["op_p50_ms"] = (1000 * statistics.median(lat), len(lat))
    metrics["op_tail10_ms"] = (1000 * tail_mean(lat), len(lat))
    return metrics, ops


def traced_run(workload: str, seed: int, deadline: float) -> tuple:
    """Per-layer metrics.  Spawned workers do not inherit the wrappers, so
    the traced operation always runs at jobs 1; for the fan-out workload
    that is its jobs-1 twin, and the fan-out numbers come from rusage of
    an untraced jobs-2 run and from the spawn probe."""
    base = FANOUT_BASE if workload == FANOUT else workload
    ops = []
    if workload == FANOUT:
        par = op(FANOUT, seed, deadline)
        ops.append(par)
    plain = op(base, seed, deadline)
    traced = op(base, seed, deadline, trace=True)
    ops += [plain, traced]
    for problem in traced["nesting_errors"]:
        sys.stderr.write(f"trace: {problem}\n")
    if traced["missing"]:
        sys.stderr.write(f"trace: not found, not traced: {traced['missing']}\n")
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall"]
    layers["trace.overhead_s"] = traced["wall"] - plain["wall"]
    layers["classify.fanout_spawn_s"] = 0.0
    layers["classify.fanout_efficiency"] = 0.0
    layers["classify.fanout_workers_cpu_s"] = 0.0
    if workload == FANOUT:
        j1 = [op("probe-z3x3-j1", seed, deadline) for _ in range(PROBE_REPEATS)]
        j2 = [op("probe-z3x3-j2", seed, deadline) for _ in range(PROBE_REPEATS)]
        ops += j1 + j2
        layers["classify.fanout_spawn_s"] = statistics.median(o["wall"] for o in j2) - statistics.median(
            o["wall"] for o in j1
        )
        layers["classify.fanout_efficiency"] = plain["wall"] / (CLI[FANOUT].jobs * par["wall"])
        layers["classify.fanout_workers_cpu_s"] = par["workers_cpu"]
    metrics = {k: (v, 1) for k, v in layers.items()}
    return metrics, ops


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT
    if trace:
        metrics, ops = traced_run(workload, seed, deadline)
    else:
        metrics, ops = timed_run(workload, seed, seconds, deadline)
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    sys.stdout.write(f"# workload {workload}: {describe(workload)}\n")
    sys.stdout.write(f"# machine {json.dumps(ops[0]['machine'], sort_keys=True)}\n")
    sys.stdout.write(f"# operations attempted {attempted}, failed {failed}\n")
    if trace:
        key, floor = STRESS[workload]
        share = metrics[key][0] / metrics["trace.wall_s"][0]
        verdict = "stressed" if share >= floor else "NOT stressed"
        sys.stdout.write(f"# {key} is {share:.1%} of the traced wall (floor {floor:.0%}): {verdict}\n")
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: measured only {sorted(set(metrics) - set(units))},"
            f" declared only {sorted(set(units) - set(metrics))}"
        )
    out = {}
    for name, unit in units.items():
        value, count = metrics[name]
        sys.stdout.write(f"{name:<32} {value:>16.6g} {unit:<6} n={count}\n")
        out[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


# ---------------------------------------------------------------------------
# harness self-check


def layer_self_sum(traced: dict) -> float:
    """Summed `<layer>.self_s` of a traced operation: the harness's own
    `bench` span is not a layer and is left out."""
    return sum(v for k, v in traced["layers"].items() if k.endswith(".self_s"))


def self_check(seed: int) -> int:
    """Tiny-input checks of the harness itself: spans nest, the layers'
    self times account for the traced wall of a CLI operation, the funnel
    counts match the report, and a wrong expected digest is counted as a
    failure."""
    problems = []
    small = list(CIRCULANTS[:8])
    plain = op("probe-z3x3-j1", seed)
    traced = op("probe-z3x3-j1", seed, trace=True)
    circ_plain = op("schur-circulants", seed, moduli=small)
    circ = op("schur-circulants", seed, moduli=small, trace=True)
    for label, p, t in (("Z_3xZ_3", plain, traced), ("circulants n<=8", circ_plain, circ)):
        problems += [f"{label}: {e}" for e in t["nesting_errors"]]
        if p["failed"] or t["failed"]:
            problems.append(f"{label}: {p['failed'] + t['failed']} operations failed")
        if t["missing"]:
            problems.append(f"{label}: untraced names {t['missing']}")
        sys.stdout.write(
            f"{label}: traced wall {t['wall']:.6f}s, layer self times {layer_self_sum(t):.6f}s,"
            f" harness {t['harness_s']:.6f}s, untraced wall {p['wall']:.6f}s\n"
        )
    # Everything a CLI operation does runs under cli.run, except hashing
    # its output; so the layers' self times must add up to the traced wall.
    tolerance = max(abs(traced["wall"] - plain["wall"]), LAYER_SUM_FLOOR)
    layer_sum = layer_self_sum(traced)
    if abs(traced["wall"] - layer_sum) > tolerance:
        problems.append(
            f"Z_3xZ_3: layer self times sum to {layer_sum:.6f}s, traced wall {traced['wall']:.6f}s,"
            f" tolerance {tolerance:.6f}s"
        )
    report = json.loads(traced["report"])
    layers = traced["layers"]
    for key in ("connected", "screened", "drg"):
        if layers[f"classify.{key}"] != report[key]:
            problems.append(f"funnel {key}: traced {layers[f'classify.{key}']} != report {report[key]}")
    if circ["layers"]["schur.verify_calls"] == 0:
        problems.append("no Schur ring verification was traced on the circulants")
    bad = op("probe-z3x3-j1", seed, corrupt=True)
    if bad["failed"] != 1:
        problems.append(f"a wrong expected digest counted {bad['failed']} failures, not 1")
    bad = op("schur-circulants", seed, moduli=small, corrupt=True)
    if bad["failed"] != bad["attempted"]:
        problems.append(f"wrong circulant digests: {bad['failed']} of {bad['attempted']} failed")
    for p in problems:
        sys.stdout.write(f"FAIL {p}\n")
    sys.stdout.write("self-check " + ("failed" if problems else "passed") + "\n")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=BENCHMARKED + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "drgcayley" / "__init__.py").is_file():
        sys.stderr.write(f"no drgcayley sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    try:
        if args.self_check:
            return self_check(args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        names = BENCHMARKED if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
        sys.stdout.write(json.dumps(summary) + "\n")
    else:
        sys.stdout.write(json.dumps(results[args.workload]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
