"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py '<json spec>'   (run.py builds the spec)

Spec keys: mode ("setup" or "op"), workload, seed, trace (bool),
corrupt (bool: expect a wrong digest, for the self-check) and, for the
Schur workload, moduli (a sub-range of the circulant sweep).

The last stdout line is one JSON object with the measurements.  The
program's own stdout is captured, hashed and compared with
perfbench/expected.json inside the timed interval.

`classify_group --jobs N` starts workers with the spawn method, which
re-imports this file in every worker as `__mp_main__`; everything that
runs lives under the `__main__` guard.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BAD_DIGEST = "0" * 64


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def usage() -> tuple:
    """(cpu of this process, cpu of waited-for descendants, peak RSS in MB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_kb = max(me.ru_maxrss, kids.ru_maxrss)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime, peak_kb / 1024.0


def machine() -> dict:
    """What the timings depend on, as found; nothing here is set."""
    import platform

    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    info["blas_threads"] = _openblas_threads(Path(numpy.__file__).parent)
    return info


def _openblas_threads(numpy_dir: Path):
    import ctypes

    for lib in sorted(numpy_dir.parent.glob("numpy.libs/*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# operations


def measured(body, tracer) -> dict:
    """Run `body` (the operation and its digest checks) once and measure it:
    wall and CPU time, CPU of the workers it waited for, and peak RSS."""
    cpu0, kids0, _ = usage()
    t0 = time.perf_counter()
    if tracer:
        tracer.span("bench.op", "bench", body)
    else:
        body()
    t1 = time.perf_counter()
    cpu1, kids1, peak = usage()
    return {
        "wall": t1 - t0,
        "cpu": cpu1 - cpu0 + kids1 - kids0,
        "workers_cpu": kids1 - kids0,
        "peak_rss_mb": peak,
    }


def cli_op(name, w, expected, corrupt, tracer) -> dict:
    from drgcayley import cli
    from workloads import subset_count

    argv = ["--format", "json", *w.argv]
    want = BAD_DIGEST if corrupt else expected.get(w.digest_key)
    out = io.StringIO()
    res = {"attempted": 1, "failed": 0, "errors": [], "digests": {w.digest_key: None}}

    def body():
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.run(argv)
        except Exception:
            res["failed"] = 1
            res["errors"].append(traceback.format_exc())
            return
        got = res["digests"][w.digest_key] = sha(out.getvalue())
        if code != 0 or got != want:
            res["failed"] = 1
            res["errors"].append(f"{name}: exit {code}, digest {got} != expected {want}")

    res.update(measured(body, tracer))
    res["latencies"] = [res["wall"]]
    res["subsets"] = subset_count(w.moduli)
    res["report"] = out.getvalue() if tracer else None
    return res


def analyse(group, rec) -> dict:
    """Full analysis of one distance-regular circulant, as a canonical payload."""
    from drgcayley import graphs, groups, schur

    graph = graphs.CayleyGraph(group, rec.connection)
    check = graphs.check_distance_regular(graph)
    if not check.ok or check.array != rec.array:
        raise RuntimeError("classification record failed its distance-regularity recheck")
    eig = graphs.spectrum(graph)
    ring = schur.distance_module(graph, check)
    if schur.dual_schur_ring(schur.dual_schur_ring(ring)).partition_key() != ring.partition_key():
        raise RuntimeError("dual of the dual ring differs from the distance module")
    payload = {"spectrum": eig.to_dict(), "krein": schur.krein_parameters(ring).to_dict()["q"]}
    duals = []
    if ring.d >= 1:
        for tau in schur.q_polynomial_orderings(ring):
            dg = schur.dual_graph(graph, tau, check)
            duals.append(
                {"ordering": list(tau), "connection": [groups.format_element(e) for e in sorted(dg.connection)]}
            )
    payload["duals"] = duals
    return payload


def schur_op(moduli, seed, expected, corrupt, tracer) -> dict:
    from drgcayley import classify, groups
    from workloads import expected_graphs, graph_key, graph_order, subset_count

    exp = expected["schur-circulants"]
    want_sweep = {str(n): exp["sweep"].get(str(n)) for n in moduli}
    want_graphs = expected_graphs(exp, moduli)
    if corrupt:
        want_sweep = dict.fromkeys(want_sweep, BAD_DIGEST)
        want_graphs = dict.fromkeys(want_graphs, BAD_DIGEST)
    order = graph_order(len(want_graphs), seed)
    errors, latencies = [], []
    sweep_got, graph_got = {}, {}
    res = {"errors": errors, "latencies": latencies, "digests": {"sweep": sweep_got, "graphs": graph_got}}

    def body():
        records = []
        for n in moduli:
            try:
                diff = classify.verify_circulant_theorem(n)
            except Exception:
                errors.append(traceback.format_exc())
                continue
            sweep_got[str(n)] = sha(diff.to_json()) if diff.empty else "diff not empty"
            for rec in diff.report.records:
                key = graph_key(n, [groups.format_element(e) for e in rec.connection])
                records.append((key, diff.report.group, rec))
        records.sort(key=lambda r: r[0])
        for i in order if len(order) == len(records) else graph_order(len(records), seed):
            key, group, rec = records[i]
            t = time.perf_counter()
            try:
                graph_got[key] = sha(json.dumps(analyse(group, rec), sort_keys=True))
            except Exception:
                errors.append(f"{key}: " + traceback.format_exc())
                graph_got[key] = None
            latencies.append(time.perf_counter() - t)
        bad = [n for n in want_sweep if sweep_got.get(n) != want_sweep[n]]
        keys = set(want_graphs) | set(graph_got)
        bad += sorted(k for k in keys if graph_got.get(k) is None or graph_got.get(k) != want_graphs.get(k))
        if bad:
            errors.append(f"{len(bad)} digests differ, first {bad[:3]}")
        res["attempted"] = len(want_sweep) + len(keys)
        res["failed"] = len(bad)

    res.update(measured(body, tracer))
    res["subsets"] = sum(subset_count((n,)) for n in moduli)
    res["report"] = None
    return res


def main(spec: dict) -> dict:
    from workloads import CliWorkload, expected_graphs, graph_order, lookup

    import drgcayley  # noqa: F401  (import cost is part of set-up)

    name = spec["workload"]
    w = lookup(name)
    if w is None:
        raise SystemExit(f"unknown workload {name!r}")
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    moduli = tuple(spec.get("moduli") or w.moduli)
    if spec["mode"] == "setup":
        if not isinstance(w, CliWorkload):
            graph_order(len(expected_graphs(expected["schur-circulants"], moduli)), spec["seed"])
        return {}

    info = machine()
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if isinstance(w, CliWorkload):
        res = cli_op(name, w, expected, spec.get("corrupt"), tracer)
    else:
        res = schur_op(moduli, spec["seed"], expected, spec.get("corrupt"), tracer)
    res["machine"] = info
    if tracer:
        from drgcayley import classify

        res["layers"] = tracer.layer_metrics(getattr(classify, "SCAN_CHUNK", None))
        res["nesting_errors"] = tracer.nesting_errors()
        res["harness_s"] = tracer.self_by_layer()["bench"]
        res["missing"] = tracer.missing
    return res


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
