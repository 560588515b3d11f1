"""The exact spectrum against the mpmath-bucket code it replaced (kept
here as a reference oracle, its values evaluated with no root table),
the per-ring memos of the Schur analysis, and the lazy mpmath import."""

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley import cyclotomic, graphs, schur
from drgcayley.algebra import character_values, distinct_rows
from drgcayley.classify import verify_circulant_theorem
from drgcayley.errors import InvariantViolation, PrecisionError, SpecError
from drgcayley.graphs import EIGENVALUE_GATE, CayleyGraph, Eigensystem, check_distance_regular, spectrum
from drgcayley.groups import make_group

from reference import CyclotomicInteger, numeric_direct, to_ring
from test_drg_check import _inverse_closed_sets
from test_graphs import cycle_graph, hypercube4, srg942

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_spectrum(graph: CayleyGraph, dps: int = 40) -> Eigensystem:
    """Exact eigenvalues chi_g(S) grouped by cyclotomic equality; the
    descending order is fixed numerically behind a separation gate."""
    import mpmath

    g = graph.group
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    for gi, key in enumerate(character_values(g, [graph.connection_indices()])[:, 0].tolist()):
        buckets.setdefault(tuple(key), []).append(gi)
    entries = []
    with mpmath.workdps(dps):
        for key, chars in buckets.items():
            val = CyclotomicInteger(g.exponent, key)
            if val != val.conjugate():
                raise InvariantViolation("eigenvalue of an inverse-closed set must be real")
            z = numeric_direct(val, dps)
            if abs(z.imag) > mpmath.mpf(10) ** (-dps // 2):
                raise InvariantViolation("real eigenvalue evaluated with a large imaginary part")
            entries.append((float(z.real), mpmath.mpf(z.real), val, tuple(sorted(chars))))
        entries.sort(key=lambda e: e[1], reverse=True)
        for (_, x1, v1, _), (_, x2, v2, _) in zip(entries, entries[1:]):
            if abs(x1 - x2) < EIGENVALUE_GATE:
                raise PrecisionError(
                    f"eigenvalues {v1!r} and {v2!r} separated by less than {EIGENVALUE_GATE}"
                )
    values = tuple(e[2] for e in entries)
    numerics = tuple(e[0] for e in entries)
    mults = tuple(len(e[3]) for e in entries)
    levels = tuple(e[3] for e in entries)
    reference_eigensystem_invariants(graph, values, mults)
    if graph.is_connected():
        if mults[0] != 1 or values[0] != graph.degree:
            raise InvariantViolation("top eigenvalue of a connected graph must be the degree, simple")
    neg = g.neg_table()
    for lev in levels:
        if {int(neg[i]) for i in lev} != set(lev):
            raise InvariantViolation("eigenvalue level sets must be inverse closed")
    return Eigensystem(g, values, numerics, mults, levels)


def reference_eigensystem_invariants(graph, values, mults) -> None:
    n = graph.group.order
    if sum(mults) != n:
        raise InvariantViolation("eigenvalue multiplicities must sum to the order")
    values = [to_ring(v) for v in values]
    tr = sum((m * v for m, v in zip(mults, values)), CyclotomicInteger.from_int(0))
    if tr != 0:
        raise InvariantViolation("eigenvalues must sum to zero (trace)")
    tr2 = sum((m * (v * v) for m, v in zip(mults, values)), CyclotomicInteger.from_int(0))
    if tr2 != graph.degree * n:
        raise InvariantViolation("sum of squared eigenvalues must equal k|G|")


def _same_spectrum(graph: CayleyGraph, dps: int = 40) -> None:
    try:
        want = reference_spectrum(graph, dps)
    except (SpecError, InvariantViolation) as exc:
        with pytest.raises(type(exc)):
            spectrum(graph, dps)
        return
    got = spectrum(graph, dps)
    assert got.group == want.group
    assert [(v.conductor, v.coeffs) for v in got.values] == [(v.conductor, v.coeffs) for v in want.values]
    assert [x.hex() for x in got.numerics] == [x.hex() for x in want.numerics]
    assert (got.multiplicities, got.level_sets) == (want.multiplicities, want.level_sets)
    assert got.to_dict() == want.to_dict()


@settings(max_examples=200, deadline=None)
@given(_inverse_closed_sets(), st.integers(20, 60))
def test_spectrum_matches_reference(graph, dps):
    _same_spectrum(graph, dps)


def test_spectrum_matches_reference_on_the_circulant_sweep():
    graphs_seen = [
        CayleyGraph(make_group([n]), rec.connection)
        for n in range(1, 34)
        for rec in verify_circulant_theorem(n).report.records
    ]
    assert len(graphs_seen) == 129
    assert sum(not all(v.is_rational_integer for v in spectrum(g).values) for g in graphs_seen) > 0
    for graph in graphs_seen:
        _same_spectrum(graph)


@pytest.mark.parametrize("graph", [cycle_graph(7), srg942(), hypercube4(), cycle_graph(211)], ids=repr)
def test_spectrum_through_the_object_dtype_fallback(monkeypatch, graph):
    want = reference_spectrum(graph)
    monkeypatch.setattr(cyclotomic, "_INT64_SAFE", 1)  # every exact product in Python integers
    assert character_values(graph.group, [graph.connection_indices()]).dtype == object
    got = spectrum(graph)
    assert got.values == want.values
    assert [x.hex() for x in got.numerics] == [x.hex() for x in want.numerics]
    assert (got.multiplicities, got.level_sets) == (want.multiplicities, want.level_sets)


def test_invariants_accept_the_true_spectrum_and_refuse_perturbed_ones():
    graph = cycle_graph(7)  # multiplicities 1, 2, 2, 2
    group = graph.group
    keys, label = distinct_rows(character_values(group, [graph.connection_indices()])[:, 0])
    mults = np.bincount(label)
    graphs._eigensystem_invariants(group, graph.degree, keys, mults)
    with pytest.raises(InvariantViolation, match="sum to zero"):
        bent = keys.copy()
        bent[1, 2] += 1
        graphs._eigensystem_invariants(group, graph.degree, bent, mults)
    # moving zeta^c from one eigenvalue to another of the same multiplicity
    # keeps the trace and changes the sum of squares
    for u, v in ((1, 2), (2, 3), (3, 1)):
        for col in range(keys.shape[1]):
            bent = keys.copy()
            bent[u, col] += 1
            bent[v, col] -= 1
            with pytest.raises(InvariantViolation, match="squared"):
                graphs._eigensystem_invariants(group, graph.degree, bent, mults)
    with pytest.raises(InvariantViolation, match="squared"):
        graphs._eigensystem_invariants(group, graph.degree + 1, keys, mults)


def test_invariants_agree_on_the_int64_and_object_products():
    graph = cycle_graph(211)
    group = graph.group
    keys, label = distinct_rows(character_values(group, [graph.connection_indices()])[:, 0])
    mults = np.bincount(label)
    bent = keys.copy()
    bent[1, 5] += 1
    bent[2, 5] -= 1  # equal multiplicities: the trace holds, the squares do not
    for dtype in (keys.dtype, object):
        graphs._eigensystem_invariants(group, graph.degree, keys.astype(dtype), mults)
        with pytest.raises(InvariantViolation, match="squared"):
            graphs._eigensystem_invariants(group, graph.degree, bent.astype(dtype), mults)


def test_cycle_near_the_order_bound_has_its_full_spectrum():
    got = spectrum(cycle_graph(1021))  # 2cos(2 pi k / 1021), k = 0..510
    assert len(got.values) == 511
    assert got.multiplicities == (1,) + (2,) * 510
    assert got.numerics[0] == 2.0


@pytest.mark.parametrize("moduli, connection", [((5,), (1,)), ((4,), (1, 2)), ((3, 3), (1, 3, 6))])
def test_a_set_that_is_not_inverse_closed_has_a_non_real_eigenvalue(moduli, connection):
    # CayleyGraph refuses such sets; the kernel must still notice
    with pytest.raises(InvariantViolation, match="must be real") as info:
        graphs._spectrum(make_group(moduli), connection, 40)
    assert info.value.witness["group"] == list(moduli)
    assert info.value.witness["connection"] == list(connection)
    assert isinstance(info.value.witness["value"], str)


@pytest.mark.parametrize("dps", [-3, 0, 19, graphs.MAX_DPS + 1, 10**6])
def test_spectrum_refuses_precision_outside_its_bounds(dps):
    with pytest.raises(SpecError) as info:
        spectrum(cycle_graph(5), dps)
    assert not isinstance(info.value, PrecisionError)


# ---------------------------------------------------------------------------
# Schur analysis memos


def _analyse(graph: CayleyGraph) -> None:
    """The per-graph Schur analysis of the benchmark's circulant workload."""
    check = check_distance_regular(graph)
    ring = schur.distance_module(graph, check)
    schur.dual_schur_ring(schur.dual_schur_ring(ring))
    schur.krein_parameters(ring)
    for tau in schur.q_polynomial_orderings(ring):
        schur.dual_graph(graph, tau, check)


@pytest.mark.parametrize("graph", [cycle_graph(7), srg942(), hypercube4()], ids=repr)
def test_one_graph_checks_its_distance_module_once(monkeypatch, graph):
    inside, verified, searched = [], [], []
    module, verify, search = schur.distance_module, schur.verify_schur_ring, schur._polynomial_orderings

    def counted_module(graph_, check=None):
        inside.append(graph_)
        try:
            return module(graph_, check)
        finally:
            inside.pop()

    def counted_verify(group, partition):
        if inside and inside[-1] == graph:
            verified.append(partition)
        return verify(group, partition)

    def counted_search(tensor):
        searched.append(tensor.tobytes())
        return search(tensor)

    monkeypatch.setattr(schur, "distance_module", counted_module)
    monkeypatch.setattr(schur, "verify_schur_ring", counted_verify)
    monkeypatch.setattr(schur, "_polynomial_orderings", counted_search)
    for cache in (schur._distance_module, schur._q_orderings, schur._dual_ring):
        cache.cache_clear()
    _analyse(graph)
    _analyse(graph)
    assert verified == [check_distance_regular(graph).classes]
    assert len(searched) == 1
    ring = module(graph)
    assert schur.q_polynomial_orderings(ring) == search(schur.dual_schur_ring(ring).array)


def test_classify_of_an_integral_group_never_imports_mpmath():
    script = (
        "import sys\n"
        "from drgcayley import cli\n"
        "assert cli.run(['--format', 'json', 'classify', '--group', '3,3,3']) == 0\n"
        "sys.exit(3 if 'mpmath' in sys.modules else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, stdout=subprocess.DEVNULL, timeout=120)
    assert done.returncode == 0
