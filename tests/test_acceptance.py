"""End-to-end acceptance: exhaustive catalogs over the target groups,
oracle agreement, spectral and design invariants, and deterministic
parallel output.  Everything here is exact; no tolerances."""

import time
from itertools import combinations

import numpy as np
import pytest

from drgcayley.algebra import character_table
from drgcayley.classify import (
    classify_group,
    nonexistence_report,
    verify_circulant_theorem,
    verify_main_theorem,
)
from drgcayley.constructions import order_p_subgroups
from drgcayley.cyclotomic import reduce_root_counts
from drgcayley.designs import direction_bound_check, directions
from drgcayley.errors import NotConnectedError, SpecError
from drgcayley.graphs import (
    CayleyGraph,
    check_distance_regular,
    spectrum,
)
from drgcayley.groups import make_group
from drgcayley.schur import (
    distance_module,
    dual_graph,
    dual_schur_ring,
    krein_parameters,
    q_polynomial_orderings,
)

from reference import (
    check_distance_regular_bruteforce,
    clique_number,
    delsarte_bound,
    inverse_closed_sets,
    monomial_pas_search,
    srg_array,
    td_construction,
    to_ring,
)

TARGET_MODULI = ((3, 3), (6, 3), (9, 3), (5, 5), (12, 3), (15, 3))
FAST_MODULI = TARGET_MODULI[:4]
SUBSET_COUNTS = {
    (3, 3): 16,
    (6, 3): 512,
    (9, 3): 8192,
    (5, 5): 4096,
    (12, 3): 1 << 18,
    (15, 3): 1 << 22,
}
DRG_COUNTS = {
    (3, 3): 11,
    (6, 3): 12,
    (9, 3): 9,
    (5, 5): 57,
    (12, 3): 17,
    (15, 3): 11,
}


@pytest.fixture(scope="module")
def target_runs():
    """Exhaustive catalog verification for the six target groups, timed."""
    runs = {}
    for mods in TARGET_MODULI:
        workers = 8 if mods == (15, 3) else 1
        start = time.perf_counter()
        diff = verify_main_theorem(make_group(list(mods)), workers=workers)
        runs[mods] = (diff, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def circulant_runs():
    return [verify_circulant_theorem(n) for n in range(1, 31)]


@pytest.fixture(scope="module")
def corpus(target_runs, circulant_runs):
    """One graph, check and distance module per Aut-class the exhaustive
    runs produced.  Invariants tested on a class representative hold for
    every member because group automorphisms relabel distance classes."""
    out = []
    reports = [diff.report for diff, _ in target_runs.values()]
    reports += [diff.report for diff in circulant_runs]
    for report in reports:
        for rec in report.records:
            graph = CayleyGraph(report.group, rec.connection)
            chk = check_distance_regular(graph)
            assert chk.ok and chk.array == rec.array
            out.append((graph, chk, distance_module(graph, chk)))
    return out


def test_classification_matches_expected_catalogs(target_runs):
    for mods, (diff, _) in target_runs.items():
        assert diff.empty, diff.to_dict()
        assert diff.report.total_sets == SUBSET_COUNTS[mods]
        assert diff.report.drg_count == DRG_COUNTS[mods]
        assert sum(rec.count for rec in diff.report.records) == DRG_COUNTS[mods]
    for mods in FAST_MODULI:
        assert target_runs[mods][1] < 1.0
    assert target_runs[(15, 3)][1] < 300.0


def test_circulant_catalogs_and_family_inventory(circulant_runs):
    allowed = {"complete", "cycle", "multipartite", "crown", "paley"}
    seen = set()
    for diff in circulant_runs:
        assert diff.empty, diff.to_dict()
        for rec in diff.report.records:
            assert rec.family.kind in allowed
            seen.add(rec.family.kind)
    assert seen == allowed


def test_imprimitive_parameter_gaps(target_runs):
    for mods, (diff, _) in target_runs.items():
        report = diff.report
        rep = nonexistence_report(report)
        assert rep.records_checked == len(report.records)
        summary = rep.to_dict()
        assert summary["ok"] is True
        assert summary["primitive_exempt"] == (mods[0] == mods[1])
        for rec in report.records:
            d = len(rec.array.b)
            assert not (rec.antipodal and not rec.bipartite and d == 3)
            assert not (rec.antipodal and rec.bipartite and d == 4)


def test_line_graph_parameters_and_spectra():
    for p in (3, 5, 7):
        lines = order_p_subgroups(p)
        for r in range(2, p + 1):
            built = td_construction(p, lines[:r])
            assert built.verify()
            chk = check_distance_regular(built.graph)
            assert chk.array == srg_array(r * (p - 1), p + r * r - 3 * r, r * r - r)
            eig = spectrum(built.graph)
            assert all(v.is_rational_integer for v in eig.values)
            assert [to_ring(v).as_int() for v in eig.values] == [r * (p - 1), p - r, -r]
            assert eig.multiplicities[0] == 1
            assert sum(eig.multiplicities) == p * p


def test_krein_parameters_are_nonnegative_integers(corpus):
    assert len(corpus) == 149
    for _, _, ring in corpus:
        q = krein_parameters(ring).array
        assert len(q) == ring.rank
        for plane in q:
            for row in plane:
                for x in row:
                    assert x == int(x) >= 0


def test_duality_involution_and_dual_graphs(corpus):
    checked = 0
    for graph, chk, ring in corpus:
        bidual = dual_schur_ring(dual_schur_ring(ring))
        assert bidual.partition_key() == ring.partition_key()
        if ring.d == 0:
            continue
        q = krein_parameters(ring).array
        for tau in q_polynomial_orderings(ring):
            dg = dual_graph(graph, tau, chk)
            dchk = check_distance_regular(dg)
            assert dchk.ok
            dring = distance_module(dg, dchk)
            rng = range(ring.d + 1)
            for i in rng:
                for j in rng:
                    for k in rng:
                        assert dring.array[i, j, k] == q[tau[i], tau[j], tau[k]]
            checked += 1
    assert checked >= sum(1 for _, _, ring in corpus if ring.d >= 1)


def test_algebraic_and_bruteforce_oracles_agree():
    total = 0
    for mods in FAST_MODULI:
        group = make_group(list(mods))
        for conn in inverse_closed_sets(group):
            graph = CayleyGraph(group, conn)
            try:
                alg = check_distance_regular(graph)
                ok, arr = alg.ok, alg.array
            except NotConnectedError:
                ok, arr = False, None
            bf = check_distance_regular_bruteforce(graph)
            assert bf.ok == ok
            if ok:
                assert bf.array == arr
            total += 1
    assert total == 16 + 512 + 8192 + 4096


def test_clique_number_meets_eigenvalue_bound():
    for p in (3, 5, 7):
        lines = order_p_subgroups(p)
        for r in range(2, p + 1):
            graph = td_construction(p, lines[:r]).graph
            assert clique_number(graph) == delsarte_bound(graph) == p


def test_direction_counts_meet_lower_bound():
    # the affine bound governs sets of at most p points, so the checker's
    # domain (and the exhaustive size range) caps at p when p < 6
    expected = {3: 120, 5: 68380}
    for p in (3, 5):
        pts = [(x, y) for x in range(p) for y in range(p)]
        checked = 0
        for size in range(2, min(6, p) + 1):
            for W in combinations(pts, size):
                status = direction_bound_check(p, W)
                assert status != "VIOLATION"
                ds = directions(p, W)
                if len(ds) == 1:
                    assert status == "collinear"
                else:
                    assert 2 * len(ds) >= size + 3
                checked += 1
        assert checked == expected[p]
    with pytest.raises(SpecError):
        direction_bound_check(3, [(0, 0), (0, 1), (1, 0), (1, 1)])
    rng = np.random.default_rng(11)
    pts7 = [(x, y) for x in range(7) for y in range(7)]
    for _ in range(2000):
        size = int(rng.integers(2, 7))
        chosen = [pts7[i] for i in rng.choice(len(pts7), size=size, replace=False)]
        assert direction_bound_check(7, chosen) != "VIOLATION"


def test_monomial_addition_set_search_is_empty():
    hits = []
    for v in range(2, 41):
        for n in range(1, 6):
            hits += monomial_pas_search(v, n, 50)
    assert hits == []


def _abelian_moduli(max_order):
    def partitions(n, cap):
        if n == 0:
            yield ()
            return
        for first in range(min(cap, n), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    out = []
    for order in range(1, max_order + 1):
        m, fac = order, {}
        d = 2
        while d * d <= m:
            while m % d == 0:
                fac[d] = fac.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            fac[m] = fac.get(m, 0) + 1
        choices = [()]
        for p, e in sorted(fac.items()):
            choices = [
                c + tuple(p ** a for a in part)
                for c in choices
                for part in partitions(e, e)
            ]
        out.extend(sorted(c) if c else [1] for c in choices)
    return out


def test_fourier_roundtrip_identity():
    mods_list = _abelian_moduli(50)
    assert len(mods_list) == 86
    # sum_g chi_g(x) chi_g(-y) = |G| [x = y] for all x, y is the inversion
    # formula a = (1/|G|) sum_g hat(a)(chi_g) chi_g(-.) for every integer
    # vector a, read exactly off the character table
    for mods in mods_list:
        group = make_group(list(mods))
        n, m = group.order, group.exponent
        table = character_table(group).astype(np.int64)
        diff = (table[:, :, None] - table[:, None, :]) % m  # [g, x, y]
        key = (np.arange(n * n).reshape(n, n) * m)[None] + diff
        counts = np.bincount(key.ravel(), minlength=n * n * m).reshape(n * n, m)
        gram = reduce_root_counts(counts, m)
        assert np.array_equal(gram[:, 0].reshape(n, n), n * np.eye(n, dtype=np.int64))
        assert not gram[:, 1:].any()


def test_reports_identical_across_worker_counts():
    outputs = []
    for workers in (1, 2, 8):
        report = classify_group(make_group([9, 3]), workers=workers)
        outputs.append(report.to_json())
    assert outputs[0] == outputs[1] == outputs[2]
