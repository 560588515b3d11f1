import itertools as it
import json
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drgcayley import cyclotomic, schur
from drgcayley.algebra import character_values
from drgcayley.cli import run
from drgcayley.cyclotomic import CyclotomicInteger, euler_phi
from drgcayley.errors import InvariantViolation, SpecError
from drgcayley.graphs import CayleyGraph, check_distance_regular, spectrum
from drgcayley.groups import AbelianGroup, make_group
from drgcayley.schur import (
    SchurCheck,
    SchurRing,
    distance_module,
    dual_graph,
    dual_schur_ring,
    krein_parameters,
    q_polynomial_orderings,
    verify_schur_ring,
)

from test_graphs import (
    cay,
    complete_graph,
    crown_graph_z6z3,
    cycle_graph,
    hypercube4,
    srg942,
    taylor_cover_z2_5,
)
from reference import atoms, krein_via_eigenmatrix


def tensor_parity_vanishing(tensor) -> bool:
    """True iff p_{ij}^k = 0 whenever i+j+k is odd (bipartite-type tensor)."""
    r = len(tensor)
    return all(
        tensor[i][j][k] == 0
        for i in range(r)
        for j in range(r)
        for k in range(r)
        if (i + j + k) % 2 == 1
    )


def tensor_top_vanishing(tensor) -> bool:
    """True iff p_{dd}^k = 0 for all k outside {0, d} (antipodal-type tensor)."""
    d = len(tensor) - 1
    return all(tensor[d][d][k] == 0 for k in range(1, d))


def trivial_partition(g):
    return [[g.index(g.zero)], [i for i in range(g.order) if i != g.index(g.zero)]]


def test_verify_trivial_ring():
    g = make_group([5])
    res = verify_schur_ring(g, trivial_partition(g))
    assert res.ok and res.ring.rank == 2
    assert res.ring.array[1, 1].tolist() == [4, 3]  # (G\0)^2 = 4e + 3(G\0)


def test_verify_rejects_non_inverse_closed():
    g = make_group([5])
    res = verify_schur_ring(g, [[0], [1], [2, 3, 4]])
    assert not res.ok


def test_verify_rejects_non_partition():
    g = make_group([5])
    assert not verify_schur_ring(g, [[0], [1, 1, 2, 3, 4]]).ok
    assert not verify_schur_ring(g, [[0, 1], [2, 3, 4]]).ok  # identity class too big
    assert verify_schur_ring(g, [[0], [1, 2, 3, 4], []]).witness == {"reason": "not a partition of the group"}


def test_atom_partition_is_schur_ring():
    for mods in ([12], [6, 3], [2, 2, 2]):
        g = make_group(mods)
        parts = [[g.index(e) for e in part] for part in atoms(g)]
        assert verify_schur_ring(g, parts).ok


def test_distance_module_srg():
    ring = distance_module(srg942())
    assert ring.rank == 3
    assert ring.is_primitive
    assert ring.is_symmetric
    # p_{11}^k encodes the intersection array: k=4, lambda=1, mu=2
    assert ring.array[1, 1].tolist() == [4, 1, 2]


def test_distance_module_c6_imprimitive():
    ring = distance_module(cycle_graph(6))
    assert ring.rank == 4
    assert not ring.is_primitive


def test_distance_module_requires_drg():
    with pytest.raises(SpecError):
        distance_module(cay([6], [[2], [3], [4]]))


def test_dual_of_trivial_is_trivial():
    g = make_group([5])
    ring = verify_schur_ring(g, trivial_partition(g)).ring
    dual = dual_schur_ring(ring)
    assert dual.partition_key() == ring.partition_key()


def test_pentagon_self_dual():
    ring = distance_module(cycle_graph(5))
    dual = dual_schur_ring(ring)
    assert dual.rank == 3
    assert dual.partition_key() == ring.partition_key()


def test_dual_classes_are_eigenvalue_level_sets():
    for gr in (srg942(), crown_graph_z6z3(), cycle_graph(6)):
        ring = distance_module(gr)
        dual = dual_schur_ring(ring)
        eig = spectrum(gr)
        level_key = frozenset(frozenset(lev) for lev in eig.level_sets)
        # every dual class is a union of level sets; for these fixtures they coincide
        assert dual.partition_key() == level_key


def test_bidual_partition_equality():
    fixtures = [
        complete_graph([3, 3]),
        cycle_graph(5),
        cycle_graph(6),
        srg942(),
        crown_graph_z6z3(),
        hypercube4(),
        taylor_cover_z2_5(),
    ]
    for gr in fixtures:
        ring = distance_module(gr)
        assert dual_schur_ring(dual_schur_ring(ring)).partition_key() == ring.partition_key()


def test_krein_trivial_ring_z9():
    g = make_group([9])
    ring = verify_schur_ring(g, trivial_partition(g)).ring
    q = krein_parameters(ring).array
    assert q[1][1][1] == 7  # |G| - 2


def test_krein_nonnegative_integer_everywhere():
    for gr in (srg942(), crown_graph_z6z3(), cycle_graph(6), hypercube4(), taylor_cover_z2_5()):
        q = krein_parameters(distance_module(gr)).array
        assert all(x >= 0 for plane in q for row in plane for x in row)


def test_krein_matches_eigenmatrix_route():
    for gr in (complete_graph([3, 3]), srg942(), cycle_graph(6), crown_graph_z6z3(), hypercube4()):
        ring = distance_module(gr)
        q = krein_parameters(ring).array
        q2 = krein_via_eigenmatrix(ring)
        r = ring.rank
        for i, j, k in it.product(range(r), repeat=3):
            assert q2[i][j][k] == q[i][j][k]


def test_eigenmatrix_route_rejects_irrational():
    with pytest.raises(SpecError):
        krein_via_eigenmatrix(distance_module(cycle_graph(5)))


def test_q_polynomial_orderings_exist():
    g = make_group([5])
    ring = verify_schur_ring(g, trivial_partition(g)).ring
    assert q_polynomial_orderings(ring) == [(0, 1)]
    assert len(q_polynomial_orderings(distance_module(srg942()))) >= 1
    assert len(q_polynomial_orderings(distance_module(crown_graph_z6z3()))) >= 1


def test_p_polynomial_identity_ordering():
    for gr in (srg942(), crown_graph_z6z3(), cycle_graph(6)):
        ring = distance_module(gr)
        taus = schur._polynomial_orderings(ring.array)
        assert tuple(range(ring.rank)) in taus
        # every P-polynomial ordering yields a distance-regular Cayley graph
        els = gr.group.elements()
        for tau in taus:
            conn = [els[i] for i in ring.classes[tau[1]]]
            res = check_distance_regular(CayleyGraph(gr.group, conn))
            assert res.ok
            for i in range(ring.rank):
                assert set(res.classes[i]) == set(ring.classes[tau[i]])


def test_bipartite_iff_q_antipodal():
    # tensor-level: bipartite primal <-> top-vanishing dual under a Q-ordering
    cases = [
        (cycle_graph(6), True),
        (crown_graph_z6z3(), True),
        (hypercube4(), True),
        (srg942(), False),
        (taylor_cover_z2_5(), False),
    ]
    for gr, bip in cases:
        ring = distance_module(gr)
        assert tensor_parity_vanishing(ring.array) == bip
        q = krein_parameters(ring).array
        relabeled = []
        for tau in q_polynomial_orderings(ring):
            rl = tuple(
                tuple(tuple(q[tau[i]][tau[j]][tau[k]] for k in range(ring.rank)) for j in range(ring.rank))
                for i in range(ring.rank)
            )
            relabeled.append(tensor_top_vanishing(rl))
        assert any(relabeled) == bip


def test_antipodal_iff_q_bipartite():
    cases = [
        (cycle_graph(6), True),
        (crown_graph_z6z3(), True),
        (taylor_cover_z2_5(), True),
        (srg942(), False),
    ]
    for gr, anti in cases:
        ring = distance_module(gr)
        assert tensor_top_vanishing(ring.array) == anti
        q = krein_parameters(ring).array
        relabeled = []
        for tau in q_polynomial_orderings(ring):
            rl = tuple(
                tuple(tuple(q[tau[i]][tau[j]][tau[k]] for k in range(ring.rank)) for j in range(ring.rank))
                for i in range(ring.rank)
            )
            relabeled.append(tensor_parity_vanishing(rl))
        assert any(relabeled) == anti


def test_dual_graph_k9():
    gr = complete_graph([3, 3])
    dg = dual_graph(gr, (0, 1))
    assert dg.degree == 8  # K_9 is self-dual


def test_dual_graph_pentagon():
    gr = cycle_graph(5)
    taus = q_polynomial_orderings(distance_module(gr))
    assert taus
    for tau in taus:
        dg = dual_graph(gr, tau)
        assert check_distance_regular(dg).array.b == (2, 1)


def test_dual_graph_every_ordering_in_corpus():
    for gr in (srg942(), cycle_graph(6), crown_graph_z6z3(), hypercube4(), taylor_cover_z2_5()):
        ring = distance_module(gr)
        for tau in q_polynomial_orderings(ring):
            dg = dual_graph(gr, tau)
            assert check_distance_regular(dg).ok


def test_dual_graph_rejects_bad_ordering():
    with pytest.raises(SpecError):
        dual_graph(srg942(), (0, 1))  # wrong length for a rank-3 module
    with pytest.raises(SpecError):
        dual_graph(srg942(), (1, 0, 2))  # does not fix the identity class


# ---------------------------------------------------------------------------
# the batched kernels against the per-triple and per-character loops they
# replaced, kept here verbatim as reference oracles


def _class_indicators(group: AbelianGroup, classes: Sequence[Sequence[int]]) -> np.ndarray:
    mat = np.zeros((len(classes), group.order), dtype=np.int64)
    for i, cls in enumerate(classes):
        mat[i, list(cls)] = 1
    return mat


def reference_verify_schur_ring(group: AbelianGroup, partition: Sequence[Sequence[int]]) -> SchurCheck:
    """Check the three Schur-ring axioms by exact convolution and return
    the ring with its full structure tensor, or the first violation."""
    classes = [tuple(sorted(int(x) for x in cls)) for cls in partition]
    flat = sorted(x for cls in classes for x in cls)
    if flat != list(range(group.order)):
        return SchurCheck(False, None, {"reason": "not a partition of the group"})
    zero = group.index(group.zero)
    zi = next(i for i, cls in enumerate(classes) if zero in cls)
    if classes[zi] != (zero,):
        return SchurCheck(False, None, {"reason": "the identity class is not {0}"})
    classes.insert(0, classes.pop(zi))
    neg = group.neg_table()
    class_sets = [set(cls) for cls in classes]
    for i, cls in enumerate(classes):
        image = {int(neg[x]) for x in cls}
        if image not in class_sets:
            return SchurCheck(False, None, {"reason": "inverse image of a class is not a class", "class": i})
    ind = _class_indicators(group, classes)
    sub = group.sub_table()
    r = len(classes)
    tensor: List[List[List[int]]] = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        conv_rows = ind[:, sub] @ ind[i]  # conv_rows[j] = N_i * N_j as a vector
        for j in range(r):
            prod = conv_rows[j]
            for k in range(r):
                vals = prod[list(classes[k])]
                lo, hi = int(vals.min()), int(vals.max())
                if lo != hi:
                    return SchurCheck(
                        False, None, {"i": i, "j": j, "k": k, "min": lo, "max": hi}
                    )
                tensor[i][j][k] = hi
    return SchurCheck(True, SchurRing(group, tuple(classes), np.array(tensor, dtype=np.int64)))


def reference_character_class_vector(
    group: AbelianGroup, classes: Sequence[Sequence[int]], gi: int
) -> Tuple[Tuple[int, ...], ...]:
    """Exact key: coefficients of chi_g(N_i) for every class i."""
    m = group.exponent
    g = group.elements()[gi]
    # e(g, x) = sum_i (m / n_i) g_i x_i mod m, written out here rather than
    # read from the character table that character_values uses
    weights = np.array([(m // n) * gc for gc, n in zip(g.coords, group.moduli)], dtype=np.int64)
    row = (group.coords_matrix() @ weights) % m
    key = []
    for cls in classes:
        counts = np.bincount(row[list(cls)], minlength=m)
        key.append(CyclotomicInteger.from_root_counts(m, counts).coeffs)
    return tuple(key)


# every abelian group of order <= 32 presented by its invariant factors,
# plus a few other presentations
SMALL_GROUPS = [(n,) for n in range(1, 33)] + [
    (2, 2), (4, 2), (2, 2, 2), (3, 3), (6, 2), (4, 4), (8, 2), (4, 2, 2), (2, 2, 2, 2),
    (6, 3), (5, 5), (3, 3, 3), (9, 3), (10, 2), (12, 2), (6, 2, 2), (14, 2), (16, 2),
    (8, 4), (8, 2, 2), (4, 4, 2), (4, 2, 2, 2), (2, 2, 2, 2, 2), (2, 3), (3, 2, 5),
]


def _orbits(group):
    neg = group.neg_table()
    return sorted({tuple(sorted({i, int(neg[i])})) for i in range(1, group.order)})


@st.composite
def _partitions(draw):
    """A group and a random partition of it whose identity class is {0}
    (rarely not), mostly inverse closed; most are not Schur rings."""
    group = make_group(draw(st.sampled_from(SMALL_GROUPS)))
    pieces = _orbits(group)
    if draw(st.sampled_from([False, False, False, True])):
        pieces = [(i,) for orb in pieces for i in orb]
    k = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=len(pieces), max_size=len(pieces)))
    classes = [[x for piece, lab in zip(pieces, labels) if lab == c for x in piece] for c in set(labels)]
    classes = [c for c in classes if c] + [[0]]
    if len(classes) > 1 and draw(st.sampled_from([False] * 9 + [True])):
        classes[0] = classes[0] + classes.pop()  # identity class too big
    order = draw(st.permutations(range(len(classes))))
    return group, [classes[i] for i in order]


@st.composite
def _connected_sets(draw):
    """A group and a random inverse-closed connection set generating it."""
    group = make_group(draw(st.sampled_from(SMALL_GROUPS[1:])))
    orbits = _orbits(group)
    chosen = draw(st.lists(st.sampled_from(orbits), min_size=1, unique=True))
    graph = CayleyGraph(group, [group.from_index(i) for orb in chosen for i in orb])
    assume(graph.is_connected())
    return graph


def _same_check(got: SchurCheck, want: SchurCheck) -> None:
    assert got.ok == want.ok
    assert got.witness == want.witness
    if want.ok:
        assert got.ring == want.ring
        assert got.ring.array.dtype == np.int64
        assert got.ring.array.tolist() == want.ring.array.tolist()


@settings(max_examples=150, deadline=None)
@given(_partitions())
def test_structure_constants_match_reference_on_random_partitions(case):
    group, partition = case
    _same_check(verify_schur_ring(group, partition), reference_verify_schur_ring(group, partition))


@settings(max_examples=80, deadline=None)
@given(_connected_sets())
def test_distance_partitions_match_reference_and_drg_test(graph):
    classes = check_distance_regular(graph).classes
    got = verify_schur_ring(graph.group, classes)
    _same_check(got, reference_verify_schur_ring(graph.group, classes))
    assert got.ok == check_distance_regular(graph).ok


@settings(max_examples=60, deadline=None)
@given(_partitions())
def test_character_values_match_reference(case):
    group, classes = case
    classes = classes + [classes[-1][:2], []]  # classes need not partition
    values = character_values(group, classes)
    assert values.shape == (group.order, len(classes), euler_phi(group.exponent))
    for gi in range(group.order):
        assert tuple(tuple(v) for v in values[gi].tolist()) == reference_character_class_vector(
            group, classes, gi
        )


@pytest.mark.parametrize("moduli", [(12,), (15,), (6, 3), (2, 2, 2)])
def test_character_values_object_fallback(monkeypatch, moduli):
    group = make_group(moduli)
    classes = [[0], list(range(1, group.order, 2)), list(range(2, group.order, 2))]
    exact = character_values(group, classes)
    monkeypatch.setattr(cyclotomic, "_INT64_SAFE", 1)
    wide = character_values(group, classes)
    assert wide.dtype == object
    assert wide.tolist() == exact.tolist()
    for gi in range(group.order):
        assert tuple(tuple(v) for v in wide[gi].tolist()) == reference_character_class_vector(group, classes, gi)


def _schur_rings():
    rings = []
    for moduli in SMALL_GROUPS[1:]:
        g = make_group(moduli)
        for parts in (trivial_partition(g), [[g.index(e) for e in part] for part in atoms(g)]):
            rings.append(verify_schur_ring(g, parts).ring)
    for graph in (srg942(), cycle_graph(7), crown_graph_z6z3(), hypercube4(), taylor_cover_z2_5()):
        rings.append(distance_module(graph))
    return rings


RINGS = _schur_rings()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS))
def test_bidual_from_a_cleared_cache(ring):
    schur._dual_ring.cache_clear()
    dual = dual_schur_ring(ring)
    assert dual_schur_ring(dual_schur_ring(ring)).partition_key() == ring.partition_key()
    assert dual_schur_ring(ring) == dual


def test_dual_ring_computed_once_per_ring():
    for graph in (srg942(), cycle_graph(6), hypercube4()):
        schur._dual_ring.cache_clear()
        check = check_distance_regular(graph)
        ring = distance_module(graph, check)
        dual = dual_schur_ring(ring)
        assert dual_schur_ring(dual).partition_key() == ring.partition_key()
        krein_parameters(ring)
        for tau in q_polynomial_orderings(ring):
            dual_graph(graph, tau, check)
        # one computation for the dual ring and one for the bidual ring,
        # which is keyed by the dual's classes (equal to the ring's when self-dual)
        assert schur._dual_ring.cache_info().misses == len({ring.classes, dual.classes})


def test_dual_rank_witness_reaches_cli_json(monkeypatch, capsys):
    def one_value(group, classes):
        return np.zeros((group.order, len(classes), 1), dtype=np.int64)

    schur._dual_ring.cache_clear()
    monkeypatch.setattr(schur, "character_values", one_value)
    code = run(["--format", "json", "dual", "--group", "5", "--set", "1;4"])
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert data["error"] == "invariant"
    assert data["witness"] == {"rank": 3, "dual_rank": 1}


# ---------------------------------------------------------------------------
# the rank guard, the Krein sign test and the symmetry test


def test_rank_guard_sits_between_c256_and_c512():
    assert 129**3 <= schur.MAX_TENSOR_ENTRIES < 257**3


def test_structure_constants_refuse_a_rank_above_the_bound(monkeypatch):
    group = make_group([5])
    classes = [[0], [1, 4], [2, 3]]
    monkeypatch.setattr(schur, "MAX_TENSOR_ENTRIES", 3**3)
    assert verify_schur_ring(group, classes).ok
    monkeypatch.setattr(schur, "MAX_TENSOR_ENTRIES", 3**3 - 1)
    with pytest.raises(SpecError, match="rank-3"):
        verify_schur_ring(group, classes)


def reference_negative_krein_witness(q) -> Optional[dict]:
    for i, plane in enumerate(q):
        for j, row in enumerate(plane):
            for k, x in enumerate(row):
                if x < 0:
                    return {"i": i, "j": j, "k": k, "q": x}
    return None


@pytest.mark.parametrize("cells", [[(2, 1, 0)], [(1, 2, 2), (2, 0, 1)], [(0, 0, 0), (2, 2, 2)]])
def test_negative_krein_parameter_reports_the_first_witness(monkeypatch, cells):
    ring = distance_module(srg942())
    dual = dual_schur_ring(ring)
    q = dual.array.copy()
    for value, cell in enumerate(cells, start=-len(cells)):
        q[cell] = value
    monkeypatch.setattr(schur, "dual_schur_ring", lambda _ring: SchurRing(dual.group, dual.classes, q))
    with pytest.raises(InvariantViolation) as err:
        krein_parameters(ring)
    assert err.value.witness == reference_negative_krein_witness(q.tolist())


def _reference_is_symmetric(ring: SchurRing) -> bool:
    neg = ring.group.neg_table()
    return all(set(int(neg[i]) for i in cls) == set(cls) for cls in ring.classes)


def test_is_symmetric_matches_the_per_class_test():
    # discrete rings {g} are symmetric iff every element is an involution
    discrete = [verify_schur_ring(g, [[i] for i in range(g.order)]).ring for g in map(make_group, SMALL_GROUPS)]
    assert any(ring.is_symmetric for ring in discrete) and not all(ring.is_symmetric for ring in discrete)
    for ring in RINGS + discrete:
        assert ring.is_symmetric == _reference_is_symmetric(ring)
