"""The exact distance-regularity check against the per-layer loop it
replaced (kept here verbatim as a reference oracle) and against the
per-vertex-pair brute force, plus its per-graph memo."""

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley import graphs
from drgcayley.errors import InvariantViolation, NotConnectedError
from drgcayley.graphs import (
    CayleyGraph,
    DRGCheck,
    IntersectionArray,
    check_distance_regular,
)
from drgcayley.groups import make_group

from reference import check_distance_regular_bruteforce

from test_graphs import complete_graph, crown_graph_z6z3, cycle_graph, hypercube4, srg942
from test_schur import SMALL_GROUPS, _orbits


def reference_distance_partition(graph: CayleyGraph) -> Tuple[Tuple[int, ...], ...]:
    """BFS layers from the identity inside the difference structure, as
    ascending index tuples."""
    g = graph.group
    n = g.order
    add = g.add_table()
    sconn = graph.connection_indices()
    seen = np.zeros(n, dtype=bool)
    zero = g.index(g.zero)
    seen[zero] = True
    classes: List[Tuple[int, ...]] = [(zero,)]
    frontier = np.array([zero])
    while True:
        nxt = np.unique(add[np.ix_(frontier, sconn)])
        nxt = nxt[~seen[nxt]]
        if nxt.size == 0:
            break
        seen[nxt] = True
        classes.append(tuple(int(x) for x in nxt))
        frontier = nxt
    if not seen.all():
        raise NotConnectedError("connection set does not generate the group")
    return tuple(classes)


def reference_check_distance_regular(graph: CayleyGraph) -> DRGCheck:
    """Exact test: for each layer i the convolution of the layer indicator
    with the connection indicator must be constant on the classes at
    distance i-1, i, i+1 and zero elsewhere."""
    classes = reference_distance_partition(graph)
    n = graph.group.order
    d = len(classes) - 1
    sub = graph.group.sub_table()
    s_vec = graph.indicator()
    inds = []
    for cls in classes:
        v = np.zeros(n, dtype=np.int64)
        v[list(cls)] = 1
        inds.append(v)
    b = [0] * d
    c = [0] * d
    for i in range(d + 1):
        prod = s_vec[sub] @ inds[i]  # (layer_i * S)[t] = |neighbors of t in S_i|
        for j in range(d + 1):
            vals = prod[list(classes[j])]
            lo, hi = int(vals.min()), int(vals.max())
            if lo != hi:
                return DRGCheck(False, None, classes, {"layer": i, "class": j, "min": lo, "max": hi})
            if abs(i - j) > 1 and hi != 0:
                return DRGCheck(False, None, classes, {"layer": i, "class": j, "nonzero": hi})
            if j == i + 1 and j <= d:
                c[j - 1] = hi  # c_{i+1}
            if j == i - 1:
                b[j] = hi  # b_{i-1}
    arr = IntersectionArray(tuple(b), tuple(c))
    sizes = arr.class_sizes()
    if sizes != tuple(len(cls) for cls in classes) or sum(sizes) != n:
        raise InvariantViolation("intersection array inconsistent with layer sizes")
    for i in range(d):
        if sizes[i] * arr.b[i] != sizes[i + 1] * arr.c[i]:
            raise InvariantViolation("k_i b_i != k_{i+1} c_{i+1}")
    return DRGCheck(True, arr, classes)


@st.composite
def _inverse_closed_sets(draw):
    """A group of order <= 32 and a random inverse-closed connection set,
    possibly empty or not generating the group."""
    group = make_group(draw(st.sampled_from(SMALL_GROUPS)))
    orbits = _orbits(group)
    chosen = draw(st.lists(st.sampled_from(orbits), unique=True)) if orbits else []
    return CayleyGraph(group, [group.from_index(i) for orb in chosen for i in orb])


def _agrees_with_references(graph: CayleyGraph) -> Optional[DRGCheck]:
    try:
        want = reference_check_distance_regular(graph)
    except NotConnectedError:
        with pytest.raises(NotConnectedError):
            check_distance_regular(graph)
        assert check_distance_regular_bruteforce(graph).witness == {"disconnected": True}
        return None
    got = check_distance_regular(graph)
    assert (got.ok, got.array, got.classes, got.witness) == (
        want.ok, want.array, want.classes, want.witness
    )
    brute = check_distance_regular_bruteforce(graph)
    assert (got.ok, got.array) == (brute.ok, brute.array)
    return got


@settings(max_examples=200, deadline=None)
@given(_inverse_closed_sets())
def test_check_matches_reference_loop_and_bruteforce(graph):
    _agrees_with_references(graph)


@pytest.mark.parametrize(
    "graph",
    [complete_graph([3, 3]), cycle_graph(2), cycle_graph(5), cycle_graph(6), srg942(),
     crown_graph_z6z3(), hypercube4(), CayleyGraph(make_group([]), [])],
    ids=repr,
)
def test_check_matches_references_on_drg_fixtures(graph):
    got = _agrees_with_references(graph)
    assert got.ok


@pytest.mark.parametrize(
    "graph",
    [cycle_graph(5), crown_graph_z6z3(), hypercube4(), CayleyGraph(make_group([]), []),
     # not distance-regular: Z_7 with {+-1, +-2} and Z_10 with {+-1, 5}
     CayleyGraph(make_group([7]), [make_group([7]).element([x]) for x in (1, 2, 5, 6)]),
     CayleyGraph(make_group([10]), [make_group([10]).element([x]) for x in (1, 5, 9)])],
    ids=repr,
)
def test_classes_are_the_bfs_layers_on_pass_and_fail(graph):
    check = check_distance_regular(graph)
    assert check.classes == reference_distance_partition(graph)
    assert check.ok == (check.array is not None)
    if check.ok:
        assert len(check.classes) - 1 == check.array.d


def test_memo_shares_one_result_between_equal_groups():
    graphs._check.cache_clear()
    first = check_distance_regular(srg942())
    again = check_distance_regular(srg942())  # a separately built, equal group
    assert again is first
    assert graphs._check.cache_info().hits == 1


def test_memo_recomputes_after_cache_clear():
    first = check_distance_regular(hypercube4())
    graphs._check.cache_clear()
    fresh = check_distance_regular(hypercube4())
    assert fresh is not first
    assert fresh == first
    assert graphs._check.cache_info().misses == 1
