"""The crown and transversal-design sets, the expected catalogs, and the
family constructions of tests/reference.py: every builder must certify
itself against its predicted intersection array."""

import time

import pytest

from drgcayley.constructions import (
    crown,
    crown_connection_sets,
    expected_catalog,
    expected_circulant_catalog,
    order_p_subgroups,
    td_line_graph,
)
from drgcayley.errors import SpecError
from drgcayley.graphs import IntersectionArray, check_distance_regular, spectrum
from drgcayley.groups import all_subgroups, generated_subgroup, make_group

from reference import (
    complete_graph,
    complete_multipartite,
    crown_construction,
    cycle,
    paley,
    srg_array,
    td_construction,
    td_line_graph_edges,
    to_ring,
)


def subgroup_of_order(group, k):
    subs = [h for h in all_subgroups(group) if h.order == k]
    assert subs, f"no subgroup of order {k}"
    return subs[0]


def test_complete_graph_verifies():
    c = complete_graph(make_group([6, 3]))
    assert c.verify()
    assert str(c.label) == "complete(n=18)"
    assert c.predicted == IntersectionArray((17,), (1,))


def test_complete_multipartite_k3x6():
    group = make_group([6, 3])
    c = complete_multipartite(group, subgroup_of_order(group, 6))
    assert c.verify()
    assert c.predicted == IntersectionArray((12, 5), (1, 12))
    assert c.label.to_dict() == {"family": "multipartite", "parameters": {"t": 3, "m": 6}}


def test_multipartite_rejects_improper_parts():
    group = make_group([6, 3])
    with pytest.raises(SpecError):
        complete_multipartite(group, subgroup_of_order(group, 1))
    with pytest.raises(SpecError):
        complete_multipartite(group, subgroup_of_order(group, 18))


def test_crown_z6z3():
    group = make_group([6, 3])
    c = crown_construction(group, subgroup_of_order(group, 9), group.element([3, 0]))
    assert c.verify()
    assert str(c.predicted) == "{8,7,1;1,7,8}"
    assert str(c.label) == "crown(m=9)"


def test_crown_rejections():
    group = make_group([6, 3])
    half = subgroup_of_order(group, 9)
    with pytest.raises(SpecError):  # not an involution
        crown(group, half, group.element([1, 0]))
    with pytest.raises(SpecError):  # zero
        crown(group, half, group.element([0, 0]))
    with pytest.raises(SpecError):  # wrong index
        crown(group, subgroup_of_order(group, 6), group.element([3, 0]))
    g8 = make_group([8])
    with pytest.raises(SpecError):  # involution inside the part
        crown(g8, subgroup_of_order(g8, 4), g8.element([4]))
    g4 = make_group([4])
    with pytest.raises(SpecError):  # too small
        crown(g4, subgroup_of_order(g4, 2), g4.element([2]))


def test_cycles():
    assert cycle(3).label.kind == "complete"
    assert cycle(4).label.kind == "multipartite"
    c5 = cycle(5)
    assert c5.verify() and str(c5.predicted) == "{2,1;1,1}"
    c6 = cycle(6)
    assert c6.verify() and str(c6.label) == "crown(m=3)"
    c7 = cycle(7)
    assert c7.verify() and c7.predicted == IntersectionArray((2, 1, 1), (1, 1, 1))
    c8 = cycle(8)
    assert c8.verify() and c8.predicted == IntersectionArray((2, 1, 1, 1), (1, 1, 1, 2))
    with pytest.raises(SpecError):
        cycle(2)


def test_td_line_graph_srg_9_4_1_2():
    lines = order_p_subgroups(3)
    assert len(lines) == 4
    c = td_construction(3, lines[:2])
    assert c.verify()
    assert c.predicted == srg_array(4, 1, 2)
    assert c.label.to_dict()["parameters"] == {"p": 3, "r": 2}


def test_td_line_graph_all_lines_is_complete():
    c = td_construction(3, order_p_subgroups(3))
    assert c.verify()
    assert str(c.label) == "complete(n=9)"


def test_td_line_graph_p5_r3():
    c = td_construction(5, order_p_subgroups(5)[:3])
    assert c.verify()
    assert c.predicted == srg_array(12, 5, 6)


def test_td_line_graph_rejections():
    lines = order_p_subgroups(3)
    with pytest.raises(SpecError):
        td_line_graph(3, lines[:1])
    with pytest.raises(SpecError):
        td_line_graph(3, [lines[0], lines[0]])
    with pytest.raises(SpecError):
        td_line_graph(4, lines[:2])
    with pytest.raises(SpecError):
        td_line_graph(5, lines[:2])  # parts live in the wrong group


def test_td_line_graph_edges_match():
    for p, r in ((3, 2), (3, 3), (5, 2)):
        lines = order_p_subgroups(p)[:r]
        graph = td_construction(p, lines).graph
        adj = graph.adjacency()
        edges = {
            frozenset((i, j))
            for i in range(graph.order)
            for j in range(i + 1, graph.order)
            if adj[i, j]
        }
        assert td_line_graph_edges(lines) == edges


def test_td_line_graph_spectrum():
    for p in (3, 5, 7):
        lines = order_p_subgroups(p)
        for r in range(2, p + 1):
            eig = spectrum(td_construction(p, lines[:r]).graph)
            assert {to_ring(v).as_int() for v in eig.values} == {r * (p - 1), p - r, -r}
            assert sum(eig.multiplicities) == p * p


def test_paley_graphs():
    c5 = paley(5)
    assert sorted(e.coords[0] for e in c5.graph.connection) == [1, 4]
    assert c5.verify() and str(c5.predicted) == "{2,1;1,1}"
    c13 = paley(13)
    assert c13.verify()
    assert c13.predicted == srg_array(6, 2, 3)
    assert str(c13.label) == "paley(n=13)"
    for bad in (7, 9, 4, 2):
        with pytest.raises(SpecError):
            paley(bad)


def test_hamming2_matches_axis_line_graph():
    # H(2,3), the 3x3 rook graph: (a,b) ~ (a',b') iff they agree in one coordinate
    group = make_group([3, 3])
    axes = [
        generated_subgroup(group, [group.element([1, 0])]),
        generated_subgroup(group, [group.element([0, 1])]),
    ]
    assert td_line_graph(3, axes) == {e for e in group.elements() if not e.is_zero and 0 in e.coords}
    rook = td_construction(3, axes)
    assert rook.verify() and rook.predicted == srg_array(4, 1, 2)


def test_crown_connection_sets():
    assert len(crown_connection_sets(make_group([6, 3]))) == 1
    assert crown_connection_sets(make_group([12, 3])) == []
    assert crown_connection_sets(make_group([9])) == []
    assert crown_connection_sets(make_group([4])) == []
    assert crown_connection_sets(make_group([8])) == []
    (s,) = crown_connection_sets(make_group([10]))
    assert sorted(e.coords[0] for e in s) == [1, 3, 7, 9]


CATALOG_SIZES = {
    (3, 3): 11,
    (6, 3): 12,
    (9, 3): 9,
    (5, 5): 57,
    (12, 3): 17,
    (15, 3): 11,
}


def test_expected_catalog_counts():
    for moduli, count in CATALOG_SIZES.items():
        assert len(expected_catalog(make_group(moduli))) == count, moduli


def test_expected_catalog_entries_are_distance_regular():
    from drgcayley.graphs import CayleyGraph

    for moduli in ((3, 3), (6, 3)):
        group = make_group(moduli)
        for entry in expected_catalog(group):
            assert check_distance_regular(CayleyGraph(group, entry.connection)).ok
            assert entry.label.kind != "none"
            d = entry.to_dict()
            assert set(d) == {"connection", "family", "parameters"}


def test_expected_catalog_rejections():
    with pytest.raises(SpecError):
        expected_catalog(make_group([9]))
    with pytest.raises(SpecError):
        expected_catalog(make_group([3, 2]))
    with pytest.raises(SpecError):
        expected_catalog(make_group([4, 3]))


@pytest.mark.parametrize("moduli", [(400, 5), (672, 3)])
def test_expected_catalog_refuses_past_the_orbit_bits_at_once(moduli):
    # 1,000 and 1,008 orbit bits: refused before the subgroup lattice
    group = make_group(moduli)
    start = time.perf_counter()
    with pytest.raises(SpecError, match="subset ids are int64"):
        expected_catalog(group)
    assert time.perf_counter() - start < 0.1


def test_expected_circulant_catalog_orbit_bit_boundary():
    # Z_127 has 63 {g,-g} orbits; Z_128 has 63 pairs and one involution
    assert kinds(expected_circulant_catalog(127)) == {"complete": 1, "cycle": 63}
    with pytest.raises(SpecError, match="128 has 64 > 63 orbit bits"):
        expected_circulant_catalog(128)


def kinds(entries):
    out = {}
    for e in entries:
        out[e.label.kind] = out.get(e.label.kind, 0) + 1
    return out


def test_expected_circulant_catalog_families():
    assert kinds(expected_circulant_catalog(13)) == {"complete": 1, "cycle": 6, "paley": 2}
    assert kinds(expected_circulant_catalog(10)) == {
        "complete": 1,
        "cycle": 2,
        "multipartite": 2,
        "crown": 1,
    }
    assert kinds(expected_circulant_catalog(9)) == {"complete": 1, "cycle": 3, "multipartite": 1}


def test_expected_circulant_catalog_dedups():
    entries = expected_circulant_catalog(5)
    assert len(entries) == 3  # Paley(5) coincides with a cycle set
    assert kinds(entries) == {"complete": 1, "cycle": 2}
